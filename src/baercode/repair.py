"""One repair driver for every scheme, shared by the CLI and the simulator.

transmit() reads each helper's share as the adversary policy serves it,
computes what the helper sends (a scheme-1 vector, a scheme-2 round stream
or concat's component scalars; nothing from a share that is not alpha
long), lets a `random` helper replace it, and counts the symbols moved.
Each scheme has one column function cols (repair1._theta_cols,
repair2._stream_cols, concat._cols): helper h sends x_h @ cols(h->f), and
by the symmetry of the product-matrix code that is x_f @ cols(f->h).  So
decode() runs scheme 1's stacked test-group decoder (repair1.repair_scan)
for all three schemes, through the one decoder cache repair1.group_decoder.
It raises NoConsistentGroupError once the symbols have moved.
format_records and parse_records carry a helper's payload as wire records.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping

from . import adversary as adv
from . import concat, repair1, repair2
from .encoder import NodeShare
from .errors import BaerCodeError
from .galois import Field
from .params import Derived, schedule_scheme2


def check(scheme: str, code: Derived, fld: Field) -> None:
    """Refuse a configuration the scheme cannot repair in: concat needs b = 0,
    scheme 1 a full-rank Omega, scheme 2 a schedule for every d in D."""
    if scheme == "concat":
        concat.require_b0(code)
    elif scheme == "1":
        repair1.omega_build(code, fld)
    else:
        for d in code.d_set:
            schedule_scheme2(code, d)


def transmit(scheme: str, shares: Mapping[int, NodeShare], f: int, d: int,
             policy: adv.AdversaryPolicy, code: Derived, fld: Field) -> tuple[dict[int, object], int]:
    """({helper: payload sent}, symbols moved) for the helpers' live shares."""
    size = len
    if scheme == "concat":
        concat.require_b0(code)
        helpers = tuple(sorted(shares))
        send = lambda sh: tuple(sum(map(mul, sh.x, col)) % fld.p
                                for col in concat._cols(code, fld, helpers, sh.index, f))
    elif scheme == "1":
        cfg = repair1.omega_build(code, fld)
        send = lambda sh: repair1.helper_repair_symbols(sh, f, d, cfg)
    else:
        plan = schedule_scheme2(code, d)
        send = lambda sh: repair2.helper_stream(sh, plan, f, fld)
        size = lambda stream: sum(map(len, stream))
    stored = {h: policy.effective_share(sh, code, fld) for h, sh in shares.items()}
    sent = {
        h: adv.corrupt_repair_symbols(policy, h, send(sh) if len(sh.x) == code.alpha else (), fld)
        for h, sh in stored.items()
    }
    return sent, sum(map(size, sent.values()))


def decode(scheme: str, sent: Mapping[int, object], f: int, d: int, code: Derived,
           fld: Field) -> NodeShare:
    """The repaired share of node f from the payloads transmit() returned."""
    if scheme == "concat":
        x = concat.testgroup_repair(sent, f, d, code, fld)
    elif scheme == "1":
        x = repair1.testgroup_repair(sent, f, d, repair1.omega_build(code, fld))
    else:
        x = repair2.testgroup_repair2(sent, f, schedule_scheme2(code, d), fld)
    return NodeShare(index=f, e=fld.point(f), x=tuple(x))


# -- repair wire records ----------------------------------------------------
#
# A record is a header `<magic> d=<d> f=<f> h=<h>`, then one decimal symbol
# per line, LF separated.  A scheme-1 helper sends one BAERR1 record; a
# scheme-2 helper one BAERR2 record per round, its header ending in j=<round>
# (rounds are self-delimited by the shared schedule).  Concat sends none.

RECORD_MAGIC = {"1": "BAERR1", "2": "BAERR2"}


def format_records(scheme: str, h: int, f: int, d: int, payload) -> str:
    """Helper h's payload for failed node f as wire records."""
    head = f"{RECORD_MAGIC[scheme]} d={d} f={f} h={h}"
    records = [(head, payload)] if scheme == "1" else [
        (f"{head} j={j}", rnd) for j, rnd in enumerate(payload, 1)]
    return "".join(hd + "\n" + "\n".join(map(str, syms)) + "\n" for hd, syms in records)


def parse_records(text: str) -> tuple[str, int, int, int, tuple]:
    """(scheme, h, f, d, payload) of one helper's wire records, which must
    read exactly as format_records writes them."""
    scheme = next((s for s, m in RECORD_MAGIC.items() if text.startswith(m + " ")), None)
    if scheme is None:
        raise BaerCodeError("not a repair record")
    try:
        parts = [part.splitlines() for part in text.split(RECORD_MAGIC[scheme] + " ")[1:]]
        d, f, h = (int(tok.partition("=")[2]) for tok in parts[0][0].split()[:3])
        rounds = tuple(tuple(int(v) for v in body if v) for _, *body in parts)
    except (IndexError, ValueError) as exc:
        raise BaerCodeError(f"malformed repair record: {exc}") from exc
    payload = rounds[0] if scheme == "1" else rounds
    if format_records(scheme, h, f, d, payload) != text:
        raise BaerCodeError("malformed repair record")
    return scheme, h, f, d, payload
