"""One repair driver for every scheme, shared by the CLI and the simulator.

_scheme() alone turns a name of SCHEMES into code, after the refusals each
scheme owns: concat b > 0, scheme 1 an Omega truncation that loses rank,
scheme 2 a d with no schedule, and any other name.  transmit() reads each
helper's share as the adversary policy serves it, computes the flat vector
the helper sends (nothing from a share that is not alpha symbols of
range(p)), lets a `random` helper replace it, and counts the symbols moved.
Each scheme has one column function cols (repair1._theta_cols,
repair2._stream_cols, concat._cols): helper h sends x_h @ cols(h->f), one
lane product by repair1.project, and by the product-matrix symmetry that is
x_f @ cols(f->h).  So decode() runs one stacked test-group decoder,
repair1.repair_scan, for all three schemes; it raises NoConsistentGroupError
once the symbols have moved.  Wire records (format_records, parse_records)
alone frame scheme 2's payload in rounds.
"""

from __future__ import annotations

from itertools import accumulate, count
from typing import Mapping

from . import adversary as adv
from . import concat, repair1, repair2
from .encoder import NodeShare
from .errors import BaerCodeError, OmegaRankDeficientError
from .galois import Field
from .params import Derived, schedule_scheme2

SCHEMES = ("1", "2", "concat")


def _scheme(scheme: str, code: Derived, fld: Field, d: int):
    """(send, rebuild) of the named scheme at d: send(share, f, helpers) is
    the payload a helper sends, rebuild(payloads, f) the repaired x_f."""
    if scheme == "concat":
        concat.require_b0(code)
        return (lambda sh, f, helpers:
                    repair1.project(sh.x, concat._cols, code, fld, helpers, sh.index, f),
                lambda sent, f: concat.testgroup_repair(sent, f, d, code, fld))
    if scheme == "1":
        cfg = repair1.omega_build(code, fld)
        if cfg.deficient:
            raise OmegaRankDeficientError(
                f"Omega truncation rank-deficient over GF({fld.p}); pick a larger prime")
        return (lambda sh, f, helpers: repair1.helper_repair_symbols(sh, f, d, cfg),
                lambda sent, f: repair1.testgroup_repair(sent, f, d, cfg))
    if scheme == "2":
        plan = schedule_scheme2(code, d)
        return (lambda sh, f, helpers: repair2.helper_stream(sh, plan, f, fld),
                lambda sent, f: repair2.testgroup_repair2(sent, f, plan, fld))
    raise BaerCodeError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def check(scheme: str, code: Derived, fld: Field) -> None:
    """Refuse a configuration the scheme cannot repair in at some d in D."""
    for d in code.d_set:
        _scheme(scheme, code, fld, d)


def transmit(scheme: str, shares: Mapping[int, NodeShare], f: int, d: int,
             policy: adv.AdversaryPolicy, code: Derived, fld: Field) -> tuple[dict[int, tuple], int]:
    """({helper: payload sent}, symbols moved) for the helpers' live shares.
    It does not count them: the CLI and the simulator check for d first."""
    send, _ = _scheme(scheme, code, fld, d)
    helpers = tuple(sorted(shares))
    stored = {h: policy.effective_share(sh, code, fld) for h, sh in shares.items()}
    sent = {
        h: adv.corrupt_repair_symbols(
            policy, h,
            send(sh, f, helpers) if len(sh.x) == code.alpha and fld.holds(sh.x) else (), fld)
        for h, sh in stored.items()
    }
    return sent, sum(map(len, sent.values()))


def decode(scheme: str, sent: Mapping[int, tuple[int, ...]], f: int, d: int, code: Derived,
           fld: Field) -> NodeShare:
    """The repaired share of node f from the payloads transmit() returned."""
    _, rebuild = _scheme(scheme, code, fld, d)
    return NodeShare(index=f, x=tuple(rebuild(sent, f)))


# -- repair wire records ----------------------------------------------------
#
# A record is a header `<magic> d=<d> f=<f> h=<h>`, then one decimal symbol
# per line, LF separated.  A scheme-1 helper sends one BAERR1 record; a
# scheme-2 helper one BAERR2 record per round of schedule_scheme2(code, d),
# its header ending in j=<round>: the flat payload cut at the plan's round
# boundaries, the last record taking the rest.  Concat sends none.

RECORD_MAGIC = {"1": "BAERR1", "2": "BAERR2"}


def format_records(scheme: str, h: int, f: int, d: int, payload: tuple[int, ...],
                   code: Derived) -> str:
    """Helper h's payload for failed node f as wire records."""
    head = f"{RECORD_MAGIC[scheme]} d={d} f={f} h={h}"
    records = [(head, payload)]
    if scheme == "2":
        ends = list(accumulate(it.n_groups for it in schedule_scheme2(code, d).iterations))
        records = [(f"{head} j={j}", payload[a:b])
                   for j, a, b in zip(count(1), [0] + ends, ends[:-1] + [None])]
    return "".join(hd + "\n" + "\n".join(map(str, syms)) + "\n" for hd, syms in records)


def parse_records(text: str, code: Derived) -> tuple[str, int, int, int, tuple[int, ...]]:
    """(scheme, h, f, d, flat payload) of one helper's wire records, which must
    read exactly as format_records writes them, scheme 2's in the plan's rounds."""
    scheme = next((s for s, m in RECORD_MAGIC.items() if text.startswith(m + " ")), None)
    if scheme is None:
        raise BaerCodeError("not a repair record")
    try:
        parts = [part.splitlines() for part in text.split(RECORD_MAGIC[scheme] + " ")[1:]]
        d, f, h = (int(tok.partition("=")[2]) for tok in parts[0][0].split()[:3])
        payload = tuple(int(v) for _, *body in parts for v in body if v)
    except (IndexError, ValueError) as exc:
        raise BaerCodeError(f"malformed repair record: {exc}") from exc
    if format_records(scheme, h, f, d, payload, code) != text:
        raise BaerCodeError("malformed repair record")
    return scheme, h, f, d, payload
