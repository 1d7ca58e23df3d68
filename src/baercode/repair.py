"""One repair driver for every scheme, shared by the CLI and the simulator.

Only this module turns a name of SCHEMES into code, looking each scheme's
functions up on their modules at call time (bench/spans.py wraps them there):
refusal() (concat at b > 0, any other name), search() (a prime search and its
line), sweep() (a field's certification as lines and a verdict), _scheme()
(send and rebuild at d, after refusal(), scheme 1's Omega truncation losing
rank, scheme 2's d with no schedule).  transmit() reads each helper's share as
the adversary policy serves it, computes the flat vector the helper sends
(nothing from a share that is not alpha symbols of range(p)), lets a `random`
helper replace it, and counts the symbols moved.  Each scheme has one column
function cols (repair1._theta_cols, repair2._stream_cols, concat._cols): helper
h sends x_h @ cols(h->f), one lane product by repair1.project, and by the
product-matrix symmetry that is x_f @ cols(f->h).  So decode() runs one stacked
test-group decoder, repair1.repair_scan, for all three schemes; it raises
NoConsistentGroupError once the symbols have moved.  Wire records
(format_records, wire_records, parse_records) alone frame scheme 2's rounds.
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


def refusal(scheme: str, code: Derived, strict: bool = False) -> str | None:
    """Why the scheme never serves code (strict raises it), or None; unknown names raise."""
    if scheme not in SCHEMES:
        raise BaerCodeError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    text = "concat scheme requires b = 0" if scheme == "concat" and code.b else None
    if text and strict:
        raise BaerCodeError(f"{text} parameters")
    return text


def search(scheme: str, code: Derived, start: int | None = None):
    """(repair1.FieldSearch or None, its report line): the smallest prime from start."""
    if text := refusal(scheme, code):
        return None, text
    if scheme == "concat":
        # only needs n distinct nonzero points: every prime >= n+1 serves
        found = repair1.search_field(code, lambda fld: False, lambda p: None, "usable", start)
        return found, f"GF({found.field.p}): {code.n} distinct nonzero evaluation points available"
    found = (repair1.find_field if scheme == "1" else repair2.find_field_scheme2)(code, start)
    return found, found.report.summary()


def sweep(scheme: str, code: Derived, fld: Field) -> tuple[list[str], bool]:
    """(report lines, verdict) of certifying the scheme over fld."""
    if text := refusal(scheme, code):
        return [text], False
    if scheme == "concat":
        return [f"GF({fld.p}): concat certified (b=0, alpha divisible by every d)"], True
    lines = []
    if scheme == "2":
        try:
            for d in code.d_set:
                plan = schedule_scheme2(code, d)
                lines.append(f"d={d}: xi={plan.xi} zeta={plan.zeta} schedule " + " ".join(
                    f"(tau={it.tau},mu={it.mu},sigma={it.sigma},groups={it.n_groups})"
                    for it in plan.iterations))
        except BaerCodeError as exc:
            return lines + [f"schedule validation failed: {exc}"], False
        lines.append(f"GF({fld.p}): schedules valid for all d in D")
    report = (repair1.verify_theta_all if scheme == "1" else repair2.verify_systems_all)(code, fld)
    return lines + [report.summary()], report.ok


def _scheme(scheme: str, code: Derived, fld: Field, d: int):
    """(send, rebuild) of the named scheme at d: send(share, f, helpers) is
    the payload a helper sends, rebuild(payloads, f) the repaired x_f."""
    refusal(scheme, code, strict=True)
    if scheme == "concat":
        return (lambda sh, f, helpers:
                    repair1.project(sh.x, concat._cols, code, fld, helpers, sh.index, f),
                lambda sent, f: repair1.repair_scan(sent, f, d, code, concat._cols,
                                                    (code, fld, tuple(sorted(sent)))))
    if scheme == "1":
        cfg = repair1.omega_build(code, fld)
        if cfg.deficient:
            raise OmegaRankDeficientError(
                f"Omega truncation rank-deficient over GF({fld.p}); pick a larger prime")
        return (lambda sh, f, helpers: repair1.helper_repair_symbols(sh, f, d, cfg),
                lambda sent, f: repair1.testgroup_repair(sent, f, d, cfg))
    plan = schedule_scheme2(code, d)
    return (lambda sh, f, helpers: repair2.helper_stream(sh, plan, f, fld),
            lambda sent, f: repair2.testgroup_repair2(sent, f, plan, fld))


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


def wire_records(scheme: str, sent: Mapping[int, tuple[int, ...]], f: int, d: int,
                 code: Derived) -> dict[int, str]:
    """{helper: its wire records} for the payloads transmit() returned; none for concat."""
    return {h: format_records(scheme, h, f, d, payload, code)
            for h, payload in sent.items()} if scheme in RECORD_MAGIC else {}


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
