"""One repair driver for every scheme, shared by the CLI and the simulator.

transmit() reads each helper's share as the adversary policy serves it,
computes what the helper sends (a scheme-1 vector, a scheme-2 round stream,
or for concat the share whose component scalars the decoder takes; nothing
from a share that is not alpha long), lets a `random` helper replace it,
and counts the symbols moved.  decode() turns those payloads into the
repaired share, or raises NoConsistentGroupError once the symbols have
moved.  Scheme 1 uses the caller's OmegaConfig, so its caches live as long
as the caller keeps it.
"""

from __future__ import annotations

from typing import Mapping

from . import adversary as adv
from . import concat, repair1, repair2
from .encoder import NodeShare
from .galois import Field
from .params import Derived, schedule_scheme2


def transmit(scheme: str, shares: Mapping[int, NodeShare], f: int, d: int,
             policy: adv.AdversaryPolicy, code: Derived, fld: Field,
             cfg: repair1.OmegaConfig | None = None) -> tuple[dict[int, object], int]:
    """({helper: payload sent}, symbols moved) for the helpers' live shares."""
    stored = {h: policy.effective_share(sh, code, fld) for h, sh in shares.items()}
    if scheme == "concat":
        # Per-component scalars; the assignment fixes who sends what.
        return stored, code.alpha
    if scheme == "1":
        send = lambda sh: repair1.helper_repair_symbols(sh, f, d, cfg)
        size = len
    else:
        plan = schedule_scheme2(code, d)
        send = lambda sh: repair2.helper_stream(sh, plan, f, fld)
        size = lambda stream: sum(map(len, stream))
    sent = {
        h: adv.corrupt_repair_symbols(policy, h, send(sh) if len(sh.x) == code.alpha else (), fld)
        for h, sh in stored.items()
    }
    return sent, sum(map(size, sent.values()))


def decode(scheme: str, sent: Mapping[int, object], f: int, d: int, code: Derived,
           fld: Field, cfg: repair1.OmegaConfig | None = None) -> NodeShare:
    """The repaired share of node f from the payloads transmit() returned."""
    if scheme == "concat":
        return concat.repair_b0(sent, f, sorted(sent), code, fld)
    if scheme == "1":
        x = repair1.testgroup_repair(sent, f, d, cfg)
    else:
        x = repair2.testgroup_repair2(sent, f, schedule_scheme2(code, d), fld)
    return NodeShare(index=f, e=fld.point(f), x=tuple(x))
