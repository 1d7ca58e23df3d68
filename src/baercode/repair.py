"""One repair driver for every scheme, shared by the CLI and the simulator.

transmit() reads each helper's share as the adversary policy serves it,
computes what the helper sends (a scheme-1 vector, a scheme-2 round stream
or concat's component scalars; nothing from a share that is not alpha
long), lets a `random` helper replace it, and counts the symbols moved.
Every honest payload is linear in the lost share, x_f @ B_h, so decode()
runs scheme 1's stacked test-group decoder (repair1.repair_scan) for all
three schemes, each caching its decoders per (params, field).  It raises
NoConsistentGroupError once the symbols have moved.
"""

from __future__ import annotations

from typing import Mapping

from . import adversary as adv
from . import concat, repair1, repair2
from .encoder import NodeShare
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
        served = concat.assign_bipartite(code.z, list(shares), code.lam).served
        send = lambda sh: tuple(concat.component_repair_symbol(sh, f, i, code, fld)
                                for i in served(sh.index))
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
