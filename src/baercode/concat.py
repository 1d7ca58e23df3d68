"""Plain concatenation scheme for b = 0: adaptive bandwidth at gamma(d) = alpha.

With no adversaries the code is alpha/d_min independent component codes
(lam = d_min, kappa = k), and a repair with d helpers splits the per-
component work through a bipartite assignment: each component is served by
exactly d_min helpers and each helper serves exactly alpha/d components,
so every helper ships alpha/d scalars and the total traffic is exactly
alpha.  For each component i it serves, in ascending order, helper h
sends the scalar

    x_h(i) . psi_f(i)  ( = psi_h(i) M_i psi_f(i)^T = x_f(i) . psi_h(i) )

So h's payload is x_f @ B_h, B_h holding one column psi_h(i), in block i's
rows, per component i that h serves, and testgroup_repair runs scheme 1's
stacked decoder (repair1.repair_scan) at b = 0, the d helpers forming the
only test-group.
This scheme is not error resilient; use scheme 1 or 2 when b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .encoder import NodeShare, coeff_segment
from .errors import BaerCodeError, NonIntegralDegreeError
from .galois import Field
from .params import Derived
from .repair1 import group_decoder, repair_scan


@dataclass(frozen=True)
class Assignment:
    """Bipartite component-to-helper assignment.

    neighbors[i] lists, per component vertex (1-based), its d_min helpers;
    every helper appears in exactly alpha/d of the lists.
    """

    n_components: int
    helpers: tuple[int, ...]
    left_degree: int
    right_degree: int
    neighbors: tuple[tuple[int, ...], ...]

    def served(self, h: int) -> tuple[int, ...]:
        """The components (1-based, ascending) helper h serves."""
        return tuple(i for i, nb in enumerate(self.neighbors, 1) if h in nb)

    def helper_load(self) -> dict[int, int]:
        return {u: len(self.served(u)) for u in self.helpers}


def require_b0(code: Derived) -> None:
    """Refuse parameters with b > 0, which concatenation cannot defend."""
    if code.b != 0:
        raise BaerCodeError("concat scheme requires b = 0 parameters")


def assign_bipartite(n_components: int, helpers: Sequence[int], d_min: int) -> Assignment:
    """Connect each component to the d_min least-loaded helpers (ties broken
    by ascending helper index); the result is left-regular with degree d_min
    and right-regular with degree n_components * d_min / len(helpers)."""
    helpers = tuple(sorted(helpers))
    d = len(helpers)
    if d < d_min:
        raise NonIntegralDegreeError(f"need at least d_min={d_min} helpers, got {d}")
    total = n_components * d_min
    if total % d != 0:
        raise NonIntegralDegreeError(
            f"{n_components} components x {d_min} cannot split evenly over {d} helpers"
        )
    degree = {u: 0 for u in helpers}
    neighbors = []
    for _ in range(n_components):
        chosen = sorted(helpers, key=lambda u: (degree[u], u))[:d_min]
        chosen = tuple(sorted(chosen))
        for u in chosen:
            degree[u] += 1
        neighbors.append(chosen)
    right = total // d
    assert all(deg == right for deg in degree.values()), "assignment not right-regular"
    return Assignment(
        n_components=n_components, helpers=helpers,
        left_degree=d_min, right_degree=right, neighbors=tuple(neighbors),
    )


def component_repair_symbol(
    share: NodeShare, f: int, comp: int, code: Derived, fld: Field
) -> int:
    """Scalar x_h(comp) . psi_f(comp) a helper sends for one component."""
    seg = share.segment(comp, code.lam)
    psi_f = coeff_segment(fld, f, comp, code.lam)
    return sum(a * b for a, b in zip(seg, psi_f)) % fld.p


@lru_cache(maxsize=4096)
def _group_decoder(code: Derived, fld: Field, helpers: tuple[int, ...]):
    """repair1.group_decoder() at b = 0 over the blocks B_h of one helper set."""
    lam, served = code.lam, assign_bipartite(code.z, helpers, code.lam).served
    blocks = []
    for h in helpers:
        cols = [[0] * code.alpha for _ in served(h)]
        for col, i in zip(cols, served(h)):
            col[(i - 1) * lam : i * lam] = coeff_segment(fld, h, i, lam)
        blocks.append(tuple(zip(*cols)))
    return group_decoder(blocks, 0, fld)


def testgroup_repair(payloads: Mapping[int, Sequence[int]], f: int, d: int,
                     code: Derived, fld: Field) -> tuple[int, ...]:
    """Recover x_f from d helpers' component scalars by repair1.repair_scan."""
    return repair_scan(payloads, f, d, code.beta_of(d), code, fld.p,
                       lambda group: _group_decoder(code, fld, group))
