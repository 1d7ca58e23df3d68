"""Plain concatenation scheme for b = 0: adaptive bandwidth at gamma(d) = alpha.

With no adversaries the code is alpha/d_min independent component codes
(lam = d_min, kappa = k), and a repair with d helpers splits the per-
component work through a bipartite assignment: each component is served by
exactly d_min helpers and each helper serves exactly alpha/d components,
so every helper ships alpha/d scalars and the total traffic is exactly
alpha.  Each assigned helper h sends the scalar

    x_h(i) . psi_f(i)  ( = psi_h(i) M_i psi_f(i)^T )

for component i, and d_min such scalars solve one small system for x_f(i).
This scheme is not error resilient; use scheme 1 or 2 when b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .encoder import NodeShare, coeff_segment
from .errors import BaerCodeError, NoConsistentGroupError, NonIntegralDegreeError
from .galois import Field, Mat
from .params import Derived


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

    def helper_load(self) -> dict[int, int]:
        load = {u: 0 for u in self.helpers}
        for nb in self.neighbors:
            for u in nb:
                load[u] += 1
        return load


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


def repair_b0(
    shares: Mapping[int, NodeShare],
    f: int,
    helpers: Sequence[int],
    code: Derived,
    fld: Field,
) -> NodeShare:
    """Exact repair of node f from the given helpers (b = 0 parameters only)."""
    if code.b != 0:
        raise BaerCodeError("concatenation repair requires b = 0 parameters")
    d = len(helpers)
    if d not in code.d_set:
        raise BaerCodeError(f"helper count {d} not in D={code.d_set}")
    if f in helpers or not 1 <= f <= code.n:
        raise BaerCodeError(f"invalid failed node {f}")
    if any(len(shares[h].x) != code.alpha for h in helpers):      # a lie; b = 0 absorbs none
        raise NoConsistentGroupError(f"a helper share is not alpha={code.alpha} symbols long")
    assignment = assign_bipartite(code.z, helpers, code.lam)
    x: list[int] = []
    for comp in range(1, code.z + 1):
        assigned = assignment.neighbors[comp - 1]
        rhs = [component_repair_symbol(shares[h], f, comp, code, fld) for h in assigned]
        # x_f(comp) solves  x_f(comp) . psi_h(comp) = psi_f(comp) M psi_h(comp)^T
        # over the lam assigned helpers (columns are scaled Vandermonde rows).
        coef = Mat(
            fld,
            [[v for v in coeff_segment(fld, h, comp, code.lam)] for h in assigned],
            cols=code.lam,
        ).transpose()
        x.extend(coef.solve_right(rhs))
    return NodeShare(index=f, e=fld.point(f), x=tuple(x))
