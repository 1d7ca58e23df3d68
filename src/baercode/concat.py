"""Plain concatenation scheme for b = 0: adaptive bandwidth at gamma(d) = alpha.

With no adversaries the code is alpha/d_min independent component codes
(lam = d_min, kappa = k), and a repair with d helpers splits the per-
component work through a bipartite assignment: each component is served by
exactly d_min helpers and each helper serves exactly alpha/d components,
so every helper ships alpha/d scalars and the total traffic is exactly
alpha.  For each component i it serves, in ascending order, helper h
sends the scalar

    x_h(i) . psi_f(i)  ( = psi_h(i) M_i psi_f(i)^T = x_f(i) . psi_h(i) )

So h's payload is x_h @ _cols(h, f) = x_f @ _cols(h), and testgroup_repair
runs repair1.repair_scan at b = 0, the d helpers forming the only
test-group; _cols and that decoder are keyed on the helper set, since the
assignment depends on it.
This scheme is not error resilient; use scheme 1 or 2 when b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .encoder import coeff_segment
from .errors import BaerCodeError
from .galois import Field
from .params import Derived
from .repair1 import repair_scan


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
        raise BaerCodeError(f"need at least d_min={d_min} helpers, got {d}")
    total = n_components * d_min
    if total % d != 0:
        raise BaerCodeError(
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


@lru_cache(maxsize=4096)
def _cols(code: Derived, fld: Field, helpers: tuple[int, ...], h: int,
          node: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Columns of helper h's payload as a map of node's share (h's own by
    default): one column psi_node(i), in block i's rows, per component i
    that h serves in the sorted helper set's assignment."""
    lam, node = code.lam, node or h
    cols = []
    for i in assign_bipartite(code.z, helpers, lam).served(h):
        col = [0] * code.alpha
        col[(i - 1) * lam : i * lam] = coeff_segment(fld, node, i, lam)
        cols.append(tuple(col))
    return tuple(cols)


def testgroup_repair(payloads: Mapping[int, Sequence[int]], f: int, d: int,
                     code: Derived, fld: Field) -> tuple[int, ...]:
    """Recover x_f from d helpers' component scalars by repair1.repair_scan."""
    return repair_scan(payloads, f, d, code.beta_of(d), code, fld,
                       _cols, (code, fld, tuple(sorted(payloads))))
