"""Plain concatenation scheme for b = 0: adaptive bandwidth at gamma(d) = alpha.

With no adversaries the code is z = alpha/d_min independent component codes
(lam = d_min, kappa = k), and a repair with d helpers splits the per-
component work by a cyclic rotation: with the sorted helpers at positions
0..d-1, component i (1-based) is served by positions (i-1)*d_min, ...,
(i-1)*d_min + d_min - 1, taken mod d.  The rotation deals the positions
out cyclically, d_min at a time, so as d >= d_min and d divides alpha,
each component gets d_min distinct helpers and each helper serves exactly
alpha/d of them: the total traffic is exactly alpha.

The rotation is the least-loaded assignment, which gives each component in
turn the d_min least-loaded helpers, ties to the lowest index.  After i
components the deal has handed out t = i*d_min positions, so position q
serves floor(t/d) + [q < t mod d] components: the lighter helpers are
positions s = t mod d onward (all of them when s = 0).  The greedy takes
those in ascending order, then the heavier ones from position 0: positions
s, s+1, ... mod d, the rotation's next component.

For each component i it serves, in ascending order, helper h sends the
scalar

    x_h(i) . psi_f(i)  ( = psi_h(i) M_i psi_f(i)^T = x_f(i) . psi_h(i) )

So h's payload is x_h @ _cols(h, f) = x_f @ _cols(h), and the repair
driver (repair._scheme) runs repair1.repair_scan at b = 0, the d helpers
forming the only test-group; _cols and that decoder are keyed on the
helper set, since the assignment depends on it.
This scheme is not error resilient; use scheme 1 or 2 when b > 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .encoder import coeff_vector
from .galois import Field
from .params import Derived


def served(n_components: int, helpers: Sequence[int], d_min: int, h: int) -> tuple[int, ...]:
    """The components (1-based, ascending) that helper h, at position q of
    the sorted helpers, serves: the i with (q - (i-1)*d_min) mod d < d_min.
    The drivers accept only d in D, which holds d >= d_min and d | alpha."""
    d, q = len(helpers), sorted(helpers).index(h)
    return tuple(i for i in range(1, n_components + 1) if (q - (i - 1) * d_min) % d < d_min)


@lru_cache(maxsize=4096)
def _cols(code: Derived, fld: Field, helpers: tuple[int, ...], h: int,
          node: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Columns of helper h's payload as a map of node's share (h's own by
    default): one column psi_node(i), in block i's rows, per component i
    that h serves in the sorted helper set's rotation."""
    lam, psi = code.lam, coeff_vector(fld, node or h, code.alpha)
    return tuple(tuple(v if pos // lam == i - 1 else 0 for pos, v in enumerate(psi))
                 for i in served(code.z, helpers, lam, h))
