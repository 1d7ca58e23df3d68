"""Scheme 2's helper arithmetic in the paper's form, the tests' oracle.

The library sends x_h @ repair2._stream_cols(h, f), one closed-form matrix
per (helper, failed node).  The functions below compute the same symbols
as the paper states them, segment by segment: each round, a helper sends
one inner product per group, projecting its unmerged segments onto
phi_f(i) and overlap-adding the group's last two segments through `merge`
in a merged round.
"""

from typing import Sequence

from baercode.galois import Field


def merge(fld: Field, m: int, eps: int, e: int, v: Sequence[int], u: Sequence[int]) -> tuple[int, ...]:
    """Overlap-add of two xi-length segments into an m-length vector:
    [v, 0..0] + e^(m - eps*xi) [0..0, u].

    Requires xi <= m < 2*xi and eps >= 2 (eps is j-i+1 for merged segment
    indices i < j); the scale usually has a negative exponent, so e must be
    nonzero.
    """
    xi = len(v)
    assert len(u) == xi and xi <= m < 2 * xi and eps >= 2, (m, eps, len(v), len(u))
    p = fld.p
    scale = fld.pow(e, m - eps * xi)
    out = [x % p for x in v] + [0] * (m - xi)
    off = m - xi
    for t, val in enumerate(u):
        out[off + t] = (out[off + t] + scale * val) % p
    return tuple(out)


def _dot_from(fld: Field, vec: Sequence[int], e: int, start: int) -> int:
    """vec . [e^start, e^(start+1), ...]."""
    p = fld.p
    return sum(v * pow(e, start + t, p) for t, v in enumerate(vec)) % p


def round_symbols(share, plan, j: int, f: int, fld: Field) -> tuple[int, ...]:
    """Helper `share`'s symbols for iteration j (1-based), one per group."""
    it = plan.iterations[j - 1]
    xi, p = plan.xi, fld.p
    e_h, e_f = fld.point(share.index), fld.point(f)
    seg = lambda i: share.x[(i - 1) * xi : i * xi]
    out = []
    for group in it.groups:
        plain = group[:-2] if it.sigma > 0 else group
        total = sum(_dot_from(fld, seg(i), e_f, (i - 1) * xi) for i in plain)
        if it.sigma > 0:
            a, c = group[-2:]
            merged = merge(fld, it.m, c - a + 1, e_h, seg(a), seg(c))
            total += _dot_from(fld, merged, e_f, (a - 1) * xi)
        out.append(total % p)
    return tuple(out)


def reference_stream(share, plan, f: int, fld: Field) -> tuple[tuple[int, ...], ...]:
    """All rounds of one helper's transmission to failed node f."""
    return tuple(round_symbols(share, plan, j, f, fld)
                 for j in range(1, len(plan.iterations) + 1))
