"""Data reconstruction from k accessed nodes with test-group decoding.

Node h stores x_h = psi_h @ M.  Block i of that share, with its prefix power
e^((i-1)*lam) stripped, is m_i @ B_h: m_i holds block i's message symbols
in the encoder's fill order, and B_h is the same f_block x lam matrix for
every block.  _node_block returns its columns in closed form from psi_h(1)
and encoder.fill_order, building no data matrix.  So reconstruction runs the
stacked test-group decoder of repair (repair1.testgroup_scan over
repair1.group_decoder, keyed on (params, field)), one decoder per test-group
of k-b nodes shared by all z blocks and eliminated once per translation
class (_node_law, see repair1): the first group whose z stacked chunks all
have a zero syndrome is accepted, and its left inverse returns the message.
That is the group the paper's scan accepts, the first one whose estimates
from every size-(k-2b) subset agree: an estimate passes the structure check
(a symmetric N) exactly when its subset's payload lies in the row space of
the subset's stacked blocks, and any kappa points form a Vandermonde of full
rank, so every group is usable, b = 0 included.  A share whose length is not
alpha, or that holds a symbol outside range(p), is a lie, like any other.

reconstruct_estimate is that per-subset estimate: a product-matrix decode
of all z blocks side by side from kappa shares (pm_reconstruct_component:
one inverse of the kappa x kappa Vandermonde Phi and three matrix
products).  The tests keep it, under the per-subset scan, as the reference
for testgroup_reconstruct.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .encoder import NodeShare, coeff_vector, extract_message, fill_order
from .errors import BaerCodeError, NoConsistentGroupError, StructureViolationError
from .galois import Field, Mat
from .params import Derived
from .repair1 import testgroup_scan


def pm_reconstruct_component(
    segments: Sequence[tuple[int, Sequence[int]]],
    field: Field,
    lam: int,
    kappa: int,
) -> Mat:
    """Recover z lam x lam blocks side by side from kappa pairs (e, y).

    y = [x(1) | ... | x(z)] holds z segments of length lam, each with its
    prefix power stripped, so x(i) = [1,e,..,e^(lam-1)] @ M_i; the result is
    the lam x (z*lam) matrix [M_1 | ... | M_z].  Split each coefficient row
    into its first kappa and last lam-kappa coordinates, Psi = [Phi | Delta].
    Then x(i) = [Phi@N_i + Delta@L_i^T | Phi@L_i], so L_i = Phi^-1 @ Y_right(i)
    and N_i = Phi^-1 @ (Y_left(i) - Delta@L_i^T).  Every block shares Phi, a
    kappa x kappa Vandermonde on distinct nonzero points, hence invertible:
    it is inverted once and each step is one product over all z blocks.
    """
    if len(segments) != kappa:
        raise StructureViolationError(f"need {kappa} segments, got {len(segments)}")
    y = Mat(field, [seg for _, seg in segments])
    if y.cols % lam:
        raise BaerCodeError(f"segments of {y.cols} symbols, not a multiple of lam={lam}")
    p = field.p
    z, m = y.cols // lam, lam - kappa
    offs = range(0, z * lam, lam)
    psi = Mat.vandermonde(field, [e for e, _ in segments], lam)
    phi_inv = Mat(field, [row[:kappa] for row in psi.data], cols=kappa).inv()
    delta = Mat(field, [row[kappa:] for row in psi.data], cols=m)
    y_left = [[v for o in offs for v in row[o : o + kappa]] for row in y.data]
    y_right = [[v for o in offs for v in row[o + kappa : o + lam]] for row in y.data]
    ell = (phi_inv @ Mat(field, y_right, cols=z * m)).data          # kappa x z(lam-kappa)
    # [L_1^T | ... | L_z^T]: row r holds column r of every L_i.
    ell_t = [[ell[c][i * m + r] for i in range(z) for c in range(kappa)] for r in range(m)]
    d_lt = (delta @ Mat(field, ell_t, cols=z * kappa)).data
    n_hat = (phi_inv @ Mat(
        field,
        [[(a - c) % p for a, c in zip(lrow, drow)] for lrow, drow in zip(y_left, d_lt)],
        cols=z * kappa,
    )).data                                                          # kappa x z*kappa
    # Assemble each [[N_i, L_i], [L_i^T, 0]]; N_i is embedded exactly as
    # solved, so a corrupted, asymmetric solution stays visible to the
    # structure check.
    zeros = [0] * m
    grid = [
        [
            v
            for i in range(z)
            for v in (*nrow[i * kappa : (i + 1) * kappa], *lrow[i * m : (i + 1) * m])
        ]
        for nrow, lrow in zip(n_hat, ell)
    ] + [
        [v for i in range(z) for v in (*trow[i * kappa : (i + 1) * kappa], *zeros)]
        for trow in ell_t
    ]
    return Mat(field, grid, cols=z * lam)


@lru_cache(maxsize=4096)
def _scales(code: Derived, field: Field, node: int) -> tuple[int, ...]:
    """Entry j < alpha is e^(-(j//lam)*lam), e = field.point(node): symbol j's stripping scale."""
    step = pow(field.point(node), -code.lam, field.p)
    return tuple(s for s in field.powers(step, code.z) for _ in range(code.lam))


def _stripped(share: NodeShare, code: Derived, field: Field) -> list[int]:
    """x(1) | ... | x(z) with each x(i) = e^((i-1)*lam) * [1,e,..,e^(lam-1)] @ M_i
    stripped of its prefix power; callers pass shares of alpha symbols."""
    p = field.p
    return [v * s % p for v, s in zip(share.x, _scales(code, field, share.index))]


def reconstruct_estimate(
    shares: Sequence[NodeShare], code: Derived, field: Field
) -> tuple[int, ...]:
    """Message estimate from exactly k-2b shares; corrupted inputs may raise
    StructureViolationError (a share whose length is not alpha always does)."""
    if len(shares) != code.kappa:
        raise StructureViolationError(
            f"estimate needs k-2b={code.kappa} shares, got {len(shares)}"
        )
    for sh in shares:
        if len(sh.x) != code.alpha:
            raise StructureViolationError(
                f"node {sh.index} share has {len(sh.x)} symbols, expected alpha={code.alpha}"
            )
    lam = code.lam
    segs = [(field.point(sh.index), _stripped(sh, code, field)) for sh in shares]
    full = pm_reconstruct_component(segs, field, lam, code.kappa).data
    return extract_message([Mat(field, [row[off : off + lam] for row in full], cols=lam)
                            for off in range(0, code.alpha, lam)], code)


@lru_cache(maxsize=4096)
def _node_block(code: Derived, field: Field, h: int) -> tuple[tuple[int, ...], ...]:
    """Columns of node h's f_block x lam block: entry r of column t is entry t
    of block 1 of h's share under the r-th unit message, at (a, c) and (c, a)
    of M_1: psi_h(1)[c] when t = a, psi_h(1)[a] when t = c, else 0."""
    psi = coeff_vector(field, h, code.lam)
    order = fill_order(code)
    return tuple(tuple(psi[c] if t == a else psi[a] if t == c else 0 for a, c in order)
                 for t in range(code.lam))


def _node_law(code: Derived, field: Field, s: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """_node_block's translation law (see repair1): R_s = diag(g^(s(a+c))) over
    the fill-order symbols (a, c), C_s = diag(g^(-s*t)) over the lam columns t."""
    up, down = (field.powers(pow(field.g, v, field.p), 2 * code.lam) for v in (s, -s))
    return tuple(up[a + c] for a, c in fill_order(code)), down[:code.lam]


_node_block.law = _node_law


def testgroup_reconstruct(
    access: Sequence[NodeShare], code: Derived, field: Field
) -> tuple[int, ...]:
    """Decode the message from k accessed nodes, at most b of them corrupted.

    Test-groups of k-b nodes are scanned in lexicographic node-index order
    by repair1.testgroup_scan, over the z lam-symbol chunks of each share.
    """
    if len(access) != code.k:
        raise StructureViolationError(f"access set must have k={code.k} nodes")
    by_index = {s.index: s for s in access}
    if len(by_index) != code.k:
        raise StructureViolationError("access set has duplicate node indices")
    if not all(1 <= i <= code.n for i in by_index):
        raise StructureViolationError("access set references unknown nodes")
    payloads = {i: _stripped(sh, code, field) if len(sh.x) == code.alpha and field.holds(sh.x)
                else () for i, sh in by_index.items()}
    found = testgroup_scan(payloads, code.z, code.b, _node_block, (code, field))
    if found is None:
        raise NoConsistentGroupError(
            f"no consistent test-group among {code.k} accessed nodes; "
            f"more than b={code.b} nodes must be corrupted"
        )
    return found
