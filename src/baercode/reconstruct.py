"""Data reconstruction from k accessed nodes with test-group decoding.

An estimate recovers the z component blocks from kappa = k-2b shares by
product-matrix decoding.  Every block is evaluated at the same kappa node
points, so all z blocks of a subset are decoded side by side: one inverse
of the kappa x kappa Vandermonde Phi and three matrix products per subset.
With adversaries, the collector examines test-groups (subsets of the k
accessed nodes of size k-b) and accepts the first group whose estimates,
one per size-(k-2b) subset, all agree: with at most b corrupted nodes,
agreement certifies the genuine message.  A share whose length is not
alpha spoils every estimate it takes part in, like any other lie.

first_consistent is that scan; the tests also run it over
repair2.repair_estimate as the reference for scheme-2 repair.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from .encoder import DataMatrix, NodeShare, extract_message
from .errors import (
    DimensionMismatchError,
    NoConsistentGroupError,
    StructureViolationError,
)
from .galois import Field, Mat
from .params import Derived


class _Malformed:
    """Sentinel for estimates from corrupted inputs; unequal to everything."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return "MALFORMED"


MALFORMED = _Malformed()


def first_consistent(
    keys: Sequence[int], group_size: int, subset_size: int,
    estimate: Callable[[tuple[int, ...]], object], failures,
):
    """Common estimate of the first consistent test-group, or None.

    Groups are the size-`group_size` combinations of the sorted `keys`, in
    lexicographic order.  Every size-`subset_size` subset of a group is
    estimated at most once, by `estimate(subset)`; an estimate that raises
    one of `failures` counts as MALFORMED, which equals nothing.  A group is
    accepted when all of its estimates are equal, and left at its first
    estimate that is MALFORMED or differs from the first.
    """
    cache = {}

    def est(subset):
        if subset not in cache:
            try:
                cache[subset] = estimate(subset)
            except failures:
                cache[subset] = MALFORMED
        return cache[subset]

    for group in combinations(keys, group_size):
        subsets = combinations(group, subset_size)
        first = est(next(subsets))
        if first is not MALFORMED and all(est(sub) == first for sub in subsets):
            return first
    return None


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
        raise DimensionMismatchError(f"segments of {y.cols} symbols, not a multiple of lam={lam}")
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


def _estimate_blocks(
    shares: Sequence[NodeShare], code: Derived, field: Field
) -> tuple[Mat, ...]:
    """Reconstruction of all z blocks from kappa shares (no structure check).

    A share whose length is not alpha raises StructureViolationError.
    """
    p, lam = field.p, code.lam
    segs = []
    for sh in shares:
        if len(sh.x) != code.alpha:
            raise StructureViolationError(
                f"node {sh.index} share has {len(sh.x)} symbols, expected alpha={code.alpha}"
            )
        # x(i) = e^((i-1)*lam) * [1,e,..,e^(lam-1)] @ M_i; strip the prefix power.
        e = field.point(sh.index)
        step = pow(e, -lam, p)
        row, scale = [], 1
        for off in range(0, code.alpha, lam):
            row.extend(v * scale % p for v in sh.x[off : off + lam])
            scale = scale * step % p
        segs.append((e, row))
    full = pm_reconstruct_component(segs, field, lam, code.kappa).data
    return tuple(
        Mat(field, [row[off : off + lam] for row in full], cols=lam)
        for off in range(0, code.alpha, lam)
    )


def reconstruct_estimate(
    shares: Sequence[NodeShare], code: Derived, field: Field
) -> tuple[int, ...]:
    """Message estimate from exactly k-2b shares; corrupted inputs may raise
    StructureViolationError (treated by the test-group layer as non-matching)."""
    if len(shares) != code.kappa:
        raise StructureViolationError(
            f"estimate needs k-2b={code.kappa} shares, got {len(shares)}"
        )
    blocks = _estimate_blocks(shares, code, field)
    return extract_message(DataMatrix(blocks=blocks, lam=code.lam, kappa=code.kappa))


def testgroup_reconstruct(
    access: Sequence[NodeShare], code: Derived, field: Field
) -> tuple[int, ...]:
    """Decode the message from k accessed nodes, at most b of them corrupted.

    Test-groups are scanned in lexicographic node-index order; within a
    group, every size-(k-2b) subset yields an estimate of the full message
    matrix and estimates are compared entry-exact.
    """
    if len(access) != code.k:
        raise StructureViolationError(f"access set must have k={code.k} nodes")
    by_index = {s.index: s for s in access}
    if len(by_index) != code.k:
        raise StructureViolationError("access set has duplicate node indices")
    if not all(1 <= i <= code.n for i in by_index):
        raise StructureViolationError("access set references unknown nodes")

    # (blocks, message) per subset: the message is a function of the
    # blocks, so pairs compare exactly as the blocks do.
    def estimate(subset: tuple[int, ...]):
        blocks = _estimate_blocks([by_index[i] for i in subset], code, field)
        return blocks, extract_message(DataMatrix(blocks=blocks, lam=code.lam, kappa=code.kappa))

    found = first_consistent(sorted(by_index), code.k - code.b, code.kappa, estimate,
                             StructureViolationError)
    if found is None:
        raise NoConsistentGroupError(
            f"no consistent test-group among {code.k} accessed nodes; "
            f"more than b={code.b} nodes must be corrupted"
        )
    return found[1]
