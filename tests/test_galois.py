import random
import re
from itertools import combinations
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from baercode.errors import BaerCodeError, SingularMatrixError
from baercode.galois import (Field, Mat, _lane, _prime_factors, extend_basis, is_prime,
                             lane_product, pack_columns)

from reference_scan import identity, transpose


def brute_force_order(x, p):
    v, order = x % p, 1
    while v != 1:
        v = v * x % p
        order += 1
    return order


def test_generator_is_smallest_full_order():
    # independently: smallest c in 2..p-1 with multiplicative order p-1
    for p in (7, 13, 101):
        fld = Field(p)
        expected = next(c for c in range(2, p) if brute_force_order(c, p) == p - 1)
        assert fld.g == expected
        assert brute_force_order(fld.g, p) == p - 1


def test_known_generators():
    assert Field(7).g == 3
    assert Field(13).g == 2


def trial_division_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return tuple(out + [n] if n > 1 else out)


def test_prime_factors_match_trial_division():
    rng = random.Random(28)
    big = (1009, 4999, 65537)                  # above the trial-division bound
    cases = [*range(1, 3000), *(rng.randrange(1 << 28) for _ in range(100)),
             *(a * b for a in big for b in big), 1009 ** 3, 8 * 1009 ** 2 * 4999]
    for n in cases:
        assert _prime_factors(n) == trial_division_factors(n), n


@pytest.mark.parametrize("p, factors", [
    (6917529027641083883, (2, 3458764513820541941)),    # 63-bit safe prime 2q+1
    (1297038953983218263, (2, 805306457, 805307683)),   # 61 bits, 2*q1*q2 + 1
])
def test_generator_of_a_large_prime_has_full_order(p, factors):
    """p-1 with huge prime factors: trial division up to its square root
    would take minutes, and g must still be the smallest primitive root."""
    assert all(map(is_prime, (p, *factors)))
    rest = p - 1
    for q in factors:
        while rest % q == 0:
            rest //= q
    assert rest == 1                           # the factor set is complete
    assert _prime_factors(p - 1) == factors
    g = Field(p).g
    assert all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    assert all(any(pow(c, (p - 1) // q, p) == 1 for q in factors) for c in range(2, g))


def test_rejects_non_primes_and_tiny_moduli():
    for bad in (2, 1, 0, -5, 4, 9, 15, 2**16):
        with pytest.raises(BaerCodeError,
                           match=re.escape(f"modulus must be a prime >= 3, got {bad!r}")):
            Field(bad)
    with pytest.raises(BaerCodeError, match=re.escape("modulus must be a prime >= 3, got '7'")):
        Field("7")


def test_vandermonde_values():
    f7 = Field(7)
    assert Mat.vandermonde(f7, [3, 2], 3).tolist() == [[1, 3, 2], [1, 2, 4]]
    assert Mat.vandermonde(f7, [1], 1).tolist() == [[1]]
    with pytest.raises(BaerCodeError, match=re.escape("duplicate vandermonde points in [3, 3]")):
        Mat.vandermonde(f7, [3, 3], 2)
    with pytest.raises(BaerCodeError, match="^vandermonde points must be nonzero$"):
        Mat.vandermonde(f7, [0, 1], 2)


# Fields for Field.powers, up to the largest prime below 2**64.
POWER_FIELDS = tuple(Field(p) for p in (3, 7, 65521, 18446744073709551557))


@given(st.sampled_from(POWER_FIELDS), st.integers(0, 2**66), st.integers(0, 40))
@settings(deadline=None, derandomize=True, max_examples=200)
@example(POWER_FIELDS[1], 3, 0)
@example(POWER_FIELDS[1], 3, 1)
@example(POWER_FIELDS[1], 0, 5)
@example(POWER_FIELDS[1], 7 * 5 + 3, 6)
@example(POWER_FIELDS[3], 2**64 + 5, 12)
@example(POWER_FIELDS[3], 18446744073709551556, 12)
def test_powers_is_the_geometric_progression(fld, x, count):
    assert fld.powers(x, count) == tuple(pow(x, t, fld.p) for t in range(count))


def test_vandermonde_full_column_rank_randomized():
    rng = random.Random(5)
    for p in (7, 13, 101):
        fld = Field(p)
        for _ in range(25):
            rows = rng.randrange(1, min(p - 1, 8) + 1)
            cols = rng.randrange(1, rows + 1)
            points = rng.sample(range(1, p), rows)
            assert Mat.vandermonde(fld, points, cols).rank() == cols


def test_rank_of_wide_vandermonde_matches_minor_oracle():
    f7 = Field(7)
    m = Mat.vandermonde(f7, [3, 2], 3)
    # oracle: largest nonsingular square submatrix via explicit 2x2 minors
    minors = [
        (m[0, i] * m[1, j] - m[0, j] * m[1, i]) % 7
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    assert any(minors)
    assert m.rank() == 2


def test_identity_and_vandermonde_inverse():
    f7 = Field(7)
    eye = identity(f7, 2)
    assert eye.inv() == eye
    v = Mat.vandermonde(f7, [3, 2], 2)
    vi = v.inv()
    assert v @ vi == eye
    assert vi @ v == eye


def test_inverse_and_solve_randomized():
    rng = random.Random(17)
    for p in (7, 13, 101):
        fld = Field(p)
        for _ in range(20):
            n = rng.randrange(1, 6)
            while True:
                a = Mat(fld, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
                if a.rank() == n:
                    break
            ai = a.inv()
            eye = identity(fld, n)
            assert a @ ai == eye
            assert ai @ a == eye
            y = [rng.randrange(p) for _ in range(n)]
            x = ai.left_mul(y)
            assert a.left_mul(x) == tuple(y)


def test_singular_and_dimension_errors():
    f7 = Field(7)
    singular = Mat(f7, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        singular.inv()
    with pytest.raises(BaerCodeError, match="^ragged rows$"):
        Mat(f7, [[1, 2], [3]])
    with pytest.raises(BaerCodeError, match=re.escape("(1, 2) @ (1, 2)")):
        Mat(f7, [[1, 2]]) @ Mat(f7, [[1, 2]])
    with pytest.raises(BaerCodeError, match="^inverse of a non-square matrix$"):
        Mat(f7, [[1, 2]]).inv()


def test_column_count_and_vector_length_are_checked():
    f7 = Field(7)
    with pytest.raises(BaerCodeError, match="^expected 3 columns, got 2$"):
        Mat(f7, [[1, 2], [3, 4]], cols=3)
    with pytest.raises(BaerCodeError, match=re.escape("vector of 3 vs (2, 2)")):
        Mat(f7, [[1, 2], [3, 4]]).left_mul([1, 2, 3])


def test_matmul_and_transpose_shapes():
    f13 = Field(13)
    a = Mat(f13, [[1, 2, 3], [4, 5, 6]])
    b = Mat(f13, [[1, 0], [0, 1], [1, 1]])
    ab = a @ b
    assert ab.shape == (2, 2)
    assert ab.tolist() == [[(1 + 3) % 13, (2 + 3) % 13], [(4 + 6) % 13, (5 + 6) % 13]]
    assert transpose(a).shape == (3, 2)
    assert transpose(transpose(a)) == a


def test_empty_width_matrices_multiply():
    # kappa x 0 blocks show up when lam == kappa; products must stay sane
    f7 = Field(7)
    a = Mat(f7, [[], []], cols=0)
    b = Mat(f7, [], cols=2)
    assert (a @ b).tolist() == [[0, 0], [0, 0]]


# -- rank properties -----------------------------------------------------------

RANK_PRIMES = (3, 7, 13, 101)


@st.composite
def rect_matrices(draw):
    p = draw(st.sampled_from(RANK_PRIMES))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(0, p - 1)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Mat(Field(p), data, cols=cols)


def full_column_rank(draw, fld, rows, r):
    """rows x r matrix holding the identity's rows at r random positions."""
    grid = [[draw(st.integers(0, fld.p - 1)) for _ in range(r)] for _ in range(rows)]
    positions = draw(st.permutations(range(rows)))[:r]
    for k, pos in enumerate(positions):
        grid[pos] = [1 if j == k else 0 for j in range(r)]
    return Mat(fld, grid, cols=r)


def reference_rank(a):
    """Textbook elimination on lists of residues, the oracle for Mat.rank and
    extend_basis."""
    p = a.field.p
    m = a.tolist()
    rank = 0
    for col in range(a.cols):
        piv = next((r for r in range(rank, a.rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, a.rows):
            f = m[r][col] * inv % p
            m[r] = [(v - f * w) % p for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


# The shapes the test-group decoders rank: N-minors over GF(23) for scheme 1
# and reconstruction on the n=10 cluster, over GF(19) for scheme 2 at
# alpha=60, and 20 x 20 over GF(197), the b=2 configuration's field.
DECODER_SHAPES = ((23, 4, 4), (23, 5, 4), (23, 5, 5), (19, 6, 5), (19, 10, 10), (19, 12, 12),
                  (197, 20, 20))


def decoder_shaped():
    """Per shape: a random matrix, the same with its last row replaced by the
    sum of its first two (rank-deficient when square), and rank-deficient
    products L @ R of inner dimension one below full and half of full."""
    rng = random.Random("decoder shapes")
    for p, rows, cols in DECODER_SHAPES:
        fld = Field(p)

        def draw(r, c):
            return Mat(fld, [[rng.randrange(p) for _ in range(c)] for _ in range(r)], cols=c)

        full = draw(rows, cols)
        yield full
        yield Mat(fld, full.data[:-1] + [[a + b for a, b in zip(*full.data[:2])]], cols=cols)
        for r in (min(rows, cols) - 1, min(rows, cols) // 2):
            yield draw(rows, r) @ draw(r, cols)


def with_examples(inputs):
    """Hypothesis's @example once per input, so every one of them runs first."""
    def apply(test):
        for a in inputs:
            test = example(a)(test)
        return test
    return apply


@with_examples(decoder_shaped())
@given(rect_matrices())
@settings(deadline=None)
def test_rank_matches_list_elimination(a):
    assert a.rank() == reference_rank(a)


@given(rect_matrices())
@settings(deadline=None)
def test_rank_equals_rank_of_transpose(a):
    assert a.rank() == transpose(a).rank() <= min(a.shape)


@given(rect_matrices())
@settings(deadline=None)
def test_square_full_rank_iff_invertible(a):
    n = min(a.shape)
    sq = Mat(a.field, [row[:n] for row in a.data[:n]], cols=n)
    try:
        sq.inv()
    except SingularMatrixError:
        assert sq.rank() < n
    else:
        assert sq.rank() == n


@given(st.data())
@settings(deadline=None)
def test_rank_of_product_is_inner_dimension(data):
    fld = Field(data.draw(st.sampled_from(RANK_PRIMES)))
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    r = data.draw(st.integers(1, min(rows, cols)))
    left = full_column_rank(data.draw, fld, rows, r)               # rows x r
    right = transpose(full_column_rank(data.draw, fld, cols, r))  # r x cols
    assert (left @ right).rank() == r


@given(rect_matrices())
@settings(deadline=None)
def test_echelon_transform_exists_iff_full_column_rank(a):
    try:
        e = a.echelon_transform()
    except SingularMatrixError:
        assert a.rank() < a.cols
    else:
        assert a.rank() == a.cols
        assert (e @ a).tolist() == [
            [1 if i == j else 0 for j in range(a.cols)] for i in range(a.rows)
        ]


@given(st.data())
@settings(deadline=None)
def test_echelon_transform_is_left_inverse_plus_null_space(data):
    fld = Field(data.draw(st.sampled_from(RANK_PRIMES)))
    cols = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(cols, 12))
    a = full_column_rank(data.draw, fld, rows, cols)
    e = a.echelon_transform()
    assert all(0 <= v < fld.p for row in e.data for v in row)
    assert (e @ a).tolist() == [[1 if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert e.rank() == rows         # E is invertible, so its last rows span the null space


@pytest.mark.parametrize("p", [23, 101])
def test_echelon_transform_of_a_tall_matrix_feeds_rank(p):
    """20 columns over 24 rows: each E row takes up to 20 packed updates.

    The 4 null-space rows are read as 4x4 minors, as the repair group
    decoder reads them, and their rank must match the list elimination.
    """
    rng = random.Random(f"tall:{p}")
    fld = Field(p)
    for _ in range(2):
        while True:
            a = Mat(fld, [[rng.randrange(p) for _ in range(20)] for _ in range(24)], cols=20)
            if a.rank() == 20:
                break
        e = a.echelon_transform()
        assert all(0 <= v < p for row in e.data for v in row)
        assert (e @ a).tolist() == [[int(i == j) for j in range(20)] for i in range(24)]
        null = e.data[20:]
        for cols in combinations(range(24), 4):
            minor = Mat(fld, [[row[c] for c in cols] for row in null], cols=4)
            assert minor.rank() == reference_rank(minor)


# -- packed-row lanes ------------------------------------------------------------
#
# rank (through extend_basis) and echelon_transform pack a row into 16-, 32-
# or 64-bit array lanes, the narrowest that holds every intermediate entry,
# or entry by entry past 64 bits.  These primes sit on both sides of 2^8,
# 2^16, 2^32 and 2^64 for p (p^2 bounds an entry update), so across shapes
# up to 12 x 12 every lane width and both packings are reached.

LANE_PRIMES = (3, 251, 257, 65521, 65537, 2**31 - 1, 2**61 - 1)


def reference_echelon(a):
    """Gauss-Jordan on [A | I] over lists, pivoting on the first nonzero
    entry: E, as Mat.echelon_transform returns it, or None below full
    column rank."""
    p, n, m = a.field.p, a.cols, a.rows
    rest = [row + [int(i == k) for k in range(m)] for i, row in enumerate(a.tolist())]
    pivots = []
    for col in range(n):
        piv = next((i for i, row in enumerate(rest) if row[col]), None)
        if piv is None:
            return None
        inv = pow(rest[piv][col], -1, p)
        prow = [v * inv % p for v in rest.pop(piv)]
        rest = [[(v - row[col] * w) % p for v, w in zip(row, prow)] for row in rest]
        pivots = [[(v - row[col] * w) % p for v, w in zip(row, prow)] for row in pivots]
        pivots.append(prow)
    return [row[n:] for row in pivots + rest]


@st.composite
def lane_matrices(draw):
    """rows x cols matrix of rank at most r, as a product L @ R, with entries
    biased to p-1 so that packed entries grow as far as they can."""
    fld = Field(draw(st.sampled_from(LANE_PRIMES)))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(0, min(rows, cols)))
    entry = st.one_of(st.just(fld.p - 1), st.integers(0, fld.p - 1))
    if r == min(rows, cols) and draw(st.booleans()):
        grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        return Mat(fld, grid, cols=cols)
    left = Mat(fld, [[draw(entry) for _ in range(r)] for _ in range(rows)], cols=r)
    right = Mat(fld, [[draw(entry) for _ in range(cols)] for _ in range(r)], cols=cols)
    return left @ right


def assert_kernels_match_lists(a):
    assert a.rank() == reference_rank(a)
    want = reference_echelon(a)
    if want is None:
        with pytest.raises(SingularMatrixError):
            a.echelon_transform()
    else:
        assert a.echelon_transform().tolist() == want


@given(lane_matrices())
@settings(deadline=None, max_examples=300)
def test_packed_kernels_match_list_elimination_across_lanes(a):
    assert_kernels_match_lists(a)


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_packed_kernels_at_the_largest_entries(p):
    """Every entry p-1 but a diagonal of p-2: full rank, the largest values."""
    fld = Field(p)
    for rows, cols in ((12, 12), (12, 5), (5, 12), (1, 12), (12, 1)):
        a = Mat(fld, [[p - 2 if i == j else p - 1 for j in range(cols)] for i in range(rows)],
                cols=cols)
        assert_kernels_match_lists(a)


def test_packed_kernels_at_60_by_60():
    rng = random.Random("lanes:197")
    fld = Field(197)
    full = Mat(fld, [[rng.randrange(197) for _ in range(60)] for _ in range(60)], cols=60)
    low = Mat(fld, [[rng.randrange(197) for _ in range(50)] for _ in range(60)], cols=50) @ Mat(
        fld, [[rng.randrange(197) for _ in range(60)] for _ in range(50)], cols=60)
    assert full.rank() == 60
    for a in (full, low):
        assert_kernels_match_lists(a)


# -- lane products -----------------------------------------------------------------
#
# lane_product sums `terms` products below (p-1)^2 in each lane of
# pack_columns, whose width is the narrowest that holds terms*(p-1)^2.  For
# primes just below 2^8, 2^16 and 2^32, BOUNDARIES holds every lane width's
# largest term count that is at least 1 and small enough to test, and the
# count one past it, which needs the next lane; 2^61-1 and the largest prime
# below 2^64 need lanes past 64 bits, packed entry by entry, at any count.

def _boundaries():
    for p in (251, 65521, 4294967291):
        for width in (16, 32, 64):
            most = (2**width - 1) // (p - 1) ** 2
            if 1 <= most <= 70000:
                yield p, most, width
                yield p, most + 1, width


BOUNDARIES = tuple(_boundaries())
WIDE = tuple((p, terms, 64) for p in (2**61 - 1, 18446744073709551557) for terms in (1, 2, 12, 60))


def test_lane_boundaries_are_reached():
    assert {(p, w) for p, _, w in BOUNDARIES} == {
        (251, 16), (251, 32), (65521, 32), (4294967291, 64)}
    for p, terms, width in BOUNDARIES + WIDE:
        _, _, got, tc = pack_columns([[p - 1] * terms], p)
        holds = terms * (p - 1) ** 2 < 2**width
        assert (got <= width) == holds and (tc is None) == (got > 64)


def _run(draw, p, length):
    """length entries of range(p): a drawn run of at most 12, biased to p-1, repeated."""
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    run = draw(st.lists(entry, min_size=1, max_size=12))
    return [run[i % len(run)] for i in range(length)]


@given(st.data())
@settings(deadline=None, derandomize=True, max_examples=120)
def test_lane_product_matches_the_plain_loop_at_lane_boundaries(data):
    p, terms, _ = data.draw(st.sampled_from(BOUNDARIES + WIDE))
    rows = [_run(data.draw, p, terms) for _ in range(data.draw(st.integers(1, 4)))]
    vec = _run(data.draw, p, terms)
    want = [sum(map(mul, row, vec)) % p for row in rows]
    assert lane_product(vec, pack_columns(rows, p), p) == want


# -- basis extension -------------------------------------------------------------
#
# extend_basis packs a vector of length m into lanes of p*p*(m+1).  For m up
# to 12, GF(3) and GF(23) take 16-bit lanes, GF(257) 32-bit ones, GF(65537)
# 64-bit ones, and GF(2^61-1) packs entry by entry.

BASIS_PRIMES = (3, 23, 257, 65537, 2**61 - 1)


def test_basis_lanes_are_reached():
    widths = {_lane(p * p * (m + 1)) for p in BASIS_PRIMES for m in range(1, 13)}
    assert {w if tc else None for w, tc in widths} == {16, 32, 64, None}


@st.composite
def vector_blocks(draw):
    """(p, m, blocks, sibling): blocks of length-m vectors over GF(p), and one
    more block, the sibling.  Every vector combines a drawn span of at most m
    vectors, entries and coefficients biased to p-1, so dependence comes at
    any block in every field, not only once the count passes m."""
    p = draw(st.sampled_from(BASIS_PRIMES))
    m = draw(st.integers(1, 12))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    span = [[draw(entry) for _ in range(m)] for _ in range(draw(st.integers(0, m)))]

    def block():
        return [[sum(draw(entry) * v for v in col) % p for col in zip(*span)] if span else [0] * m
                for _ in range(draw(st.integers(0, 4)))]

    return p, m, [block() for _ in range(draw(st.integers(1, 5)))], block()


def independent(fld, m, vectors):
    return reference_rank(Mat(fld, vectors, cols=m)) == len(vectors)


@given(vector_blocks())
@settings(deadline=None, derandomize=True, max_examples=100)
def test_extend_basis_fails_at_the_block_where_rank_falls_short(case):
    """Block by block, extend_basis returns None exactly when the rank of
    the vectors stacked so far falls short of their count.  Each prefix's
    basis is first extended by the sibling block, and must come out of that
    unchanged for the next block."""
    p, m, blocks, sibling = case
    fld, basis, stacked = Field(p), (), []
    for block in blocks:
        aside = extend_basis(basis, sibling, p)
        assert (aside is not None) == independent(fld, m, stacked + sibling)
        stacked += block
        basis = extend_basis(basis, block, p)
        assert (basis is not None) == independent(fld, m, stacked)
        if basis is None:
            break
