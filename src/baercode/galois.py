"""Exact arithmetic over prime fields GF(p) plus the dense-matrix kit.

Field elements are plain Python ints in [0, p); matrices are small row-major
grids bound to a Field, or tuples of rows.  Python integers never overflow, so
64-bit residues multiply exactly (effectively 128-bit products) before
reduction.  Two kernels eliminate on rows packed into lanes: echelon
(Gauss-Jordan) gives the left inverse and left null space that the decoders
and Mat.inv read, and extend_basis serves certification and Mat.rank.  Field
and Mat are immutable after construction and safe to share; all operations
are pure functions of their inputs.
"""

from __future__ import annotations

import sys
from array import array
from itertools import count
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import BaerCodeError, SingularMatrixError

# Miller-Rabin witnesses, deterministic for every n < 3.3e24, and is_prime's trial divisors.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(n: int) -> Iterator[int]:
    """Successive primes >= n, without end."""
    while True:
        if is_prime(n):
            yield n
        n += 1


def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n >= 1, ascending.

    Trial division stops once the cofactor is prime, and a composite cofactor
    with no factor below 1000 is split by _rho, so p-1 of a large safe prime
    p = 2q+1 factors at once where trial division to its square root would
    take minutes.
    """
    out, d = set(), 2
    while d < 1000 and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
            if is_prime(n):
                break
        d += 1 if d == 2 else 2
    if is_prime(n):
        out.add(n)
    elif n > 1:
        q = _rho(n)
        out.update(_prime_factors(q) + _prime_factors(n // q))
    return tuple(sorted(out))


def _rho(n: int) -> int:
    """A proper factor of the composite n, which has no factor below 1000:
    Pollard's rho with Brent's cycle search, one gcd per step."""
    for c in count(1):
        y, g, r = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(y - x, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


class Field:
    """GF(p) for a prime p >= 3, with its canonical generator.

    The generator g is the smallest integer of multiplicative order p-1,
    so everything derived from the field (evaluation points, repair
    matrices) is reproducible byte for byte.
    """

    __slots__ = ("p", "g")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or p < 3 or not is_prime(p):
            raise BaerCodeError(f"modulus must be a prime >= 3, got {p!r}")
        self.p = p
        self.g = self._find_generator()

    def _find_generator(self) -> int:
        p = self.p
        factors = _prime_factors(p - 1)
        return next(cand for cand in count(2)
                    if all(pow(cand, (p - 1) // q, p) != 1 for q in factors))

    def point(self, node: int) -> int:
        """Evaluation point g**node for a node index (1-based)."""
        return pow(self.g, node, self.p)

    def powers(self, x: int, count: int) -> tuple[int, ...]:
        """[x^0, x^1, ..., x^(count-1)] mod p: every Vandermonde and
        coefficient row of the library is one such progression."""
        p, acc, out = self.p, 1, []
        for _ in range(count):
            out.append(acc)
            acc = acc * x % p
        return tuple(out)

    def holds(self, vec: Sequence[int]) -> bool:
        """Every entry of vec is in range(p)."""
        return not vec or 0 <= min(vec) and max(vec) < self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, g={self.g})"


class Mat:
    """Dense row-major matrix over a Field.  Treat instances as immutable."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]], *, cols: int | None = None):
        p = field.p
        data = [[v % p for v in row] for row in rows]
        width = len(data[0]) if data else cols or 0
        if any(len(r) != width for r in data):
            raise BaerCodeError("ragged rows")
        if cols is not None and width != cols:
            raise BaerCodeError(f"expected {cols} columns, got {width}")
        self.field = field
        self.rows = len(data)
        self.cols = width
        self.data = data

    # -- constructors ------------------------------------------------

    @classmethod
    def vandermonde(cls, field: Field, points: Sequence[int], cols: int) -> "Mat":
        """Row i = [points[i]^0, ..., points[i]^(cols-1)].  Points must be distinct and nonzero."""
        pts = [x % field.p for x in points]
        if any(x == 0 for x in pts):
            raise BaerCodeError("vandermonde points must be nonzero")
        if len(set(pts)) != len(pts):
            raise BaerCodeError(f"duplicate vandermonde points in {pts}")
        return cls(field, [field.powers(x, cols) for x in pts], cols=cols)

    # -- access ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.data == self.data
        )

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols} over GF({self.field.p}))"

    # -- algebra -----------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field:
            raise BaerCodeError("fields differ")
        if self.cols != other.rows:
            raise BaerCodeError(f"{self.shape} @ {other.shape}")
        p = self.field.p
        # Columns of other; zip yields none when other has no rows.
        bt = list(zip(*other.data)) or [()] * other.cols
        out = [[sum(a * b for a, b in zip(arow, bcol)) % p for bcol in bt] for arow in self.data]
        return Mat(self.field, out, cols=other.cols)

    def left_mul(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix: vec @ self."""
        if len(vec) != self.rows:
            raise BaerCodeError(f"vector of {len(vec)} vs {self.shape}")
        p = self.field.p
        return tuple(
            sum(v * row[j] for v, row in zip(vec, self.data)) % p
            for j in range(self.cols)
        )

    def inv(self) -> "Mat":
        """Inverse of a square matrix: its echelon E, as E @ self == I."""
        if self.rows != self.cols:
            raise BaerCodeError("inverse of a non-square matrix")
        return Mat(self.field, echelon(self.data, self.field.p), cols=self.rows)

    def rank(self) -> int:
        """Rank: how many rows extend_basis takes in when each is offered in
        order, a row that depends on those taken before being skipped."""
        p, basis = self.field.p, ()
        for row in self.data:
            if len(basis) == self.cols:
                break
            basis = extend_basis(basis, (row,), p) or basis
        return len(basis)


def echelon(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Rows of an invertible E with E @ A == [I; 0] over GF(p), for the matrix
    A of these rows, every entry in range(p), of full column rank n.

    Gauss-Jordan on [A | I] with first-nonzero pivoting: E's first n rows (in
    pivot order) are a left inverse of A, the rest (in their original order)
    a basis of its left null space.  Raises SingularMatrixError when the rank
    is below n.  Rows are packed into integers, the current column in the
    lowest lane; every row, pivot rows included, gets at most n updates of
    less than p*p per entry, and each processed column is shifted out, so
    only E is left, its entries below p + n*p*p; they are returned mod p.
    """
    n, m = len(rows[0]) if rows else 0, len(rows)
    width, tc = _lane(p * p * (n + 1))
    mask = (1 << width) - 1
    rest = [_pack(row, width, tc) | 1 << (width * (n + i)) for i, row in enumerate(rows)]
    pivots: list[int] = []
    for col in range(n):
        piv = next((i for i, x in enumerate(rest) if (x & mask) % p), None)
        if piv is None:
            raise SingularMatrixError(f"rank below {n} for a {m}x{n} matrix over GF({p})")
        prow = rest.pop(piv)
        inv = pow(prow & mask, -1, p)
        # The scaled pivot row without its leading 1; entries reduced mod p.
        tail = _pack([v * inv % p for v in _unpack(prow >> width, n - col - 1 + m, width, tc)], width, tc)
        rest = [(x >> width) + -(x & mask) % p * tail for x in rest]
        pivots = [(x >> width) + -(x & mask) % p * tail for x in pivots]
        pivots.append(tail)
    return [[v % p for v in _unpack(x, m, width, tc)] for x in pivots + rest]


def extend_basis(basis: tuple, vectors: Iterable[Sequence[int]], p: int) -> tuple | None:
    """basis extended by vectors over GF(p), or None if they depend on it or on each other.

    basis, () to start, holds a (bit offset of its pivot lane, packed row)
    pair per vector taken in, entry k of a row in lane k.  Each row is 1 at
    its pivot and 0 at every earlier row's, so a vector is reduced by one
    multiply-add per row, in order, with only the result reduced mod p.  A
    reduction adds less than p*p to an entry, and a vector of length m meets
    at most m of them, so lanes (_lane) hold p*p*(m+1).  basis is left as it
    was: every extension of a prefix shares it.
    """
    out = list(basis)
    for vec in vectors:
        width, tc = _lane(p * p * (len(vec) + 1))
        mask, x = (1 << width) - 1, _pack(vec, width, tc)
        for shift, row in out:
            x += -(x >> shift & mask) % p * row
        vals = [v % p for v in _unpack(x, len(vec), width, tc)]
        piv = next((i for i, v in enumerate(vals) if v), None)
        if piv is None:
            return None
        inv = pow(vals[piv], -1, p)
        out.append((width * piv, _pack([v * inv % p for v in vals], width, tc)))
    return tuple(out)


# -- packed rows ---------------------------------------------------------------
#
# The kernels above pack a row of entries into one integer, entry k in lane k
# (bits k*width and up).  A lane of 16, 32 or 64 bits is an array item, so a
# row packs and unpacks through bytes in one C call each; wider lanes go
# entry by entry, one shift each.  Products pack a matrix by columns
# (pack_columns): with column c in one integer, row r in lane r, A @ v is
# one sum of len(v) big-integer multiples, each lane summing below
# len(v)*(p-1)**2, exact while every entry of v is in range(p).

_LANES = sorted({8 * array(c).itemsize: c for c in "HILQ"
                 if 8 * array(c).itemsize in (16, 32, 64)}.items())
_SWAP = sys.byteorder == "big"   # lanes are read little-endian


def _lane(bound: int) -> tuple[int, str | None]:
    """(width, typecode) of the narrowest lane that holds every value below
    bound; typecode None, past 64 bits, packs entry by entry."""
    bits = bound.bit_length()
    return next(((w, tc) for w, tc in _LANES if bits <= w), (bits, None))


def _pack(row: Iterable[int], width: int, tc: str | None) -> int:
    if tc is None:
        return sum(v << (width * k) for k, v in enumerate(row))
    lanes = array(tc, row)
    if _SWAP:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _unpack(x: int, count: int, width: int, tc: str | None) -> Sequence[int]:
    """The lowest `count` lanes of x."""
    if tc is None:
        mask = (1 << width) - 1
        return [(x >> (width * k)) & mask for k in range(count)]
    lanes = array(tc)
    lanes.frombytes(x.to_bytes(count * lanes.itemsize, "little"))
    if _SWAP:
        lanes.byteswap()
    return lanes


def pack_columns(rows: Sequence[Sequence[int]], p: int) -> tuple:
    """The matrix of these rows, for lane_product: column c in one int, row r in lane r."""
    width, tc = _lane(len(rows[0]) * (p - 1) ** 2 + 1)
    return tuple(_pack(col, width, tc) for col in zip(*rows)), len(rows), width, tc


def lane_product(vec: Sequence[int], packed: tuple, p: int) -> list[int]:
    """A @ vec mod p for A = pack_columns(rows, p) and every entry of vec in range(p)."""
    cols, rows, width, tc = packed
    return [v % p for v in _unpack(sum(map(mul, vec, cols)), rows, width, tc)]


def scale_packed(packed: tuple, row_scale: Sequence[int], col_scale: Sequence[int], p: int) -> tuple:
    """pack_columns of diag(row_scale, I) @ A @ diag(col_scale) for A = pack_columns(rows, p):
    the lanes past len(row_scale) keep scale 1."""
    cols, rows, width, tc = packed
    scale = (*row_scale, *(1,) * (rows - len(row_scale)))
    return tuple(_pack([v * r * k % p for v, r in zip(_unpack(col, rows, width, tc), scale)], width, tc)
                 for col, k in zip(cols, col_scale)), rows, width, tc
