"""Adaptive repair scheme 1: compressed block projections.

Every helper h projects its share onto the failed node's coefficient
structure and compresses the z per-block scalars down to z_d = alpha/(d-2b)
symbols through the first z_d columns of a fixed z x z Vandermonde matrix
Omega:

    r(h, f) = x_h @ Phi_f @ Omega_{z_d}

where Phi_f is block-diagonal with the lam x 1 blocks psi_f(i)^T, so
r(h, f) = x_h @ _theta_cols(f) and, by the symmetry psi_h M psi_f^T =
psi_f M psi_h^T, x_f @ _theta_cols(h).  Honest vectors of helpers H stack
to rho_H = x_f @ Theta_H, with
Theta_H = [Phi_{h_1} @ Omega_{z_d} | ... ].  The paper decodes by test
groups against up to b lying helpers: a group of d-b helpers is accepted
when the estimates rho_H @ Theta_H^-1 of all its size-(d-2b) subsets agree.
When every such Theta_H is invertible, that holds exactly when
rho_G = x @ Theta_G for some x, Theta_G being the group's stacked
alpha x (d-b)*z_d matrix.  So each group is decoded by one elimination:
a left inverse T returns x_f and a null-space basis N gives the syndrome
N @ rho_G that must vanish, both from one lane product.  A group with a
singular Theta_H is skipped, as the paper's scan skips it.  A repair
vector of the wrong length, or with a symbol outside range(p), is a lie:
every group holding it is skipped.  group_decoder, the one decoder cache,
and testgroup_scan serve any payload x_f @ cols(f->h) for a column
function cols, one per scheme: _theta_cols here, repair2._stream_cols and
concat._cols through repair_scan, and reconstruct._node_block, given the
cols and its key alone (the field is key[1]; testgroup_scan derives shapes).

Theta_H is provably invertible only over impractically large alphabets, so
a configuration is instead certified empirically, by rank alone (no
inverse is kept).  verify_theta_all checks every (d, H) pair and lists
every singular one.  find_field runs search_field, every scheme's prime
search, over p >= n+1: it refuses a prime whose Omega truncations lose rank
(read off Omega's exponents, see omega_build) before building any Theta,
and otherwise stops at the first singular Theta.  Omega's exponents are
fixed, i_j = alpha*n*(j-1) + 1, so Omega is a function of (params, field)
alone and every party derives it independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import comb
from typing import Mapping, NamedTuple, Sequence

from .encoder import NodeShare, coeff_vector
from .errors import BaerCodeError, NoConsistentGroupError, SingularMatrixError
from .galois import Field, Mat, lane_product, pack_columns, primes_from
from .params import P_LIMIT, Derived, check_field

MAX_CANDIDATES = 2000    # primes search_field tries before it gives up


@dataclass(frozen=True)
class OmegaConfig:
    """Omega matrix of one (params, field); every party derives the same."""

    code: Derived
    field: Field
    omega: Mat                         # z x z
    deficient: tuple[int, ...]         # d in D whose Omega_{z_d} loses column rank

    def theta_inv(self, helpers: tuple[int, ...], d: int) -> Mat | None:
        """Inverse of Theta_H for sorted helper indices, or None if singular."""
        try:
            return theta(helpers, d, self).inv()
        except SingularMatrixError:
            return None


@lru_cache(maxsize=4096)
def _theta_cols(code: Derived, fld: Field, d: int, h: int) -> tuple[tuple[int, ...], ...]:
    """Columns of node h's alpha x z_d block Phi_h @ Omega_{z_d}.

    A helper sends x_h @ _theta_cols(f), and by the symmetry that is
    x_f @ _theta_cols(h); every Theta_H with h in H holds h's block, so it is
    built once per (params, field, d, h) and shared by all of them.
    """
    omega, p, lam = omega_build(code, fld).omega.data, fld.p, code.lam
    psi = coeff_vector(fld, h, code.alpha)
    return tuple(tuple(v * omega[pos // lam][j] % p for pos, v in enumerate(psi))
                 for j in range(code.beta_of(d)))


@lru_cache(maxsize=256)
def omega_build(code: Derived, fld: Field) -> OmegaConfig:
    """Build Omega for this configuration, cached per (params, field).

    Row j is the Vandermonde row coeff_vector(fld, i_j, z) of g**i_j for the
    fixed exponents i_j = alpha*n*(j-1) + 1; gaps of alpha*n keep the
    dominant determinant term unique.  `deficient` lists every d in D whose
    truncation Omega_{z_d} loses column rank; repair refuses it.  That rank
    is min(z_d, distinct points), and the points are distinct exactly when
    the i_j are distinct mod p-1, which small fields make collide.
    """
    check_field(code, fld)
    exponents = [code.alpha * code.n * j + 1 for j in range(code.z)]
    omega = Mat(fld, [coeff_vector(fld, i, code.z) for i in exponents], cols=code.z)
    distinct = len({i % (fld.p - 1) for i in exponents})
    deficient = tuple(d for d in code.d_set if distinct < code.beta_of(d))
    return OmegaConfig(code=code, field=fld, omega=omega, deficient=deficient)


@lru_cache(maxsize=16384)
def _packed_cols(cols, *key) -> tuple:
    """A column function's packed twin: cols(*key), key[1] its field, by galois.pack_columns."""
    return pack_columns(cols(*key), key[1].p)


def project(x: Sequence[int], cols, *key) -> tuple[int, ...]:
    """x @ cols(*key) over the field key[1], every entry of x in its range:
    the flat payload of every helper of every scheme, one lane product."""
    return tuple(lane_product(x, _packed_cols(cols, *key), key[1].p))


def helper_repair_symbols(share: NodeShare, f: int, d: int, cfg: OmegaConfig) -> tuple[int, ...]:
    """r(h, f) = x_h @ Phi_f @ Omega_{z_d}: z_d symbols from helper share,
    through f's own column block."""
    return project(share.x, _theta_cols, cfg.code, cfg.field, d, f)


def theta(helpers: Sequence[int], d: int, cfg: OmegaConfig) -> Mat:
    """alpha x len(helpers)*z_d matrix [Phi_{h_1} @ Omega_{z_d} | Phi_{h_2} @ Omega_{z_d} | ...].

    Square for the d-2b helpers of an estimate subset.
    """
    cols = [c for h in helpers for c in _theta_cols(cfg.code, cfg.field, d, h)]
    return Mat(cfg.field, zip(*cols), cols=len(cols))


@lru_cache(maxsize=16384)
def group_decoder(block, key: tuple, group: tuple[int, ...], b: int) -> tuple[int, tuple] | None:
    """(u, [T; N] by galois.pack_columns) for one test-group G, or None if G is unusable.

    The one decoder cache of every repair scheme and of reconstruction.
    `block(*key, h)` returns member h's u x w block over the field key[1] as
    a tuple of its w columns; an honest member sends r @ block for the
    group's unknown row r of length u, and side by side the blocks form
    Theta_G.  With E = [T; N], E @ Theta_G^T = [I; 0]: T (u rows) is a left
    inverse of Theta_G^T, N spans its left null space.  By matroid duality, G minus b members stacks
    to a matrix of rank u exactly when N's b*w columns of those members are
    independent, so G is usable when Theta_G has rank u and every such minor
    of N has full rank.  So E @ rho is one lane product: lanes below u
    hold T @ rho, the rest the syndrome N @ rho.
    """
    fld, cols = key[1], [col for h in group for col in block(*key, h)]
    u, w = len(cols[0]), len(cols) // len(group)
    try:
        rows = Mat(fld, cols).echelon_transform().data
    except SingularMatrixError:
        return None
    null, bw = rows[u:], b * w
    for out in combinations(range(len(group)), b):
        minor = [[row[t * w + j] for t in out for j in range(w)] for row in null]
        if Mat(fld, minor, cols=bw).rank() < bw:
            return None
    return u, pack_columns(rows, fld.p)


def testgroup_scan(payloads: Mapping[int, Sequence[int]], chunks: int, b: int,
                   block, key: tuple) -> tuple[int, ...] | None:
    """Decode the first consistent test-group of flat payloads, or None.

    An honest payload is `chunks` runs of w symbols, run i being r_i @ B_h
    for the member's block B_h = block(*key, h) over the field key[1]; every
    block has the same w columns, so one cached lookup gives the shape.
    Test-groups of len(payloads) - b members are scanned lexicographically,
    each decoded by group_decoder(block, key, group, b).  The first usable
    group whose stacked runs rho_i all have a zero syndrome N @ rho_i wins, and
    T @ rho_1 | ... | T @ rho_chunks is returned.  This is the group the
    paper's per-subset scan accepts, with the same result.  A payload of any
    other length, or with a symbol outside range(p), is a lie: it joins no group.
    """
    fld, width = key[1], len(block(*key, next(iter(payloads))))
    length = width * chunks
    sound = {h for h, x in payloads.items() if len(x) == length and fld.holds(x)}
    for group in combinations(sorted(payloads), len(payloads) - b):
        if not sound.issuperset(group):
            continue
        decoder = group_decoder(block, key, group, b)
        if decoder is None:
            continue
        u, packed = decoder
        out = []
        for off in range(0, length, width):
            lanes = lane_product([v for h in group for v in payloads[h][off : off + width]],
                                 packed, fld.p)
            if any(lanes[u:]):
                break
            out.extend(lanes[:u])
        else:
            return tuple(out)
    return None


def repair_scan(payloads: Mapping[int, Sequence[int]], f: int, d: int, code: Derived,
                block, key: tuple) -> tuple[int, ...]:
    """Recover x_f from d helpers' payloads, at most b of them lying, by
    testgroup_scan over test-groups of d-b helpers; helper h's honest
    payload is x_f @ block(*key, h).  Refuses d not in D."""
    code.beta_of(d)
    helpers = sorted(payloads)
    if len(helpers) != d:
        raise BaerCodeError(f"need symbols from exactly d={d} helpers, got {len(helpers)}")
    for h in helpers:
        if h == f or not 1 <= h <= code.n:
            raise BaerCodeError(f"invalid helper {h} for failed node {f}")
    if not 1 <= f <= code.n:
        raise BaerCodeError(f"invalid failed node {f}")
    x = testgroup_scan(payloads, 1, code.b, block, key)
    if x is None:
        raise NoConsistentGroupError(
            f"no consistent test-group repairing node {f} from {d} helpers"
        )
    return x


def testgroup_repair(symbols: Mapping[int, Sequence[int]], f: int, d: int,
                     cfg: OmegaConfig) -> tuple[int, ...]:
    """Recover x_f from d helpers' z_d-symbol repair vectors (repair_scan)."""
    return repair_scan(symbols, f, d, cfg.code, _theta_cols, (cfg.code, cfg.field, d))


@dataclass(frozen=True)
class ThetaReport:
    """Outcome of the exhaustive invertibility sweep for one (params, field)."""

    p: int
    checked: int
    singular: tuple[tuple, ...]               # (d, helper subset), scheme 2 adds (j, group)
    omega_deficient: tuple[int, ...] = ()     # d values whose Omega truncation lost rank

    @property
    def ok(self) -> bool:
        return not self.omega_deficient and not self.singular

    def summary(self) -> str:
        if self.ok:
            return f"GF({self.p}): certified ({self.checked} matrices checked)"
        parts = []
        if self.omega_deficient:
            parts.append(f"Omega rank-deficient for d in {list(self.omega_deficient)}")
        if self.singular:
            parts.append(f"{len(self.singular)} singular Theta matrices")
        return f"GF({self.p}): NOT certified ({'; '.join(parts)})"


def _theta_count(code: Derived) -> int:
    return sum(comb(code.n, d - 2 * code.b) for d in code.d_set)


def _singular_thetas(code: Derived, cfg: OmegaConfig):
    """Yield each (d, H) whose Theta_H is singular, in sweep order.

    Only the rank of each Theta is computed, so a sweep stores no inverse
    and builds no test-group decoder.
    """
    for d in code.d_set:
        for subset in combinations(range(1, code.n + 1), d - 2 * code.b):
            if theta(subset, d, cfg).rank() < code.alpha:
                yield d, subset


def verify_theta_all(code: Derived, fld: Field) -> ThetaReport:
    """Check every Theta_H over all (d in D, H subset of nodes, |H| = d-2b).

    An empty report certifies the configuration for repair with any helper
    choice; rank failures are reported as data rather than raised so callers
    can display them.
    """
    cfg = omega_build(code, fld)
    return ThetaReport(p=fld.p, checked=_theta_count(code), omega_deficient=cfg.deficient,
                       singular=tuple(_singular_thetas(code, cfg)))


class FieldSearch(NamedTuple):
    field: Field
    report: ThetaReport | None     # the found prime's report; None for concat
    rejected: tuple[int, ...]      # primes tried and refused before the hit


def search_field(code: Derived, refuses, report, noun: str, start: int | None = None) -> FieldSearch:
    """The first of MAX_CANDIDATES successive primes max(start, n+1) <= p <
    P_LIMIT that refuses(Field(p)) lets through, with report(p).  refuses
    stops at a prime's first failure, so only the returned prime is swept in
    full."""
    rejected: list[int] = []
    bound = f"after {MAX_CANDIDATES} candidates"
    for p in islice(primes_from(min(max(start or 0, code.n + 1), P_LIMIT)), MAX_CANDIDATES):
        if p >= P_LIMIT:
            bound = "below 2**64"
            break
        fld = Field(p)
        if not refuses(fld):
            return FieldSearch(fld, report(p), tuple(rejected))
        rejected.append(p)
    last = f" (last tried {rejected[-1]})" if rejected else ""
    raise BaerCodeError(f"no {noun} prime found {bound}{last}")


def find_field(code: Derived, start: int | None = None) -> FieldSearch:
    """The first prime p >= n+1 whose Omega truncations and Thetas all have full rank."""
    def refuses(fld):
        cfg = omega_build(code, fld)
        return bool(cfg.deficient) or next(_singular_thetas(code, cfg), None) is not None
    return search_field(code, refuses, lambda p: ThetaReport(p, _theta_count(code), ()),
                        "certified", start)

