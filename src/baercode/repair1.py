"""Adaptive repair scheme 1: compressed block projections.

Every helper h projects its share onto the failed node's coefficient
structure and compresses the z per-block scalars down to z_d = alpha/(d-2b)
symbols through the first z_d columns of a fixed z x z Vandermonde matrix
Omega:

    r(h, f) = x_h @ Phi_f @ Omega_{z_d}

where Phi_f is block-diagonal with the lam x 1 blocks psi_f(i)^T.  Honest
vectors of helpers H stack to rho_H = x_f @ Theta_H, with
Theta_H = [Phi_{h_1} @ Omega_{z_d} | ... ].  The paper decodes by test
groups against up to b lying helpers: a group of d-b helpers is accepted
when the estimates rho_H @ Theta_H^-1 of all its size-(d-2b) subsets agree.
When every such Theta_H is invertible, that holds exactly when
rho_G = x @ Theta_G for some x, Theta_G being the group's stacked
alpha x (d-b)*z_d matrix.  So each group is decoded by one elimination,
cached per group: a left inverse T returns x_f and a null-space basis N
gives the syndrome N @ rho_G that must vanish.
A group with a singular Theta_H is skipped, as the paper's scan skips it.
A repair vector of the wrong length is a lie: every group holding it is
skipped.  group_decoder and testgroup_scan hold that decoder for any payload
that is honestly linear in the unknown; scheme 2 (repair2, through
repair_scan) and reconstruction (reconstruct) run them too.

Theta_H is provably invertible only over impractically large alphabets, so
a configuration is instead certified empirically, by rank alone (no
inverse is kept).  verify_theta_all checks every (d, H) pair and lists
every singular one.  find_field searches successive primes p >= n+1: it
refuses a prime whose Omega truncations lose rank before building any
Theta, and otherwise stops at the first singular Theta.  Omega's exponents
are fixed, i_j = alpha*n*(j-1) + 1, so Omega is a function of (params,
field) alone and every party derives it independently.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dc_field
from itertools import combinations, islice
from math import comb
from operator import mul
from typing import Mapping, Sequence

from .encoder import NodeShare, coeff_segment
from .errors import (
    BaerCodeError,
    NoConsistentGroupError,
    OmegaRankDeficientError,
    SingularMatrixError,
)
from .galois import Field, Mat, primes_from
from .params import Derived, check_field

REPAIR1_MAGIC = "BAERR1"


@dataclass
class OmegaConfig:
    """Omega matrix plus cached Theta inverses, Theta column blocks and
    test-group decoders."""

    code: Derived
    field: Field
    exponents: tuple[int, ...]         # i_j = alpha*n*(j-1) + 1
    omega: Mat                         # z x z
    rank_ok: bool                      # every Omega_{z_d} has full column rank
    _theta_inv: dict = dc_field(default_factory=dict, repr=False)
    _theta_cols: dict = dc_field(default_factory=dict, repr=False)
    _group_dec: dict = dc_field(default_factory=dict, repr=False)

    def theta_inv(self, helpers: tuple[int, ...], d: int) -> Mat | None:
        """Inverse of Theta_H for sorted helper indices, or None if singular."""
        key = (d, helpers)
        if key not in self._theta_inv:
            try:
                self._theta_inv[key] = theta(helpers, d, self).inv()
            except SingularMatrixError:
                self._theta_inv[key] = None
        return self._theta_inv[key]

    def group_decoder(self, group: tuple[int, ...],
                      d: int) -> tuple[tuple[Sequence[int], ...], ...] | None:
        """group_decoder() of Theta_G for a sorted test-group, cached per (d, G)."""
        key = (d, group)
        if key not in self._group_dec:
            blocks = [self.theta_cols(h, d) for h in group]
            self._group_dec[key] = group_decoder(blocks, self.code.b, self.field)
        return self._group_dec[key]

    def theta_cols(self, h: int, d: int) -> list[list[int]]:
        """Rows of helper h's alpha x z_d column block Phi_h @ Omega_{z_d}.

        Every Theta_H with h in H holds this block, so it is built once per
        (h, d) and shared by all of them.
        """
        key = (h, d)
        if key not in self._theta_cols:
            code, p = self.code, self.field.p
            z_d = code.beta_of(d)
            rows = []
            for i in range(1, code.z + 1):
                orow = self.omega.data[i - 1][:z_d]
                for v in coeff_segment(self.field, h, i, code.lam):
                    rows.append([v * w % p for w in orow])
            self._theta_cols[key] = rows
        return self._theta_cols[key]


def omega_build(code: Derived, fld: Field, *, check: bool = True) -> OmegaConfig:
    """Build Omega for this configuration.

    Row j is the Vandermonde row of g**i_j for the fixed exponents
    i_j = alpha*n*(j-1) + 1, reduced mod p-1 before exponentiation; gaps of
    alpha*n keep the dominant determinant term unique.  With check=True the
    truncation for every d in D must have full column rank (small fields make
    the reduced exponents collide, which this catches).
    """
    check_field(code, fld)
    exps = tuple(code.alpha * code.n * j + 1 for j in range(code.z))
    p = fld.p
    rows = []
    for x in (pow(fld.g, e % (p - 1), p) for e in exps):
        row, acc = [], 1
        for _ in range(code.z):
            row.append(acc)
            acc = acc * x % p
        rows.append(row)
    omega = Mat(fld, rows, cols=code.z)
    rank_ok = all(
        omega_rank_ok(omega, code.beta_of(d)) for d in code.d_set
    )
    if check and not rank_ok:
        raise OmegaRankDeficientError(
            f"Omega truncation rank-deficient over GF({p}); pick a larger prime"
        )
    return OmegaConfig(code=code, field=fld, exponents=exps, omega=omega, rank_ok=rank_ok)


def omega_rank_ok(omega: Mat, z_d: int) -> bool:
    cols = Mat(omega.field, [row[:z_d] for row in omega.data], cols=z_d)
    return cols.rank() == z_d


def helper_repair_symbols(share: NodeShare, f: int, d: int, cfg: OmegaConfig) -> tuple[int, ...]:
    """r(h, f) = x_h @ Phi_f @ Omega_{z_d}: z_d symbols from helper share."""
    code, fld = cfg.code, cfg.field
    p = fld.p
    z_d = code.beta_of(d)
    # x_h @ Phi_f is the vector of per-block scalars x_h(i) . psi_f(i).
    scalars = []
    for i in range(1, code.z + 1):
        seg_f = coeff_segment(fld, f, i, code.lam)
        seg_x = share.segment(i, code.lam)
        scalars.append(sum(a * b for a, b in zip(seg_x, seg_f)) % p)
    return tuple(
        sum(scalars[i] * cfg.omega.data[i][j] for i in range(code.z)) % p
        for j in range(z_d)
    )


def theta(helpers: Sequence[int], d: int, cfg: OmegaConfig) -> Mat:
    """alpha x len(helpers)*z_d matrix [Phi_{h_1} @ Omega_{z_d} | Phi_{h_2} @ Omega_{z_d} | ...].

    Square for the d-2b helpers of an estimate subset.
    """
    blocks = [cfg.theta_cols(h, d) for h in helpers]
    return Mat(
        cfg.field,
        [[v for part in parts for v in part] for parts in zip(*blocks)],
        cols=len(helpers) * cfg.code.beta_of(d),
    )


def group_decoder(blocks: Sequence[Sequence[Sequence[int]]], b: int,
                  fld: Field) -> tuple[tuple[Sequence[int], ...], ...] | None:
    """Rows of (T, N) for one test-group G, or None if G is unusable.

    `blocks` holds one u x w block per member of G, in group order; an
    honest member sends r @ block for the group's unknown row r of length u,
    and side by side the blocks form Theta_G.  With E = [T; N],
    E @ Theta_G^T = [I; 0]: T (u rows) is a left inverse of Theta_G^T, N
    spans its left null space.  By matroid duality, G minus b members stacks
    to a matrix of rank u exactly when N's b*w columns of those members are
    independent, so G is usable when Theta_G has rank u and every such minor
    of N has full rank.  Rows are arrays of the smallest item type that
    holds p-1.
    """
    u, w = len(blocks[0]), len(blocks[0][0])
    try:
        rows = Mat(fld, [col for blk in blocks for col in zip(*blk)]).echelon_transform().data
    except SingularMatrixError:
        return None
    null, bw = rows[u:], b * w
    for out in combinations(range(len(blocks)), b):
        minor = [[row[t * w + j] for t in out for j in range(w)] for row in null]
        if Mat(fld, minor, cols=bw).rank() < bw:
            return None
    typecode = next((c for c in "BHIQ" if fld.p - 1 < 1 << 8 * array(c).itemsize), None)
    rows = [array(typecode, row) if typecode else tuple(row) for row in rows]
    return tuple(rows[:u]), tuple(rows[u:])


def testgroup_scan(payloads: Mapping[int, Sequence[int]], size: int, width: int,
                   chunks: int, p: int, decoder) -> tuple[int, ...] | None:
    """Decode the first consistent test-group of flat payloads, or None.

    An honest payload is `chunks` runs of `width` symbols, run i being
    r_i @ B_h for the member's block B_h.  Test-groups of `size` members are
    scanned lexicographically; `decoder(group)` returns the group's
    group_decoder() rows or None.  The first usable group whose stacked runs
    rho_i all have a zero syndrome N @ rho_i wins, and T @ rho_1 | ... |
    T @ rho_chunks is returned.  This is the group the paper's per-subset
    scan accepts, with the same result.  A payload of any other length is a
    lie: no group holding it is tried.
    """
    length = width * chunks
    sound = {h for h, x in payloads.items() if len(x) == length}
    for group in combinations(sorted(payloads), size):
        if not sound.issuperset(group):
            continue
        rows = decoder(group)
        if rows is None:
            continue
        t, null = rows
        out = []
        for off in range(0, length, width):
            rho = [v for h in group for v in payloads[h][off : off + width]]
            if any(sum(map(mul, row, rho)) % p for row in null):
                break
            out.extend(sum(map(mul, row, rho)) % p for row in t)
        else:
            return tuple(out)
    return None


def repair_scan(payloads: Mapping[int, Sequence[int]], f: int, d: int, width: int,
                code: Derived, p: int, decoder) -> tuple[int, ...]:
    """Recover x_f from d helpers' `width`-symbol payloads, at most b of them
    lying, by testgroup_scan over test-groups of d-b helpers."""
    helpers = sorted(payloads)
    if len(helpers) != d:
        raise BaerCodeError(f"need symbols from exactly d={d} helpers, got {len(helpers)}")
    for h in helpers:
        if h == f or not 1 <= h <= code.n:
            raise BaerCodeError(f"invalid helper {h} for failed node {f}")
    if not 1 <= f <= code.n:
        raise BaerCodeError(f"invalid failed node {f}")
    x = testgroup_scan(payloads, d - code.b, width, 1, p, decoder)
    if x is None:
        raise NoConsistentGroupError(
            f"no consistent test-group repairing node {f} from {d} helpers"
        )
    return x


def testgroup_repair(symbols: Mapping[int, Sequence[int]], f: int, d: int,
                     cfg: OmegaConfig) -> tuple[int, ...]:
    """Recover x_f from d helpers' z_d-symbol repair vectors (repair_scan)."""
    return repair_scan(symbols, f, d, cfg.code.beta_of(d), cfg.code, cfg.field.p,
                       lambda group: cfg.group_decoder(group, d))


@dataclass(frozen=True)
class ThetaReport:
    """Outcome of the exhaustive invertibility sweep for one (params, field)."""

    p: int
    checked: int
    omega_deficient: tuple[int, ...]          # d values whose Omega truncation lost rank
    singular: tuple[tuple[int, tuple[int, ...]], ...]   # (d, helper subset)

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
    and leaves cfg's Theta cache to the decoders.
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
    cfg = omega_build(code, fld, check=False)
    omega_bad = tuple(
        d for d in code.d_set if not omega_rank_ok(cfg.omega, code.beta_of(d))
    )
    return ThetaReport(
        p=fld.p, checked=_theta_count(code),
        omega_deficient=omega_bad, singular=tuple(_singular_thetas(code, cfg)),
    )


@dataclass(frozen=True)
class FieldSearch:
    field: Field
    cfg: OmegaConfig
    report: ThetaReport
    rejected: tuple[int, ...]      # primes tried and refused before the hit


def find_field(code: Derived, start: int | None = None, max_candidates: int = 2000) -> FieldSearch:
    """Try successive primes p >= n+1 and return the first certified one.

    A prime is refused as soon as an Omega truncation loses rank or the
    first singular Theta turns up, so only the certified prime is swept in
    full.
    """
    rejected: list[int] = []
    for p in islice(primes_from(max(start or 0, code.n + 1)), max_candidates):
        fld = Field(p)
        cfg = omega_build(code, fld, check=False)
        if cfg.rank_ok and next(_singular_thetas(code, cfg), None) is None:
            report = ThetaReport(p=p, checked=_theta_count(code),
                                 omega_deficient=(), singular=())
            return FieldSearch(field=fld, cfg=cfg, report=report, rejected=tuple(rejected))
        rejected.append(p)
    last = f" (last tried {rejected[-1]})" if rejected else ""
    raise BaerCodeError(f"no certified prime found after {max_candidates} candidates{last}")


# -- repair wire records ----------------------------------------------------
#
# One helper's transmission:  header `BAERR1 d=<d> f=<f> h=<h>` followed by
# z_d decimal symbols, LF separated.

def format_repair_record(h: int, f: int, d: int, symbols: Sequence[int]) -> str:
    header = f"{REPAIR1_MAGIC} d={d} f={f} h={h}"
    return header + "\n" + "\n".join(str(v) for v in symbols) + "\n"


def parse_repair_record(text: str) -> tuple[int, int, int, tuple[int, ...]]:
    """Returns (h, f, d, symbols)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(REPAIR1_MAGIC + " "):
        raise BaerCodeError("not a scheme-1 repair record")
    fields = dict(tok.partition("=")[::2] for tok in lines[0].split()[1:])
    try:
        d, f, h = int(fields["d"]), int(fields["f"]), int(fields["h"])
        symbols = tuple(int(v) for v in lines[1:] if v.strip())
    except (KeyError, ValueError) as exc:
        raise BaerCodeError(f"malformed repair record: {exc}") from exc
    return h, f, d, symbols
