"""Adaptive repair scheme 2: merge-based rounds over small fields.

Works over any prime field with p >= n+1.  The share of the failed node is
split into zeta segments of length xi = floor((d-2b)/lam)*lam.  When
xi == d-2b one round of plain per-segment projections suffices.  Otherwise
helpers repeatedly merge the last two active segments of each group through
the overlap-add operator

    merge(m, eps, e, v, u) = [v, 0..0] + e^(m - eps*xi) [0..0, u]

and send one inner product per group.  The iteration schedule comes from
params.schedule_scheme2 and is shared verbatim by helpers and decoder.
Every round symbol is linear in the helper's share, so a helper's payload
is one flat vector x_h @ _stream_cols(h, f) of beta(d) symbols, its rounds
end to end, through one closed-form alpha x beta(d) matrix per (helper,
failed node), cut from psi_f (encoder.coeff_vector): scheme 2's column
function (see repair1).  The rounds are
framing only: repair.format_records splits a payload into them on the wire.
The tests keep the paper's segment-by-segment arithmetic as its reference.

By symmetry an honest payload is also x_f @ _stream_cols(f, h), so
testgroup_repair2 runs repair1.repair_scan on the payloads, its group
decoders stacking _stream_cols(f, h) and keyed on (plan, field, f),
defeating up to b lying helpers; a payload of the wrong length is a lie.
repair_estimate solves one size-(d-2b) subset's square alpha x alpha
system the same way.  The paper decodes that system one round at a time,
solving a (d-2b) x (d-2b) system per group (_group_matrix); the tests keep
that round-by-round decoder and its per-subset scan as the reference, and
testgroup_repair2 accepts the group and share that scan accepts.

Certification checks every per-group system by rank, keeping no inverse.
A system is a generalized Vandermonde e_h^(x_s) over its slot exponents
x_s, and its rank is unchanged by shifting every exponent by a constant
(a column scaling) or by reducing them mod p-1.  So each system reduces
to an exponent class, the exponents less their minimum, mod p-1, sorted,
and each (class, helper subset) is ranked once per prime, from the rows
psi_h: at (10,4,{7,8},1,60) over GF(19), 462 ranks decide all 5124 systems.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .encoder import NodeShare, coeff_vector
from .errors import BaerCodeError, SingularMatrixError
from .galois import Field, Mat
from .params import ScheduleII, schedule_scheme2
from .repair1 import FieldSearch, ThetaReport, project, repair_scan, search_field, testgroup_scan


@lru_cache(maxsize=16384)
def _stream_cols(plan: ScheduleII, fld: Field, src: int, dst: int) -> tuple[tuple[int, ...], ...]:
    """Columns of the alpha x beta(d) matrix C: src's payload to dst is x_src @ C.

    Column (round, group) projects each segment i of the group onto
    phi_dst(i), putting e_dst^pos on every entry pos of i.  A merged round
    overlap-adds the group's last two segments a < c, which scales the
    entries of c by e_src^(m - (c-a+1)xi) e_dst^((a-c)xi + m - xi).
    """
    xi, p = plan.xi, fld.p
    e_src, e_dst = fld.point(src), fld.point(dst)
    psi = coeff_vector(fld, dst, plan.code.alpha)
    cols = []
    for it in plan.iterations:
        for group in it.groups:
            col = [0] * plan.code.alpha
            for i in group:
                col[(i - 1) * xi : i * xi] = psi[(i - 1) * xi : i * xi]
            if it.sigma > 0:
                a, c = group[-2:]
                scale = pow(e_src, it.m - (c - a + 1) * xi, p) * pow(e_dst, (a - c) * xi + it.m - xi, p)
                for pos in range((c - 1) * xi, c * xi):
                    col[pos] = col[pos] * scale % p
            cols.append(tuple(col))
    return tuple(cols)


def helper_stream(share: NodeShare, plan: ScheduleII, f: int, fld: Field) -> tuple[int, ...]:
    """x_h @ _stream_cols(h, f): one helper's beta(d) symbols, rounds end to end."""
    if share.index == f:
        raise BaerCodeError("failed node cannot help repair itself")
    return project(share.x, _stream_cols, plan, fld, share.index, f)


@lru_cache(maxsize=16384)
def _slot_exponents(plan: ScheduleII, j: int, gi: int) -> tuple[int, ...]:
    """Exponent of e_h in each unknown's coefficient of helper h's equation
    for group gi at iteration j.

    Positions count from 0.  The unknowns are the tau active entries t of
    each unmerged segment i, at (i-1)xi + t, then each merged-vector
    position q < m whose entry from the second-to-last segment a (q < tau)
    or from the last segment (0 <= q - sigma < tau) is still active, at
    (a-1)xi + q.  There are d-2b of them.
    """
    xi, it = plan.xi, plan.iterations[j - 1]
    group = it.groups[gi]
    plain = group[:-2] if it.sigma > 0 else group
    ex = [(i - 1) * xi + t for i in plain for t in range(it.tau)]
    if it.sigma > 0:
        base = (group[-2] - 1) * xi
        ex += [base + q for q in range(it.m) if q < it.tau or 0 <= q - it.sigma < it.tau]
    assert len(ex) == plan.d - 2 * plan.code.b, f"group system is {len(ex)} unknowns"
    return tuple(ex)


def _group_matrix(plan: ScheduleII, fld: Field, j: int, gi: int, helpers: tuple[int, ...]) -> Mat:
    """The system of group gi at iteration j: one column per helper, one row per slot."""
    points = [fld.point(h) for h in helpers]
    return Mat(fld, [[pow(e, x, fld.p) for e in points] for x in _slot_exponents(plan, j, gi)],
               cols=len(helpers))


@lru_cache(maxsize=16384)
def _group_matrix_inv(plan: ScheduleII, fld: Field, j: int, gi: int, helpers: tuple[int, ...]) -> Mat:
    # A singular system raises SingularMatrixError.
    return _group_matrix(plan, fld, j, gi, helpers).inv()


def repair_estimate(
    payloads: Mapping[int, Sequence[int]],
    subset: Sequence[int],
    f: int,
    plan: ScheduleII,
    fld: Field,
) -> tuple[int, ...]:
    """x_f from one size-(d-2b) helper subset, by one stacked solve of its
    square system; SingularMatrixError when that system is singular."""
    beta = plan.code.beta_of(plan.d)
    if any(len(payloads[h]) != beta for h in subset):
        raise BaerCodeError(f"a payload is not beta(d) = {beta} symbols long")
    x = testgroup_scan({h: payloads[h] for h in subset}, 1, 0, _stream_cols, (plan, fld, f))
    if x is None:
        raise SingularMatrixError(f"helper subset {tuple(subset)} does not determine node {f}")
    return x


def testgroup_repair2(payloads: Mapping[int, Sequence[int]], f: int,
                      plan: ScheduleII, fld: Field) -> tuple[int, ...]:
    """Recover x_f from d helpers' payloads, at most b of them lying, by
    repair1.repair_scan; a payload of the wrong length is a lie."""
    return repair_scan(payloads, f, plan.d, plan.code, _stream_cols, (plan, fld, f))


class SystemReport(ThetaReport):
    """Outcome of the exhaustive per-group solvability sweep for one field.

    Iterations after the first select non-consecutive coefficient exponents,
    and the resulting generalized Vandermonde minors can vanish over very
    small fields even though all evaluation points are distinct.  An empty
    report certifies that every subset of every helper choice decodes for
    every d in D.  `checked` counts every (d, subset, round, group) system
    and `singular` lists each singular one as (d, subset, j, group), though
    the sweep ranks each exponent class only once per subset (see
    _singular_systems).
    """

    def summary(self) -> str:
        if self.ok:
            return f"GF({self.p}): all {self.checked} repair systems solvable"
        return f"GF({self.p}): {len(self.singular)} singular repair systems"


def _system_count(code, plans: Sequence[ScheduleII]) -> int:
    return sum(
        comb(code.n, plan.d - 2 * code.b) * sum(it.n_groups for it in plan.iterations)
        for plan in plans
    )


def _singular_systems(code, fld: Field, plans: Sequence[ScheduleII]):
    """Yield each (d, subset, j, group) whose system is singular, in sweep order.

    A system A[s][h] = e_h^(x_s) keeps its rank when every exponent is
    shifted by c (column h scales by e_h^c) or reduced mod p-1, so it is
    ranked as its exponent class: the exponents less their minimum, mod p-1,
    sorted.  Duplicates stay in the class, since two equal exponents make the
    system singular.  Each (class, subset) is ranked once per sweep, from
    each node's coefficient row psi_h up to the largest class exponent, and
    no inverse is kept.
    """
    order = fld.p - 1
    sweeps = []
    for plan in plans:
        systems = []
        for j, it in enumerate(plan.iterations, 1):
            for gi in range(it.n_groups):
                ex = _slot_exponents(plan, j, gi)
                lo = min(ex)
                systems.append((j, gi, tuple(sorted((x - lo) % order for x in ex))))
        sweeps.append((plan, systems))
    top = max(x for _, systems in sweeps for *_, cls in systems for x in cls)
    psi = {h: coeff_vector(fld, h, top + 1) for h in range(1, code.n + 1)}
    singular = {}
    for plan, systems in sweeps:
        span = plan.d - 2 * code.b
        for subset in combinations(range(1, code.n + 1), span):
            for j, gi, cls in systems:
                key = (cls, subset)
                if key not in singular:
                    rows = [[psi[h][x] for x in cls] for h in subset]
                    singular[key] = Mat(fld, rows, cols=span).rank() < span
                if singular[key]:
                    yield plan.d, subset, j, gi


def verify_systems_all(code, fld: Field) -> SystemReport:
    """Check every per-group system over all (d in D, helper subset, iteration).

    Raises DivisibilityViolationError if some d has no valid plan.
    """
    plans = [schedule_scheme2(code, d) for d in code.d_set]
    return SystemReport(p=fld.p, checked=_system_count(code, plans),
                        singular=tuple(_singular_systems(code, fld, plans)))


def find_field_scheme2(code, start: int | None = None) -> FieldSearch:
    """First prime p >= n+1 whose per-group systems all solve (see SystemReport)."""
    plans = [schedule_scheme2(code, d) for d in code.d_set]
    refuses = lambda fld: next(_singular_systems(code, fld, plans), None) is not None
    return search_field(code, refuses, lambda p: SystemReport(p, _system_count(code, plans), ()),
                        "solvable", start)
