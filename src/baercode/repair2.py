"""Adaptive repair scheme 2: iterative merge-based decoding over small fields.

Works over any prime field with p >= n+1.  The share of the failed node is
split into zeta segments of length xi = floor((d-2b)/lam)*lam.  When
xi == d-2b one round of plain per-segment projections suffices.  Otherwise
helpers repeatedly merge the last two active segments of each group through
the overlap-add operator

    merge(m, eps, e, v, u) = [v, 0..0] + e^(m - eps*xi) [0..0, u]

and send one inner product per group.  Every round symbol is linear in the
helper's share, so a helper sends x_h @ _stream_cols(h, f), the columns of
one closed-form alpha x beta(d) matrix per (helper, failed node): scheme
2's column function (see repair1).  The tests keep the paper's
segment-by-segment arithmetic as its reference.  A RepairSession
decodes one size-(d-2b) helper subset: each round it solves one
(d-2b) x (d-2b) system per group, after which entries of the lost share
are labelled known (value recovered), inactive (expressed through one
remaining active entry), or still active.  The iteration schedule comes
from params.schedule_scheme2 and is shared verbatim by helpers and decoder.

By symmetry an honest stream is also linear in the lost share,
x_f @ _stream_cols(f, h), so testgroup_repair2 runs repair1.repair_scan on
the flattened streams, its group decoders stacking _stream_cols(f, h) and
keyed on (plan, field, f), defeating up to b lying helpers; a stream with
a dropped, extra, short or
long round is a lie.  It accepts the group and share that the per-subset
scan of RepairSession estimates accepts; the tests keep that scan as the
reference.

Certification checks every per-group system by rank, keeping no inverse.
A system is a generalized Vandermonde e_h^(x_s) over its slot exponents
x_s, and its rank is unchanged by shifting every exponent by a constant
(a column scaling) or by reducing them mod p-1.  So each system reduces
to an exponent class, the exponents less their minimum, mod p-1, sorted,
and each (class, helper subset) is ranked once per prime: at
(10,4,{7,8},1,60) over GF(19), 462 ranks decide all 5124 systems.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from math import comb
from operator import mul
from typing import Mapping, Sequence

from .encoder import NodeShare
from .errors import (
    BaerCodeError,
    SingularMatrixError,
    SingularReducedSystemError,
    UnresolvedEntriesError,
)
from .galois import Field, Mat
from .params import ScheduleII, schedule_scheme2
from .repair1 import FieldSearch, ThetaReport, repair_scan, search_field

ACTIVE, INACTIVE, KNOWN = 0, 1, 2


@lru_cache(maxsize=16384)
def _stream_cols(plan: ScheduleII, fld: Field, src: int, dst: int) -> tuple[tuple[int, ...], ...]:
    """Columns of the alpha x beta(d) matrix C: src's flattened stream to dst is x_src @ C.

    Column (round, group) projects each segment i of the group onto
    phi_dst(i), putting e_dst^pos on every entry pos of i.  A merged round
    overlap-adds the group's last two segments a < c, which scales the
    entries of c by e_src^(m - (c-a+1)xi) e_dst^((a-c)xi + m - xi).
    """
    xi, p = plan.xi, fld.p
    e_src, e_dst = fld.point(src), fld.point(dst)
    powers = [pow(e_dst, pos, p) for pos in range(plan.code.alpha)]
    cols = []
    for it in plan.iterations:
        for group in it.groups:
            col = [0] * plan.code.alpha
            for i in group:
                col[(i - 1) * xi : i * xi] = powers[(i - 1) * xi : i * xi]
            if it.sigma > 0:
                a, c = group[-2:]
                scale = pow(e_src, it.m - (c - a + 1) * xi, p) * pow(e_dst, (a - c) * xi + it.m - xi, p)
                for pos in range((c - 1) * xi, c * xi):
                    col[pos] = col[pos] * scale % p
            cols.append(tuple(col))
    return tuple(cols)


def helper_stream(share: NodeShare, plan: ScheduleII, f: int, fld: Field) -> tuple[tuple[int, ...], ...]:
    """All rounds of one helper's transmission, one symbol per group; beta(d) in total."""
    if share.index == f:
        raise BaerCodeError("failed node cannot help repair itself")
    p = fld.p
    flat = iter([sum(map(mul, share.x, col)) % p
                 for col in _stream_cols(plan, fld, share.index, f)])
    return tuple(tuple(islice(flat, it.n_groups)) for it in plan.iterations)


# -- per-group linear systems (index data only, so cacheable) ---------------
#
# Slot layout for a group at iteration j: the unknowns are, in order, the
# active entries of every unmerged segment (ascending segment, ascending
# position) followed by the not-fully-known entries of the merged vector.
# Slot kinds:
#   ("seg", i, t)            entry t of segment i (1-based)
#   ("phi", q, v_t, u_t)     merged-vector position q; v_t/u_t are the
#                            contributing positions in the two merged
#                            segments (None where out of range)

@lru_cache(maxsize=16384)
def _group_slots(plan: ScheduleII, j: int, gi: int) -> tuple[tuple, ...]:
    it = plan.iterations[j - 1]
    group = it.groups[gi]
    xi, tau, sigma = plan.xi, it.tau, it.sigma
    slots: list[tuple] = []
    if sigma > 0:
        for i in group[:-2]:
            for t in range(1, tau + 1):
                slots.append(("seg", i, t))
        for q in range(1, it.m + 1):
            v_t = q if q <= xi else None
            u_t = q - sigma if q - sigma >= 1 else None
            active_v = v_t is not None and v_t <= tau
            active_u = u_t is not None and u_t <= tau
            if active_v or active_u:
                slots.append(("phi", q, v_t, u_t))
    else:
        for i in group:
            for t in range(1, tau + 1):
                slots.append(("seg", i, t))
    span = plan.d - 2 * plan.code.b
    assert len(slots) == span, f"group system is {len(slots)} unknowns, expected {span}"
    return tuple(slots)


@lru_cache(maxsize=16384)
def _slot_exponents(plan: ScheduleII, j: int, gi: int) -> tuple[int, ...]:
    """Exponent of e_h in each slot's coefficient of helper h's equation.

    Entry t of segment i sits at position (i-1)xi + t-1, merged-vector
    position q at (a-1)xi + q-1 for the group's second-to-last segment a.
    """
    xi = plan.xi
    it = plan.iterations[j - 1]
    a = it.groups[gi][-2] if it.sigma > 0 else None
    return tuple((s[1] - 1) * xi + s[2] - 1 if s[0] == "seg" else (a - 1) * xi + s[1] - 1
                 for s in _group_slots(plan, j, gi))


def _group_matrix(plan: ScheduleII, fld: Field, j: int, gi: int, helpers: tuple[int, ...]) -> Mat:
    """The system of group gi at iteration j: one column per helper, one row per slot."""
    points = [fld.point(h) for h in helpers]
    return Mat(fld, [[pow(e, x, fld.p) for e in points] for x in _slot_exponents(plan, j, gi)],
               cols=len(helpers))


@lru_cache(maxsize=16384)
def _group_matrix_inv(plan: ScheduleII, fld: Field, j: int, gi: int, helpers: tuple[int, ...]) -> Mat:
    try:
        return _group_matrix(plan, fld, j, gi, helpers).inv()
    except SingularMatrixError as exc:
        raise SingularReducedSystemError(str(exc)) from exc


class RepairSession:
    """Decoder state for one helper subset: labels, values, pending relations.

    Labels move only active -> known or active -> inactive; an inactive
    entry resolves exactly once at finalize, through its stored relation
    value = combined - scale * partner.
    """

    def __init__(self, plan: ScheduleII, f: int, fld: Field):
        self.plan = plan
        self.f = f
        self.field = fld
        self.labels = [ACTIVE] * plan.code.alpha
        self.values: list[int | None] = [None] * plan.code.alpha
        self.pending: list[tuple[int, int, int, int]] = []   # (pos, combined, scale, partner)
        self.next_j = 1

    def _pos(self, seg: int, t: int) -> int:
        return (seg - 1) * self.plan.xi + t - 1

    def decoder_round(self, j: int, symbols: Mapping[int, Sequence[int]]) -> "RepairSession":
        """Consume one iteration's symbols from a size-(d-2b) helper subset."""
        plan, fld = self.plan, self.field
        if j != self.next_j:
            raise BaerCodeError(f"expected iteration {self.next_j}, got {j}")
        it = plan.iterations[j - 1]
        span = plan.d - 2 * plan.code.b
        helpers = tuple(sorted(symbols))
        if len(helpers) != span:
            raise BaerCodeError(f"need {span} helpers per subset, got {len(helpers)}")
        for h in helpers:
            if len(symbols[h]) != it.n_groups:
                raise BaerCodeError(
                    f"helper {h} sent {len(symbols[h])} symbols for iteration {j}, "
                    f"expected {it.n_groups}"
                )
        p = fld.p
        xi = plan.xi
        e_f = fld.point(self.f)
        for gi, group in enumerate(it.groups):
            slots = _group_slots(plan, j, gi)
            inv = _group_matrix_inv(plan, fld, j, gi, helpers)
            if it.sigma > 0:
                a, bseg = group[-2], group[-1]
                scale = fld.pow(e_f, it.m - (bseg - a + 1) * xi)
            else:
                a = bseg = scale = None
            # Move the known entries of [chi(i_1), ..., phi] onto the left side.
            rhs = []
            for h in helpers:
                r = symbols[h][gi] % p
                e_h = fld.point(h)
                for i in (group[:-2] if it.sigma > 0 else group):
                    for t in range(it.tau + 1, xi + 1):
                        r -= self.values[self._pos(i, t)] * pow(e_h, (i - 1) * xi + t - 1, p)
                if it.sigma > 0:
                    base = (a - 1) * xi
                    for q in range(1, it.m + 1):
                        v_t = q if q <= xi else None
                        u_t = q - it.sigma if q - it.sigma >= 1 else None
                        if (v_t is None or v_t > it.tau) and (u_t is None or u_t > it.tau):
                            val = 0
                            if v_t is not None:
                                val = self.values[self._pos(a, v_t)]
                            if u_t is not None:
                                val = (val + scale * self.values[self._pos(bseg, u_t)]) % p
                            r -= val * pow(e_h, base + q - 1, p)
                rhs.append(r % p)
            solved = inv.left_mul(rhs)
            for slot, val in zip(slots, solved):
                if slot[0] == "seg":
                    _, i, t = slot
                    pos = self._pos(i, t)
                    self.values[pos] = val
                    self.labels[pos] = KNOWN
                else:
                    _, q, v_t, u_t = slot
                    active_v = v_t is not None and v_t <= it.tau
                    active_u = u_t is not None and u_t <= it.tau
                    if active_v and active_u:
                        # One equation, two unknowns: park the left entry.
                        pos_v, pos_u = self._pos(a, v_t), self._pos(bseg, u_t)
                        self.labels[pos_v] = INACTIVE
                        self.pending.append((pos_v, val, scale, pos_u))
                    elif active_v:
                        known_u = self.values[self._pos(bseg, u_t)] if u_t is not None else 0
                        pos = self._pos(a, v_t)
                        self.values[pos] = (val - scale * known_u) % p
                        self.labels[pos] = KNOWN
                    else:
                        known_v = self.values[self._pos(a, v_t)] if v_t is not None else 0
                        pos = self._pos(bseg, u_t)
                        self.values[pos] = (val - known_v) * pow(scale, -1, p) % p
                        self.labels[pos] = KNOWN
        self.next_j += 1
        self._check_invariants()
        return self

    def _check_invariants(self):
        """Active segments all hold the same count of actives, at the lowest
        indices, and never contain an inactive entry."""
        plan = self.plan
        xi = plan.xi
        done = self.next_j > len(plan.iterations)
        next_active: set[int] = set()
        tau_next = 0
        if not done:
            it = plan.iterations[self.next_j - 1]
            next_active = {i for g in it.groups for i in g}
            tau_next = it.tau
        for seg in range(1, plan.zeta + 1):
            base = (seg - 1) * xi
            lbls = self.labels[base : base + xi]
            if seg in next_active:
                assert lbls[:tau_next] == [ACTIVE] * tau_next, f"segment {seg} actives not leftmost"
                assert all(l == KNOWN for l in lbls[tau_next:]), f"segment {seg} holds an inactive entry"
            else:
                assert ACTIVE not in lbls, f"segment {seg} should be settled"

    def finalize(self) -> tuple[int, ...]:
        """Back-substitute pending relations and return the full alpha-vector."""
        if self.next_j <= len(self.plan.iterations):
            raise UnresolvedEntriesError(
                f"{len(self.plan.iterations) - self.next_j + 1} iterations not yet decoded"
            )
        if ACTIVE in self.labels:
            raise UnresolvedEntriesError("active entries remain")
        p = self.field.p
        unresolved = list(self.pending)
        while unresolved:
            progressed = False
            still = []
            for pos, combined, scale, partner in unresolved:
                pv = self.values[partner]
                if pv is None:
                    still.append((pos, combined, scale, partner))
                    continue
                self.values[pos] = (combined - scale * pv) % p
                self.labels[pos] = KNOWN
                progressed = True
            if not progressed:
                raise UnresolvedEntriesError("pending relations form an unresolvable chain")
            unresolved = still
        if any(v is None for v in self.values):
            raise UnresolvedEntriesError("some entries were never estimated")
        return tuple(self.values)


def repair_estimate(
    streams: Mapping[int, Sequence[Sequence[int]]],
    subset: Sequence[int],
    f: int,
    plan: ScheduleII,
    fld: Field,
) -> tuple[int, ...]:
    """Run a full session on one size-(d-2b) helper subset."""
    session = RepairSession(plan, f, fld)
    for j in range(1, len(plan.iterations) + 1):
        session.decoder_round(j, {h: streams[h][j - 1] for h in subset})
    return session.finalize()


def testgroup_repair2(streams: Mapping[int, Sequence[Sequence[int]]], f: int,
                      plan: ScheduleII, fld: Field) -> tuple[int, ...]:
    """Recover x_f from d helpers' round streams, at most b of them lying, by
    repair1.repair_scan; a stream whose round lengths differ from the plan is a lie."""
    rounds = [it.n_groups for it in plan.iterations]
    flat = {h: [v for rnd in st for v in rnd] if list(map(len, st)) == rounds else ()
            for h, st in streams.items()}
    return repair_scan(flat, f, plan.d, plan.symbols_per_helper, plan.code, fld,
                       _stream_cols, (plan, fld, f))


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
    per-node power tables no longer than the largest class exponent, and no
    inverse is kept.
    """
    order, p = fld.p - 1, fld.p
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
    powers = {h: [pow(fld.point(h), x, p) for x in range(top + 1)] for h in range(1, code.n + 1)}
    singular = {}
    for plan, systems in sweeps:
        span = plan.d - 2 * code.b
        for subset in combinations(range(1, code.n + 1), span):
            for j, gi, cls in systems:
                key = (cls, subset)
                if key not in singular:
                    rows = [[powers[h][x] for x in cls] for h in subset]
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


def find_field_scheme2(code, start: int | None = None, max_candidates: int = 2000) -> FieldSearch:
    """First prime p >= n+1 whose per-group systems all solve (see SystemReport)."""
    plans = [schedule_scheme2(code, d) for d in code.d_set]
    refuses = lambda fld: next(_singular_systems(code, fld, plans), None) is not None
    return search_field(code, refuses, lambda p: SystemReport(p, _system_count(code, plans), ()),
                        "solvable", start, max_candidates)
