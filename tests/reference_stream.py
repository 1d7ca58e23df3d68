"""Scheme 2 in the paper's form, the tests' oracle: helper rounds and decoder.

The library sends x_h @ repair2._stream_cols(h, f), one closed-form matrix
per (helper, failed node).  The functions below compute the same symbols
as the paper states them, segment by segment: each round, a helper sends
one inner product per group, projecting its unmerged segments onto
phi_f(i) and overlap-adding the group's last two segments through `merge`
in a merged round.

The library sends each helper's rounds end to end, as one flat payload;
`rounds` splits one back into the plan's rounds, as the paper's decoder
reads them.

The library decodes a size-(d-2b) helper subset with one stacked solve of
its alpha x alpha system (repair2.repair_estimate).  RepairSession decodes
it as the paper does (PM-MBR, Rashmi-Shah-Kumar, extended with merges), one
round at a time: each round it solves one (d-2b) x (d-2b) system per group,
after which entries of the lost share are labelled known (value
recovered), inactive (expressed through one remaining active entry), or
still active.
"""

from itertools import accumulate
from typing import Mapping, Sequence

from baercode.errors import BaerCodeError, SingularMatrixError
from baercode.galois import Field
from baercode.repair2 import _group_matrix_inv

ACTIVE, INACTIVE, KNOWN = 0, 1, 2


class SingularReducedSystemError(BaerCodeError):
    """Reduced per-group linear system could not be solved."""


class UnresolvedEntriesError(BaerCodeError):
    """Repair session finalized while some entries are still unresolved."""


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
    scale = pow(e, m - eps * xi, p)
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


def rounds(plan, payload: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """A flat payload of the plan's length split into its rounds, one symbol per group."""
    sizes = [it.n_groups for it in plan.iterations]
    if len(payload) != sum(sizes):
        raise BaerCodeError(f"a payload of {len(payload)} symbols, the plan sends {sum(sizes)}")
    cuts = [0, *accumulate(sizes)]
    return tuple(tuple(payload[a:b]) for a, b in zip(cuts, cuts[1:]))


# -- the round-by-round decoder ----------------------------------------------
#
# Slot layout for a group at iteration j: the unknowns are, in order, the
# active entries of every unmerged segment (ascending segment, ascending
# position) followed by the not-fully-known entries of the merged vector.
# Slot kinds:
#   ("seg", i, t)            entry t of segment i (1-based)
#   ("phi", q, v_t, u_t)     merged-vector position q; v_t/u_t are the
#                            contributing positions in the two merged
#                            segments (None where out of range)

def _group_slots(plan, j: int, gi: int) -> tuple[tuple, ...]:
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


def slot_exponents(plan, j: int, gi: int) -> tuple[int, ...]:
    """Exponent of e_h in each slot's coefficient of helper h's equation:
    entry t of segment i sits at position (i-1)xi + t-1, merged-vector
    position q at (a-1)xi + q-1 for the group's second-to-last segment a."""
    xi, group = plan.xi, plan.iterations[j - 1].groups[gi]
    return tuple((s[1] - 1) * xi + s[2] - 1 if s[0] == "seg" else (group[-2] - 1) * xi + s[1] - 1
                 for s in _group_slots(plan, j, gi))


class RepairSession:
    """Decoder state for one helper subset: labels, values, pending relations.

    Labels move only active -> known or active -> inactive; an inactive
    entry resolves exactly once at finalize, through its stored relation
    value = combined - scale * partner.  Each group's system is inverted by
    repair2._group_matrix_inv, whose rows follow repair2._slot_exponents;
    the tests pin that order to the slot layout above.
    """

    def __init__(self, plan, f: int, fld: Field):
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
            try:
                inv = _group_matrix_inv(plan, fld, j, gi, helpers)
            except SingularMatrixError as exc:
                raise SingularReducedSystemError(str(exc)) from exc
            if it.sigma > 0:
                a, bseg = group[-2], group[-1]
                scale = pow(e_f, it.m - (bseg - a + 1) * xi, p)
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


def reference_estimate(payloads, subset, f: int, plan, fld: Field) -> tuple[int, ...]:
    """A full session on one size-(d-2b) helper subset's flat payloads: the
    oracle for repair2.repair_estimate."""
    session = RepairSession(plan, f, fld)
    split = {h: rounds(plan, payloads[h]) for h in subset}
    for j in range(1, len(plan.iterations) + 1):
        session.decoder_round(j, {h: split[h][j - 1] for h in subset})
    return session.finalize()
