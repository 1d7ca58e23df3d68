"""The paper's per-subset test-group scan, the tests' reference decoder, and
the per-system sweep, the reference for scheme-2 certification.

The library decides every test-group with one stacked linear system
(repair1.group_decoder and testgroup_scan).  The scan below decides it as
the paper states the rule: estimate from every size-`subset_size` subset of
a group and accept the first group whose estimates all agree.  The tests run
it over reconstruct_estimate and over the scheme-2 estimates of
reference_stream.RepairSession, the paper's round-by-round decoder, as the
oracle for the stacked decoder; scheme 1's reference scan, over Theta
inverses, shares its MALFORMED sentinel.

Both repair schemes certify a field by one walk, repair1.dependent_sets,
which decides one helper set per translation class over shared prefixes:
repair1 walks each d's Thetas, repair2 each distinct exponent class of its
per-group systems.  reference_singular_systems ranks every (d, subset,
round, group) system on its own, as the sweep did before the classes, and
reference_find_field_scheme2 searches with it; reference_singular_thetas
ranks every Theta_H and every Omega truncation on its own, and
reference_find_field searches with the same ranks.  Those ranks are decided
by full_rank, Gauss-Jordan (galois.echelon), not by galois.extend_basis, the
kernel that certification, Mat.rank and the decoders' N-minor check share.
certification_work counts the ranks and basis extensions a certification
makes, elimination_count the eliminations a run makes.

concat.served hands out components by a closed-form rotation;
least_loaded_assignment is the greedy it replaces, the oracle for it.

reconstruct._node_block computes a node's block in closed form;
unit_message_node_block encodes every unit message instead, as the oracle.

repair1.group_decoder keeps E = [T; N] packed by columns; decoder_rows reads
its rows back.

galois.Mat has no identity or transpose: identity and transpose build them
for the tests' checks.  count_calls counts a Mat method's calls, for the
tests that pin exact work counts.
"""

from itertools import combinations

from baercode import galois, repair1
from baercode.encoder import build_data_matrix, encode_node
from baercode.errors import NoConsistentGroupError, SingularMatrixError, StructureViolationError
from baercode.galois import Field, Mat, _unpack, echelon, primes_from
from baercode.params import schedule_scheme2
from baercode.reconstruct import reconstruct_estimate
from baercode.repair1 import omega_build, theta
from baercode.repair2 import _group_matrix


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


def first_consistent(keys, group_size, subset_size, estimate, failures):
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


def reference_reconstruct(access, code, field):
    """The oracle for testgroup_reconstruct on an access set of k distinct
    nodes: one reconstruct_estimate per size-(k-2b) subset of each group of
    k-b nodes; a share whose length is not alpha fails its estimates."""
    by_index = {s.index: s for s in access}
    found = first_consistent(
        sorted(by_index), code.k - code.b, code.kappa,
        lambda subset: reconstruct_estimate([by_index[i] for i in subset], code, field),
        StructureViolationError,
    )
    if found is None:
        raise NoConsistentGroupError(
            f"no consistent test-group among {code.k} accessed nodes; "
            f"more than b={code.b} nodes must be corrupted"
        )
    return found


def full_rank(m):
    """m has full column rank: galois.echelon eliminates it without raising."""
    if not m.rows:
        return not m.cols
    try:
        echelon(m.data, m.field.p)
    except SingularMatrixError:
        return False
    return True


def reference_singular_systems(code, fld):
    """(checked, singular) of repair2.verify_systems_all, by one full_rank per
    (d, subset, j, group) system, in the same sweep order."""
    checked, singular = 0, []
    for d in code.d_set:
        plan = schedule_scheme2(code, d)
        span = d - 2 * code.b
        for subset in combinations(range(1, code.n + 1), span):
            for j, it in enumerate(plan.iterations, 1):
                for gi in range(it.n_groups):
                    checked += 1
                    if not full_rank(_group_matrix(plan, fld, j, gi, subset)):
                        singular.append((d, subset, j, gi))
    return checked, tuple(singular)


def reference_find_field_scheme2(code):
    """(p, rejected) of repair2.find_field_scheme2: the first prime >= n+1
    whose reference sweep finds no singular system."""
    rejected = []
    for p in primes_from(code.n + 1):
        if not reference_singular_systems(code, Field(p))[1]:
            return p, tuple(rejected)
        rejected.append(p)


def _omega_deficient(code, cfg):
    """The d in D whose Omega truncation, ranked on its own, loses column rank."""
    return tuple(d for d in code.d_set if not full_rank(
        Mat(cfg.field, [row[:code.beta_of(d)] for row in cfg.omega], cols=code.beta_of(d))))


def _theta_sets(code):
    """Every (d, H) of the Theta sweep, in sweep order."""
    return [(d, subset) for d in code.d_set
            for subset in combinations(range(1, code.n + 1), d - 2 * code.b)]


def reference_singular_thetas(code, fld):
    """(checked, omega_deficient, singular) of repair1.verify_theta_all, by
    one full_rank per Omega truncation and one per (d, H) Theta, in sweep order."""
    cfg = omega_build(code, fld)
    sets = _theta_sets(code)
    singular = tuple((d, subset) for d, subset in sets if not full_rank(theta(subset, d, cfg)))
    return len(sets), _omega_deficient(code, cfg), singular


def reference_find_field(code):
    """(p, rejected) of repair1.find_field: the first prime >= n+1 with no
    rank-deficient Omega truncation and no singular Theta, each ranked on its
    own; a prime is refused at its first failure, in sweep order."""
    rejected = []
    for p in primes_from(code.n + 1):
        cfg = omega_build(code, Field(p))
        if not _omega_deficient(code, cfg) and all(full_rank(theta(subset, d, cfg))
                                                   for d, subset in _theta_sets(code)):
            return p, tuple(rejected)
        rejected.append(p)


def least_loaded_assignment(n_components, helpers, d_min):
    """Per component (1-based order), the ascending tuple of its d_min
    helpers: each component in turn takes the d_min least-loaded helpers,
    ties broken by ascending helper index."""
    load = {u: 0 for u in helpers}
    neighbors = []
    for _ in range(n_components):
        chosen = tuple(sorted(sorted(helpers, key=lambda u: (load[u], u))[:d_min]))
        for u in chosen:
            load[u] += 1
        neighbors.append(chosen)
    return tuple(neighbors)


def unit_message_node_block(code, field, h):
    """Columns of node h's f_block x lam block: entry r of column t is entry
    t of node h's share when the message is the r-th unit vector, so that
    only block 1 is nonzero and its prefix power is 1."""
    rows = [encode_node(build_data_matrix([int(s == r) for s in range(code.f_mbr)], code, field),
                        h, code, field).x[:code.lam]
            for r in range(code.f_mbr // code.z)]
    return tuple(zip(*rows))


def decoder_rows(decoder):
    """(T, N) of a group_decoder result, as lists of rows, from its packed columns."""
    u, (cols, m, width, tc) = decoder
    rows = [list(row) for row in zip(*(_unpack(col, m, width, tc) for col in cols))]
    return rows[:u], rows[u:]


def identity(field, n):
    """The n x n identity matrix over field."""
    return Mat(field, [[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def transpose(m):
    """m^T; a matrix with no rows transposes to one with no columns."""
    return Mat(m.field, list(zip(*m.data)) or [()] * m.cols, cols=m.rows)


def count_calls(monkeypatch, name, run):
    """Calls of Mat.<name> that run() makes."""
    calls = []
    method = getattr(Mat, name)
    monkeypatch.setattr(Mat, name, lambda self: calls.append(1) or method(self))
    run()
    monkeypatch.undo()
    return len(calls)


def certification_work(monkeypatch, run):
    """(Mat.rank calls, galois.extend_basis calls) that run() makes; both
    schemes' certification walks extend their bases through repair1."""
    extensions = []
    extend = repair1.extend_basis
    monkeypatch.setattr(repair1, "extend_basis", lambda *a: extensions.append(1) or extend(*a))
    ranks = count_calls(monkeypatch, "rank", run)       # undoes both patches
    return ranks, len(extensions)


def elimination_count(monkeypatch, run):
    """galois.echelon calls that run() makes: repair1.group_decoder's and Mat.inv's."""
    calls = []
    kernel = galois.echelon
    for module in (galois, repair1):
        monkeypatch.setattr(module, "echelon", lambda *a: calls.append(1) or kernel(*a))
    run()
    monkeypatch.undo()
    return len(calls)
