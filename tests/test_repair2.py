import random
from itertools import combinations, takewhile

import pytest

import baercode
from baercode import adversary as adv
from baercode import repair1, repair2
from baercode.encoder import NodeShare, build_data_matrix, encode_all, encode_node
from baercode.errors import BaerCodeError, NoConsistentGroupError, SingularMatrixError
from baercode.galois import Field, Mat, is_prime, primes_from
from baercode.params import CodeParams, schedule_scheme2, validate
from baercode.repair import format_records, parse_records
from baercode.repair1 import FieldSearch, group_decoder
from baercode.repair2 import (
    _group_matrix,
    _group_matrix_inv,
    _slot_exponents,
    _stream_cols,
    find_field_scheme2,
    helper_stream,
    repair_estimate,
    testgroup_repair2 as tg_repair2,
    verify_systems_all,
)

from reference_scan import (
    certification_work,
    decoder_rows,
    first_consistent,
    reference_find_field_scheme2,
    reference_singular_systems,
    transpose,
)
from reference_stream import (
    ACTIVE,
    INACTIVE,
    KNOWN,
    RepairSession,
    SingularReducedSystemError,
    UnresolvedEntriesError,
    merge,
    reference_estimate,
    reference_stream,
    rounds,
    slot_exponents,
)

F7 = Field(7)


def encoded_cluster(code, fld, seed):
    rng = random.Random(seed)
    msg = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    dm = build_data_matrix(msg, code, fld)
    return msg, {s.index: s for s in encode_all(dm, code, fld)}


# -- merge operator ----------------------------------------------------------

def test_merge_overlap_add():
    e = 3
    inv_e = pow(e, -1, 7)
    got = merge(F7, 3, 2, e, (1, 2), (4, 5))
    assert got == (1, (2 + inv_e * 4) % 7, inv_e * 5 % 7)


def test_merge_full_overlap():
    # m == xi: elementwise v + e^(-xi) u
    e = 3
    s = pow(e, -2, 7)
    assert merge(F7, 2, 2, e, (1, 2), (4, 5)) == ((1 + s * 4) % 7, (2 + s * 5) % 7)


def test_merge_zero_tail():
    assert merge(F7, 3, 2, 3, (1, 2), (0, 0)) == (1, 2, 0)


def test_merge_reflexivity_identity(a12_code):
    # e_h^((i-1)xi) (merge(e_f, chi_f(i), chi_f(j)) . psi_h_m)
    #   == e_f^((i-1)xi) (merge(e_h, chi_h(i), chi_h(j)) . psi_f_m)
    fld = Field(19)
    plan = schedule_scheme2(a12_code, 5)
    xi, p = plan.xi, fld.p
    rng = random.Random(77)
    for _ in range(200):
        msg = [rng.randrange(p) for _ in range(a12_code.f_mbr)]
        dm = build_data_matrix(msg, a12_code, fld)
        shares = encode_all(dm, a12_code, fld)
        h, f = rng.sample(range(1, 7), 2)
        i = rng.randrange(1, plan.zeta)
        j = rng.randrange(i + 1, plan.zeta + 1)
        m = rng.randrange(xi, 2 * xi)
        e_h, e_f = fld.point(h), fld.point(f)
        sh, sf = shares[h - 1], shares[f - 1]

        def side(e_src, src, e_dst):
            merged = merge(fld, m, j - i + 1, e_src, src.x[(i - 1) * xi : i * xi],
                           src.x[(j - 1) * xi : j * xi])
            dot = sum(v * pow(e_dst, t, p) for t, v in enumerate(merged)) % p
            return dot

        lhs = pow(e_h, (i - 1) * xi, p) * side(e_f, sf, e_h) % p
        rhs = pow(e_f, (i - 1) * xi, p) * side(e_h, sh, e_f) % p
        assert lhs == rhs


# -- helper-side symbols -----------------------------------------------------

def test_round1_symbol_matches_display(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 3)
    plan = schedule_scheme2(a12_code, 5)
    f, h = 6, 2
    e_h, e_f = F7.point(h), F7.point(f)
    x = shares[h].x
    inv_eh = pow(e_h, -1, 7)
    merged = (x[0], (x[1] + inv_eh * x[2]) % 7, inv_eh * x[3] % 7)
    expect = sum(v * pow(e_f, t, 7) for t, v in enumerate(merged)) % 7
    got = rounds(plan, helper_stream(shares[h], plan, f, F7))[0]
    assert got[0] == expect
    assert len(got) == 3


def test_round2_symbol_matches_display(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 3)
    plan = schedule_scheme2(a12_code, 5)
    f, h = 6, 4
    e_f = F7.point(f)
    x = shares[h].x
    expect = (
        x[2] * pow(e_f, 2, 7) + x[3] * pow(e_f, 3, 7)
        + x[6] * pow(e_f, 6, 7) + x[7] * pow(e_f, 7, 7)
        + x[10] * pow(e_f, 10, 7) + x[11] * pow(e_f, 11, 7)
    ) % 7
    assert rounds(plan, helper_stream(shares[h], plan, f, F7))[1] == (expect,)


def test_zero_share_zero_symbols(a12_code):
    zeros = encode_all(build_data_matrix([0] * 12, a12_code, F7), a12_code, F7)
    plan = schedule_scheme2(a12_code, 5)
    assert helper_stream(zeros[0], plan, 6, F7) == (0, 0, 0, 0)


def test_helper_stream_length_is_beta(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 4)
    for d in (4, 5):
        plan = schedule_scheme2(a12_code, d)
        st = helper_stream(shares[1], plan, 3, F7)
        assert len(st) == sum(it.n_groups for it in plan.iterations) == a12_code.beta_of(d)
    # d=5 -> 4 symbols (3 groups + 1 group); d=4 -> 6 symbols


def test_helper_plan_mismatches(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 5)
    plan = schedule_scheme2(a12_code, 5)
    with pytest.raises(BaerCodeError, match="^failed node cannot help repair itself$"):
        helper_stream(shares[6], plan, 6, F7)      # the failed node cannot help


# -- decoder sessions --------------------------------------------------------

def test_round1_label_pattern(a12_code):
    # after round one: entries 1,4,5,8,9,12 known; 2,6,10 inactive; 3,7,11 active
    _, shares = encoded_cluster(a12_code, F7, 6)
    plan = schedule_scheme2(a12_code, 5)
    f = 6
    streams = {h: rounds(plan, helper_stream(shares[h], plan, f, F7)) for h in (1, 2, 3)}
    sess = RepairSession(plan, f, F7)
    sess.decoder_round(1, {h: streams[h][0] for h in (1, 2, 3)})
    pattern = {KNOWN: [1, 4, 5, 8, 9, 12], INACTIVE: [2, 6, 10], ACTIVE: [3, 7, 11]}
    for label, positions in pattern.items():
        assert [i + 1 for i, l in enumerate(sess.labels) if l == label] == positions
    # recovered values already match the encoder on every known entry
    for i, l in enumerate(sess.labels):
        if l == KNOWN:
            assert sess.values[i] == shares[f].x[i]


def test_single_iteration_path(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 7)
    plan = schedule_scheme2(a12_code, 4)
    f = 5
    subset = (1, 2)
    streams = {h: rounds(plan, helper_stream(shares[h], plan, f, F7)) for h in subset}
    sess = RepairSession(plan, f, F7)
    sess.decoder_round(1, {h: streams[h][0] for h in subset})
    assert set(sess.labels) == {KNOWN}
    assert sess.finalize() == shares[f].x


def test_full_session_and_finalize(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 8)
    plan = schedule_scheme2(a12_code, 5)
    f = 6
    streams = {h: helper_stream(shares[h], plan, f, F7) for h in (1, 2, 3)}
    assert reference_estimate(streams, (1, 2, 3), f, plan, F7) == shares[f].x
    zeros = {s.index: s for s in
             encode_all(build_data_matrix([0] * 12, a12_code, F7), a12_code, F7)}
    zstream = {h: helper_stream(zeros[h], plan, f, F7) for h in (1, 2, 3)}
    assert reference_estimate(zstream, (1, 2, 3), f, plan, F7) == (0,) * 12


def test_finalize_rejects_unfinished(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 9)
    plan = schedule_scheme2(a12_code, 5)
    streams = {h: rounds(plan, helper_stream(shares[h], plan, 6, F7)) for h in (1, 2, 3)}
    sess = RepairSession(plan, 6, F7)
    with pytest.raises(UnresolvedEntriesError):
        sess.finalize()
    sess.decoder_round(1, {h: streams[h][0] for h in (1, 2, 3)})
    with pytest.raises(UnresolvedEntriesError):
        sess.finalize()     # active entries remain before the last round


def test_decoder_round_plan_mismatches(a12_code):
    _, shares = encoded_cluster(a12_code, F7, 10)
    plan = schedule_scheme2(a12_code, 5)
    streams = {h: rounds(plan, helper_stream(shares[h], plan, 6, F7)) for h in (1, 2, 3)}
    sess = RepairSession(plan, 6, F7)
    with pytest.raises(BaerCodeError, match="^expected iteration 1, got 2$"):
        sess.decoder_round(2, {h: streams[h][1] for h in (1, 2, 3)})
    with pytest.raises(BaerCodeError, match="^need 3 helpers per subset, got 2$"):
        sess.decoder_round(1, {h: streams[h][0] for h in (1, 2)})
    with pytest.raises(BaerCodeError,
                       match="^helper 1 sent 1 symbols for iteration 1, expected 3$"):
        sess.decoder_round(1, {1: streams[1][1], 2: streams[2][0], 3: streams[3][0]})


def test_repair_estimate_refuses_a_stream_off_the_plan(a12_code):
    """A malformed payload is refused as such, not as a singular subset."""
    _, shares = encoded_cluster(a12_code, F7, 10)
    plan = schedule_scheme2(a12_code, 5)
    streams = {h: helper_stream(shares[h], plan, 6, F7) for h in (1, 2, 3)}
    for shape in MALFORMED_STREAMS.values():
        with pytest.raises(BaerCodeError, match=r"^a payload is not beta\(d\) = 4 symbols long$"):
            repair_estimate({**streams, 2: shape(plan, streams[2])}, (1, 2, 3), 6, plan, F7)


# -- test-group decoding -----------------------------------------------------

def test_small_field_cases(a12_code):
    # GF(7) supports: the d=4 sweep with a corrupted helper, and the
    # d=5 repair of node 6 from subset {1,2,3}
    rng = random.Random(11)
    _, shares = encoded_cluster(a12_code, F7, 11)
    plan4 = schedule_scheme2(a12_code, 4)
    for f in range(1, 7):
        others = [h for h in range(1, 7) if h != f]
        for helpers in combinations(others, 4):
            streams = {h: helper_stream(shares[h], plan4, f, F7) for h in helpers}
            assert tg_repair2(streams, f, plan4, F7) == shares[f].x
            bad = rng.choice(helpers)
            poisoned = dict(streams)
            poisoned[bad] = tuple(rng.randrange(7) for _ in streams[bad])
            assert tg_repair2(poisoned, f, plan4, F7) == shares[f].x
    plan5 = schedule_scheme2(a12_code, 5)
    streams = {h: helper_stream(shares[h], plan5, 6, F7) for h in range(1, 6)}
    assert repair_estimate(streams, (1, 2, 3), 6, plan5, F7) == shares[6].x


def test_exhaustive_over_solvable_prime(a12_code, a12_field2):
    fld = a12_field2
    rng = random.Random(12)
    _, shares = encoded_cluster(a12_code, fld, 12)
    for d in (4, 5):
        plan = schedule_scheme2(a12_code, d)
        for f in range(1, 7):
            others = [h for h in range(1, 7) if h != f]
            for helpers in combinations(others, d):
                streams = {h: helper_stream(shares[h], plan, f, fld) for h in helpers}
                assert tg_repair2(streams, f, plan, fld) == shares[f].x
                for bad in helpers:
                    poisoned = dict(streams)
                    poisoned[bad] = tuple(rng.randrange(fld.p) for _ in streams[bad])
                    assert tg_repair2(poisoned, f, plan, fld) == shares[f].x


def test_beyond_model_corruption(a12_code, a12_field2):
    fld = a12_field2
    rng = random.Random(13)
    _, shares = encoded_cluster(a12_code, fld, 13)
    plan = schedule_scheme2(a12_code, 4)
    helpers = (1, 2, 3, 4)
    streams = {h: helper_stream(shares[h], plan, 5, fld) for h in helpers}
    for bad in (1, 2):
        streams[bad] = tuple(rng.randrange(fld.p) for _ in streams[bad])
    with pytest.raises(NoConsistentGroupError):
        tg_repair2(streams, 5, plan, fld)


def test_stream_validation(a12_code, a12_field2):
    fld = a12_field2
    _, shares = encoded_cluster(a12_code, fld, 14)
    plan = schedule_scheme2(a12_code, 5)
    streams = {h: helper_stream(shares[h], plan, 6, fld) for h in (1, 2, 3, 4)}
    with pytest.raises(BaerCodeError):
        tg_repair2(streams, 6, plan, fld)      # d=5 needs 5 streams
    streams = {h: helper_stream(shares[h], plan, 6, fld) for h in (1, 2, 3, 4, 5)}
    streams[5] = rounds(plan, streams[5])[0]          # its first round alone
    assert tg_repair2(streams, 6, plan, fld) == shares[6].x


def reframed(change):
    """A flat payload's rounds, changed by `change`, end to end again."""
    return lambda plan, payload: tuple(v for rnd in change(rounds(plan, payload)) for v in rnd)


# Each shape takes (plan, honest flat payload); "dropped round" drops the
# last round's n_groups symbols.
MALFORMED_STREAMS = {
    "dropped round": reframed(lambda rs: rs[:-1]),
    "extra round": reframed(lambda rs: rs + (rs[-1],)),
    "extra symbol": reframed(lambda rs: (rs[0] + (0,),) + rs[1:]),
    "short round": reframed(lambda rs: (rs[0][:-1],) + rs[1:]),
    "no stream": lambda plan, payload: (),
}


@pytest.mark.parametrize("shape", MALFORMED_STREAMS)
@pytest.mark.parametrize("d", [4, 5])
def test_malformed_stream_is_a_lie(a12_code, a12_field2, d, shape):
    """A payload of the wrong length is absorbed like any other lie (b=1)."""
    fld = a12_field2
    _, shares = encoded_cluster(a12_code, fld, 15)
    plan = schedule_scheme2(a12_code, d)
    helpers = range(1, d + 1)
    streams = {h: helper_stream(shares[h], plan, 6, fld) for h in helpers}
    bad = MALFORMED_STREAMS[shape]
    streams[1] = bad(plan, streams[1])          # first helper in scan order
    assert tg_repair2(streams, 6, plan, fld) == shares[6].x
    streams[2] = bad(plan, streams[2])          # two lies: outside the model
    with pytest.raises(NoConsistentGroupError):
        tg_repair2(streams, 6, plan, fld)


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("d", [4, 5])
def test_out_of_range_stream_is_a_lie(a12_code, a12_field2, d, shift):
    """A payload holding a symbol outside range(p), though equal to the
    honest one mod p, is absorbed like any other lie (b=1)."""
    fld = a12_field2
    _, shares = encoded_cluster(a12_code, fld, 16)
    plan = schedule_scheme2(a12_code, d)
    streams = {h: helper_stream(shares[h], plan, 6, fld) for h in range(1, d + 1)}
    streams[1] = (streams[1][0] + shift * fld.p,) + streams[1][1:]
    assert tg_repair2(streams, 6, plan, fld) == shares[6].x
    streams[2] = (streams[2][0] + shift * fld.p,) + streams[2][1:]
    with pytest.raises(NoConsistentGroupError):
        tg_repair2(streams, 6, plan, fld)


# -- field certification -----------------------------------------------------

def test_verify_systems_reports(a12_code, a12_field2):
    bad = verify_systems_all(a12_code, F7)
    assert not bad.ok and bad.singular
    assert all(entry[0] == 5 for entry in bad.singular)   # d=4 is always solvable
    good = verify_systems_all(a12_code, a12_field2)
    assert good.ok


def test_find_field_rejects_small_primes(a12_code, a12_field2):
    search = find_field_scheme2(a12_code)
    assert isinstance(search, FieldSearch) and search.rejected == search[2]
    _, report, rejected = search
    assert 7 in rejected
    assert report.ok


def s2_code():
    """n=10, k=4, D={7,8}, b=1, alpha=60: scheme-2 cluster certified over GF(19)."""
    return validate(CodeParams(n=10, k=4, d_set=(7, 8), b=1, alpha=60))


def test_find_field_pins_s2_search():
    cached = _group_matrix_inv.cache_info()
    fld, report, rejected = find_field_scheme2(s2_code())
    assert fld.p == 19 and rejected == (11, 13, 17)
    assert report.ok and report.checked == 5124
    assert _group_matrix_inv.cache_info() == cached     # certification keeps no inverse


def test_docs_claim_no_field_that_certification_refuses():
    """GF(11), GF(13) and GF(17) have p >= n+1 and s2 refuses them all, so
    the package and module docs ask for certified systems besides p >= n+1."""
    for doc in (baercode.__doc__, repair2.__doc__):
        text = " ".join(doc.split())
        assert "any prime field" not in text
        assert "p >= n+1 and certified per-group systems" in text


def test_verify_systems_lists_every_singular_system():
    report = verify_systems_all(s2_code(), Field(17))
    assert report.checked == 5124
    assert len(report.singular) == 69
    assert report.singular[0] == (8, (1, 2, 3, 4, 5, 9), 3, 0)


def test_find_field_names_last_prime_tried(a12_code, monkeypatch):
    monkeypatch.setattr(repair1, "MAX_CANDIDATES", 1)
    with pytest.raises(BaerCodeError, match=r"after 1 candidates \(last tried 7\)$"):
        find_field_scheme2(a12_code)


def slot_rule_matrix(plan, fld, j, gi, helpers):
    """A group's system read off the reference session's slot layout."""
    return Mat(fld, [[pow(fld.point(h), x, fld.p) for h in helpers]
                     for x in slot_exponents(plan, j, gi)], cols=len(helpers))


@pytest.mark.parametrize("params", [
    (6, 3, (4, 5), 1, 12), (10, 4, (7, 8), 1, 60), (10, 3, (7, 9), 1, 1680),
], ids=("a12", "s2", "alpha1680"))
def test_slot_exponents_follow_the_session_slots(params):
    """The library's exponents, computed from the schedule alone, are the
    reference session's slot exponents, in the same order."""
    n, k, d_set, b, alpha = params
    code = validate(CodeParams(n=n, k=k, d_set=d_set, b=b, alpha=alpha))
    for d in d_set:
        plan = schedule_scheme2(code, d)
        for j, it in enumerate(plan.iterations, 1):
            for gi in range(it.n_groups):
                assert _slot_exponents(plan, j, gi) == slot_exponents(plan, j, gi)


@pytest.mark.parametrize("name", ["a12", "s2"])
def test_group_matrix_follows_the_slot_layout(name):
    code, fld = CODES[name](), Field(19)
    for d in code.d_set:
        plan = schedule_scheme2(code, d)
        span = d - 2 * code.b
        for subset in list(combinations(range(1, code.n + 1), span))[:5]:
            for j, it in enumerate(plan.iterations, 1):
                for gi in range(it.n_groups):
                    assert max(_slot_exponents(plan, j, gi)) < code.alpha
                    assert (_group_matrix(plan, fld, j, gi, subset)
                            == slot_rule_matrix(plan, fld, j, gi, subset))


@pytest.mark.parametrize("name, p", [("a12", p) for p in (7, 11, 13, 17, 19, 23, 29, 31)]
                         + [("s2", p) for p in (11, 13, 17, 19)]
                         + [("a12", p) for p in (37, 41, 43, 47, 53, 59, 65537, 2**61 - 1)]
                         + [("i3", p) for p in takewhile(lambda p: p < 60, primes_from(9))])
def test_verify_systems_equals_the_per_system_sweep(name, p):
    """Walking each exponent class once, on the helper sets that hold node 1,
    reports what ranking every system does: the same count and the same
    singular systems, in the same order."""
    code, fld = CODES[name](), Field(p)
    report = verify_systems_all(code, fld)
    assert (report.checked, report.singular) == reference_singular_systems(code, fld)


@pytest.mark.parametrize("name", ["a12", "s2", "i3"])
def test_find_field_scheme2_equals_the_per_system_search(name):
    code = CODES[name]()
    fld, _, rejected = find_field_scheme2(code)
    assert (fld.p, rejected) == reference_find_field_scheme2(code)


def test_certification_walks_each_exponent_class_once(monkeypatch):
    """Exact work counts: certification ranks no system.  s2's 5124 systems
    at GF(19) are decided by 462 basis extensions over the helper sets that
    hold node 1, and the search over GF(11), GF(13), GF(17) and GF(19),
    walking the largest d first, extends 1237 bases, against 14266 systems."""
    code = s2_code()
    assert certification_work(monkeypatch, lambda: verify_systems_all(code, Field(19))) == (0, 462)
    assert certification_work(monkeypatch, lambda: find_field_scheme2(code)) == (0, 1237)


# The d=8 round-3 system of s2 is a generalized Vandermonde in e_h^20 (its
# exponents are 15, 16 and 20 and 40 more), so it is singular when
# gcd(20, p-1) is large; every other system of s2 solves at every prime.
S2_SINGULAR = {11: 210, 13: 156, 17: 69, 19: 0, 23: 0, 29: 4, 31: 156,
               37: 6, 41: 210, 43: 10, 47: 4, 53: 0, 59: 2, 61: 156}


def test_s2_singular_systems_are_all_in_one_round():
    code = s2_code()
    plan = schedule_scheme2(code, 8)
    assert _slot_exponents(plan, 3, 0) == (15, 16, 35, 36, 55, 56)
    counts = {}
    for p in S2_SINGULAR:
        singular = verify_systems_all(code, Field(p)).singular
        assert {(d, j, gi) for d, _, j, gi in singular} <= {(8, 3, 0)}
        counts[p] = len(singular)
    assert counts == S2_SINGULAR


# -- deeper schedules --------------------------------------------------------

def three_iteration_code():
    # lam=4, d-2b=5: tau chain 4 -> 3 -> 1 with sigma 1, 2, 0
    return validate(CodeParams(n=8, k=3, d_set=(6, 7), b=1, alpha=80))


def test_three_iteration_schedule():
    code = three_iteration_code()
    plan = schedule_scheme2(code, 7)
    taus = [(it.tau, it.mu, it.sigma) for it in plan.iterations]
    assert taus == [(4, 1, 1), (3, 1, 2), (1, 5, 0)]
    assert sum(it.n_groups for it in plan.iterations) == code.beta_of(7) == 16


def test_three_iteration_repair_exact():
    code = three_iteration_code()
    fld, report, _ = find_field_scheme2(code)
    assert report.ok
    rng = random.Random(15)
    msg = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
    dm = build_data_matrix(msg, code, fld)
    shares = {s.index: s for s in encode_all(dm, code, fld)}
    plan = schedule_scheme2(code, 7)
    f = 8
    helpers = list(range(1, 8))
    streams = {h: helper_stream(shares[h], plan, f, fld) for h in helpers}
    assert tg_repair2(streams, f, plan, fld) == shares[f].x
    bad = 4
    streams[bad] = tuple(rng.randrange(fld.p) for _ in streams[bad])
    assert tg_repair2(streams, f, plan, fld) == shares[f].x


def test_four_iteration_with_unmerged_segments():
    # lam=5, d-2b=7: tau chain 5 -> 3 -> 2 -> 1, so later sigma>0 rounds carry
    # unmerged segments (mu >= 2) next to the merged pair
    code = validate(CodeParams(n=10, k=3, d_set=(7, 9), b=1, alpha=1680))
    plan = schedule_scheme2(code, 9)
    taus = [(it.tau, it.mu, it.sigma) for it in plan.iterations]
    assert taus == [(5, 1, 2), (3, 2, 1), (2, 3, 1), (1, 7, 0)]
    assert sum(it.n_groups for it in plan.iterations) == code.beta_of(9) == 240

    subset = (1, 2, 3, 5, 6, 8, 9)
    p = 1009
    while True:
        while not is_prime(p):
            p += 1
        fld = Field(p)
        try:
            for j, it in enumerate(plan.iterations, 1):
                for gi in range(it.n_groups):
                    _group_matrix_inv(plan, fld, j, gi, subset)
            break
        except SingularMatrixError:
            p += 1
    rng = random.Random(16)
    msg = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
    dm = build_data_matrix(msg, code, fld)
    f = 10
    shares = {h: None for h in subset}
    for h in subset:
        shares[h] = encode_node(dm, h, code, fld)
    truth = encode_node(dm, f, code, fld)
    streams = {h: helper_stream(shares[h], plan, f, fld) for h in subset}
    assert reference_estimate(streams, subset, f, plan, fld) == truth.x


# -- the stacked group decoder against the per-subset scan ------------------

CODES = {
    "a12": lambda: validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=12)),
    "s2": s2_code,
    "i3": three_iteration_code,
}


def reference_repair2(streams, f, plan, fld):
    """The paper's scan, the oracle for testgroup_repair2: every size-(d-2b)
    subset of a test-group runs its own RepairSession on the payloads'
    rounds, and the first group whose estimates all agree wins.  A payload
    that is not the plan's length is a lie."""
    b = plan.code.b
    length = sum(it.n_groups for it in plan.iterations)
    sound = [h for h in sorted(streams) if len(streams[h]) == length]
    x = first_consistent(
        sound, plan.d - b, plan.d - 2 * b,
        lambda subset: reference_estimate(streams, subset, f, plan, fld),
        (SingularReducedSystemError, UnresolvedEntriesError, SingularMatrixError),
    )
    if x is None:
        raise NoConsistentGroupError(f"no consistent test-group repairing node {f}")
    return x


def outcome(decode, *args):
    try:
        return decode(*args)
    except NoConsistentGroupError:
        return NoConsistentGroupError


def estimate_outcome(estimate, *args):
    try:
        return estimate(*args)
    except (SingularMatrixError, SingularReducedSystemError, UnresolvedEntriesError):
        return "refused"


@pytest.mark.parametrize("name, p", [("a12", 7), ("a12", 19), ("s2", 19)])
def test_repair_estimate_equals_the_session(name, p):
    """The stacked solve of a subset's square system returns the session's
    estimate on honest and on uniformly random streams, and refuses exactly
    the subsets the session refuses: every subset at a12, ten per (d, f) at
    s2."""
    code, fld = CODES[name](), Field(p)
    rng = random.Random(f"estimate:{name}:{p}")
    _, shares = encoded_cluster(code, fld, 23)
    nodes = range(1, code.n + 1)
    refused = 0
    for d in code.d_set:
        plan = schedule_scheme2(code, d)
        for f in nodes:
            others = [h for h in nodes if h != f]
            subsets = list(combinations(others, d - 2 * code.b))
            if name == "s2":
                subsets = rng.sample(subsets, 10)
            honest = {h: helper_stream(shares[h], plan, f, fld) for h in others}
            noise = {h: tuple(rng.randrange(p) for _ in st) for h, st in honest.items()}
            for subset in subsets:
                want = estimate_outcome(reference_estimate, honest, subset, f, plan, fld)
                assert want in ("refused", shares[f].x)
                assert estimate_outcome(repair_estimate, honest, subset, f, plan, fld) == want
                assert (estimate_outcome(repair_estimate, noise, subset, f, plan, fld)
                        == estimate_outcome(reference_estimate, noise, subset, f, plan, fld))
                refused += want == "refused"
    assert (refused > 0) == (p == 7)        # GF(7) has singular subsets at a12, d=5


def adversarial_streams(code, plan, fld, shares, f, helpers, policy):
    send = lambda sh: helper_stream(policy.effective_share(sh, code, fld), plan, f, fld)
    return {h: adv.corrupt_repair_symbols(policy, h, send(shares[h]), fld) for h in helpers}


@pytest.mark.parametrize("name, p", [
    ("a12", 19), ("a12", 11), ("a12", 13), ("a12", 17),
    ("s2", 19), ("s2", 11), ("s2", 13), ("s2", 17),
])
def test_testgroup_repair2_equals_per_subset_scan(name, p):
    """19 certifies both configurations; 11, 13 and 17 do not."""
    code, fld = CODES[name](), Field(p)
    rng = random.Random(f"equiv2:{name}:{p}")
    nodes = range(1, code.n + 1)
    seen = set()
    for seed in range(3 if name == "s2" else 6):
        _, shares = encoded_cluster(code, fld, seed)
        for d in code.d_set:
            plan = schedule_scheme2(code, d)
            f = rng.choice(nodes)
            helpers = rng.sample([h for h in nodes if h != f], d)
            honest = adversarial_streams(code, plan, fld, shares, f, helpers, adv.AdversaryPolicy())
            cases = [(honest, True)]
            for count in (code.b, code.b + 1):              # b+1 lies: out of the model
                for strategy in (adv.RANDOM, adv.LIAR):
                    policy = adv.AdversaryPolicy(rng.sample(helpers, count), strategy, seed)
                    cases.append((adversarial_streams(code, plan, fld, shares, f, helpers, policy),
                                  count == code.b))
                for shape in MALFORMED_STREAMS.values():
                    bad = dict(honest)
                    for h in rng.sample(helpers, count):
                        bad[h] = shape(plan, bad[h])
                    cases.append((bad, count == code.b))
            for streams, in_model in cases:
                got = outcome(tg_repair2, streams, f, plan, fld)
                assert got == outcome(reference_repair2, streams, f, plan, fld)
                if in_model and p == 19:
                    assert got == shares[f].x
                seen.add(got is NoConsistentGroupError)
    assert seen == {True, False}         # both outcomes are compared


@pytest.mark.parametrize("name", ["a12", "s2"])
def test_helper_streams_are_symmetric(name):
    # psi_h M psi_f^T = psi_f M psi_h^T: h's stream to f is f's stream to h
    code, fld = CODES[name](), Field(19)
    _, shares = encoded_cluster(code, fld, 21)
    for d in code.d_set:
        plan = schedule_scheme2(code, d)
        for h, f in combinations(range(1, code.n + 1), 2):
            assert helper_stream(shares[h], plan, f, fld) == helper_stream(shares[f], plan, h, fld)


@pytest.mark.parametrize("name, p", [("a12", 7), ("a12", 19), ("s2", 11), ("s2", 19)])
def test_stream_cols_equal_the_paper_form_streams(name, p):
    """Row r of C(h, f) is the stream, in the paper's segment-by-segment form,
    that h sends f from its r-th unit share, so x_h @ C(h, f) is h's stream."""
    code, fld = CODES[name](), Field(p)
    units = [tuple(int(t == r) for t in range(code.alpha)) for r in range(code.alpha)]
    for d in code.d_set:
        plan = schedule_scheme2(code, d)
        for h in range(1, code.n + 1):
            sends = [NodeShare(index=h, x=x) for x in units]
            for f in range(1, code.n + 1):
                if f != h:
                    want = [tuple(v for rnd in reference_stream(sh, plan, f, fld) for v in rnd)
                            for sh in sends]
                    assert list(zip(*_stream_cols(plan, fld, h, f))) == want


@pytest.mark.parametrize("name, p", [("a12", 19), ("a12", 13), ("s2", 19), ("s2", 17)])
def test_stream_block_equals_a_sampled_fit(name, p):
    """Theta2 of (h, f) fitted from alpha + 10 random messages: stream_h = x_f @ C(f, h)."""
    code, fld = CODES[name](), Field(p)
    rng = random.Random(f"fit:{name}:{p}")
    dms = [build_data_matrix([rng.randrange(p) for _ in range(code.f_mbr)], code, fld)
           for _ in range(code.alpha + 10)]
    for f, h in ((1, code.n), (code.n, 2)):
        xs = Mat(fld, [encode_node(dm, f, code, fld).x for dm in dms])
        left_inv = Mat(fld, xs.echelon_transform().data[:code.alpha])
        helper_shares = [encode_node(dm, h, code, fld) for dm in dms]
        for d in code.d_set:
            plan = schedule_scheme2(code, d)
            streams = Mat(fld, [helper_stream(sh, plan, f, fld) for sh in helper_shares])
            fit = left_inv @ streams
            assert xs @ fit == streams                  # the 10 extra messages agree
            assert transpose(fit).tolist() == [list(col) for col in _stream_cols(plan, fld, f, h)]


@pytest.mark.parametrize("name, p, fs, unusable", [
    ("a12", 7, None, 30), ("a12", 11, None, 12), ("a12", 13, None, 30),
    ("a12", 17, None, 22), ("a12", 19, None, 0),
    ("s2", 17, (1, 6), 30), ("s2", 19, (1,), 0),
])
def test_group_usable_iff_every_subset_system_has_full_rank(name, p, fs, unusable):
    code, fld = CODES[name](), Field(p)
    bad = 0
    for d in code.d_set:
        plan = schedule_scheme2(code, d)
        span = d - 2 * code.b
        full = {}
        for sub in combinations(range(1, code.n + 1), span):
            full[sub] = all(_group_matrix(plan, fld, j, gi, sub).rank() == span
                            for j, it in enumerate(plan.iterations, 1)
                            for gi in range(it.n_groups))
        for f in fs or range(1, code.n + 1):
            others = [h for h in range(1, code.n + 1) if h != f]
            for group in combinations(others, d - code.b):
                want = all(full[sub] for sub in combinations(group, span))
                assert (group_decoder(_stream_cols, (plan, fld, f), group, code.b)
                        is not None) == want
                bad += not want
    assert bad == unusable


@pytest.mark.parametrize("name, p, singular", [
    ("a12", 7, 6), ("a12", 11, 0), ("a12", 13, 6), ("a12", 17, 3),
    ("a12", 19, 0), ("a12", 23, 0), ("a12", 29, 0), ("a12", 31, 0),
    ("s2", 11, 84), ("s2", 13, 57), ("s2", 17, 20), ("s2", 19, 0),
])
def test_stacked_subset_singular_iff_one_of_its_systems_is(name, p, singular):
    """A (d-2b)-subset S of the nodes other than f fails the stacked check,
    its rows _stream_cols(f, h) of rank below alpha, exactly when one of its
    per-group systems is singular.  Only the largest d has singular subsets;
    their counts pin the small-field minors."""
    code, fld = CODES[name](), Field(p)
    f, counts = code.n, {}
    for d in code.d_set:
        plan = schedule_scheme2(code, d)
        span = d - 2 * code.b
        counts[d] = 0
        for sub in combinations(range(1, f), span):
            rows = [c for h in sub for c in _stream_cols(plan, fld, f, h)]
            stacked = Mat(fld, rows).rank() < code.alpha
            assert stacked == any(_group_matrix(plan, fld, j, gi, sub).rank() < span
                                  for j, it in enumerate(plan.iterations, 1)
                                  for gi in range(it.n_groups))
            counts[d] += stacked
    assert counts == {d: singular if d == max(code.d_set) else 0 for d in code.d_set}


@pytest.mark.parametrize("p", [65537, 1000003, 4294967311, 2**61 - 1])
def test_decode_with_symbols_above_16_bits(a12_code, p):
    fld = Field(p)
    rng = random.Random(p)
    _, shares = encoded_cluster(a12_code, fld, 22)
    plan = schedule_scheme2(a12_code, 5)
    f, helpers = 6, (1, 2, 3, 4, 5)
    streams = {h: helper_stream(shares[h], plan, f, fld) for h in helpers}
    streams[1] = tuple(rng.randrange(p) for _ in streams[1])
    assert tg_repair2(streams, f, plan, fld) == shares[f].x
    decoder = group_decoder(_stream_cols, (plan, fld, f), (2, 3, 4, 5), 1)
    _, (cols, rows, width, _) = decoder
    assert width >= (len(cols) * (p - 1) ** 2).bit_length()    # a lane holds E @ rho's sums
    t, null = decoder_rows(decoder)
    assert len(t) == a12_code.alpha and len(t) + len(null) == rows
    assert all(0 <= v < p for row in t + null for v in row)


# -- wire records ------------------------------------------------------------

def test_round_record_round_trip(a12_code):
    """A flat payload goes out as one BAERR2 record per round of the plan."""
    text = format_records("2", 2, 6, 5, (4, 0, 6, 3), a12_code)
    assert text == "BAERR2 d=5 f=6 h=2 j=1\n4\n0\n6\nBAERR2 d=5 f=6 h=2 j=2\n3\n"
    assert parse_records(text, a12_code) == ("2", 2, 6, 5, (4, 0, 6, 3))
    second = text.index("BAERR2", 1)
    for bad in ("junk", text[second:], text.replace("h=2 j=2", "h=3 j=2"),
                text.replace("j=2", "j=x"), text.replace("d=5", "d=6")):
        with pytest.raises(BaerCodeError):
            parse_records(bad, a12_code)


def test_round_records_off_the_plan_are_refused(a12_code):
    """Symbols shifted between rounds, at the same total length, are framed
    off the plan: parse_records refuses them."""
    assert [it.n_groups for it in schedule_scheme2(a12_code, 5).iterations] == [3, 1]
    for framing in ([2, 2], [1, 3], [4, 0], [4]):
        records, syms = [], iter((4, 0, 6, 3))
        for j, size in enumerate(framing, 1):
            records.append(f"BAERR2 d=5 f=6 h=2 j={j}\n" + "".join(f"{next(syms)}\n" for _ in range(size)))
        with pytest.raises(BaerCodeError, match="^malformed repair record$"):
            parse_records("".join(records), a12_code)
    one_round = format_records("2", 2, 6, 4, tuple(range(6)), a12_code)
    assert one_round.count("BAERR2") == 1
    split = one_round.replace("3\n", "3\nBAERR2 d=4 f=6 h=2 j=2\n")
    with pytest.raises(BaerCodeError, match="^malformed repair record$"):
        parse_records(split, a12_code)
