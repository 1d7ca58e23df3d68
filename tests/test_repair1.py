import random
from itertools import combinations, takewhile

import pytest

from baercode import adversary as adv
from baercode import reconstruct, repair, repair1
from baercode.encoder import build_data_matrix, encode_all
from baercode.errors import (
    BaerCodeError,
    NoConsistentGroupError,
    OmegaRankDeficientError,
)
from baercode.galois import Field, Mat, primes_from
from baercode.params import CodeParams, validate
from baercode.repair import format_records, parse_records
from baercode.repair1 import (
    FieldSearch,
    find_field,
    helper_repair_symbols,
    omega_build,
    theta,
    testgroup_repair as tg_repair,
    verify_theta_all,
)

from reference_scan import (
    MALFORMED,
    certification_work,
    count_calls,
    decoder_rows,
    reference_find_field,
    reference_singular_thetas,
    transpose,
)


def encoded_cluster(code, fld, seed):
    rng = random.Random(seed)
    msg = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    dm = build_data_matrix(msg, code, fld)
    return msg, {s.index: s for s in encode_all(dm, code, fld)}


def test_default_exponents_and_truncation(ex3_code, ex3_cfg):
    cfg, p = ex3_cfg, ex3_cfg.field.p
    assert cfg.omega.shape == (3, 3)
    for row, e in zip(cfg.omega.tolist(), (1, 37, 73)):     # alpha*n*(j-1) + 1
        x = pow(cfg.field.g, e % (p - 1), p)
        assert row == [pow(x, i, p) for i in range(3)]


def omega_truncation_rank(cfg, d):
    z_d = cfg.code.beta_of(d)
    return Mat(cfg.field, [row[:z_d] for row in cfg.omega.tolist()], cols=z_d).rank()


@pytest.mark.parametrize("where, p, deficient", [("ex3", 7, (4, 5)), ("mid", 19, ())])
def test_omega_verdict_lists_every_rank_deficient_truncation(where, p, deficient, ex3_code):
    code = ex3_code if where == "ex3" else mid_code()
    cfg = omega_build(code, Field(p))
    assert cfg.deficient == deficient
    assert cfg.deficient == tuple(d for d in code.d_set
                                  if omega_truncation_rank(cfg, d) < code.beta_of(d))


@pytest.mark.parametrize("params", [
    (6, 3, (4, 5), 1, 6), (6, 3, (4, 5), 1, 12), (5, 2, (3, 4), 0, 12), (10, 4, (6, 7), 1, 20),
    (10, 4, (7, 8), 1, 60), (12, 5, (8, 9, 10), 2, 60),
], ids=["ex3", "a12", "ex1", "mid", "n10-a60", "n12-a60"])
def test_closed_form_deficiency_matches_truncation_ranks(params):
    """omega_build reads `deficient` off the exponents mod p-1; ranking every
    truncation gives the same verdict over every prime from n+1 to 400, and
    the sweep meets both verdicts."""
    n, k, d_set, b, alpha = params
    code = validate(CodeParams(n=n, k=k, d_set=d_set, b=b, alpha=alpha))
    verdicts = set()
    for p in takewhile(lambda p: p <= 400, primes_from(n + 1)):
        cfg = omega_build(code, Field(p))
        assert cfg.deficient == tuple(d for d in code.d_set
                                      if omega_truncation_rank(cfg, d) < code.beta_of(d)), p
        verdicts.update(d in cfg.deficient for d in code.d_set)
    assert verdicts == {False, True}


def test_single_component_omega_is_trivial():
    code = validate(CodeParams(n=3, k=1, d_set=(2,), b=0, alpha=2))
    cfg = omega_build(code, Field(5))
    assert cfg.omega.tolist() == [[1]]


def test_small_field_rank_deficiency(ex3_code):
    # alpha*n = 36 >= p-1 = 6 forces exponent collisions over GF(7)
    misses = omega_build.cache_info().misses
    with pytest.raises(OmegaRankDeficientError,
                       match=r"^Omega truncation rank-deficient over GF\(7\); pick a larger prime$"):
        repair.check("1", ex3_code, Field(7))
    cfg = omega_build(ex3_code, Field(7))       # the build never raises
    assert cfg.deficient
    assert omega_build.cache_info().misses - misses <= 1     # one build per (params, field)


def test_repair_vector_shapes_and_zero(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    _, shares = encoded_cluster(ex3_code, fld, 1)
    assert len(helper_repair_symbols(shares[2], 1, 4, cfg)) == 3
    assert len(helper_repair_symbols(shares[2], 1, 5, cfg)) == 2
    _, zeros = encoded_cluster(ex3_code, fld, None)
    zero_shares = {
        s.index: s
        for s in encode_all(
            build_data_matrix([0] * 6, ex3_code, fld), ex3_code, fld
        )
    }
    assert helper_repair_symbols(zero_shares[2], 1, 4, cfg) == (0, 0, 0)


def test_projection_reflexivity_exhaustive(ex3_code, ex3_cfg):
    # the compressed projection of h's share onto f equals f's onto h
    fld, cfg = ex3_cfg.field, ex3_cfg
    _, shares = encoded_cluster(ex3_code, fld, 2)
    for h in range(1, 7):
        for f in range(1, 7):
            if h == f:
                continue
            for d in (4, 5):
                assert helper_repair_symbols(shares[h], f, d, cfg) == \
                    helper_repair_symbols(shares[f], h, d, cfg)


def test_theta_shape_and_column_structure(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    th = theta((1, 2, 3), 5, cfg)
    assert th.shape == (6, 6)
    columns = transpose(th).tolist()
    # independent construction: column (t*z_d + j) stacks omega[i][j] * psi_h_t(i)^T
    for t, h in enumerate((1, 2, 3)):
        for j in range(2):
            col = []
            for i in range(1, 4):
                seg = [pow(fld.point(h), 2 * (i - 1) + t, fld.p) for t in range(2)]
                col.extend(v * cfg.omega.data[i - 1][j] % fld.p for v in seg)
            assert columns[t * 2 + j] == col


def test_theta_columns_permute_block_kruskal_form(ex3_code, ex3_cfg):
    # at d = d_min (z_d = z) the columns are a permutation of the stacked
    # [omega_row x helper-segment] construction
    fld, cfg = ex3_cfg.field, ex3_cfg
    helpers = (2, 4)
    th = theta(helpers, 4, cfg)
    xi_cols = []
    for j in range(3):            # omega column index
        for t, h in enumerate(helpers):
            col = []
            for i in range(1, 4):
                seg = [pow(fld.point(h), 2 * (i - 1) + t, fld.p) for t in range(2)]
                col.extend(v * cfg.omega.data[i - 1][j] % fld.p for v in seg)
            xi_cols.append(tuple(col))
    theta_cols = [tuple(c) for c in transpose(th).tolist()]
    assert sorted(theta_cols) == sorted(xi_cols)
    assert set(theta_cols) == set(xi_cols)


def test_estimate_exact_for_honest_subsets(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    _, shares = encoded_cluster(ex3_code, fld, 3)
    for f in range(1, 7):
        others = [h for h in range(1, 7) if h != f]
        for d in (4, 5):
            span = d - 2
            for subset in combinations(others, span):
                rho = []
                for h in subset:
                    rho.extend(helper_repair_symbols(shares[h], f, d, cfg))
                got = theta(subset, d, cfg).inv().left_mul(rho)
                assert got == shares[f].x
                # independent path: rho equals x_f @ Theta for honest inputs
                assert tuple(rho) == theta(subset, d, cfg).left_mul(shares[f].x)


def test_estimate_zero_message(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    zeros = encode_all(build_data_matrix([0] * 6, ex3_code, fld), ex3_code, fld)
    rho = []
    for h in (1, 2, 3):
        rho.extend(helper_repair_symbols(zeros[h - 1], 6, 5, cfg))
    assert theta((1, 2, 3), 5, cfg).inv().left_mul(rho) == (0,) * 6


def test_testgroup_repair_honest_and_corrupted(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    rng = random.Random(5)
    _, shares = encoded_cluster(ex3_code, fld, 5)
    for f in range(1, 7):
        others = [h for h in range(1, 7) if h != f]
        for d in (4, 5):
            for helpers in combinations(others, d):
                syms = {h: helper_repair_symbols(shares[h], f, d, cfg) for h in helpers}
                assert tg_repair(syms, f, d, cfg) == shares[f].x
                for bad in helpers:
                    poisoned = dict(syms)
                    poisoned[bad] = tuple(rng.randrange(fld.p) for _ in syms[bad])
                    assert tg_repair(poisoned, f, d, cfg) == shares[f].x


def test_testgroup_combinatorics(ex3_code, ex3_cfg):
    # d=5, b=1: test-groups of size 4, estimate subsets of size 3
    fld, cfg = ex3_cfg.field, ex3_cfg
    _, shares = encoded_cluster(ex3_code, fld, 6)
    helpers = [h for h in range(1, 7) if h != 6][:5]
    assert len(list(combinations(helpers, 5 - 1))) == 5
    assert len(list(combinations(helpers[:4], 3))) == 4
    syms = {h: helper_repair_symbols(shares[h], 6, 5, cfg) for h in helpers}
    assert tg_repair(syms, 6, 5, cfg) == shares[6].x


def test_testgroup_rejects_bad_inputs(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    _, shares = encoded_cluster(ex3_code, fld, 7)
    syms = {h: helper_repair_symbols(shares[h], 1, 4, cfg) for h in (2, 3, 4)}
    with pytest.raises(BaerCodeError):
        tg_repair(syms, 1, 4, cfg)       # only 3 of d=4 helpers
    syms = {h: helper_repair_symbols(shares[h], 1, 4, cfg) for h in (1, 2, 3, 4)}
    with pytest.raises(BaerCodeError):
        tg_repair(syms, 1, 4, cfg)       # helper equals failed node


def test_beyond_model_corruption_raises(ex3_code, ex3_cfg):
    # 2 = b+1 garbage helpers out of d=4: every test-group disagrees
    fld, cfg = ex3_cfg.field, ex3_cfg
    rng = random.Random(8)
    _, shares = encoded_cluster(ex3_code, fld, 8)
    helpers = (2, 3, 4, 5)
    syms = {h: helper_repair_symbols(shares[h], 1, 4, cfg) for h in helpers}
    syms[2] = tuple(rng.randrange(fld.p) for _ in syms[2])
    syms[3] = tuple(rng.randrange(fld.p) for _ in syms[3])
    with pytest.raises(NoConsistentGroupError):
        tg_repair(syms, 1, 4, cfg)


def test_verify_theta_reports(ex3_code, ex3_search):
    good = verify_theta_all(ex3_code, ex3_search.field)
    assert good.ok and good.checked == 35      # C(6,2) + C(6,3)
    bad = verify_theta_all(ex3_code, Field(7))
    assert not bad.ok
    assert bad.omega_deficient == (4, 5)
    assert len(bad.singular) == 35


def test_verify_trivial_single_component():
    code = validate(CodeParams(n=3, k=1, d_set=(2,), b=0, alpha=2))
    report = verify_theta_all(code, Field(5))
    assert report.ok


def test_find_field_rejects_small_primes(ex3_code, ex3_search):
    assert isinstance(ex3_search, FieldSearch) and ex3_search.rejected == ex3_search[2]
    assert 7 in ex3_search.rejected
    assert ex3_search.report.ok
    assert ex3_search.field.p >= ex3_code.n + 1


def mid_code():
    """n=10, k=4, D={6,7}, b=1, alpha=20: the first cluster whose search stops early."""
    return validate(CodeParams(n=10, k=4, d_set=(6, 7), b=1, alpha=20))


def test_find_field_pins_mid_search(monkeypatch):
    decoders = repair1.group_decoder.cache_info()
    eliminations = []
    echelon = Mat.echelon_transform
    monkeypatch.setattr(Mat, "echelon_transform",
                        lambda self: eliminations.append(self.shape) or echelon(self))
    search = find_field(mid_code())
    assert search.field.p == 23
    assert search.rejected == (11, 13, 17, 19)
    assert search.report.ok and search.report.checked == 462
    assert eliminations == []               # certification inverts no Theta
    assert repair1.group_decoder.cache_info() == decoders   # nor builds a group decoder


def a60_code():
    """n=10, k=4, D={7,8}, b=1, alpha=60: refuses every prime below 47."""
    return validate(CodeParams(n=10, k=4, d_set=(7, 8), b=1, alpha=60))


def b2_code():
    """n=12, k=5, D={8,9,10}, b=2, alpha=60: the ladder's b=2 configuration."""
    return validate(CodeParams(n=12, k=5, d_set=(8, 9, 10), b=2, alpha=60))


BELOW_60 = None     # every prime from n+1 up to 60


@pytest.mark.parametrize("where, primes, verdicts", [
    ("ex3", BELOW_60, {True, False}),
    ("mid", BELOW_60, {True, False}),
    ("a12", BELOW_60, {True, False}),
    ("a60", (19, 23, 47), {True, False}),           # 23 loses only d=7's Omega truncation
    ("ex3", (65537, 2**61 - 1), {True}),            # 64-bit lanes, and lanes past 64 bits
], ids=["ex3", "mid", "a12", "a60", "ex3-wide"])
def test_class_sweep_equals_per_subset_sweep(where, primes, verdicts, ex3_code, a12_code):
    """verify_theta_all walks one helper set per translation class, and
    find_field searches with that walk; the per-subset reference sweep ranks
    every Theta and every Omega truncation, at every prime below 60 or at
    the primes given."""
    code = {"ex3": ex3_code, "mid": mid_code(), "a12": a12_code, "a60": a60_code()}[where]
    seen = set()
    for p in primes or takewhile(lambda p: p < 60, primes_from(code.n + 1)):
        report = verify_theta_all(code, Field(p))
        got = report.checked, report.omega_deficient, report.singular
        assert got == reference_singular_thetas(code, Field(p)), p
        seen.add(report.ok)
    assert seen == verdicts                 # certified and rejected primes both compared
    search = find_field(code)
    assert (search.field.p, search.rejected) == reference_find_field(code)


def test_certification_extends_one_basis_per_helper_prefix(monkeypatch):
    """Exact work counts at mid: certification ranks no Theta.  The GF(23)
    sweep extends 330 prefix bases to decide the 462 Thetas, and the search
    over GF(11) to GF(23), walking the largest d first, extends 340."""
    code = mid_code()
    assert certification_work(monkeypatch, lambda: verify_theta_all(code, Field(23))) == (0, 330)
    assert certification_work(monkeypatch, lambda: find_field(code)) == (0, 340)


def test_find_field_pins_the_b2_search(monkeypatch):
    """The b=2 configuration: p=197 after 39 refused primes, decided by 3,142
    basis extensions, largest d first, and no rank."""
    found = []
    work = certification_work(monkeypatch, lambda: found.append(find_field(b2_code())))
    search, = found
    assert (search.field.p, len(search.rejected), search.rejected[:3]) == (197, 39, (13, 17, 19))
    assert search.report.ok and search.report.checked == 2211
    assert work == (0, 3142)


def test_group_decoders_eliminate_each_translation_class_once(monkeypatch):
    """Building every group decoder at mid over GF(23) eliminates one group per
    translation class: scheme 1's 462 groups take 252 eliminations (one per
    group took 462), reconstruction's 120 take 36 (120).  The cache still
    counts one miss per group."""
    code, fld = mid_code(), Field(23)

    def build_all(block, keys):
        repair1.group_decoder.cache_clear()
        for key, size in keys:
            for group in combinations(range(1, code.n + 1), size):
                repair1.group_decoder(block, key, group, code.b)

    s1 = [((code, fld, d), d - code.b) for d in code.d_set]
    assert count_calls(monkeypatch, "echelon_transform",
                       lambda: build_all(repair1._theta_cols, s1)) == 252
    assert repair1.group_decoder.cache_info().misses == 462
    rec = [((code, fld), code.k - code.b)]
    assert count_calls(monkeypatch, "echelon_transform",
                       lambda: build_all(reconstruct._node_block, rec)) == 36
    assert repair1.group_decoder.cache_info().misses == 120


def test_translated_group_decodes_through_its_representatives_cache_entry(monkeypatch):
    """A translate builds its representative as a group of the one cache, so
    asking for the representative afterwards is a hit, not a second build."""
    code, fld = mid_code(), Field(23)
    d = code.d_set[0]
    key, translate = (code, fld, d), tuple(range(2, d - code.b + 2))

    def request_both():
        repair1.group_decoder.cache_clear()
        repair1.group_decoder(repair1._theta_cols, key, translate, code.b)
        repair1.group_decoder(repair1._theta_cols, key, repair1.representative(translate),
                              code.b)

    assert count_calls(monkeypatch, "echelon_transform", request_both) == 1
    info = repair1.group_decoder.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_verify_theta_lists_every_singular_matrix():
    report = verify_theta_all(mid_code(), Field(19))
    assert report.checked == 462 and report.omega_deficient == ()
    assert len(report.singular) == 56
    assert report.singular[0] == (7, (1, 2, 3, 4, 10))
    assert report.summary() == "GF(19): NOT certified (56 singular Theta matrices)"


def test_find_field_names_last_prime_tried(ex3_code, monkeypatch):
    monkeypatch.setattr(repair1, "MAX_CANDIDATES", 1)
    with pytest.raises(BaerCodeError, match=r"after 1 candidates \(last tried 7\)$"):
        find_field(ex3_code)


def test_repair_record_round_trip(ex3_code):
    text = format_records("1", 3, 1, 4, (7, 0, 12), ex3_code)
    assert text == "BAERR1 d=4 f=1 h=3\n7\n0\n12\n"
    assert parse_records(text, ex3_code) == ("1", 3, 1, 4, (7, 0, 12))
    for bad in ("BOGUS\n1\n", "BAERR1 d=4 f=1\n7\n", "BAERR1 d=4 f=1 h=x\n7\n",
                "BAERR1 ", text + text):
        with pytest.raises(BaerCodeError):
            parse_records(bad, ex3_code)


# -- the stacked group decoder against the paper's per-subset scan ---------------

def reference_repair(symbols, f, d, cfg):
    """The paper's scan, the oracle for testgroup_repair: every size-(d-2b)
    subset of a test-group is decoded through its own Theta_H inverse and the
    first group whose estimates all agree wins."""
    cache = {}

    def est(subset):
        if subset not in cache:
            t_inv = cfg.theta_inv(subset, d)
            if t_inv is None:
                cache[subset] = MALFORMED
            else:
                cache[subset] = t_inv.left_mul([v for h in subset for v in symbols[h]])
        return cache[subset]

    b = cfg.code.b
    for group in combinations(sorted(symbols), d - b):
        estimates = [est(sub) for sub in combinations(group, d - 2 * b)]
        first = estimates[0]
        if first is MALFORMED:
            continue
        if all(e == first for e in estimates[1:]):
            return first
    raise NoConsistentGroupError(f"no consistent test-group repairing node {f}")


def outcome(decode, *args):
    try:
        return decode(*args)
    except NoConsistentGroupError:
        return NoConsistentGroupError


@pytest.fixture(scope="module")
def mid_cfgs():
    """mid over the certified GF(23) and the uncertified GF(19)."""
    return {p: omega_build(mid_code(), Field(p)) for p in (23, 19)}


def adversarial_symbols(code, cfg, shares, f, d, helpers, policy):
    fld = cfg.field
    return {
        h: adv.corrupt_repair_symbols(
            policy, h,
            helper_repair_symbols(policy.effective_share(shares[h], code, fld), f, d, cfg), fld,
        )
        for h in helpers
    }


@pytest.mark.parametrize("where", ["ex3", "mid23", "mid19"])
def test_testgroup_repair_equals_per_subset_scan(where, ex3_code, ex3_cfg, mid_cfgs):
    if where == "ex3":
        code, cfg = ex3_code, ex3_cfg
    else:
        code, cfg = mid_code(), mid_cfgs[int(where[3:])]
    rng = random.Random(f"equiv:{where}")
    nodes = range(1, code.n + 1)
    outcomes = {"ok": 0, "fail": 0}
    for seed in range(12):
        _, shares = encoded_cluster(code, cfg.field, seed)
        for d in code.d_set:
            f = rng.choice(nodes)
            helpers = rng.sample([h for h in nodes if h != f], d)
            cases = [adv.AdversaryPolicy()]
            for strategy in (adv.RANDOM, adv.LIAR):
                cases.append(adv.AdversaryPolicy(rng.sample(helpers, code.b), strategy, seed))
                # out of the model: b+1 liars
                cases.append(adv.AdversaryPolicy(rng.sample(helpers, code.b + 1), strategy, seed))
            for policy in cases:
                syms = adversarial_symbols(code, cfg, shares, f, d, helpers, policy)
                got = outcome(tg_repair, syms, f, d, cfg)
                assert got == outcome(reference_repair, syms, f, d, cfg)
                if len(policy.controlled) <= code.b and where != "mid19":
                    assert got == shares[f].x
                outcomes["fail" if got is NoConsistentGroupError else "ok"] += 1
    assert outcomes["ok"] and outcomes["fail"]      # both branches are compared


@pytest.mark.parametrize("p, unusable", [(19, 70), (23, 0)])
def test_group_usable_iff_every_subset_theta_invertible(p, unusable, mid_cfgs):
    code, cfg = mid_code(), mid_cfgs[p]
    full = {}
    bad = 0
    for d in code.d_set:
        for group in combinations(range(1, code.n + 1), d - code.b):
            want = True
            for sub in combinations(group, d - 2 * code.b):
                if (d, sub) not in full:
                    full[d, sub] = theta(sub, d, cfg).rank() == code.alpha
                want = want and full[d, sub]
            rows = repair1.group_decoder(repair1._theta_cols, (code, cfg.field, d), group,
                                         code.b)
            assert (rows is not None) == want
            bad += not want
    assert bad == unusable


def test_group_decoder_inverts_and_annihilates_theta(ex3_code, ex3_cfg):
    """E = [T; N] of every group, eliminated or scaled from its translation
    class's representative: scheme 1 at ex3 and mid, and reconstruction's
    _node_block at mid."""
    mid, f23 = mid_code(), Field(23)
    cases = [(repair1._theta_cols, (code, fld, d), d - code.b)
             for code, fld in ((ex3_code, ex3_cfg.field), (mid, f23)) for d in code.d_set]
    cases.append((reconstruct._node_block, (mid, f23), mid.k - mid.b))
    for block, key, size in cases:
        code, fld = key[:2]
        for group in combinations(range(1, code.n + 1), size):
            t, null = decoder_rows(repair1.group_decoder(block, key, group, code.b))
            theta_t = [col for h in group for col in block(*key, h)]   # Theta_G^T
            rows, m, u = t + null, len(theta_t), len(theta_t[0])
            assert len(t) == u == (code.alpha if block is repair1._theta_cols else code.f_mbr // code.z)
            assert len(rows) == m and all(len(r) == m for r in rows)
            assert all(0 <= v < fld.p for r in rows for v in r)
            stacked = Mat(fld, rows, cols=m) @ Mat(fld, theta_t, cols=u)
            want = [[int(i == j) for j in range(u)] for i in range(m)]
            assert stacked.tolist() == want       # T @ Theta_G^T = I, N @ Theta_G^T = 0


def wrong_length(vec, kind):
    return {"short": vec[:-1], "long": vec + (vec[0],), "empty": ()}[kind]


@pytest.mark.parametrize("kind", ["short", "long", "empty"])
@pytest.mark.parametrize("where", ["ex3", "mid"])
def test_wrong_length_helper_is_absorbed_as_a_lie(kind, where, ex3_code, ex3_cfg, mid_cfgs):
    code, cfg = (ex3_code, ex3_cfg) if where == "ex3" else (mid_code(), mid_cfgs[23])
    _, shares = encoded_cluster(code, cfg.field, 9)
    f = code.n
    for d in code.d_set:
        helpers = list(range(1, d + 1))
        syms = {h: helper_repair_symbols(shares[h], f, d, cfg) for h in helpers}
        first = dict(syms)
        first[1] = wrong_length(syms[1], kind)      # first helper in the scan order
        assert tg_repair(first, f, d, cfg) == shares[f].x
        both = dict(first)
        both[2] = wrong_length(syms[2], kind)
        with pytest.raises(NoConsistentGroupError):
            tg_repair(both, f, d, cfg)


def out_of_range(vec, p, kind):
    """vec with its first symbol moved out of range(p), equal to it mod p."""
    return (vec[0] + p if kind == "above" else vec[0] - p,) + tuple(vec[1:])


@pytest.mark.parametrize("kind", ["above", "below"])
@pytest.mark.parametrize("where", ["ex3", "mid"])
def test_out_of_range_helper_is_absorbed_as_a_lie(kind, where, ex3_code, ex3_cfg, mid_cfgs):
    """A repair vector with a symbol outside range(p) joins no group, though
    it equals the honest vector mod p: b such vectors are absorbed, b+1 are
    not.  A lane product would carry such a symbol into the next lane."""
    code, cfg = (ex3_code, ex3_cfg) if where == "ex3" else (mid_code(), mid_cfgs[23])
    p = cfg.field.p
    _, shares = encoded_cluster(code, cfg.field, 10)
    f = code.n
    for d in code.d_set:
        syms = {h: helper_repair_symbols(shares[h], f, d, cfg) for h in range(1, d + 1)}
        syms[1] = out_of_range(syms[1], p, kind)
        assert tg_repair(syms, f, d, cfg) == shares[f].x
        syms[2] = out_of_range(syms[2], p, kind)
        with pytest.raises(NoConsistentGroupError):
            tg_repair(syms, f, d, cfg)
