"""Acceptance suite: one test per shipping criterion, exact tolerances.

Field arithmetic is exact, so every equality below is literal (==).
Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import random
from itertools import combinations

import pytest

from baercode import adversary as adv
from baercode import cli, repair, repair1, repair2, simnet
from baercode.encoder import build_data_matrix, encode_all
from baercode.errors import NoConsistentGroupError
from baercode.galois import Field
from baercode.params import (
    capacity_upper_bound,
    schedule_scheme2,
    validate,
)
from baercode.reconstruct import testgroup_reconstruct as tg_reconstruct

from reference_scan import least_loaded_assignment
from reference_stream import merge
from test_concat import load, neighbors
from test_params import gamma_map, random_valid_params

SEEDS = 100


def _pass(n, text):
    print(f"\ncriterion {n:2d}: PASS - {text}")


def seeded_cluster(code, fld, seed):
    rng = random.Random(f"acceptance:{seed}")
    msg = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    dm = build_data_matrix(msg, code, fld)
    return msg, {s.index: s for s in encode_all(dm, code, fld)}


def test_c01_capacity_formulas(ex1_code, ex3_code):
    assert ex1_code.f_mbr == 20
    assert ex3_code.f_mbr == 6
    _pass(1, "f_mbr = 20 at (n=5,k=2,D={3,4},b=0,alpha=12) and 6 at (n=6,k=3,D={4,5},b=1,alpha=6)")


def test_c02_bandwidth_formulas(ex1_code, ex3_code):
    assert ex3_code.gamma_of(4) == 12
    assert ex3_code.gamma_of(5) == 10
    for d in ex1_code.d_set:
        assert ex1_code.gamma_of(d) == ex1_code.alpha
    _pass(2, "gamma_mbr(4)=12, gamma_mbr(5)=10 at (alpha=6,b=1); gamma=alpha for b=0")


def test_c03_bound_consistency():
    rng = random.Random("criterion-3")
    for _ in range(50):
        code = validate(random_valid_params(rng))
        assert capacity_upper_bound(code, gamma_map(code)) == code.f_mbr
    _pass(3, "capacity bound at gamma_mbr equals f_mbr on 50 random valid parameter sets")


def test_c04_scheme1_exact_repair(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    code = ex3_code
    trials = 0
    for seed in range(SEEDS):
        _, shares = seeded_cluster(code, fld, seed)
        for strategy in (adv.RANDOM, adv.LIAR):
            for f in range(1, 7):
                others = [h for h in range(1, 7) if h != f]
                for d in (4, 5):
                    z_d = code.alpha // (d - 2 * code.b)
                    for helpers in combinations(others, d):
                        for bad in helpers:
                            policy = adv.AdversaryPolicy(
                                controlled=(bad,), strategy=strategy, seed=seed
                            )
                            syms = {}
                            for h in helpers:
                                stored = policy.effective_share(shares[h], code, fld)
                                vec = repair1.helper_repair_symbols(stored, f, d, cfg)
                                vec = adv.corrupt_repair_symbols(policy, h, vec, fld)
                                assert len(vec) == z_d
                                syms[h] = vec
                            got = repair1.testgroup_repair(syms, f, d, cfg)
                            assert got == shares[f].x
                            trials += 1
    _pass(4, f"scheme-1 exact repair over GF({fld.p}): {trials} adversarial trials, "
             f"per-helper symbols = alpha/(d-2b)")


def test_c05_scheme2_exact_repair(a12_code, a12_field2):
    code, fld = a12_code, a12_field2
    assert fld.p >= 7 and fld.p >= code.n + 1
    plan5 = schedule_scheme2(code, 5)
    assert [(it.tau, it.mu, it.sigma) for it in plan5.iterations] == [(2, 1, 1), (1, 3, 0)]
    assert sum(it.n_groups for it in plan5.iterations) == 4
    plans = {4: schedule_scheme2(code, 4), 5: plan5}
    trials = 0
    for seed in range(SEEDS):
        _, shares = seeded_cluster(code, fld, 1000 + seed)
        for strategy in (adv.RANDOM, adv.LIAR):
            for f in range(1, 7):
                others = [h for h in range(1, 7) if h != f]
                for d in (4, 5):
                    plan = plans[d]
                    for helpers in combinations(others, d):
                        honest = {
                            h: repair2.helper_stream(shares[h], plan, f, fld)
                            for h in helpers
                        }
                        assert all(len(st) == code.beta_of(d) for st in honest.values())
                        for bad in helpers:
                            policy = adv.AdversaryPolicy(
                                controlled=(bad,), strategy=strategy, seed=seed
                            )
                            streams = dict(honest)
                            stored = policy.effective_share(shares[bad], code, fld)
                            streams[bad] = adv.corrupt_repair_symbols(
                                policy, bad, repair2.helper_stream(stored, plan, f, fld), fld
                            )
                            got = repair2.testgroup_repair2(streams, f, plan, fld)
                            assert got == shares[f].x
                            trials += 1
    _pass(5, f"scheme-2 exact repair over GF({fld.p}): {trials} adversarial trials; "
             f"d=5 schedule (2,1,1)->(1,3,0), 4 symbols per helper")


def test_c06_reconstruction_resilience(ex3_code, ex3_search):
    code, fld = ex3_code, ex3_search.field
    trials = 0
    for seed in range(SEEDS):
        msg, shares = seeded_cluster(code, fld, 2000 + seed)
        for strategy in (adv.RANDOM, adv.LIAR):
            for access in combinations(range(1, 7), 3):
                for bad in access:
                    policy = adv.AdversaryPolicy(
                        controlled=(bad,), strategy=strategy, seed=seed
                    )
                    view = [
                        adv.corrupt_access(policy, n, shares[n], code, fld)
                        for n in access
                    ]
                    try:
                        got = tg_reconstruct(view, code, fld)
                    except NoConsistentGroupError:
                        pytest.fail("no consistent group within the <= b model")
                    assert got == msg
                    trials += 1
    _pass(6, f"test-group reconstruction returned the message in all {trials} "
             f"single-corruption trials; no consistency failures")


def test_c07_merge_identity(a12_code):
    fld = Field(19)
    plan = schedule_scheme2(a12_code, 5)
    xi, p = plan.xi, fld.p
    rng = random.Random("criterion-7")
    for _ in range(1000):
        msg = [rng.randrange(p) for _ in range(a12_code.f_mbr)]
        dm = build_data_matrix(msg, a12_code, fld)
        shares = encode_all(dm, a12_code, fld)
        h, f = rng.sample(range(1, 7), 2)
        i = rng.randrange(1, plan.zeta)
        j = rng.randrange(i + 1, plan.zeta + 1)
        m = rng.randrange(xi, 2 * xi)
        sh, sf = shares[h - 1], shares[f - 1]
        e_h, e_f = fld.point(h), fld.point(f)

        def side(e_src, src, e_dst):
            merged = merge(fld, m, j - i + 1, e_src, src.x[(i - 1) * xi : i * xi],
                           src.x[(j - 1) * xi : j * xi])
            return sum(v * pow(e_dst, t, p) for t, v in enumerate(merged)) % p

        lhs = pow(e_h, (i - 1) * xi, p) * side(e_f, sf, e_h) % p
        rhs = pow(e_f, (i - 1) * xi, p) * side(e_h, sh, e_f) % p
        assert lhs == rhs
    _pass(7, "merge reflexivity identity exact on 1000 randomized instances")


def test_c08_projection_identity(ex3_code, ex3_cfg):
    fld, cfg = ex3_cfg.field, ex3_cfg
    _, shares = seeded_cluster(ex3_code, fld, 3000)
    checks = 0
    for h in range(1, 7):
        for f in range(1, 7):
            if h == f:
                continue
            for d in (4, 5):
                assert repair1.helper_repair_symbols(shares[h], f, d, cfg) == \
                    repair1.helper_repair_symbols(shares[f], h, d, cfg)
                checks += 1
    _pass(8, f"compressed-projection symmetry exact on all {checks} (h,f,d) combinations")


def test_c09_bipartite_degrees():
    import math

    rng = random.Random("criterion-9")
    for _ in range(100):
        d_min = rng.randrange(1, 7)
        d = d_min + rng.randrange(0, 5)
        alpha = math.lcm(d_min, d) * rng.randrange(1, 5)
        helpers = list(range(1, d + 1))
        nb = neighbors(alpha // d_min, helpers, d_min)
        assert all(len(comp) == d_min for comp in nb)
        assert set(load(alpha // d_min, helpers, d_min).values()) == {alpha // d}
        assert nb == least_loaded_assignment(alpha // d_min, helpers, d_min)
    assert neighbors(4, [1, 2, 3], 3) == ((1, 2, 3),) * 4
    assert set(load(4, [1, 2, 3, 4], 3).values()) == {3}
    _pass(9, "assignment degrees hold on 100 random (alpha,d_min,d) triples; "
             "complete and 3-regular instances reproduced")


def test_c10_concatenation_repair(ex1_code):
    fld = Field(7)
    trials = 0
    for seed in range(5):
        _, shares = seeded_cluster(ex1_code, fld, 4000 + seed)
        for f in range(1, 6):
            others = [h for h in range(1, 6) if h != f]
            for d in (3, 4):
                for helpers in combinations(others, d):
                    sent, moved = repair.transmit("concat", {h: shares[h] for h in helpers}, f,
                                                  d, adv.AdversaryPolicy(), ex1_code, fld)
                    got = repair.decode("concat", sent, f, d, ex1_code, fld)
                    assert got.x == shares[f].x
                    per_helper = load(ex1_code.z, helpers, ex1_code.lam)
                    assert {h: len(x) for h, x in sent.items()} == per_helper
                    assert sum(per_helper.values()) == ex1_code.alpha == moved
                    trials += 1
    _pass(10, f"concatenation: {trials} exhaustive repairs exact, traffic = alpha")


def test_c11_selftest_negative_control(tmp_path, capsys, ex3_code, ex3_search):
    small = tmp_path / "small.params"
    small.write_text("n=6\nk=3\nb=1\nalpha=6\nD=4,5\np=7\n")
    assert cli.main(["selftest", "--params", str(small), "--scheme", "1"]) == 4
    out_reject = capsys.readouterr().out
    assert "NOT certified" in out_reject

    good = tmp_path / "good.params"
    good.write_text(f"n=6\nk=3\nb=1\nalpha=6\nD=4,5\np={ex3_search.field.p}\n")
    assert cli.main(["selftest", "--params", str(good), "--scheme", "1"]) == 0
    capsys.readouterr()

    # Scheme 2 certifies what find-field --scheme 2 certifies: on the p-1 == n
    # boundary GF(7) has singular systems at alpha=12, D={4,5}, and none at
    # alpha=4, D={3,4}.
    singular = tmp_path / "singular.params"
    singular.write_text("n=6\nk=3\nb=1\nalpha=12\nD=4,5\np=7\n")
    assert cli.main(["selftest", "--params", str(singular), "--scheme", "2"]) == 4
    assert "NOT certified" in capsys.readouterr().out
    boundary = tmp_path / "boundary.params"
    boundary.write_text("n=6\nk=3\nb=1\nalpha=4\nD=3,4\np=7\n")
    assert cli.main(["selftest", "--params", str(boundary), "--scheme", "2"]) == 0
    out_accept = capsys.readouterr().out
    assert "p-1 == n boundary" in out_accept
    _pass(11, f"selftest rejects GF(7) for scheme 1 (exit 4), accepts searched "
              f"GF({ex3_search.field.p}) (exit 0); scheme 2 rejects GF(7) at alpha=12 "
              f"(exit 4) and accepts it at alpha=4, with the p-1 == n boundary documented")


def test_c12_simulator_ledger(ex3_code, ex3_search):
    code, fld = ex3_code, ex3_search.field
    rng = random.Random("criterion-12")
    msg = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
    cluster = simnet.init_cluster(code, msg, "1", fld)

    events = []
    for i in range(15):
        strategy = "random" if i % 2 == 0 else "consistent_liar"
        events.append(simnet.Event(
            kind="corrupt", strategy=strategy,
            nodes=(rng.randrange(1, 7),), seed=i,
        ))
        f = rng.randrange(1, 7)
        events.append(simnet.Event(kind="fail", node=f))
        events.append(simnet.Event(
            kind="repair", node=f, d=rng.choice((4, 5)),
            helper_policy="lowest" if i % 3 else "random",
        ))
        if i % 4 == 0:
            events.append(simnet.Event(
                kind="reconstruct",
                nodes=tuple(sorted(rng.sample(range(1, 7), 3))),
            ))
    events.append(simnet.Event(kind="reconstruct", nodes=(1, 2, 3)))
    assert len(events) == 50

    report = simnet.run_scenario(cluster, events, seed=12)
    assert report.all_ok
    repairs = [r for r in report.rows if r.kind == "repair"]
    assert repairs and all(r.symbols == r.gamma_expect for r in repairs)
    final = report.rows[-1]
    assert final.kind == "reconstruct" and final.success
    _pass(12, f"50-event scenario: {len(repairs)} repairs all at gamma_mbr(d), "
              f"final reconstruction equals the original message")
