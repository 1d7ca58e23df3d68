import math
import random
import re
from dataclasses import fields
from fractions import Fraction
from itertools import chain, combinations

import pytest

from baercode.errors import BaerCodeError, DivisibilityViolationError
from baercode.galois import Field, is_prime
from baercode.params import (
    CodeParams,
    Derived,
    capacity_upper_bound,
    check_field,
    err_resilient_bound,
    format_params_text,
    parse_params_text,
    schedule_scheme2,
    validate,
)


def random_valid_params(rng):
    """Sample a parameter tuple satisfying every constraint."""
    b = rng.randrange(0, 3)
    kappa = rng.randrange(1, 4)
    k = kappa + 2 * b
    delta = rng.randrange(1, 4)
    d_set = []
    d = k + rng.randrange(0, 3)
    for _ in range(delta):
        d_set.append(d)
        d += rng.randrange(1, 3)
    d_set = sorted(set(d_set))
    n = d_set[-1] + 1 + rng.randrange(0, 3)
    base = math.lcm(*(d - 2 * b for d in d_set))
    alpha = base * rng.randrange(1, 4)
    return CodeParams(n=n, k=k, d_set=tuple(d_set), b=b, alpha=alpha)


def gamma_map(code):
    """{d: gamma_mbr(d)} over D, the map capacity_upper_bound reads."""
    return {d: code.gamma_of(d) for d in code.d_set}


def test_validate_small_adaptive_cluster(ex3_code):
    assert (ex3_code.lam, ex3_code.kappa, ex3_code.z) == (2, 1, 3)
    assert ex3_code.beta_of(4) == 3 and ex3_code.beta_of(5) == 2
    assert ex3_code.f_mbr == 6


def test_validate_adversary_free_cluster(ex1_code):
    assert (ex1_code.lam, ex1_code.kappa, ex1_code.z) == (3, 2, 4)
    assert ex1_code.f_mbr == 20


def test_a_code_is_its_validated_params():
    """A validated code carries the checked fields as its own, not in a
    nested record: it reads as its input field by field, its params compare
    equal to the input, and equal inputs give codes that compare and hash
    alike, so one flat record keys every cache holding a code."""
    assert issubclass(Derived, CodeParams)
    rng = random.Random(32)
    for _ in range(50):
        p = random_valid_params(rng)
        code = validate(p)
        assert all(getattr(code, f.name) == getattr(p, f.name) for f in fields(CodeParams))
        assert code.params == p and type(code.params) is CodeParams
        twin = validate(CodeParams(n=p.n, k=p.k, d_set=p.d_set[::-1], b=p.b, alpha=p.alpha))
        assert twin == code and hash(twin) == hash(code) and twin is not code
        assert validate(code) == code
    assert "params" not in {f.name for f in fields(Derived)}


def test_validate_rejections():
    with pytest.raises(BaerCodeError,
                       match=re.escape("alpha=5 is not a multiple of lcm(d-2b for d in D)=6")):
        validate(CodeParams(n=6, k=3, d_set=(4, 5), b=1, alpha=5))   # lcm(2,3)=6
    with pytest.raises(BaerCodeError, match="^need 2b < k <= d_min, got b=1, k=2, d_min=4$"):
        validate(CodeParams(n=6, k=2, d_set=(4, 5), b=1, alpha=6))   # 2b == k
    with pytest.raises(BaerCodeError, match="^need 2b < k <= d_min, got b=1, k=5, d_min=4$"):
        validate(CodeParams(n=6, k=5, d_set=(4, 5), b=1, alpha=6))   # k > d_min
    with pytest.raises(BaerCodeError, match="^d=5 exceeds n-1=4; helpers must be surviving nodes$"):
        validate(CodeParams(n=5, k=3, d_set=(4, 5), b=1, alpha=6))   # d=5 > n-1
    with pytest.raises(BaerCodeError, match="^D must be non-empty$"):
        validate(CodeParams(n=6, k=3, d_set=(), b=1, alpha=6))


def test_gamma_mbr_values(ex3_code, ex1_code):
    assert ex3_code.gamma_of(5) == 10
    assert ex3_code.gamma_of(4) == 12
    for d in ex1_code.d_set:            # b = 0: total repair traffic is alpha
        assert ex1_code.gamma_of(d) == ex1_code.alpha
    with pytest.raises(BaerCodeError, match=re.escape("d=6 not in D=(4, 5)")):
        ex3_code.gamma_of(6)
    with pytest.raises(BaerCodeError, match=re.escape("d=6 not in D=(4, 5)")):
        ex3_code.beta_of(6)
    with pytest.raises(BaerCodeError, match=re.escape("d=6 not in D=(4, 5)")):
        schedule_scheme2(ex3_code, 6)       # the schedule refuses d through beta_of


def test_f_mbr_values(ex3_code, ex1_code):
    assert ex3_code.f_mbr == 6
    assert ex1_code.f_mbr == 20
    tiny = validate(CodeParams(n=3, k=1, d_set=(1,), b=0, alpha=1))
    assert tiny.f_mbr == 1


def test_capacity_upper_bound(ex3_code, ex1_code):
    # direct evaluation oracle for the ex3 parameters (kappa = 1 term)
    gamma = gamma_map(ex3_code)
    direct = min(
        Fraction(ex3_code.alpha),
        min(Fraction((d - 2) * gamma[d], d) for d in ex3_code.d_set),
    )
    assert capacity_upper_bound(ex3_code, gamma) == direct == 6
    assert capacity_upper_bound(ex1_code, gamma_map(ex1_code)) == 20
    doubled = {d: 2 * g for d, g in gamma.items()}
    assert capacity_upper_bound(ex3_code, doubled) == ex3_code.alpha * ex3_code.kappa
    with pytest.raises(BaerCodeError, match="^gamma map missing d=5$"):
        capacity_upper_bound(ex3_code, {4: 12})


def test_capacity_bound_meets_f_mbr_randomized():
    rng = random.Random(23)
    for _ in range(60):
        code = validate(random_valid_params(rng))
        assert capacity_upper_bound(code, gamma_map(code)) == code.f_mbr


def test_per_helper_bandwidth_is_exact_division():
    rng = random.Random(29)
    for _ in range(40):
        code = validate(random_valid_params(rng))
        for d in code.d_set:
            assert code.beta_of(d) * (d - 2 * code.b) == code.alpha
            assert code.gamma_of(d) == d * code.beta_of(d)


def test_classical_and_err_resilient_bounds():
    assert err_resilient_bound(2, 3, 0, 3, 3) == 5       # min(3,3) + min(3,2)
    assert err_resilient_bound(3, 4, 1, 6, 12) == 6      # single i=2 term
    # k > d: nodes i >= d bring nothing, so no term is negative
    assert err_resilient_bound(5, 3, 0, 6, 6) == 12      # 6 + 4 + 2
    assert err_resilient_bound(5, 3, 1, 6, 6) == 2       # single i=2 term
    # with b = 0 the resilient sum is the classical one, for any k and d
    rng = random.Random(3)
    for _ in range(30):
        k = rng.randrange(1, 6)
        d = rng.randrange(1, 9)
        alpha = rng.randrange(1, 10)
        gamma = rng.randrange(0, 30)
        direct = sum(min(Fraction(alpha), Fraction((d - i) * gamma, d)) for i in range(min(k, d)))
        assert err_resilient_bound(k, d, 0, alpha, gamma) == direct
    with pytest.raises(BaerCodeError, match="^k must be an integer >= 1, got 0$"):
        err_resilient_bound(0, 3, 0, 3, 3)
    with pytest.raises(BaerCodeError, match="^b must be an integer >= 0, got -1$"):
        err_resilient_bound(2, 3, -1, 3, 3)


def test_negative_gamma_is_refused():
    with pytest.raises(BaerCodeError, match="^gamma must be non-negative$"):
        err_resilient_bound(3, 4, 1, 6, -1)
    with pytest.raises(BaerCodeError, match="^gamma must be non-negative$"):
        err_resilient_bound(2, 3, 0, 3, Fraction(-1, 2))


def test_schedule_two_iterations(a12_code):
    plan = schedule_scheme2(a12_code, 5)
    assert plan.xi == 2 and plan.zeta == 6
    first, second = plan.iterations
    assert (first.tau, first.mu, first.sigma, first.m) == (2, 1, 1, 3)
    assert first.groups == ((1, 2), (3, 4), (5, 6))
    assert (second.tau, second.mu, second.sigma) == (1, 3, 0)
    assert second.groups == ((2, 4, 6),)
    assert sum(it.n_groups for it in plan.iterations) == 4


def test_schedule_single_iteration(a12_code):
    plan = schedule_scheme2(a12_code, 4)
    (only,) = plan.iterations
    assert only.sigma == 0 and only.group_size == 1 and only.n_groups == 6
    assert sum(it.n_groups for it in plan.iterations) == 6


def test_schedule_divisibility_violation(ex3_code):
    with pytest.raises(DivisibilityViolationError):
        schedule_scheme2(ex3_code, 5)    # zeta=3 cannot form groups of 2


def test_schedule_scheme2_reach():
    """Scheme 2 serves a configuration when every d in D has a plan.  Over
    n 4..12, b 0..2, every valid k, |D| <= 3 and the smallest alpha,
    lcm(d-2b), 1774 of 3576 configurations have one."""
    configs = served = 0
    for n in range(4, 13):
        for b in range(3):
            for k in range(2 * b + 1, n):
                for d_set in chain.from_iterable(combinations(range(k, n), r) for r in (1, 2, 3)):
                    alpha = math.lcm(*(d - 2 * b for d in d_set))
                    code = validate(CodeParams(n=n, k=k, d_set=d_set, b=b, alpha=alpha))
                    configs += 1
                    try:
                        for d in d_set:
                            schedule_scheme2(code, d)
                    except DivisibilityViolationError:
                        continue
                    served += 1
    assert (configs, served) == (3576, 1774)
    mid = CodeParams(n=10, k=4, d_set=(6, 7), b=1, alpha=20)
    b2 = CodeParams(n=12, k=5, d_set=(8, 9, 10), b=2, alpha=60)
    for params, d, active in ((mid, 7, 5), (b2, 9, 15), (b2, 10, 15)):
        with pytest.raises(DivisibilityViolationError) as exc:
            schedule_scheme2(validate(params), d)
        assert str(exc.value) == (f"d={d}: iteration 1 needs groups of 2 segments "
                                  f"but {active} segments are active (alpha={params.alpha})")


def test_schedule_bandwidth_identities_randomized():
    rng = random.Random(41)
    seen = 0
    while seen < 25:
        code = validate(random_valid_params(rng))
        for d in code.d_set:
            try:
                plan = schedule_scheme2(code, d)
            except DivisibilityViolationError:
                continue
            span = d - 2 * code.b
            assert sum(it.n_groups * span for it in plan.iterations) == code.alpha
            assert sum(it.n_groups for it in plan.iterations) == code.beta_of(d)
            assert plan.iterations[-1].sigma == 0
            for it in plan.iterations[:-1]:
                assert 0 < it.sigma < it.tau
            seen += 1


def test_check_field_boundary(ex3_code):
    check_field(ex3_code, Field(7))      # p-1 == n boundary accepted
    with pytest.raises(BaerCodeError, match=re.escape("GF(5) has only 4 nonzero points, need n=6")):
        check_field(ex3_code, Field(5))


def test_params_file_round_trip(ex3_code):
    text = format_params_text(ex3_code.params, 17)
    params, p = parse_params_text(text)
    assert params == ex3_code.params and p == 17
    params2, p2 = parse_params_text("n=6\nk=3\nb=1\nalpha=6\nD=4,5\n# comment\n")
    assert params2 == ex3_code.params and p2 is None


def test_params_file_refuses_a_repeated_key(ex3_code):
    text = format_params_text(ex3_code.params)
    with pytest.raises(BaerCodeError, match="^params line 6: repeated key 'alpha'$"):
        parse_params_text(text + "alpha=12\n")
    with pytest.raises(BaerCodeError, match="^params line 6: repeated key 'd'$"):
        parse_params_text(text + "d=4\n")               # keys are case-insensitive


def test_params_file_refuses_an_unknown_key(ex3_code):
    text = format_params_text(ex3_code.params)
    with pytest.raises(BaerCodeError, match="^params line 2: unknown key 'aplha'$"):
        parse_params_text("# ex3\naplha=12\n" + text)
    with pytest.raises(BaerCodeError, match="^params line 6: unknown key 'prime'$"):
        parse_params_text(text + "prime=17\n")
    upper = parse_params_text("N=6\nK=3\nB=1\nALPHA=6\nd=4,5\nP=17\n")
    assert upper == (ex3_code.params, 17)


def test_params_file_p_is_below_2_64(ex3_code):
    largest = 18446744073709551557          # 2**64 - 59, the largest prime below 2**64
    assert largest == 2**64 - 59 and is_prime(largest)
    assert parse_params_text(format_params_text(ex3_code.params, largest))[1] == largest
    assert Field(largest).p == largest
    above = 2**64 + 13                      # the smallest prime above 2**64
    assert is_prime(above)
    with pytest.raises(BaerCodeError,
                       match=re.escape(f"params file: p={above} is not below 2**64")):
        parse_params_text(format_params_text(ex3_code.params, above))
