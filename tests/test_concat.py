import math
import random
from itertools import combinations

import pytest

from baercode import repair
from baercode.adversary import AdversaryPolicy
from baercode.concat import assign_bipartite, component_repair_symbol
from baercode.encoder import NodeShare, build_data_matrix, encode_all
from baercode.errors import BaerCodeError, NoConsistentGroupError, NonIntegralDegreeError
from baercode.galois import Field
from baercode.params import CodeParams, validate

F7 = Field(7)


def driver_repair(shares, f, helpers, code, fld):
    """Node f repaired by honest helpers through the repair driver."""
    d = len(helpers)
    sent, _ = repair.transmit("concat", {h: shares[h] for h in helpers}, f, d,
                              AdversaryPolicy(), code, fld)
    return repair.decode("concat", sent, f, d, code, fld)


def test_complete_bipartite_when_d_equals_dmin():
    a = assign_bipartite(4, [1, 2, 3], 3)
    assert a.neighbors == ((1, 2, 3),) * 4
    assert a.left_degree == 3 and a.right_degree == 4


def test_pinned_four_by_four_realization():
    # least-degree selection with ascending-index tie-break
    a = assign_bipartite(4, [1, 2, 3, 4], 3)
    assert a.neighbors == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert all(v == 3 for v in a.helper_load().values())


def test_single_component_takes_lowest_indices():
    a = assign_bipartite(1, [5, 2, 9], 3)
    assert a.neighbors == ((2, 5, 9),)
    # least-degree ties break toward the smallest helper index
    b = assign_bipartite(2, [7, 1, 3, 9], 2)
    assert b.neighbors == ((1, 3), (7, 9))


def test_non_integral_degree_rejected():
    with pytest.raises(NonIntegralDegreeError):
        assign_bipartite(4, [1, 2, 3, 4, 5], 3)    # 12 edges over 5 helpers
    with pytest.raises(NonIntegralDegreeError):
        assign_bipartite(4, [1, 2], 3)             # fewer helpers than d_min


def test_degree_postconditions_randomized():
    rng = random.Random(19)
    done = 0
    while done < 40:
        d_min = rng.randrange(1, 6)
        d = d_min + rng.randrange(0, 4)
        base = math.lcm(d_min, d)
        alpha = base * rng.randrange(1, 4)
        n_comp = alpha // d_min
        a = assign_bipartite(n_comp, list(range(1, d + 1)), d_min)
        assert all(len(nb) == d_min for nb in a.neighbors)
        assert set(a.helper_load().values()) == {alpha // d}
        done += 1


def test_repair_exact_for_every_node_and_d(ex1_code):
    rng = random.Random(20)
    msg = [rng.randrange(7) for _ in range(20)]
    dm = build_data_matrix(msg, ex1_code, F7)
    shares = {s.index: s for s in encode_all(dm, ex1_code, F7)}
    for f in range(1, 6):
        others = [h for h in range(1, 6) if h != f]
        for d in (3, 4):
            for helpers in combinations(others, d):
                got = driver_repair(shares, f, helpers, ex1_code, F7)
                assert got.x == shares[f].x
                # per-helper traffic equals the assignment load alpha/d
                a = assign_bipartite(ex1_code.z, helpers, ex1_code.lam)
                assert set(a.helper_load().values()) == {ex1_code.alpha // d}


def test_zero_message_zero_traffic(ex1_code):
    shares = {
        s.index: s
        for s in encode_all(build_data_matrix([0] * 20, ex1_code, F7), ex1_code, F7)
    }
    for h in (1, 2, 3):
        assert component_repair_symbol(shares[h], 5, 1, ex1_code, F7) == 0
    got = driver_repair(shares, 5, (1, 2, 3), ex1_code, F7)
    assert got.x == (0,) * 12


def test_requires_b_zero_and_valid_nodes(ex3_code, ex1_code):
    rng = random.Random(21)
    msg = [rng.randrange(7) for _ in range(20)]
    shares = {
        s.index: s
        for s in encode_all(build_data_matrix(msg, ex1_code, F7), ex1_code, F7)
    }
    with pytest.raises(BaerCodeError):
        driver_repair(shares, 5, (1, 2, 3), ex3_code, F7)      # b=1 params
    with pytest.raises(BaerCodeError):
        driver_repair(shares, 5, (1, 2, 5), ex1_code, F7)      # f among helpers
    with pytest.raises(BaerCodeError):
        driver_repair(shares, 5, (1, 2), ex1_code, F7)         # d not in D


def test_driver_meters_every_payload_at_alpha_60():
    """Every f, every helper set, d in {4,5,6}: each helper sends its
    assignment load, gamma(d) = alpha symbols move, and the repair is exact."""
    code = validate(CodeParams(n=8, k=3, d_set=(4, 5, 6), b=0, alpha=60))
    fld = Field(11)
    rng = random.Random(22)
    msg = [rng.randrange(11) for _ in range(code.f_mbr)]
    shares = {s.index: s for s in encode_all(build_data_matrix(msg, code, fld), code, fld)}
    repairs = 0
    for f in range(1, 9):
        others = [h for h in range(1, 9) if h != f]
        for d in code.d_set:
            for helpers in combinations(others, d):
                sent, moved = repair.transmit("concat", {h: shares[h] for h in helpers}, f, d,
                                              AdversaryPolicy(), code, fld)
                load = assign_bipartite(code.z, helpers, code.lam).helper_load()
                assert {h: len(x) for h, x in sent.items()} == load
                assert moved == code.gamma_of(d) == code.alpha
                assert repair.decode("concat", sent, f, d, code, fld).x == shares[f].x
                repairs += 1
    assert repairs == 504


def test_short_share_sends_nothing_and_fails_the_repair(ex1_code):
    rng = random.Random(23)
    msg = [rng.randrange(7) for _ in range(20)]
    shares = {s.index: s for s in encode_all(build_data_matrix(msg, ex1_code, F7), ex1_code, F7)}
    helpers = {h: shares[h] for h in (1, 2, 3)}
    helpers[2] = NodeShare(index=2, e=shares[2].e, x=shares[2].x[:-1])
    sent, moved = repair.transmit("concat", helpers, 5, 3, AdversaryPolicy(), ex1_code, F7)
    assert sent[2] == () and moved == ex1_code.alpha - ex1_code.alpha // 3
    with pytest.raises(NoConsistentGroupError):
        repair.decode("concat", sent, 5, 3, ex1_code, F7)
