import argparse
import random
from itertools import combinations

import pytest

from baercode import cli, repair, repair1, repair2
from baercode.adversary import (
    HONEST,
    LIAR,
    NAMES,
    RANDOM,
    AdversaryPolicy,
    corrupt_access,
    corrupt_repair_symbols,
    corrupt_storage,
)
from baercode.encoder import build_data_matrix, encode_all
from baercode.errors import BaerCodeError
from baercode.galois import Field
from baercode.params import schedule_scheme2
from baercode.reconstruct import testgroup_reconstruct as tg_reconstruct
from baercode.simnet import parse_scenario

F17 = Field(17)


def cluster(code, fld, seed):
    rng = random.Random(seed)
    msg = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
    dm = build_data_matrix(msg, code, fld)
    return msg, {s.index: s for s in encode_all(dm, code, fld)}


def test_honest_policy_is_identity(ex3_code):
    _, shares = cluster(ex3_code, F17, 1)
    pol = AdversaryPolicy(controlled=(1, 2), strategy=HONEST)
    assert corrupt_storage(pol, shares, ex3_code, F17) == shares
    assert corrupt_repair_symbols(pol, 1, (1, 2, 3), F17) == (1, 2, 3)


def test_random_replaces_controlled_share(ex3_code):
    _, shares = cluster(ex3_code, F17, 2)
    pol = AdversaryPolicy(controlled=(3,), strategy=RANDOM, seed=5)
    view = corrupt_storage(pol, shares, ex3_code, F17)
    assert view[3].x != shares[3].x
    assert len(view[3].x) == len(shares[3].x)
    assert view[3].index == 3
    for other in (1, 2, 4, 5, 6):
        assert view[other] == shares[other]
    # deterministic across invocations
    again = corrupt_storage(pol, shares, ex3_code, F17)
    assert again[3].x == view[3].x


def test_random_repair_symbols_preserve_shape(ex3_code):
    pol = AdversaryPolicy(controlled=(2,), strategy=RANDOM, seed=9)
    flat = corrupt_repair_symbols(pol, 2, (1, 2, 3), F17)
    assert len(flat) == 3 and flat != (1, 2, 3)
    longer = corrupt_repair_symbols(pol, 2, (1, 2, 3, 4), F17)
    assert len(longer) == 4 and longer[:3] == flat       # one draw per symbol, in order
    assert corrupt_repair_symbols(pol, 2, (), F17) == ()
    untouched = corrupt_repair_symbols(pol, 4, (1, 2, 3), F17)
    assert untouched == (1, 2, 3)


def test_liar_shares_encode_one_fake_message(ex3_code):
    _, shares = cluster(ex3_code, F17, 3)
    pol = AdversaryPolicy(controlled=(1, 2), strategy=LIAR, seed=4)
    view = corrupt_storage(pol, shares, ex3_code, F17)
    fakes = pol.fake_shares(ex3_code, F17)
    assert view[1] == fakes[1] and view[2] == fakes[2]
    # the two liars are mutually consistent: decoding their segments yields
    # the same fake message
    from baercode.reconstruct import reconstruct_estimate
    est1 = reconstruct_estimate([view[1]], ex3_code, F17)
    est2 = reconstruct_estimate([view[2]], ex3_code, F17)
    assert est1 == est2


def test_liar_repair_symbols_are_protocol_conformant(monkeypatch, ex3_code, ex3_cfg,
                                                     a12_code, a12_field2):
    """A liar sends the helper's output on its fake share, computed once:
    transmit makes exactly d helper calls, one per helper."""
    f, d = 1, 4
    plan = schedule_scheme2(a12_code, d)
    cases = (
        ("1", ex3_code, ex3_cfg.field, repair1, "helper_repair_symbols",
         lambda sh: repair1.helper_repair_symbols(sh, f, d, ex3_cfg)),
        ("2", a12_code, a12_field2, repair2, "helper_stream",
         lambda sh: repair2.helper_stream(sh, plan, f, a12_field2)),
    )
    for scheme, code, fld, module, name, send in cases:
        _, shares = cluster(code, fld, 4)
        helpers = {h: shares[h] for h in (2, 3, 4, 5)}
        pol = AdversaryPolicy(controlled=(2,), strategy=LIAR, seed=6)
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(a[0].index) or original(*a))
        sent, _ = repair.transmit(scheme, helpers, f, d, pol, code, fld)
        monkeypatch.undo()
        assert sorted(calls) == [2, 3, 4, 5]
        assert sent[2] == send(pol.fake_shares(code, fld)[2]) != send(shares[2])
        assert all(sent[h] == send(shares[h]) for h in (3, 4, 5))


def test_corrupt_access(ex3_code):
    _, shares = cluster(ex3_code, F17, 5)
    pol = AdversaryPolicy(controlled=(4,), strategy=RANDOM, seed=7)
    assert corrupt_access(pol, 1, shares[1], ex3_code, F17) == shares[1]
    assert corrupt_access(pol, 4, shares[4], ex3_code, F17).x != shares[4].x
    with pytest.raises(BaerCodeError):
        corrupt_access(pol, 2, shares[4], ex3_code, F17)


def test_unknown_strategy_rejected():
    with pytest.raises(BaerCodeError):
        AdversaryPolicy(controlled=(1,), strategy="omniscient")


def test_model_guarantee_under_every_policy(ex3_code):
    # any single controlled node, both strategies: reconstruction stays genuine
    msg, shares = cluster(ex3_code, F17, 6)
    for strategy in (RANDOM, LIAR):
        for controlled in range(1, 7):
            pol = AdversaryPolicy(controlled=(controlled,), strategy=strategy, seed=controlled)
            view = corrupt_storage(pol, shares, ex3_code, F17)
            for access in combinations(sorted(view), 3):
                got = tg_reconstruct([view[n] for n in access], ex3_code, F17)
                assert got == msg


def test_one_word_table_for_the_cli_and_scenarios():
    """Every word of adversary.NAMES parses in a `corrupt` scenario line, and
    every --adversary choice of the CLI picks the strategy its scenario word
    picks; the CLI accepts no word beyond honest, random and liar."""
    for word, strategy in NAMES.items():
        assert parse_scenario(f"corrupt {word} nodes=1 seed=2\n")[0].strategy == strategy
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.choices and "repair" in a.choices)
    for command in ("repair", "reconstruct"):
        choices = next(a.choices for a in subparsers.choices[command]._actions
                       if a.dest == "adversary")
        assert list(choices) == ["honest", "random", "liar"]
        for word in choices:
            args = argparse.Namespace(adversary=word, controlled="1", seed=2)
            assert cli._policy(args).strategy == parse_scenario(f"corrupt {word}\n")[0].strategy
