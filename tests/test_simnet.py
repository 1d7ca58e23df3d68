import random
import sys

import pytest

from baercode import encoder
from baercode.errors import BaerCodeError
from baercode.galois import Field
from baercode.simnet import Event, init_cluster, parse_scenario, run_scenario


def make_cluster(code, fld, scheme, seed=1):
    rng = random.Random(seed)
    msg = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
    return init_cluster(code, msg, scheme, fld)


def test_repair_bandwidth_matches_gamma(ex3_code, ex3_search):
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    cluster.run_event(Event(kind="fail", node=1))
    row = cluster.run_event(Event(kind="repair", node=1, d=4))
    assert row.symbols == 12 and row.success
    cluster.run_event(Event(kind="fail", node=2))
    row = cluster.run_event(Event(kind="repair", node=2, d=5))
    assert row.symbols == 10 and row.success


def test_repair_is_exact_against_ground_truth(ex3_code, ex3_search):
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    truth = cluster.shares[3]
    cluster.run_event(Event(kind="fail", node=3))
    assert cluster.shares[3] is None
    cluster.run_event(Event(kind="repair", node=3, d=4))
    assert cluster.shares[3] == truth


def test_repair_event_encodes_nothing(monkeypatch, ex3_code, ex3_search, a12_code, a12_field2):
    """A repair is checked against the shares encoded at set-up, not re-encoded."""
    clusters = [make_cluster(ex3_code, ex3_search.field, "1"),
                make_cluster(a12_code, a12_field2, "2")]
    truths = [cluster.shares[2] for cluster in clusters]
    for cluster in clusters:
        cluster.run_event(Event(kind="fail", node=2))
    calls = []
    holders = [m for name, m in sys.modules.items()
               if name.startswith("baercode.") and hasattr(m, "encode_node")]
    assert encoder in holders
    for module in holders:
        encode = module.encode_node
        monkeypatch.setattr(module, "encode_node",
                            lambda *args, encode=encode: calls.append(args) or encode(*args))
    for cluster, truth in zip(clusters, truths):
        row = cluster.run_event(Event(kind="repair", node=2, d=max(cluster.code.d_set)))
        assert row.success and cluster.shares[2] == truth
    assert calls == []


def test_event_errors(ex3_code, ex3_search):
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    cluster.run_event(Event(kind="fail", node=1))
    with pytest.raises(BaerCodeError, match="^node 1 already failed$"):
        cluster.run_event(Event(kind="fail", node=1))
    with pytest.raises(BaerCodeError, match="^node 2 is live; fail it first$"):
        cluster.run_event(Event(kind="repair", node=2, d=4))
    cluster.run_event(Event(kind="fail", node=2))
    with pytest.raises(BaerCodeError, match="^4 candidate helpers for d=5 repair of node 1$"):
        cluster.run_event(Event(kind="repair", node=1, d=5))    # only 4 live
    with pytest.raises(BaerCodeError):
        cluster.run_event(Event(kind="repair", node=1, d=6))
    # Report rows number the events run; a refused event takes no number.
    assert cluster.run_event(Event(kind="fail", node=3)).index == 3


def test_corrupted_helper_among_repairers(ex3_code, ex3_search):
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    cluster.run_event(Event(kind="corrupt", strategy="random", nodes=(4,), seed=3))
    cluster.run_event(Event(kind="fail", node=1))
    row = cluster.run_event(Event(kind="repair", node=1, d=5))   # helpers 2..6 incl 4
    assert row.success
    row = cluster.run_event(Event(kind="reconstruct", nodes=(1, 4, 6)))
    assert row.success


def test_helper_policies(ex3_code, ex3_search):
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    cluster.run_event(Event(kind="fail", node=6))
    row = cluster.run_event(
        Event(kind="repair", node=6, d=4, helper_policy="exclude:1")
    )
    assert row.success and row.detail == "node=6 d=4 helpers=2,3,4,5"
    cluster2 = make_cluster(ex3_code, ex3_search.field, "1")
    cluster2.run_event(Event(kind="fail", node=6))
    row = cluster2.run_event(
        Event(kind="repair", node=6, d=4, helper_policy="random"),
        rng=random.Random("x"),
    )
    assert row.success


def test_scheme2_and_concat_clusters(a12_code, a12_field2, ex1_code):
    cluster = make_cluster(a12_code, a12_field2, "2")
    cluster.run_event(Event(kind="fail", node=2))
    row = cluster.run_event(Event(kind="repair", node=2, d=5))
    assert row.symbols == 20 and row.success        # gamma(5) = 12*5/3
    c2 = make_cluster(ex1_code, Field(7), "concat")
    c2.run_event(Event(kind="fail", node=5))
    row = c2.run_event(Event(kind="repair", node=5, d=3))
    assert row.symbols == 12 and row.success        # gamma = alpha for b=0
    with pytest.raises(BaerCodeError):
        make_cluster(a12_code, a12_field2, "concat")   # b=1


def test_scenario_parse_and_run(ex3_code, ex3_search):
    text = """
    # exercise every event kind
    fail 1
    repair 1 d=4 helpers=lowest
    corrupt random nodes=3 seed=42
    fail 2
    repair 2 d=5
    reconstruct 1,2,5
    corrupt honest
    reconstruct 4,5,6
    """
    script = parse_scenario(text)
    assert [e.kind for e in script] == [
        "fail", "repair", "corrupt", "fail", "repair",
        "reconstruct", "corrupt", "reconstruct",
    ]
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    report = run_scenario(cluster, script, seed=5)
    assert report.all_ok
    for row in report.rows:
        if row.kind == "repair":
            assert row.symbols == row.gamma_expect
    rendered = report.render()
    assert rendered.splitlines()[0].startswith("# cluster: scheme=1 n=6")
    assert "totals: events=8" in rendered


def test_scenario_parse_rejects_garbage():
    with pytest.raises(BaerCodeError):
        parse_scenario("explode 3\n")
    with pytest.raises(BaerCodeError):
        parse_scenario("repair 1\n")      # missing d=


@pytest.mark.parametrize("line", [
    "repair 1 d=4 helpers=exclude:a",
    "repair 1 d=4 helpers=bogus",
    "repair 1 d=4 helpers=Random",
    "reconstruct 1,x,3",
    "corrupt random nodes=1,a",
    "corrupt random nodes=2 sed=42",
    "repair 3 d=4 helper=random",
    "fail 3 4",
    "reconstruct 1,2,3 4,5",
    "repair 3 d=4 d=5",
])
def test_scenario_parse_rejects_bad_lists_and_policies(line):
    with pytest.raises(BaerCodeError, match=r"^scenario line 2: cannot parse "):
        parse_scenario(f"fail 1\n{line}\n")


def test_liar_with_a_controlled_node_outside_the_cluster_runs(ex3_code, ex3_search):
    # Node 99 does not exist: the liar lies at node 1 only, within the model.
    script = parse_scenario("corrupt liar nodes=1,99 seed=3\nfail 2\nrepair 2 d=4\n"
                            "reconstruct 1,3,4\n")
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    truth = cluster.shares[2]
    report = run_scenario(cluster, script)
    assert report.all_ok and cluster.shares[2] == truth
    assert report.rows[0].detail == "consistent_liar nodes=1,99 seed=3"


def test_unknown_helper_policy_is_refused_at_run_time(ex3_code, ex3_search):
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    cluster.run_event(Event(kind="fail", node=6))
    with pytest.raises(BaerCodeError, match="unknown helper policy 'bogus'"):
        cluster.run_event(Event(kind="repair", node=6, d=4, helper_policy="bogus"))


def test_long_random_scenario(ex3_code, ex3_search):
    # interleave corruption, failures, repairs and reconstructions
    rng = random.Random(99)
    events = []
    for i in range(12):
        victim = rng.randrange(1, 7)
        events.append(Event(kind="corrupt", strategy="random", nodes=(victim,), seed=i))
        f = rng.randrange(1, 7)
        events.append(Event(kind="fail", node=f))
        events.append(Event(kind="repair", node=f, d=rng.choice((4, 5))))
        if i % 3 == 0:
            nodes = tuple(sorted(rng.sample(range(1, 7), 3)))
            events.append(Event(kind="reconstruct", nodes=nodes))
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    report = run_scenario(cluster, events, seed=7)
    assert report.all_ok
    final = cluster.run_event(Event(kind="reconstruct", nodes=(1, 2, 3)))
    assert final.success


@pytest.mark.parametrize("seed", range(5))
def test_out_of_model_events_are_failed_rows(ex3_code, ex3_search, seed):
    # Two liars among three accessed nodes or four helpers exceed b=1: each
    # event is logged as a FAIL row and the scenario goes on.
    script = parse_scenario(
        f"corrupt random nodes=1,2 seed={seed}\n"
        "reconstruct 1,2,3\n"
        "fail 3\n"
        "repair 3 d=4\n"
        "corrupt honest\n"
        "reconstruct 1,2,4\n"
        "repair 3 d=4\n"
        "reconstruct 1,2,3\n"
    )
    cluster = make_cluster(ex3_code, ex3_search.field, "1")
    truth = cluster.shares[3]
    report = run_scenario(cluster, script, seed=seed)
    assert [r.success for r in report.rows] == [True, False, True, False,
                                                True, True, True, True]
    failed_repair = report.rows[3]
    assert failed_repair.symbols == failed_repair.gamma_expect == 12
    assert cluster.shares[3] == truth      # repaired by the second, honest repair
    assert "failures=2" in report.render()
