"""The CLI and the simulator repair through one driver and must agree."""

import random
import re

import pytest

from baercode import adversary as adv
from baercode import repair
from baercode.cli import main
from baercode.encoder import format_share
from baercode.galois import Field
from baercode.repair1 import parse_repair_record
from baercode.repair2 import REPAIR2_MAGIC, parse_round_record
from baercode.simnet import Event, init_cluster

CLI_STRATEGY = {adv.HONEST: "honest", adv.RANDOM: "random", adv.LIAR: "liar"}

CASES = [
    ("1", "ex3_code", adv.HONEST),
    ("1", "ex3_code", adv.RANDOM),
    ("1", "ex3_code", adv.LIAR),
    ("2", "a12_code", adv.HONEST),
    ("2", "a12_code", adv.RANDOM),
    ("2", "a12_code", adv.LIAR),
    ("concat", "ex1_code", adv.HONEST),
]


def _field(request, scheme):
    if scheme == "1":
        return request.getfixturevalue("ex3_search").field
    if scheme == "2":
        return request.getfixturevalue("a12_field2")
    return Field(7)


def _parse_records(scheme, text):
    """(h, f, d, payload) of one helper's record file."""
    if scheme == "1":
        return parse_repair_record(text)
    rounds = [parse_round_record(REPAIR2_MAGIC + part)
              for part in text.split(REPAIR2_MAGIC)[1:]]
    (h, f, d), = {r[:3] for r in rounds}       # one helper, one repair
    assert [r[3] for r in rounds] == list(range(1, len(rounds) + 1))
    return h, f, d, tuple(r[4] for r in rounds)


@pytest.mark.parametrize("scheme, code_name, strategy", CASES)
def test_cli_and_simulator_repair_alike(request, tmp_path, capsys, scheme, code_name, strategy):
    code = request.getfixturevalue(code_name)
    fld = _field(request, scheme)
    rng = random.Random(11)
    message = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
    f, d, liar, seed = code.n, max(code.d_set), 1, 7

    params = tmp_path / "cluster.params"
    params.write_text(
        f"n={code.n}\nk={code.k}\nb={code.b}\nalpha={code.alpha}\n"
        f"D={','.join(map(str, code.d_set))}\np={fld.p}\n"
    )
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(map(str, message)) + "\n")
    shares_dir, out, recs = tmp_path / "shares", tmp_path / "rebuilt", tmp_path / "recs"
    assert main(["encode", "--params", str(params), "--scheme", scheme,
                 "--message", str(msg), "--out", str(shares_dir)]) == 0
    helper_files = [str(p) for p in sorted(shares_dir.iterdir()) if p.name != f"node{f:02d}.share"]
    capsys.readouterr()
    assert main(["repair", "--params", str(params), "--scheme", scheme,
                 "--failed", str(f), "--d", str(d),
                 "--adversary", CLI_STRATEGY[strategy], "--controlled", str(liar),
                 "--seed", str(seed), "--out", str(out), "--records", str(recs),
                 *helper_files]) == 0
    total = int(re.search(r"total=(\d+)", capsys.readouterr().out).group(1))

    cluster = init_cluster(code, message, scheme, fld)
    cluster.run_event(Event(kind="corrupt", strategy=strategy, nodes=(liar,), seed=seed))
    cluster.run_event(Event(kind="fail", node=f))
    row = cluster.run_event(Event(kind="repair", node=f, d=d))
    assert row.success and row.detail.endswith("helpers=" + ",".join(map(str, range(1, d + 1))))
    assert out.read_text() == format_share(cluster.shares[f], code, fld, scheme)
    assert total == row.symbols == code.gamma_of(d)

    helpers = {h: cluster.shares[h] for h in range(1, d + 1)}
    sent, _ = repair.transmit(scheme, helpers, f, d, cluster.policy, code, fld)
    if scheme == "concat":
        assert list(recs.iterdir()) == []        # concat helpers send no wire records
        return
    for h, payload in sent.items():
        text = (recs / f"repair_h{h:02d}.rec").read_text()
        assert _parse_records(scheme, text) == (h, f, d, tuple(payload))
