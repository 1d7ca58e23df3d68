"""The CLI and the simulator repair through one driver and must agree."""

import random
import re
from itertools import combinations
from operator import mul

import pytest

from baercode import adversary as adv
from baercode import concat, repair, repair1, repair2
from baercode.cli import main
from baercode.encoder import build_data_matrix, encode_all, format_share
from baercode.galois import Field
from baercode.params import schedule_scheme2
from baercode.repair import parse_records
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
        assert parse_records(text) == (scheme, h, f, d, tuple(payload))


# Each scheme's column function, as the decoder stacks it: cols(f->h).
DECODER_COLS = {
    "1": lambda code, fld, f, d, helpers, h: repair1._theta_cols(code, fld, d, h),
    "2": lambda code, fld, f, d, helpers, h: repair2._stream_cols(
        schedule_scheme2(code, d), fld, f, h),
    "concat": lambda code, fld, f, d, helpers, h: concat._cols(code, fld, helpers, h),
}


@pytest.mark.parametrize("scheme, code_name", [
    ("1", "ex3_code"), ("2", "a12_code"), ("concat", "ex1_code"),
])
def test_every_honest_payload_is_the_lost_share_times_its_columns(request, scheme, code_name):
    """x_h @ cols(h->f) == x_f @ cols(f->h): the identity the one group
    decoder relies on, for every f, d and helper set."""
    code = request.getfixturevalue(code_name)
    fld = _field(request, scheme)
    rng = random.Random(12)
    dm = build_data_matrix([rng.randrange(fld.p) for _ in range(code.f_mbr)], code, fld)
    shares = {s.index: s for s in encode_all(dm, code, fld)}
    for f in shares:
        for d in code.d_set:
            for helpers in combinations([h for h in shares if h != f], d):
                sent, _ = repair.transmit(scheme, {h: shares[h] for h in helpers}, f, d,
                                          adv.AdversaryPolicy(), code, fld)
                for h, payload in sent.items():
                    flat = tuple(v for rnd in payload for v in rnd) if scheme == "2" else payload
                    cols = DECODER_COLS[scheme](code, fld, f, d, helpers, h)
                    assert flat == tuple(sum(map(mul, shares[f].x, c)) % fld.p for c in cols)
