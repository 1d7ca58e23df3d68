"""The CLI and the simulator repair through one driver and must agree."""

import ast
import random
import re
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest

from baercode import adversary as adv
from baercode import concat, repair, repair1, repair2
from baercode.cli import main
from baercode.encoder import NodeShare, build_data_matrix, encode_all, format_share
from baercode.errors import BaerCodeError
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
        assert parse_records(text, code) == (scheme, h, f, d, payload)


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
                    cols = DECODER_COLS[scheme](code, fld, f, d, helpers, h)
                    assert payload == tuple(sum(map(mul, shares[f].x, c)) % fld.p for c in cols)


@pytest.mark.parametrize("scheme, code_name", [
    ("1", "ex3_code"), ("2", "a12_code"), ("concat", "ex1_code"),
])
def test_out_of_range_share_sends_nothing(request, scheme, code_name):
    """A stored share holding a symbol outside range(p) sends nothing, as a
    share of the wrong length does; the other helpers send as before."""
    code = request.getfixturevalue(code_name)
    fld = _field(request, scheme)
    rng = random.Random(13)
    dm = build_data_matrix([rng.randrange(fld.p) for _ in range(code.f_mbr)], code, fld)
    shares = {s.index: s for s in encode_all(dm, code, fld)}
    f, d = code.n, max(code.d_set)
    helpers = {h: shares[h] for h in range(1, d + 1)}
    honest, moved = repair.transmit(scheme, helpers, f, d, adv.AdversaryPolicy(), code, fld)
    for shift in (fld.p, -fld.p):
        x = shares[1].x
        lying = {**helpers, 1: NodeShare(1, (x[0] + shift,) + x[1:])}
        sent, symbols = repair.transmit(scheme, lying, f, d, adv.AdversaryPolicy(), code, fld)
        assert sent == {**honest, 1: ()} and symbols == moved - len(honest[1])
        if code.b:
            assert repair.decode(scheme, sent, f, d, code, fld) == shares[f]



@pytest.mark.parametrize("entry", ["check", "transmit", "decode", "init_cluster",
                                   "refusal", "search", "sweep"])
def test_unknown_scheme_is_refused_alike_everywhere(entry, ex3_code, ex3_search):
    """Every entry to the driver, and the simulator above it, refuses a name
    outside repair.SCHEMES with the same error, before any symbol moves."""
    code, fld = ex3_code, ex3_search.field
    shares = {s.index: s for s in encode_all(
        build_data_matrix([0] * code.f_mbr, code, fld), code, fld)}
    helpers = {h: shares[h] for h in range(1, 5)}
    sent, _ = repair.transmit("1", helpers, 6, 4, adv.AdversaryPolicy(), code, fld)
    call = {
        "check": lambda: repair.check("bogus", code, fld),
        "transmit": lambda: repair.transmit("bogus", helpers, 6, 4, adv.AdversaryPolicy(),
                                            code, fld),
        "decode": lambda: repair.decode("bogus", sent, 6, 4, code, fld),
        "init_cluster": lambda: init_cluster(code, [0] * code.f_mbr, "bogus", fld),
        "refusal": lambda: repair.refusal("bogus", code),
        "search": lambda: repair.search("bogus", code),
        "sweep": lambda: repair.sweep("bogus", code, fld),
    }[entry]
    message = re.escape(f"scheme must be one of {repair.SCHEMES}, got 'bogus'")
    with pytest.raises(BaerCodeError, match=f"^{message}$"):
        call()
    assert repair.SCHEMES == ("1", "2", "concat")


def test_only_the_driver_compares_scheme_names():
    """No module but repair.py compares anything with a name of
    repair.SCHEMES, or tests membership (`in`, `not in`) in repair.SCHEMES
    or repair.RECORD_MAGIC: every scheme question is answered in the driver."""
    names, tables, found = set(repair.SCHEMES), {"SCHEMES", "RECORD_MAGIC"}, []
    for path in sorted(Path(repair.__file__).parent.glob("*.py")):
        if path.name == "repair.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and (any(
                    isinstance(side, ast.Constant) and side.value in names
                    for side in [node.left, *node.comparators]) or any(
                    isinstance(op, (ast.In, ast.NotIn))
                    and getattr(side, "attr", getattr(side, "id", None)) in tables
                    for op, side in zip(node.ops, node.comparators))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
