import argparse
import random

import pytest

from baercode import cli, repair1
from baercode.cli import main
from baercode.galois import Field
from baercode.params import CodeParams, validate
from baercode.repair import parse_records


@pytest.fixture()
def workspace(tmp_path, ex3_code, ex3_search):
    p = ex3_search.field.p
    params = tmp_path / "cluster.params"
    params.write_text(f"n=6\nk=3\nb=1\nalpha=6\nD=4,5\np={p}\n")
    rng = random.Random(4)
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(str(rng.randrange(p)) for _ in range(6)) + "\n")
    return tmp_path, params, msg


def run(*argv):
    return main([str(a) for a in argv])


def test_bounds_table(capsys, workspace):
    _, params, _ = workspace
    assert run("bounds", "--params", params) == 0
    out = capsys.readouterr().out
    assert "capacity f_mbr = 6 symbols" in out
    assert "   4        3            12" in out
    assert "   5        2            10" in out
    assert "adaptive capacity bound at gamma_mbr: 6" in out


def test_bounds_rejects_invalid_params(capsys, tmp_path):
    bad = tmp_path / "bad.params"
    bad.write_text("n=6\nk=3\nb=1\nalpha=5\nD=4,5\n")
    assert run("bounds", "--params", bad) == 2
    assert "alpha=5" in capsys.readouterr().err


def test_encode_repair_reconstruct_round_trip(capsys, workspace, ex3_code, ex3_search):
    tmp, params, msg = workspace
    shares_dir = tmp / "shares"
    assert run("encode", "--params", params, "--scheme", "1",
               "--message", msg, "--out", shares_dir) == 0
    files = sorted(shares_dir.iterdir())
    assert [f.name for f in files] == [f"node{i:02d}.share" for i in range(1, 7)]

    # repair node 2 from 4 helpers, one of them lying, and check byte equality
    repaired = tmp / "node2.rebuilt"
    rc = run("repair", "--params", params, "--scheme", "1",
             "--failed", 2, "--d", 4, "--helpers", "1,3,4,5",
             "--adversary", "random", "--controlled", 5, "--seed", 3,
             "--out", repaired, "--records", tmp / "recs",
             *[f for f in files if f.name != "node02.share"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bandwidth: d=4 per_helper=3 total=12 (gamma_mbr=12)" in out
    assert repaired.read_bytes() == (shares_dir / "node02.share").read_bytes()
    rec = (tmp / "recs" / "repair_h01.rec").read_text()
    scheme, h, f, d, syms = parse_records(rec, ex3_code)
    assert (scheme, h, f, d) == ("1", 1, 2, 4) and len(syms) == 3

    # reconstruct through a consistent liar; message must round-trip exactly
    out_msg = tmp / "decoded.txt"
    rc = run("reconstruct", "--params", params, "--nodes", "3,4,6",
             "--adversary", "liar", "--controlled", 4, "--seed", 9,
             "--out", out_msg, *files)
    assert rc == 0
    assert out_msg.read_bytes() == msg.read_bytes()


def test_chained_repairs_round_trip(workspace):
    # encode -> repair node 2 -> repair node 3 using the rebuilt node 2 as a
    # helper -> reconstruct: the message file must come back byte for byte
    tmp, params, msg = workspace
    shares_dir = tmp / "shares"
    run("encode", "--params", params, "--scheme", "1",
        "--message", msg, "--out", shares_dir)
    files = {f.name: f for f in shares_dir.iterdir()}

    rebuilt2 = tmp / "node2.rebuilt"
    assert run("repair", "--params", params, "--scheme", "1",
               "--failed", 2, "--d", 5, "--out", rebuilt2,
               *[f for n, f in sorted(files.items()) if n != "node02.share"]) == 0
    assert rebuilt2.read_bytes() == files["node02.share"].read_bytes()

    rebuilt3 = tmp / "node3.rebuilt"
    helper_files = [f for n, f in sorted(files.items()) if n not in ("node02.share", "node03.share")]
    assert run("repair", "--params", params, "--scheme", "1",
               "--failed", 3, "--d", 4, "--helpers", "1,2,4,5",
               "--out", rebuilt3, rebuilt2, *helper_files) == 0
    assert rebuilt3.read_bytes() == files["node03.share"].read_bytes()

    out_msg = tmp / "decoded.txt"
    assert run("reconstruct", "--params", params, "--nodes", "2,3,6",
               "--out", out_msg, rebuilt2, rebuilt3, files["node06.share"]) == 0
    assert out_msg.read_bytes() == msg.read_bytes()


def test_repair_validates_helper_count(workspace):
    tmp, params, msg = workspace
    shares_dir = tmp / "shares"
    run("encode", "--params", params, "--scheme", "1",
        "--message", msg, "--out", shares_dir)
    files = sorted(shares_dir.iterdir())
    rc = run("repair", "--params", params, "--scheme", "1",
             "--failed", 2, "--d", 4, "--helpers", "1,3",
             *[f for f in files if f.name != "node02.share"])
    assert rc == 2


def test_reconstruct_beyond_model_exits_3(workspace):
    tmp, params, msg = workspace
    shares_dir = tmp / "shares"
    run("encode", "--params", params, "--scheme", "1",
        "--message", msg, "--out", shares_dir)
    files = sorted(shares_dir.iterdir())
    rc = run("reconstruct", "--params", params, "--nodes", "1,2,3",
             "--adversary", "random", "--controlled", "1,2", "--seed", 5,
             *files)
    assert rc == 3


def test_selftest_exit_codes(capsys, tmp_path, workspace):
    _, params, _ = workspace
    assert run("selftest", "--params", params, "--scheme", "1") == 0
    capsys.readouterr()
    small = tmp_path / "small.params"
    small.write_text("n=6\nk=3\nb=1\nalpha=6\nD=4,5\np=7\n")
    assert run("selftest", "--params", small, "--scheme", "1") == 4
    out = capsys.readouterr().out
    assert "NOT certified" in out
    assert "p-1 == n boundary" in out     # GF(7) supplies exactly n points
    scheme2 = tmp_path / "s2.params"
    scheme2.write_text("n=6\nk=3\nb=1\nalpha=12\nD=4,5\np=7\n")
    assert run("selftest", "--params", scheme2, "--scheme", "2") == 4
    out = capsys.readouterr().out
    assert "schedules valid" in out and "p-1 == n boundary" in out
    assert out.endswith("GF(7): 12 singular repair systems\nNOT certified\n")
    bad2 = tmp_path / "s2bad.params"
    bad2.write_text("n=6\nk=3\nb=1\nalpha=6\nD=4,5\np=7\n")
    assert run("selftest", "--params", bad2, "--scheme", "2") == 4


def test_find_field_writes_params(capsys, tmp_path, ex3_search):
    params = tmp_path / "nofield.params"
    params.write_text("n=6\nk=3\nb=1\nalpha=6\nD=4,5\n")
    out_file = tmp_path / "certified.params"
    assert run("find-field", "--params", params, "--out", out_file) == 0
    out = capsys.readouterr().out
    assert f"p={ex3_search.field.p}" in out
    assert f"p={ex3_search.field.p}" in out_file.read_text()


def test_find_field_per_scheme(capsys, tmp_path, a12_field2):
    params = tmp_path / "s2.params"
    params.write_text("n=6\nk=3\nb=1\nalpha=12\nD=4,5\n")
    assert run("find-field", "--params", params, "--scheme", "2") == 0
    out = capsys.readouterr().out
    assert f"p={a12_field2.p}" in out and "rejected primes: 7" in out
    concat_params = tmp_path / "c.params"
    concat_params.write_text("n=5\nk=2\nb=0\nalpha=12\nD=3,4\n")
    assert run("find-field", "--params", concat_params, "--scheme", "concat") == 0
    assert "p=7" in capsys.readouterr().out    # first prime >= n+1 = 6


@pytest.mark.parametrize("scheme, raw, start, want", [
    ("1", "n=6\nk=3\nb=1\nalpha=6\nD=4,5\n", 18, "rejected primes: 19\np=23\n"),
    ("2", "n=6\nk=3\nb=1\nalpha=12\nD=4,5\n", 12, "rejected primes: 13, 17\np=19\n"),
    ("concat", "n=5\nk=2\nb=0\nalpha=12\nD=3,4\n", 8, "available\np=11\n"),
], ids=("scheme1", "scheme2", "concat"))
def test_find_field_walks_one_prime_search_from_start(monkeypatch, capsys, tmp_path,
                                                      scheme, raw, start, want):
    """Every scheme's --start reaches repair1's one prime walk."""
    starts, walk = [], repair1.primes_from
    monkeypatch.setattr(repair1, "primes_from", lambda n: starts.append(n) or walk(n))
    params = tmp_path / "raw.params"
    params.write_text(raw)
    assert run("find-field", "--params", params, "--scheme", scheme, "--start", start) == 0
    assert starts == [start] and capsys.readouterr().out.endswith(want)


@pytest.mark.parametrize("scheme, raw, noun", [
    ("1", "n=6\nk=3\nb=1\nalpha=6\nD=4,5\n", "certified"),
    ("2", "n=6\nk=3\nb=1\nalpha=12\nD=4,5\n", "solvable"),
    ("concat", "n=5\nk=2\nb=0\nalpha=12\nD=3,4\n", "usable"),
], ids=("scheme1", "scheme2", "concat"))
def test_find_field_stops_below_2_64(monkeypatch, capsys, tmp_path, scheme, raw, noun):
    """2**64 - 58 has no prime above it and below 2**64: the search refuses
    without building a field at or above 2**64, and writes no params file."""
    built, field = [], repair1.Field
    monkeypatch.setattr(repair1, "Field", lambda p: built.append(p) or field(p))
    params, out_file = tmp_path / "raw.params", tmp_path / "big.params"
    params.write_text(raw)
    assert run("find-field", "--params", params, "--scheme", scheme,
               "--start", 2**64 - 58, "--out", out_file) == 2
    assert capsys.readouterr().err == f"error: no {noun} prime found below 2**64\n"
    assert built == [] and not out_file.exists()


def test_find_field_concat_refuses_b_above_zero(capsys, tmp_path):
    params = tmp_path / "b1.params"
    params.write_text("n=6\nk=3\nb=1\nalpha=12\nD=4,5\n")
    out_file = tmp_path / "found.params"
    assert run("find-field", "--params", params, "--scheme", "concat", "--out", out_file) == 4
    assert capsys.readouterr().out == "concat scheme requires b = 0\n"
    assert not out_file.exists()
    params.write_text("n=6\nk=3\nb=1\nalpha=12\nD=4,5\np=7\n")
    assert run("selftest", "--params", params, "--scheme", "concat") == 4
    assert "concat scheme requires b = 0" in capsys.readouterr().out.splitlines()


def test_scheme2_without_a_schedule_refuses_find_field_but_encodes(capsys, workspace):
    """ex3 (alpha=6) has no scheme-2 schedule at d=5: the prime search
    refuses it as a validation error, while encode, which needs no
    schedule, writes the shares."""
    tmp, params, msg = workspace
    raw = tmp / "raw.params"
    raw.write_text("n=6\nk=3\nb=1\nalpha=6\nD=4,5\n")
    assert run("find-field", "--params", raw, "--scheme", "2") == 2
    assert capsys.readouterr() == ("", "error: d=5: iteration 1 needs groups of 2 segments "
                                       "but 3 segments are active (alpha=6)\n")
    assert "p=17" in params.read_text()
    assert run("encode", "--params", params, "--scheme", "2",
               "--message", msg, "--out", tmp / "shares") == 0
    assert len(list((tmp / "shares").iterdir())) == 6


def test_concat_refuses_b_above_zero_before_writing(capsys, workspace):
    tmp, params, msg = workspace                       # ex3: b=1
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    scen = tmp / "scen.txt"
    scen.write_text("fail 1\nrepair 1 d=4\n")
    out = tmp / "concat"
    capsys.readouterr()
    for argv in (("encode", "--message", msg, "--out", out),
                 ("repair", "--failed", 1, "--d", 4, "--out", out, *sorted(shares.iterdir())[1:]),
                 ("simulate", "--scenario", scen, "--out", out)):
        assert run(argv[0], "--params", params, "--scheme", "concat", *argv[1:]) == 2
        assert capsys.readouterr() == ("", "error: concat scheme requires b = 0 parameters\n")
        assert not out.exists()


def test_forged_share_header_is_refused_before_field_arithmetic(capsys, monkeypatch,
                                                                workspace, ex3_search):
    tmp, params, msg = workspace
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    forged = shares / "node01.share"
    huge = 4503599627372423                           # a 53-bit safe prime
    forged.write_text(forged.read_text().replace(f"p={ex3_search.field.p}", f"p={huge}", 1))
    built = []
    init = Field.__init__
    monkeypatch.setattr(Field, "__init__", lambda self, p: built.append(p) or init(self, p))
    capsys.readouterr()
    assert run("reconstruct", "--params", params, *sorted(shares.iterdir())) == 2
    assert capsys.readouterr().err == f"error: {forged}: share parameters disagree with --params\n"
    assert huge not in built


def test_repeated_repairs_build_each_group_decoder_once(workspace):
    tmp, params, msg = workspace
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    helpers = [f for f in sorted(shares.iterdir()) if f.name != "node02.share"]
    argv = ("repair", "--params", params, "--failed", 2, "--d", 4, "--adversary", "random",
            "--controlled", 1, "--out", tmp / "rebuilt", *helpers)
    repair1.group_decoder.cache_clear()
    assert run(*argv) == 0
    first = repair1.group_decoder.cache_info()
    assert run(*argv) == 0
    second = repair1.group_decoder.cache_info()
    # Groups 134, 135 and 145 hold the liar; the accepted 345 is a translate of
    # 123, which it builds as a group too.  The second run finds all four groups
    # it asks for (134, 135, 145, 345) in the cache and builds nothing.
    assert first.misses == second.misses == 5
    assert second.hits == first.hits + 4


def test_repeated_repairs_pack_each_column_block_once(workspace):
    """Every scheme-1 helper projects through the failed node's one column
    block; its packed twin is built by the first repair and only read by
    the second."""
    tmp, params, msg = workspace
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    helpers = [f for f in sorted(shares.iterdir()) if f.name != "node02.share"]
    argv = ("repair", "--params", params, "--failed", 2, "--d", 4, "--adversary", "random",
            "--controlled", 1, "--out", tmp / "rebuilt", *helpers)
    repair1._packed_cols.cache_clear()
    assert run(*argv) == 0
    first = repair1._packed_cols.cache_info()
    assert run(*argv) == 0
    second = repair1._packed_cols.cache_info()
    assert first.misses == second.misses == 1
    assert second.hits == first.hits + 4             # one payload per helper


def test_simulate_report(capsys, workspace):
    tmp, params, msg = workspace
    scen = tmp / "scen.txt"
    scen.write_text(
        "fail 1\nrepair 1 d=4\ncorrupt random nodes=3 seed=5\n"
        "fail 2\nrepair 2 d=5 helpers=random\nreconstruct 1,2,6\n"
    )
    report_file = tmp / "report.txt"
    assert run("simulate", "--params", params, "--scheme", "1",
               "--scenario", scen, "--seed", 11, "--message", msg,
               "--out", report_file) == 0
    out = capsys.readouterr().out
    assert "totals: events=6" in out and "failures=0" in out
    assert report_file.read_text() == out


def test_simulate_out_of_model_prints_report_and_exits_3(capsys, workspace):
    tmp, params, msg = workspace
    scen = tmp / "scen.txt"
    scen.write_text("corrupt random nodes=1,2 seed=0\nreconstruct 1,2,3\n"
                    "corrupt honest\nreconstruct 1,2,3\n")
    assert run("simulate", "--params", params, "--scheme", "1",
               "--scenario", scen, "--message", msg) == 3
    out = capsys.readouterr().out
    rows = out.splitlines()[2:6]
    assert [r.split()[1] for r in rows] == ["corrupt", "reconstruct", "corrupt", "reconstruct"]
    assert [r.split()[-2] for r in rows] == ["ok", "FAIL", "ok", "ok"]
    assert "totals: events=4" in out and "failures=1" in out


def test_scheme2_cli_round_trip(capsys, tmp_path, a12_code, a12_field2):
    p = a12_field2.p
    params = tmp_path / "s2.params"
    params.write_text(f"n=6\nk=3\nb=1\nalpha=12\nD=4,5\np={p}\n")
    rng = random.Random(8)
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(str(rng.randrange(p)) for _ in range(12)) + "\n")
    shares_dir = tmp_path / "shares"
    assert run("encode", "--params", params, "--scheme", "2",
               "--message", msg, "--out", shares_dir) == 0
    files = sorted(shares_dir.iterdir())
    repaired = tmp_path / "node6.rebuilt"
    rc = run("repair", "--params", params, "--scheme", "2",
             "--failed", 6, "--d", 5,
             "--adversary", "liar", "--controlled", 2, "--seed", 1,
             "--out", repaired, "--records", tmp_path / "recs",
             *[f for f in files if f.name != "node06.share"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bandwidth: d=5 per_helper=4 total=20 (gamma_mbr=20)" in out
    got = repaired.read_text()
    want = (shares_dir / "node06.share").read_text().replace("scheme=2", "scheme=2")
    assert got == want
    recs = (tmp_path / "recs" / "repair_h01.rec").read_text()
    assert recs.startswith("BAERR2 d=5 f=6 h=1 j=1\n")


# -- share files of the wrong length or range are lies --------------------------

def shorten(path):
    """Drop the last body symbol of a share file."""
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def overflow(path):
    """Replace the last body symbol of a share file with 99, outside the field."""
    path.write_text("\n".join(path.read_text().splitlines()[:-1] + ["99"]) + "\n")


def encoded_dir(tmp_path, code, p, scheme):
    params = tmp_path / "c.params"
    d_list = ",".join(map(str, code.d_set))
    params.write_text(f"n={code.n}\nk={code.k}\nb={code.b}\nalpha={code.alpha}\nD={d_list}\np={p}\n")
    rng = random.Random(12)
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(str(rng.randrange(p)) for _ in range(code.f_mbr)) + "\n")
    shares_dir = tmp_path / "shares"
    assert run("encode", "--params", params, "--scheme", scheme,
               "--message", msg, "--out", shares_dir) == 0
    return params, msg, shares_dir


def test_reconstruct_absorbs_a_short_share_file(capsys, tmp_path):
    mid = validate(CodeParams(n=10, k=4, d_set=(6, 7), b=1, alpha=20))
    params, msg, shares = encoded_dir(tmp_path, mid, 23, "1")
    files = [shares / f"node{i:02d}.share" for i in (1, 2, 3, 4)]
    shorten(files[0])                                   # 19 symbols
    capsys.readouterr()
    assert run("reconstruct", "--params", params, *files) == 0
    assert capsys.readouterr().out == msg.read_text()
    shorten(files[1])
    assert run("reconstruct", "--params", params, *files) == 3


@pytest.mark.parametrize("scheme", ["1", "2"])
def test_repair_absorbs_a_short_share_file(tmp_path, scheme, ex3_code, ex3_search,
                                           a12_code, a12_field2):
    code, p = (ex3_code, ex3_search.field.p) if scheme == "1" else (a12_code, a12_field2.p)
    params, _, shares = encoded_dir(tmp_path, code, p, scheme)
    helpers = [shares / f"node{i:02d}.share" for i in (2, 3, 4, 5)]
    shorten(helpers[1])                                 # node03
    repaired = tmp_path / "node1.rebuilt"
    assert run("repair", "--params", params, "--scheme", scheme, "--failed", 1,
               "--d", 4, "--out", repaired, *helpers) == 0
    assert repaired.read_bytes() == (shares / "node01.share").read_bytes()
    shorten(helpers[2])
    assert run("repair", "--params", params, "--scheme", scheme, "--failed", 1,
               "--d", 4, "--out", repaired, *helpers) == 3


def test_an_out_of_range_share_file_is_a_lie(capsys, tmp_path, a12_code, a12_field2):
    params, msg, shares = encoded_dir(tmp_path, a12_code, a12_field2.p, "2")
    files = [shares / f"node{i:02d}.share" for i in (2, 3, 4, 5, 6)]
    overflow(files[1])                                  # node03 holds 99 > p
    repaired = tmp_path / "node1.rebuilt"
    assert run("repair", "--params", params, "--scheme", "2", "--failed", 1,
               "--d", 5, "--out", repaired, *files) == 0
    assert repaired.read_bytes() == (shares / "node01.share").read_bytes()
    capsys.readouterr()
    assert run("reconstruct", "--params", params, *files[:3]) == 0
    assert capsys.readouterr().out == msg.read_text()
    overflow(files[2])                                  # two lies: outside the model
    assert run("repair", "--params", params, "--scheme", "2", "--failed", 1,
               "--d", 5, "--out", repaired, *files) == 3
    assert run("reconstruct", "--params", params, *files[:3]) == 3


# -- caller errors exit 2 ------------------------------------------------------

@pytest.mark.parametrize("cmd, flag, value", [
    ("reconstruct", "--controlled", "1,a"),
    ("reconstruct", "--nodes", "1,x,3"),
    ("repair", "--helpers", "2,a,3,4"),
    ("repair", "--controlled", "1,a"),
])
def test_bad_comma_list_exits_2(capsys, workspace, cmd, flag, value):
    tmp, params, msg = workspace
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    extra = ("--failed", 1, "--d", 4) if cmd == "repair" else ()
    capsys.readouterr()
    assert run(cmd, "--params", params, *extra, flag, value, *sorted(shares.iterdir())) == 2
    assert capsys.readouterr().err == f"error: not a comma list of integers: {value!r}\n"


def test_bad_scenario_list_exits_2(capsys, workspace):
    tmp, params, _ = workspace
    scen = tmp / "bad.scn"
    scen.write_text("fail 1\nrepair 1 d=4 helpers=exclude:a\n")
    assert run("simulate", "--params", params, "--scenario", scen) == 2
    assert capsys.readouterr().err.startswith("error: scenario line 2: cannot parse ")


@pytest.mark.parametrize("cmd, extra", [
    ("repair", ("--failed", 2, "--d", 4)),
    ("reconstruct", ("--nodes", "1,3,4")),
])
def test_liar_ignores_controlled_nodes_outside_the_cluster(capsys, workspace, cmd, extra):
    """A consistent liar encodes its fake share only for the controlled nodes
    that exist; the real ones lie exactly as without the phantom node."""
    tmp, params, msg = workspace
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    files = [f for f in sorted(shares.iterdir()) if f.name != "node02.share"]
    outputs = []
    for controlled in ("1", "1,99", "1,0"):
        capsys.readouterr()
        assert run(cmd, "--params", params, *extra, "--adversary", "liar",
                   "--controlled", controlled, "--seed", 4, *files) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1:] == outputs[:1] * 2 and outputs[0].err == ""


@pytest.mark.parametrize("failed", [99, 0, -1])
@pytest.mark.parametrize("scheme", ["1", "2"])
def test_repair_rejects_a_failed_node_outside_the_cluster(capsys, tmp_path, scheme, failed,
                                                          ex3_code, ex3_search,
                                                          a12_code, a12_field2):
    code, p = (ex3_code, ex3_search.field.p) if scheme == "1" else (a12_code, a12_field2.p)
    params, _, shares = encoded_dir(tmp_path, code, p, scheme)
    out = tmp_path / "rebuilt"
    capsys.readouterr()
    assert run("repair", "--params", params, "--scheme", scheme, "--failed", failed,
               "--d", 4, "--out", out, *sorted(shares.iterdir())) == 2
    assert capsys.readouterr().err == f"error: invalid failed node {failed}\n"
    assert not out.exists()


# -- one parser per process ---------------------------------------------------

def test_main_builds_its_parser_once_per_process(monkeypatch, workspace):
    tmp, params, msg = workspace
    shares = tmp / "shares"
    helpers = [shares / f"node{h:02d}.share" for h in (1, 3, 4, 5)]
    tops = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        tops.append(kwargs.get("prog") == "baercode")
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run("bounds", "--params", params) == 0
        assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
        assert run("repair", "--params", params, "--failed", 2, "--d", 4,
                   "--out", tmp / "rebuilt", *helpers) == 0
        assert run("reconstruct", "--params", params, "--out", tmp / "msg", *helpers) == 0
    assert tops.count(True) == 1


def test_shared_parser_forgets_repair_outputs(capsys, workspace):
    tmp, params, msg = workspace
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    helpers = [shares / f"node{h:02d}.share" for h in (1, 3, 4, 5)]
    argv = ("repair", "--params", params, "--failed", 2, "--d", 4)
    assert run(*argv, "--records", tmp / "recs", "--out", tmp / "rebuilt", *helpers) == 0
    before = sorted(tmp.rglob("*"))
    capsys.readouterr()
    assert run(*argv, *helpers) == 0
    out = capsys.readouterr().out
    assert out.startswith((shares / "node02.share").read_text())
    assert out.endswith("bandwidth: d=4 per_helper=3 total=12 (gamma_mbr=12)\n")
    assert sorted(tmp.rglob("*")) == before


def test_shared_parser_forgets_reconstruct_nodes(workspace):
    tmp, params, msg = workspace
    shares = tmp / "shares"
    assert run("encode", "--params", params, "--message", msg, "--out", shares) == 0
    files = sorted(shares.iterdir())
    assert run("reconstruct", "--params", params, "--nodes", "2,3,4",
               "--out", tmp / "a", *files) == 0
    # files of nodes 1, 2, 5, 6: the first k are 1, 2, 5; nodes 3 and 4 are absent
    rest = [f for f in files if f.name not in ("node03.share", "node04.share")]
    assert run("reconstruct", "--params", params, "--out", tmp / "b", *rest) == 0
    assert (tmp / "a").read_bytes() == (tmp / "b").read_bytes() == msg.read_bytes()


def test_shared_parser_recovers_from_a_usage_error(capsys, workspace):
    _, params, _ = workspace
    assert run("bounds", "--params", params) == 0
    usual = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("bounds")
    assert exc.value.code == 2
    assert "--params" in capsys.readouterr().err
    assert run("bounds", "--params", params) == 0
    assert capsys.readouterr() == usual


@pytest.mark.parametrize("command", [None, "bounds", "find-field", "encode", "repair",
                                     "reconstruct", "simulate", "selftest"])
def test_shared_parser_prints_the_same_help_every_time(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    printed = []
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        printed.append(capsys.readouterr().out)
    fresh = cli.build_parser.__wrapped__()
    if command:
        sub = next(a for a in fresh._actions if isinstance(a, argparse._SubParsersAction))
        fresh = sub.choices[command]
    assert printed[0] == printed[2] == fresh.format_help()
