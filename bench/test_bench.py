"""Tests of the benchmark itself: every metric is printed with its unit, and the
correctness gates fire when a layer returns a wrong result.

    python3 -m pytest bench/test_bench.py -q

Layer functions are patched here, in the test process; `src/` is never edited.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from baercode import cli, repair1, repair2, simnet  # noqa: E402  (imported by run from src/)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
HUMAN_NAMES = ("setup_s", "get_ms_p50", "repair_ms_p50", "ops_per_s", "failed_frac",
               "peak_rss_mib")


def bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *map(str, args)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.E2E)
    assert SPEC["per_layer"] == spans.per_layer_spec()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", 7, "--seconds", 1, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = "\n".join(lines[:-1])
    names = [*HUMAN_NAMES, "get_ms_p95", "repair_ms_p95"]
    if workload == "cli-s1":
        names += ["put_ms_p50", "put_ms_p95"]
    if trace:
        names += [name for name, *_ in spans.LAYER_METRICS + spans.OVERHEAD_METRICS]
    for name in names:
        assert f"\n{name} " in "\n" + report, name
    facts = json.loads(next(ln for ln in lines if ln.startswith("facts "))[6:])
    assert facts["p"] == run.WORKLOADS[workload].config[1] and facts["src_lines"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sim-s1", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the gates fire --------------------------------------------------------

def _bump(x):
    """The same vector with its first symbol changed."""
    return (x[0] + 1,) + tuple(x[1:])


@pytest.fixture()
def rig(request):
    rig, _seconds, warm = run.setup(request.param, seed=5)
    assert warm.failed == 0
    yield request.param, rig
    rig.close()


def _measure(workload, rig):
    tally, _wall, _busy, _rates, _host, _rss = run.measure(rig, workload, seed=5, seconds=0.3)
    return tally


@pytest.mark.parametrize("rig", list(run.WORKLOADS), indirect=True)
def test_gate_fires_on_a_wrong_repaired_share(rig, monkeypatch):
    workload, rig = rig
    module, name = (repair2, "testgroup_repair2") if workload == "sim-s2" else (
        repair1, "testgroup_repair")
    decode = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: _bump(decode(*a, **kw)))
    tally = _measure(workload, rig)
    assert tally.failed >= 1
    assert tally.errors[0].startswith("repair")


@pytest.mark.parametrize("rig", list(run.WORKLOADS), indirect=True)
def test_gate_fires_on_a_wrong_message(rig, monkeypatch):
    workload, rig = rig
    decode = simnet.testgroup_reconstruct
    for module in (simnet, cli):
        monkeypatch.setattr(module, "testgroup_reconstruct",
                            lambda *a, **kw: _bump(decode(*a, **kw)))
    tally = _measure(workload, rig)
    assert tally.failed >= 1
    assert tally.errors[0].startswith("get")


@pytest.mark.parametrize("rig", ["sim-s1", "cli-s1"], indirect=True)
def test_gate_fires_on_extra_repair_symbols(rig, monkeypatch):
    """Helpers send one symbol too many; the share still decodes, so only the
    bandwidth gate can catch it."""
    workload, rig = rig
    helper, decode = repair1.helper_repair_symbols, repair1.testgroup_repair
    monkeypatch.setattr(repair1, "helper_repair_symbols",
                        lambda *a, **kw: tuple(helper(*a, **kw)) + (0,))
    monkeypatch.setattr(repair1, "testgroup_repair",
                        lambda syms, *a, **kw: decode({h: v[:-1] for h, v in syms.items()}, *a, **kw))
    tally = _measure(workload, rig)
    assert tally.failed >= 1
    assert tally.errors[0].startswith("repair")


def test_wrong_output_makes_the_exit_code_nonzero(monkeypatch, capsys):
    decode = repair1.testgroup_repair
    monkeypatch.setattr(repair1, "testgroup_repair", lambda *a, **kw: _bump(decode(*a, **kw)))
    rc = run.main(["--workload", "sim-s1", "--seed", "3", "--seconds", "0.3", "--trace", "1"])
    assert rc != 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
