"""Golden CLI battery: every command's stdout, stderr, exit code and written files.

A fixed sequence of `baercode` commands runs in-process in one scratch
directory, over three clusters: ex3 with scheme 1, a12 with scheme 2 and ex1
with concat.  Each command's transcript is compared with its file under
tests/golden/.  Only the simulator's wall_ms column and the scratch
directory's path are masked.  An intended output change shows up as a diff
of those files; regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from baercode.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RAW = {
    "ex3": "n=6\nk=3\nb=1\nalpha=6\nD=4,5\n",
    "a12": "n=6\nk=3\nb=1\nalpha=12\nD=4,5\n",
    "ex1": "n=5\nk=2\nb=0\nalpha=12\nD=3,4\n",
}


class Cluster(NamedTuple):
    name: str
    scheme: str
    p: int              # the prime find-field certifies
    start: int          # a find-field --start that skips or rejects primes
    f_mbr: int
    n: int
    k: int
    d_set: tuple[int, int]


CLUSTERS = (
    Cluster("ex3", "1", 17, 18, 6, 6, 3, (4, 5)),
    Cluster("a12", "2", 19, 12, 12, 6, 3, (4, 5)),
    Cluster("ex1", "concat", 7, 8, 20, 5, 2, (3, 4)),
)
SCENARIO = (
    "fail 1\nrepair 1 d={hi}\ncorrupt random nodes=3 seed=5\n"
    "fail 2\nrepair 2 d={lo} helpers=random\n"
    "corrupt consistent_liar nodes=4 seed=7\nreconstruct {access}\n"
    "fail 5\nrepair 5 d={lo} helpers=exclude:1\n"
)
# Inputs that each reach one refusal: bad parameters, fields, messages, scenarios.
REFUSED = {
    "k2.raw": "n=6\nk=2\nb=1\nalpha=6\nD=4,5\n",
    "d6.raw": "n=6\nk=3\nb=1\nalpha=6\nD=4,6\n",
    "alpha5.raw": "n=6\nk=3\nb=1\nalpha=5\nD=4,5\n",
    "ex3-p5.params": RAW["ex3"] + "p=5\n",
    "ex3-p15.params": RAW["ex3"] + "p=15\n",
    "ex3-p2e64.params": RAW["ex3"] + "p=18446744073709551629\n",     # 2**64 + 13
    "short.msg": "1\n2\n3\n",
    "fail-twice.scn": "fail 1\nfail 1\n",
    "repair-live.scn": "repair 1 d=4\n",
    "few-helpers.scn": "fail 1\nfail 2\nfail 3\nrepair 1 d=4\n",
    "no-equals.raw": "n=6\nk=3\nb 1\nalpha=6\nD=4,5\n",
    "missing-keys.raw": "n=6\nk=3\n",
    "non-integer.raw": "n=six\nk=3\nb=1\nalpha=6\nD=4,5\n",
    "non-decimal.msg": "1\n2\nx\n4\n5\n6\n",
    "fail-99.scn": "fail 99\n",
    "reconstruct-two.scn": "reconstruct 1,2\n",
    "reconstruct-failed.scn": "fail 1\nreconstruct 1,2,3\n",
}
# The repair sweep's adversaries: (case suffix, strategy, controlled helpers).
ADVERSARIES = (("honest", "honest", ""), ("random", "random", "3"),
               ("liar", "liar", "4"), ("liar2", "liar", "3,4"))


def _message(p: int, length: int, key: str) -> str:
    rng = random.Random(f"golden:{key}")
    return "\n".join(str(rng.randrange(p)) for _ in range(length)) + "\n"


def _inputs(root: Path):
    """The files the commands read (raw params, messages, scenarios) and out/."""
    (root / "in").mkdir()
    (root / "out").mkdir()
    for c in CLUSTERS:
        (root / "in" / f"{c.name}.raw").write_text(RAW[c.name])
        (root / "in" / f"{c.name}.msg").write_text(_message(c.p, c.f_mbr, c.name))
        access = ",".join(map(str, range(2, 2 + c.k)))
        (root / "in" / f"{c.name}.scn").write_text(
            SCENARIO.format(lo=c.d_set[0], hi=c.d_set[1], access=access))
    # GF(7) loses Omega rank at ex3: scheme 1 is uncertified there.
    (root / "in" / "ex3-p7.params").write_text(RAW["ex3"] + "p=7\n")
    (root / "in" / "ex3-p7.msg").write_text(_message(7, 6, "ex3-p7"))
    # GF(7) has singular scheme-2 systems at a12, so selftest refuses it there.
    (root / "in" / "a12-p7.params").write_text(RAW["a12"] + "p=7\n")
    for name, text in REFUSED.items():
        (root / "in" / name).write_text(text)


def _forge(root: Path):
    """ex3's node 1 share with a header that names another prime."""
    text = (root / "ex3/node01.share").read_text()
    (root / "in/forged.share").write_text(text.replace("p=17", "p=4099", 1))


def _shorten(root: Path):
    """ex1's node 3 share without its last body symbol."""
    lines = (root / "ex1/node03.share").read_text().splitlines()
    (root / "in/ex1-short.share").write_text("\n".join(lines[:-1]) + "\n")


def _shares(name: str, nodes) -> list[str]:
    return [f"{name}/node{i:02d}.share" for i in nodes]


def battery():
    """(case, argv or a set-up callable) in running order."""
    steps = []
    for c in CLUSTERS:
        name, scheme, params = c.name, c.scheme, f"{c.name}.params"
        steps += [
            (f"{name}-bounds", ["bounds", "--params", f"in/{name}.raw"]),
            (f"{name}-find-field-start", ["find-field", "--params", f"in/{name}.raw",
                                          "--scheme", scheme, "--start", c.start]),
            (f"{name}-find-field", ["find-field", "--params", f"in/{name}.raw",
                                    "--scheme", scheme, "--out", params]),
            (f"{name}-selftest", ["selftest", "--params", params, "--scheme", scheme]),
            (f"{name}-encode", ["encode", "--params", params, "--scheme", scheme,
                                "--message", f"in/{name}.msg", "--out", name]),
        ]
        for d in c.d_set:
            for suffix, strategy, controlled in ADVERSARIES:
                case = f"{name}-repair-d{d}-{suffix}"
                adv = ["--adversary", strategy, "--controlled", controlled] if controlled else []
                steps.append((case, [
                    "repair", "--params", params, "--scheme", scheme, "--failed", 1, "--d", d,
                    *adv, "--seed", 3, "--out", f"out/{case}.share",
                    "--records", f"rec/{case}", *_shares(name, range(2, d + 2))]))
        access = ",".join(map(str, range(2, 2 + c.k)))
        every = _shares(name, range(1, c.n + 1))
        steps += [
            (f"{name}-reconstruct", ["reconstruct", "--params", params, "--nodes", access,
                                     *every]),
            (f"{name}-reconstruct-liar", ["reconstruct", "--params", params, "--nodes", access,
                                          "--adversary", "liar", "--controlled", 3,
                                          "--seed", 9, *every]),
            (f"{name}-simulate", ["simulate", "--params", params, "--scheme", scheme,
                                  "--scenario", f"in/{name}.scn", "--seed", 11,
                                  "--out", f"out/{name}-report.txt"]),
        ]
    p7 = "in/ex3-p7.params"
    steps += [
        ("ex3-p7-selftest", ["selftest", "--params", p7, "--scheme", "1"]),
        ("a12-p7-selftest", ["selftest", "--params", "in/a12-p7.params", "--scheme", "2"]),
        ("ex3-p7-encode", ["encode", "--params", p7, "--scheme", "1",
                           "--message", "in/ex3-p7.msg", "--out", "ex3-p7"]),
        ("ex3-p7-repair", ["repair", "--params", p7, "--scheme", "1", "--failed", 1,
                           "--d", 4, "--out", "out/ex3-p7.share",
                           *_shares("ex3-p7", range(2, 6))]),
        ("ex3-p7-simulate", ["simulate", "--params", p7, "--scheme", "1",
                             "--scenario", "in/ex3.scn", "--out", "out/ex3-p7-report.txt"]),
        ("forge", _forge),
        ("ex3-reconstruct-forged-p", ["reconstruct", "--params", "ex3.params",
                                      "in/forged.share", *_shares("ex3", (2, 3))]),
        ("shorten", _shorten),
        ("ex1-repair-short-share", ["repair", "--params", "ex1.params", "--scheme", "concat",
                                    "--failed", 1, "--d", 3, "--out", "out/ex1-short.share",
                                    "ex1/node02.share", "in/ex1-short.share",
                                    "ex1/node04.share"]),
        ("ex1-repair-failed-99", ["repair", "--params", "ex1.params", "--scheme", "concat",
                                  "--failed", 99, "--d", 3, *_shares("ex1", (2, 3, 4))]),
        ("concat-b1-find-field", ["find-field", "--params", "in/ex3.raw", "--scheme", "concat",
                                  "--out", "concat-b1.params"]),
        ("concat-b1-selftest", ["selftest", "--params", "ex3.params", "--scheme", "concat"]),
        ("concat-b1-encode", ["encode", "--params", "ex3.params", "--scheme", "concat",
                              "--message", "in/ex3.msg", "--out", "concat-b1"]),
        ("k2-bounds", ["bounds", "--params", "in/k2.raw"]),
        ("d6-bounds", ["bounds", "--params", "in/d6.raw"]),
        ("alpha5-bounds", ["bounds", "--params", "in/alpha5.raw"]),
        ("ex3-p5-selftest", ["selftest", "--params", "in/ex3-p5.params"]),
        ("ex3-p15-selftest", ["selftest", "--params", "in/ex3-p15.params"]),
        ("ex3-p2e64-selftest", ["selftest", "--params", "in/ex3-p2e64.params"]),
        ("ex3-find-field-2e64", ["find-field", "--params", "in/ex3.raw",
                                 "--start", 2**64, "--out", "big.params"]),
        ("ex3-short-encode", ["encode", "--params", "ex3.params", "--message", "in/short.msg",
                              "--out", "ex3-short"]),
        ("ex3-fail-twice", ["simulate", "--params", "ex3.params", "--scenario",
                            "in/fail-twice.scn"]),
        ("ex3-repair-live", ["simulate", "--params", "ex3.params", "--scenario",
                             "in/repair-live.scn"]),
        ("ex3-few-helpers", ["simulate", "--params", "ex3.params", "--scenario",
                             "in/few-helpers.scn"]),
        ("ex3-scheme2-selftest", ["selftest", "--params", "ex3.params", "--scheme", "2"]),
        ("ex3-no-p-encode", ["encode", "--params", "in/ex3.raw", "--message", "in/ex3.msg",
                             "--out", "ex3-no-p"]),
        ("no-equals-bounds", ["bounds", "--params", "in/no-equals.raw"]),
        ("missing-keys-bounds", ["bounds", "--params", "in/missing-keys.raw"]),
        ("non-integer-bounds", ["bounds", "--params", "in/non-integer.raw"]),
        ("ex3-repair-d3", ["repair", "--params", "ex3.params", "--failed", 1, "--d", 3,
                           *_shares("ex3", range(2, 5))]),
        ("ex3-reconstruct-two-nodes", ["reconstruct", "--params", "ex3.params", "--nodes", "2,3",
                                       *_shares("ex3", range(1, 7))]),
        ("ex3-non-decimal-encode", ["encode", "--params", "ex3.params",
                                    "--message", "in/non-decimal.msg", "--out", "ex3-non-decimal"]),
        ("ex3-fail-99", ["simulate", "--params", "ex3.params", "--scenario", "in/fail-99.scn"]),
        ("ex3-reconstruct-two", ["simulate", "--params", "ex3.params",
                                 "--scenario", "in/reconstruct-two.scn"]),
        ("ex3-reconstruct-failed", ["simulate", "--params", "ex3.params",
                                    "--scenario", "in/reconstruct-failed.scn"]),
        ("ex3-repair-stdout", ["repair", "--params", "ex3.params", "--failed", 1, "--d", 4,
                               *_shares("ex3", range(2, 6))]),
        ("ex3-repair-repeated-helper", ["repair", "--params", "ex3.params", "--failed", 6,
                                        "--d", 4, "--helpers", "1,1,2,3",
                                        *_shares("ex3", range(1, 6))]),
    ]
    return steps


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _mask(text: str, root: Path) -> str:
    text = text.replace(str(root), "<tmp>")
    # Simulator report rows end in the event's wall time.
    return re.sub(r"^( *\d+  \S.*?) +\d+\.\d\d$", r"\1 <wall_ms>", text, flags=re.M)


def transcript(argv, root: Path) -> str:
    """Run one command in `root`; its exit code, output and written files, masked."""
    before = _tree(root)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    after = _tree(root)
    parts = [f"$ baercode {' '.join(map(str, argv))}", f"exit {rc}",
             "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
    for path in sorted(after):
        if before.get(path) != after[path]:
            parts += [f"--- wrote {path}", after[path].decode()]
    return _mask("\n".join(parts), root)


def run_battery() -> dict[str, str]:
    """Every command's transcript, by case name, run in a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        root = Path(tmp).resolve()
        _inputs(root)
        os.chdir(root)
        try:
            results = {}
            for case, step in battery():
                if callable(step):
                    step(root)
                else:
                    results[case] = transcript(step, root)
            return results
        finally:
            os.chdir(cwd)


@pytest.fixture(scope="module")
def transcripts():
    return run_battery()


@pytest.mark.parametrize("case", [c for c, s in battery() if not callable(s)])
def test_cli_golden(case, transcripts):
    assert transcripts[case] == (GOLDEN / f"{case}.txt").read_text()


def test_no_stale_goldens():
    cases = {c for c, s in battery() if not callable(s)}
    assert {p.stem for p in GOLDEN.glob("*.txt")} == cases


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for case, text in run_battery().items():
        (GOLDEN / f"{case}.txt").write_text(text)
    print(f"wrote {len(list(GOLDEN.glob('*.txt')))} golden transcripts to {GOLDEN}", file=sys.stderr)
