#!/usr/bin/env python3
"""baercode benchmark: end-to-end latency, throughput and set-up cost per workload.

    python3 bench/run.py --workload sim-s1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process runs one workload: it sets the cluster up (certification
included), then drives a single-threaded closed loop with one client for
`--seconds` seconds and checks every output exactly.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
(spans from `spans.py`) with `--trace 1`.  End-to-end times and rates are
scaled to a nominal host speed, set by a reference kernel timed during the
run.  Any wrong output makes the exit code nonzero; wall time is never a
gate.  See README.md for the rationale.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import baercode
    from baercode import cli, repair1, repair2, simnet
    from baercode import adversary as adv
    from baercode.params import CodeParams, validate
except ImportError as exc:
    sys.exit(f"bench: cannot import baercode from {SRC}: {exc}")
if Path(baercode.__file__).resolve().parent != SRC / "baercode":
    sys.exit(f"bench: baercode imported from {baercode.__file__}, not from {SRC}")

import spans  # noqa: E402  (after the library, which it wraps)

# (n, k, D, b, alpha) and the prime that certification must arrive at.
MID = ((10, 4, (6, 7), 1, 20), 23)
SMALL_FIELD = ((10, 4, (7, 8), 1, 60), 19)


class Workload(NamedTuple):
    kind: str           # "sim" or "cli"
    scheme: str         # repair scheme
    config: tuple       # (n, k, D, b, alpha), certified p
    warmup: int         # cycles run inside set-up, before timing starts


# sim-s1's cluster fills its Theta-inverse cache lazily (462 entries, at least
# 452 of them after 300 cycles), so those cycles belong to set-up; sim-s2's
# group-system cache is already filled by certification, and cli-s1 keeps
# nothing between commands.
WORKLOADS = {
    "sim-s1": Workload("sim", "1", MID, 300),
    "cli-s1": Workload("cli", "1", MID, 0),
    "sim-s2": Workload("sim", "2", SMALL_FIELD, 0),
}
# Tail percentile.  p98 and p99 follow the short stalls of a shared 2-vCPU VM: over
# ten 30 s cli-s1 runs the get p98 spread by 0.27 of its median.  p95 stays
# inside the liars' slowest mode and has 40 or more samples beyond it.
TAIL = 95
STRATEGIES = (adv.HONEST, adv.RANDOM, adv.LIAR)
CLI_ADVERSARY = {adv.HONEST: "honest", adv.RANDOM: "random", adv.LIAR: "liar"}
SETUPS = 3          # set-ups per run: this process plus fresh child processes
WINDOW_S = 1.0      # ops_per_s is the median rate over windows of this length;
                    # the host's speed is sampled between windows
RSS_CYCLES = 200    # peak RSS is read after this many timed cycles: the simulator's
                    # event log grows with every event, so a later reading would grow
                    # with throughput
E2E = (
    ("setup_s", "s"),
    ("get_ms_p50", "ms"),
    ("get_ms_p95", "ms"),
    ("repair_ms_p50", "ms"),
    ("repair_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


class RunError(Exception):
    """The run cannot give a result: set-up went wrong (for example another
    certified prime) or an operation type has no correct sample."""


def gamma(alpha: int, d: int, b: int) -> int:
    """Minimum total repair bandwidth alpha*d/(d-2b), computed independently."""
    return alpha * d // (d - 2 * b)


# -- workloads -------------------------------------------------------------

class SimRig:
    """A long-lived simulator cluster; each cycle corrupts, fails, repairs, reads."""

    def __init__(self, scheme: str, config, seed_key: str):
        (n, k, d_set, b, alpha), want_p = config
        code = validate(CodeParams(n=n, k=k, d_set=d_set, b=b, alpha=alpha))
        if scheme == "1":
            fld = repair1.find_field(code).field
        else:
            fld, _report, _rejected = repair2.find_field_scheme2(code)
        if fld.p != want_p:
            raise RunError(f"certified p={fld.p}, expected {want_p}")
        rng = random.Random(f"{seed_key}:message")
        self.message = tuple(rng.randrange(fld.p) for _ in range(code.f_mbr))
        self.cluster = simnet.init_cluster(code, self.message, scheme, fld)
        self.stored = dict(self.cluster.shares)   # the encoder's shares
        self.code, self.p = code, fld.p

    def cycle(self, i: int, rng: random.Random, record) -> bool:
        """One cycle; returns False once the cluster state can no longer be trusted."""
        code, cluster = self.code, self.cluster
        n = code.n
        f = rng.randint(1, n)
        liar = rng.choice([x for x in range(1, n + 1) if x != f])
        try:
            cluster.run_event(simnet.Event(
                kind="corrupt", strategy=STRATEGIES[i % 3], nodes=(liar,),
                seed=rng.randrange(1 << 30)))
            cluster.run_event(simnet.Event(kind="fail", node=f))
            d = rng.choice(code.d_set)
            t0 = time.perf_counter()
            row = cluster.run_event(
                simnet.Event(kind="repair", node=f, d=d, helper_policy="random"), rng)
            dt = time.perf_counter() - t0
            record("repair", dt, row.success
                   and row.symbols == gamma(code.alpha, d, code.b)
                   and cluster.shares[f] == self.stored[f])
            nodes = tuple(sorted(rng.sample(range(1, n + 1), code.k)))
            t0 = time.perf_counter()
            row = cluster.run_event(simnet.Event(kind="reconstruct", nodes=nodes))
            dt = time.perf_counter() - t0
            record("get", dt, row.success and cluster.message == self.message)
        except Exception as exc:    # any raise is a failed operation
            record("error", 0.0, False, f"{type(exc).__name__}: {exc}")
            return False
        return True

    def close(self):
        pass


class CliRig:
    """Share files in a scratch directory, driven by in-process `baercode` commands."""

    def __init__(self, scheme: str, config, seed_key: str):
        (n, k, d_set, b, alpha), want_p = config
        self.n, self.k, self.d_set, self.b, self.alpha = n, k, d_set, b, alpha
        self.scheme = scheme
        self.f_mbr = validate(CodeParams(n=n, k=k, d_set=d_set, b=b, alpha=alpha)).f_mbr
        OUT.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.shares = self.dir / "shares"
        self.params = self.dir / "certified.params"
        raw = self.dir / "cluster.params"
        raw.write_text(f"n={n}\nk={k}\nb={b}\nalpha={alpha}\nD={','.join(map(str, d_set))}\n")
        try:
            rc, _out, err = self.run("find-field", "--params", raw, "--scheme", scheme,
                                     "--out", self.params)
            if rc != 0:
                raise RunError(f"find-field exited {rc}: {err.strip()}")
            lines = self.params.read_text().splitlines()
            self.p = next((int(ln[2:]) for ln in lines if ln.startswith("p=")), None)
            if self.p != want_p:
                raise RunError(f"certified p={self.p}, expected {want_p}")
        except BaseException:
            self.close()
            raise

    @staticmethod
    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        return rc, out.getvalue(), err.getvalue()

    def share(self, node: int) -> Path:
        return self.shares / f"node{node:02d}.share"

    def timed(self, record, kind, *argv):
        t0 = time.perf_counter()
        try:
            rc, out, err = self.run(*argv)
        except Exception as exc:    # any raise is a failed operation
            record(kind, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        if rc != 0:
            record(kind, dt, False, f"exit {rc}: {err.strip()}")
            return None
        return dt, out

    def cycle(self, i: int, rng: random.Random, record) -> bool:
        n, k, p = self.n, self.k, self.p
        adversary = CLI_ADVERSARY[STRATEGIES[i % 3]]
        message = [rng.randrange(p) for _ in range(self.f_mbr)]
        msg_file = self.dir / "message.txt"
        msg_file.write_text("\n".join(map(str, message)) + "\n")
        res = self.timed(record, "put", "encode", "--params", self.params,
                         "--scheme", self.scheme, "--message", msg_file, "--out", self.shares)
        if res is None:
            return True
        record("put", res[0], all(self.share(x).is_file() for x in range(1, n + 1)))

        f = rng.randint(1, n)
        d = rng.choice(self.d_set)
        helpers = sorted(rng.sample([x for x in range(1, n + 1) if x != f], d))
        rebuilt = self.dir / "rebuilt.share"
        res = self.timed(record, "repair", "repair", "--params", self.params,
                         "--scheme", self.scheme, "--failed", f, "--d", d,
                         "--helpers", ",".join(map(str, helpers)),
                         "--adversary", adversary, "--controlled", rng.choice(helpers),
                         "--seed", rng.randrange(1 << 30), "--out", rebuilt,
                         *(self.share(h) for h in helpers))
        if res is not None:
            dt, out = res
            moved = _bandwidth_total(out)
            record("repair", dt, moved == gamma(self.alpha, d, self.b)
                   and rebuilt.read_bytes() == self.share(f).read_bytes())

        # The message goes to standard output: a write to the checkout's disk
        # stalls now and then, and a 5 ms get would carry that stall into p95.
        nodes = sorted(rng.sample(range(1, n + 1), k))
        res = self.timed(record, "get", "reconstruct", "--params", self.params,
                         "--nodes", ",".join(map(str, nodes)),
                         "--adversary", adversary, "--controlled", rng.choice(nodes),
                         "--seed", rng.randrange(1 << 30),
                         *(self.share(x) for x in nodes))
        if res is not None:
            dt, out = res
            record("get", dt, [int(t) for t in out.split()] == message)
        return True

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _bandwidth_total(out: str) -> int | None:
    for line in out.splitlines():
        if line.startswith("bandwidth:"):
            fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
            return int(fields["total"])
    return None


# -- host speed ------------------------------------------------------------

# The shared host's speed drifts by a quarter either way over minutes, so every
# time and rate is reported at one nominal speed: divided by the run's median
# time of a fixed pure-Python kernel over REF_MS.  The kernel is the benchmark's
# own (small matrix products mod 23), so a change to the library cannot move
# it, and it is bound by the interpreter the way the library is.
REF_MS = 2.0
_REF = [[(i * 7 + j * 3) % 23 for j in range(10)] for i in range(10)]


def ref_kernel_s() -> float:
    t0 = time.perf_counter()
    m = _REF
    for _ in range(12):
        m = [[sum(a * b for a, b in zip(row, col)) % 23 for col in zip(*_REF)] for row in m]
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-kernel timings; `slowdown` > 1 on a host slower than nominal."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, reps: int = 3):
        self.samples += [ref_kernel_s() for _ in range(reps)]

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples) * 1e3 / REF_MS


# -- measurement -----------------------------------------------------------

class Tally:
    """Per-operation latencies and the correctness count."""

    def __init__(self):
        self.latency = {"put": [], "get": [], "repair": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, kind: str, seconds: float, ok: bool, why: str = ""):
        self.attempted += 1
        if ok:
            self.latency[kind].append(seconds * 1e3)
            return
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {why or 'wrong result'}")

    @property
    def correct_ops(self) -> int:
        return self.attempted - self.failed


RIGS = {"sim": SimRig, "cli": CliRig}


def setup(workload: str, seed: int):
    """Parameters to a ready cluster, warm-up included.  Returns the rig, the
    seconds it took at nominal host speed and the tally of the warm-up
    operations."""
    w = WORKLOADS[workload]
    host = HostSpeed()
    host.sample(5)
    t0 = time.perf_counter()
    rig = RIGS[w.kind](w.scheme, w.config, f"{workload}:{seed}")
    warm = Tally()
    rng = random.Random(f"{workload}:{seed}:warm-up")
    for i in range(w.warmup):
        if not rig.cycle(i, rng, warm.record):
            break
    seconds = time.perf_counter() - t0
    host.sample(5)
    return rig, seconds / host.slowdown, warm


def child_setup_seconds(workload: str, seed: int) -> float:
    """One more set-up, in a fresh interpreter, so no cache survives from the last."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RunError(f"set-up in a child process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(rig, workload: str, seed: int, seconds: float, tracer=None):
    """Closed loop for `seconds`.  With a tracer, even cycles are traced and odd
    cycles are not, so both halves see the same cache state.  Returns the
    tally, the wall time, the seconds and correct operations of traced and of
    untraced cycles, the rate of correct operations in each WINDOW_S window,
    the host's speed samples and the peak RSS after RSS_CYCLES cycles."""
    rng = random.Random(f"{workload}:{seed}:cycles")
    tally = Tally()
    busy = {True: [0.0, 0], False: [0.0, 0]}      # traced? -> [seconds, correct ops]
    rates = []
    host = HostSpeed()
    host.sample()
    rss = None
    start = time.perf_counter()
    window = (start, 0)                            # (start, correct ops before it)
    i = 0
    go = True
    while go and time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
        before = tally.correct_ops
        t0 = time.perf_counter()
        try:
            go = rig.cycle(i, rng, tally.record)
        finally:
            if traced:
                tracer.uninstall()
        busy[traced][0] += time.perf_counter() - t0
        busy[traced][1] += tally.correct_ops - before
        i += 1
        if i == RSS_CYCLES:
            rss = peak_rss_mib()
        now = time.perf_counter()
        if now - window[0] >= WINDOW_S:
            rates.append((tally.correct_ops - window[1]) / (now - window[0]))
            host.sample()
            window = (time.perf_counter(), tally.correct_ops)
    wall = time.perf_counter() - start
    return tally, wall, busy, rates, host, rss if rss is not None else peak_rss_mib()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_facts(workload: str, seed: int, p: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "p": p,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((SRC / "baercode").glob("*.py"))),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure, check; returns the result object and the human report."""
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.begin("setup")
        tracer.install()
    try:
        rig, setup_s, warm = setup(workload, seed)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.finish()
    try:
        if tracer:
            tracer.begin("timed")
        tally, wall, busy, rates, host, rss = measure(rig, workload, seed, seconds, tracer)
        if tracer:
            tracer.finish()
    finally:
        rig.close()
    setups = [setup_s]
    if not trace:
        setups += [child_setup_seconds(workload, seed) for _ in range(SETUPS - 1)]

    slow = host.slowdown
    lines = [f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}",
             "facts " + json.dumps(run_facts(workload, seed, rig.p)),
             f"host: reference kernel {slow * REF_MS:.3f} ms (median of {len(host.samples)}), "
             f"nominal {REF_MS} ms; times and rates are reported at nominal speed, "
             f"the measured figure first in parentheses"]
    timed_ops = tally.correct_ops
    # The median over windows, so a stall of the shared host moves one window
    # instead of the run's mean; a run shorter than a window gives its mean.
    raw_ops_per_s = statistics.median(rates) if rates else timed_ops / wall
    ops_per_s = raw_ops_per_s * slow
    # Warm-up operations are checked like timed ones; only their latency is not kept.
    tally.attempted += warm.attempted
    tally.failed += warm.failed
    tally.errors[:0] = warm.errors
    e2e = {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s,
           "peak_rss_mib": rss}
    shown = [("setup_s", e2e["setup_s"], "s",
              "median of " + ", ".join(f"{s:.3f}" for s in setups) + ", all at nominal speed")]
    for kind in ("put", "get", "repair"):
        lat = tally.latency[kind]
        if not lat:
            continue
        p50 = statistics.median(lat)
        e2e[f"{kind}_ms_p50"] = p50 / slow
        shown.append((f"{kind}_ms_p50", p50 / slow, "ms", f"{p50:.4f}; {len(lat)} samples"))
        beyond = len(lat) * (100 - TAIL) // 100
        tail = percentile(lat, TAIL) if len(lat) > 1 else lat[0]
        e2e[f"{kind}_ms_p{TAIL}"] = tail / slow
        shown.append((f"{kind}_ms_p{TAIL}", tail / slow, "ms",
                      f"{tail:.4f}; {beyond} samples beyond"
                      + ("" if beyond >= 10 else ", fewer than 10")))
    shown.append(("ops_per_s", ops_per_s, "1/s",
                  f"{raw_ops_per_s:.1f}; median of {len(rates)} {WINDOW_S:g} s windows; "
                  f"{timed_ops} ops in {wall:.2f} s"))
    shown.append(("failed_frac", tally.failed / max(tally.attempted, 1), "",
                  f"{tally.failed} of {tally.attempted}"))
    shown.append(("peak_rss_mib", rss, "MiB",
                  f"this process, set-up and the first {RSS_CYCLES} cycles"))
    lines += [f"{name:<16} {value:12.4f} {unit:<4} ({note})" for name, value, unit, note in shown]
    lines += [f"FAILED {e}" for e in tally.errors]

    if trace:
        layer = {phase: tracer.metrics(phase) for phase in spans.PHASES}
        on = busy[True][1] / busy[True][0] if busy[True][0] else 0.0
        off = busy[False][1] / busy[False][0] if busy[False][0] else 0.0
        values = {f"{phase}.{name}": v for phase, m in layer.items() for name, v in m.items()}
        values.update({"trace.ops_per_s_on": on, "trace.ops_per_s_off": off,
                       "trace.overhead_ops_per_s": off - on})
        lines.append(f"{'per-layer metric':<34} {'set-up':>14} {'timed':>14}")
        for name, unit, _better, _phases in spans.LAYER_METRICS:
            lines.append(f"{name:<34} {layer['setup'][name]:>14.4f} "
                         f"{layer['timed'][name]:>14.4f} {unit}")
        lines += [f"{name:<34} {values[name]:>14.4f} {unit}"
                  for name, unit, _better in spans.OVERHEAD_METRICS]
        spans_file = OUT / f"spans-{workload}.tsv.gz"
        tracer.write(spans_file)
        lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spans.per_layer_spec()}
    else:
        missing = [name for name, _unit in E2E if name not in e2e]
        if missing:
            raise RunError(f"no samples for {', '.join(missing)}; "
                             + "; ".join(tally.errors))
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return {"result": result, "report": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        # Every workload in a fresh process of its own.
        worst = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT)
            worst = max(worst, proc.returncode)
        return worst

    try:
        if args.setup_only:
            rig, seconds, warm = setup(args.workload, args.seed)
            rig.close()
            if warm.failed:
                print("\n".join(f"FAILED {e}" for e in warm.errors), file=sys.stderr)
                return 1
            print(json.dumps({"setup_s": seconds}))
            return 0
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
