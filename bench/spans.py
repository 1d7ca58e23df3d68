"""Layer spans for the benchmark, recorded from outside the library.

`Tracer.install()` replaces each traced public function of `baercode`, in
every baercode module that holds a reference to it, with a wrapper that
records one span (name, start, end, parent span); `uninstall()` puts the
originals back.  The library itself is never edited.  Spans are kept in
flat arrays in memory and written out once, at the end of a run.

A call made while a span of the same name is already open (for example
`corrupt_access` calling `effective_share`, both "adversary") is not
recorded again, so a layer's calls and time are counted once.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from math import comb
from pathlib import Path

# (module, attribute, span name).  "Class.method" patches the class.
TARGETS = (
    ("galois", "Mat.inv", "galois.inv"),
    ("galois", "Mat.rank", "galois.rank"),
    ("galois", "Mat.__matmul__", "galois.matmul"),
    ("galois", "Mat.left_mul", "galois.left_mul"),
    ("encoder", "encode_all", "encoder.encode"),
    ("encoder", "encode_node", "encoder.encode_node"),
    ("encoder", "parse_share", "encoder.parse_share"),
    ("encoder", "format_share", "encoder.format_share"),
    ("reconstruct", "testgroup_reconstruct", "reconstruct.decode"),
    ("reconstruct", "pm_reconstruct_component", "reconstruct.component"),
    ("repair1", "helper_repair_symbols", "repair1.helper"),
    ("repair1", "testgroup_repair", "repair1.decode"),
    ("repair1", "OmegaConfig.theta_inv", "repair1.theta"),
    ("repair1", "theta", "repair1.theta_build"),
    ("repair1", "omega_build", "repair1.omega_build"),
    ("repair1", "find_field", "repair1.certify"),
    ("repair1", "verify_theta_all", "repair1.verify"),
    ("repair2", "helper_stream", "repair2.helper"),
    ("repair2", "testgroup_repair2", "repair2.decode"),
    ("repair2", "repair_estimate", "repair2.estimate"),
    ("repair2", "find_field_scheme2", "repair2.certify"),
    ("repair2", "verify_systems_all", "repair2.verify"),
    ("adversary", "AdversaryPolicy.effective_share", "adversary"),
    ("adversary", "corrupt_storage", "adversary"),
    ("adversary", "corrupt_access", "adversary"),
    ("adversary", "corrupt_repair_symbols", "adversary"),
    ("simnet", "Cluster.run_event", "simnet.event"),
    ("cli", "main", "cli.command"),
)

MODULES = ("galois", "params", "encoder", "reconstruct", "repair1", "repair2",
           "concat", "adversary", "simnet", "cli")


# Counters that need a call's arguments or result: span name -> hook that
# returns (counter, increment) pairs.
def _certify1(args, result):
    return (("repair1.primes", len(result.rejected) + 1),)


def _verify1(args, result):
    return (("repair1.matrices", result.checked),)


def _certify2(args, result):
    return (("repair2.primes", len(result[2]) + 1),)


def _verify2(args, result):
    return (("repair2.systems", result.checked),)


def _reconstruct_decode(args, result):
    code = args[1]
    # Components one consistent first group needs: z blocks per subset.
    return (("reconstruct.needed", code.z * comb(code.k - code.b, code.kappa)),)


def _repair2_decode(args, result):
    plan = args[2]
    b = plan.code.b
    return (("repair2.needed", comb(plan.d - b, plan.d - 2 * b)),)


HOOKS = {
    "repair1.certify": _certify1,
    "repair1.verify": _verify1,
    "repair2.certify": _certify2,
    "repair2.verify": _verify2,
    "reconstruct.decode": _reconstruct_decode,
    "repair2.decode": _repair2_decode,
}

PHASES = ("setup", "timed")

# Per-layer metrics: (name, unit, better, phases reported).  A phase is left
# out where no workload can do that work in it: nothing certifies in the timed
# phase, and no set-up parses share files or runs a scheme-2 repair.
BOTH, TIMED, SETUP = PHASES, ("timed",), ("setup",)
LAYER_METRICS = (
    ("galois.inv.calls", "count", "lower", BOTH),
    ("galois.inv.ms", "ms", "lower", BOTH),
    ("galois.rank.calls", "count", "lower", BOTH),
    ("galois.rank.ms", "ms", "lower", BOTH),
    ("galois.matmul.calls", "count", "lower", BOTH),
    ("galois.matmul.ms", "ms", "lower", BOTH),
    ("galois.left_mul.calls", "count", "lower", BOTH),
    ("galois.left_mul.ms", "ms", "lower", BOTH),
    ("encoder.encode.calls", "count", "lower", BOTH),
    ("encoder.encode.ms", "ms", "lower", BOTH),
    ("encoder.encode_node.calls", "count", "lower", BOTH),
    ("encoder.parse_share.calls", "count", "lower", TIMED),
    ("encoder.parse_share.ms", "ms", "lower", TIMED),
    ("encoder.format_share.calls", "count", "lower", TIMED),
    ("encoder.format_share.ms", "ms", "lower", TIMED),
    ("reconstruct.decode.calls", "count", "lower", BOTH),
    ("reconstruct.decode.ms", "ms", "lower", BOTH),
    ("reconstruct.decode.self_ms", "ms", "lower", BOTH),
    ("reconstruct.component.calls", "count", "lower", BOTH),
    ("reconstruct.component.ms", "ms", "lower", BOTH),
    ("reconstruct.estimate_yield", "ratio", "higher", BOTH),
    ("repair1.helper.calls", "count", "lower", BOTH),
    ("repair1.helper.ms", "ms", "lower", BOTH),
    ("repair1.decode.calls", "count", "lower", BOTH),
    ("repair1.decode.ms", "ms", "lower", BOTH),
    ("repair1.decode.self_ms", "ms", "lower", BOTH),
    ("repair1.theta.lookups", "count", "lower", BOTH),
    ("repair1.theta.builds", "count", "lower", BOTH),
    ("repair1.theta.ms", "ms", "lower", BOTH),
    ("repair1.theta.hit_ratio", "ratio", "higher", BOTH),
    ("repair1.omega_build.calls", "count", "lower", BOTH),
    ("repair1.omega_build.ms", "ms", "lower", BOTH),
    ("repair1.certify.ms", "ms", "lower", SETUP),
    ("repair1.certify.matrices", "count", "lower", SETUP),
    ("repair1.certify.primes_tried", "count", "lower", SETUP),
    ("repair2.helper.calls", "count", "lower", TIMED),
    ("repair2.helper.ms", "ms", "lower", TIMED),
    ("repair2.decode.calls", "count", "lower", TIMED),
    ("repair2.decode.ms", "ms", "lower", TIMED),
    ("repair2.decode.self_ms", "ms", "lower", TIMED),
    ("repair2.estimate.calls", "count", "lower", TIMED),
    ("repair2.estimate.ms", "ms", "lower", TIMED),
    ("repair2.estimate_yield", "ratio", "higher", TIMED),
    ("repair2.group_inv.hit_ratio", "ratio", "higher", TIMED),
    ("repair2.certify.ms", "ms", "lower", SETUP),
    ("repair2.certify.systems", "count", "lower", SETUP),
    ("repair2.certify.primes_tried", "count", "lower", SETUP),
    ("adversary.calls", "count", "lower", BOTH),
    ("adversary.ms", "ms", "lower", BOTH),
    ("simnet.event.calls", "count", "lower", BOTH),
    ("simnet.event.self_ms", "ms", "lower", BOTH),
    ("cli.command.calls", "count", "lower", BOTH),
    ("cli.command.self_ms", "ms", "lower", BOTH),
)


# Tracing overhead, from a traced run that alternates traced and untraced cycles.
OVERHEAD_METRICS = (
    ("trace.ops_per_s_on", "1/s", "higher"),
    ("trace.ops_per_s_off", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "lower"),
)


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run reports, as BENCHMARK.json lists them."""
    out = [
        {"name": f"{phase}.{name}", "unit": unit, "better": better}
        for phase in PHASES
        for name, unit, better, phases in LAYER_METRICS
        if phase in phases
    ]
    out += [{"name": n, "unit": u, "better": b} for n, u, b in OVERHEAD_METRICS]
    return out


def _resolve(mod, dotted: str):
    owner = mod
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters of one run, split into the set-up and timed phases."""

    def __init__(self):
        self.modules = {m: sys.modules[f"baercode.{m}"] for m in MODULES}
        self.names: list[str] = []
        self.name_id: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self._stack = [-1]
        self.phase = None
        self.bounds: dict[str, list[int]] = {}
        self.counters: dict[str, dict[str, float]] = {p: {} for p in PHASES}
        self._cache_info: dict[str, list] = {}
        self._open: set[int] = set()
        self._patches = self._build_patches()

    # -- wrapping --------------------------------------------------

    def _build_patches(self):
        patches = []
        for mod_name, dotted, span in TARGETS:
            owner, attr = _resolve(self.modules[mod_name], dotted)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span)
            if owner is self.modules[mod_name]:
                # A module function: patch every module that imported it by name.
                for mod in self.modules.values():
                    if mod.__dict__.get(attr) is original:
                        patches.append((mod, attr, original, wrapper))
            else:
                patches.append((owner, attr, original, wrapper))
        return patches

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
        sid = self.names.index(span)
        hook = HOOKS.get(span)
        open_ids = self._open
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sid in open_ids:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(sid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            open_ids.add(sid)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                tracer._stack.pop()
                open_ids.discard(sid)
            if hook is not None:
                counters = tracer.counters[tracer.phase]
                for key, inc in hook(args, result):
                    counters[key] = counters.get(key, 0) + inc
            return result

        return traced

    def install(self):
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _wrapper in self._patches:
            setattr(owner, attr, orig)

    # -- phases ----------------------------------------------------

    def begin(self, phase: str):
        self.phase = phase
        self.bounds[phase] = [len(self.start), len(self.start)]
        self._cache_info[phase] = [self._group_inv_info(), None]

    def finish(self):
        self.bounds[self.phase][1] = len(self.start)
        self._cache_info[self.phase][1] = self._group_inv_info()

    def _group_inv_info(self):
        # Read only: the decode cache is shared with the library and never reset.
        info = self.modules["repair2"]._group_matrix_inv.cache_info()
        return info.hits, info.misses

    # -- metrics ---------------------------------------------------

    def _totals(self, phase: str):
        lo, hi = self.bounds[phase]
        n = len(self.names)
        calls, ms, self_ms = [0] * n, [0.0] * n, [0.0] * n
        child = {}
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        for i in range(hi - 1, lo - 1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + dur
            sid = name_id[i]
            calls[sid] += 1
            ms[sid] += dur * 1e3
            self_ms[sid] += (dur - child.pop(i, 0.0)) * 1e3
        return {name: (calls[i], ms[i], self_ms[i]) for i, name in enumerate(self.names)}

    def metrics(self, phase: str) -> dict[str, float]:
        """Every per-layer metric of one phase, by its name without the phase."""
        t = self._totals(phase)
        c = self.counters[phase]
        calls = lambda n: t[n][0]
        ms = lambda n: t[n][1]
        self_ms = lambda n: t[n][2]
        ratio = lambda num, den: num / den if den else 0.0
        m = {}
        for op in ("inv", "rank", "matmul", "left_mul"):
            m[f"galois.{op}.calls"] = calls(f"galois.{op}")
            m[f"galois.{op}.ms"] = ms(f"galois.{op}")
        m["encoder.encode.calls"] = calls("encoder.encode")
        m["encoder.encode.ms"] = ms("encoder.encode")
        m["encoder.encode_node.calls"] = calls("encoder.encode_node")
        for op in ("parse_share", "format_share"):
            m[f"encoder.{op}.calls"] = calls(f"encoder.{op}")
            m[f"encoder.{op}.ms"] = ms(f"encoder.{op}")
        m["reconstruct.decode.calls"] = calls("reconstruct.decode")
        m["reconstruct.decode.ms"] = ms("reconstruct.decode")
        m["reconstruct.decode.self_ms"] = self_ms("reconstruct.decode")
        m["reconstruct.component.calls"] = calls("reconstruct.component")
        m["reconstruct.component.ms"] = ms("reconstruct.component")
        m["reconstruct.estimate_yield"] = ratio(
            c.get("reconstruct.needed", 0), calls("reconstruct.component"))
        for layer in ("repair1", "repair2"):
            m[f"{layer}.helper.calls"] = calls(f"{layer}.helper")
            m[f"{layer}.helper.ms"] = ms(f"{layer}.helper")
            m[f"{layer}.decode.calls"] = calls(f"{layer}.decode")
            m[f"{layer}.decode.ms"] = ms(f"{layer}.decode")
            m[f"{layer}.decode.self_ms"] = self_ms(f"{layer}.decode")
            m[f"{layer}.certify.ms"] = ms(f"{layer}.certify")
            m[f"{layer}.certify.primes_tried"] = c.get(f"{layer}.primes", 0)
        lookups, builds = calls("repair1.theta"), calls("repair1.theta_build")
        m["repair1.theta.lookups"] = lookups
        m["repair1.theta.builds"] = builds
        m["repair1.theta.ms"] = ms("repair1.theta")
        m["repair1.theta.hit_ratio"] = ratio(lookups - builds, lookups)
        m["repair1.omega_build.calls"] = calls("repair1.omega_build")
        m["repair1.omega_build.ms"] = ms("repair1.omega_build")
        m["repair1.certify.matrices"] = c.get("repair1.matrices", 0)
        m["repair2.estimate.calls"] = calls("repair2.estimate")
        m["repair2.estimate.ms"] = ms("repair2.estimate")
        m["repair2.estimate_yield"] = ratio(
            c.get("repair2.needed", 0), calls("repair2.estimate"))
        (h0, m0), (h1, m1) = self._cache_info[phase]
        m["repair2.group_inv.hit_ratio"] = ratio(h1 - h0, (h1 - h0) + (m1 - m0))
        m["repair2.certify.systems"] = c.get("repair2.systems", 0)
        m["adversary.calls"] = calls("adversary")
        m["adversary.ms"] = ms("adversary")
        m["simnet.event.calls"] = calls("simnet.event")
        m["simnet.event.self_ms"] = self_ms("simnet.event")
        m["cli.command.calls"] = calls("cli.command")
        m["cli.command.self_ms"] = self_ms("cli.command")
        return m

    def write(self, path: Path):
        """Dump every span as gzipped TSV: name, start, end (perf_counter seconds),
        parent row (-1 for none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            for phase, (lo, hi) in self.bounds.items():
                out.write(f"# phase {phase} rows {lo}..{hi}\n")
            out.write("name\tstart\tend\tparent\n")
            out.writelines(
                f"{names[s]}\t{a!r}\t{b!r}\t{p}\n"
                for s, a, b, p in zip(self.name_id, self.start, self.end, self.parent)
            )
