"""Every library name the benchmark traces still exists, and still runs.

bench/spans.py patches the functions and methods it lists in TARGETS by
name; a refactor that deletes or renames one would stop the benchmark at
start-up, and one that stops calling it would leave its per-layer metrics
reading 0.  This checks both against the library in the tier-1 suite.
"""

import importlib
import importlib.util
import random
from pathlib import Path

from baercode import cli, repair1, repair2, simnet

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves_on_the_library():
    spans = load_spans()
    modules = {m: importlib.import_module(f"baercode.{m}") for m in spans.MODULES}
    missing = []
    for mod_name, dotted, _span in spans.TARGETS:
        try:
            owner, attr = spans._resolve(modules[mod_name], dotted)
            ok = callable(owner.__dict__[attr])
        except (AttributeError, KeyError):
            ok = False
        if not ok:
            missing.append(f"{mod_name}.{dotted}")
    assert missing == []
    assert spans.Tracer()._patches          # the tracer builds every patch



# Spans no library path reaches: per-subset inverses and estimates (Theta
# inverses, reconstruct components, repair2.repair_estimate's stacked subset
# solve) that only the tests and the demos call.
SILENT = {"galois.inv", "galois.matmul", "reconstruct.component", "repair1.theta",
          "repair2.estimate"}


def test_only_the_dead_spans_stay_silent(tmp_path, ex3_code, a12_code, ex1_code):
    spans = load_spans()
    for m in spans.MODULES:
        importlib.import_module(f"baercode.{m}")
    tracer, fields = spans.Tracer(), {}
    tracer.begin("setup")
    tracer.install()
    try:
        # Scheme 2 has no schedule at ex3 (alpha=6).
        for code, scheme in ((ex3_code, "1"), (a12_code, "2"), (ex1_code, "concat")):
            fld = repair1.find_field(code).field
            repair1.verify_theta_all(code, fld)
            if scheme != "1":
                fld2, _, _ = repair2.find_field_scheme2(code)
                repair2.verify_systems_all(code, fld2)
                fld = fld2 if scheme == "2" else fld
            fields[scheme] = fld
            rng = random.Random(5)
            message = [rng.randrange(fld.p) for _ in range(code.f_mbr)]
            script = simnet.parse_scenario(
                f"fail {code.n}\nrepair {code.n} d={max(code.d_set)}\n"
                f"reconstruct {','.join(map(str, range(1, code.k + 1)))}\n")
            report = simnet.run_scenario(simnet.init_cluster(code, message, scheme, fld), script)
            assert all(row.success for row in report.rows)
        p = fields["1"].p
        params, msg, shares = tmp_path / "ex3.params", tmp_path / "msg.txt", tmp_path / "shares"
        params.write_text(f"n=6\nk=3\nb=1\nalpha=6\nD=4,5\np={p}\n")
        msg.write_text("".join(f"{v % p}\n" for v in range(ex3_code.f_mbr)))
        assert cli.main(["encode", "--params", str(params), "--message", str(msg),
                         "--out", str(shares)]) == 0
        files = [str(f) for f in sorted(shares.iterdir())]
        assert cli.main(["repair", "--params", str(params), "--failed", "6", "--d", "4",
                         "--adversary", "liar", "--controlled", "1",
                         "--out", str(tmp_path / "rebuilt"), *files[:4]]) == 0
        assert cli.main(["reconstruct", "--params", str(params),
                         "--out", str(tmp_path / "message"), *files[:3]]) == 0
    finally:
        tracer.uninstall()
        tracer.finish()
    calls = {name: c for name, (c, _ms, _self) in tracer._totals("setup").items()}
    assert {name for name, c in calls.items() if c == 0} == SILENT


def test_cli_certification_reaches_the_traced_names(tmp_path, capsys):
    """find-field and selftest resolve each scheme's search and sweep when
    they run, so the spans bench/spans.py patches onto repair1 and repair2
    see the CLI's calls; a resolver that kept the functions it found at
    import would leave these spans, and cli-s1's certify metrics, at 0."""
    spans = load_spans()
    for m in spans.MODULES:
        importlib.import_module(f"baercode.{m}")
    tracer = spans.Tracer()
    tracer.begin("setup")
    tracer.install()
    try:
        for scheme, alpha, p in (("1", 6, 17), ("2", 12, 19)):
            raw, certified = tmp_path / f"s{scheme}.raw", tmp_path / f"s{scheme}.params"
            raw.write_text(f"n=6\nk=3\nb=1\nalpha={alpha}\nD=4,5\n")
            assert cli.main(["find-field", "--params", str(raw), "--scheme", scheme,
                             "--out", str(certified)]) == 0
            assert f"p={p}\n" in certified.read_text()
            assert cli.main(["selftest", "--params", str(certified), "--scheme", scheme]) == 0
    finally:
        tracer.uninstall()
        tracer.finish()
    capsys.readouterr()
    calls = {name: c for name, (c, _ms, _self) in tracer._totals("setup").items()}
    traced = ("repair1.certify", "repair2.certify", "repair1.verify", "repair2.verify")
    assert [span for span in traced if calls[span] == 0] == []
