"""Every library name the benchmark traces still exists.

bench/spans.py patches the functions and methods it lists in TARGETS by
name; a refactor that deletes or renames one would stop the benchmark at
start-up.  This checks the list against the library in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

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
