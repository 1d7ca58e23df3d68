"""Every public name of the library has a caller outside the tests.

A public module-level function or class counts as used when its name
appears in src/ (other than as its own definition), demos/ or bench/: as a
name, an attribute, an import or a dotted string such as bench/spans.py's
"Mat.inv".  A public method or property counts only as an attribute or a
dotted-string part, since nothing else can reach it; a local variable that
happens to share its name does not.  Names that only the tests need are
listed in ALLOWED, each with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baercode"
CALLERS = (ROOT / "src", ROOT / "demos", ROOT / "bench")

ALLOWED = {
    "params.gamma_mbr": "the paper's repair bandwidth as a function; the tests check it",
    "encoder.coeff_vector": "the tests' oracle for a node's full coefficient vector",
    "encoder.DataMatrix.full": "the tests' oracle for the symmetric data matrix",
    "galois.Mat.identity": "the tests' oracle for inverses",
    "repair1.parse_repair_record": "reads back the scheme-1 wire records the CLI writes",
    "repair2.parse_round_record": "reads back the scheme-2 wire records the CLI writes",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _docstrings(tree):
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _uses():
    """(names, attributes): every identifier a caller file mentions."""
    names, attrs = set(), set()
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text())
            docs = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in docs and DOTTED.fullmatch(node.value)):
                    parts = node.value.split(".")
                    names.update(parts)
                    attrs.update(parts)
    return names, attrs


def _public_defs():
    """(qualified name, name, is_method) for every public def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{mod}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{mod}.{node.name}.{item.name}", item.name, True


def unused_public_names():
    names, attrs = _uses()
    return [
        qual for qual, name, is_method in _public_defs()
        if name not in attrs and (is_method or name not in names)
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(set(unused_public_names()) - set(ALLOWED)) == []


def test_every_allowed_name_exists_and_is_unused():
    """An allowlist entry whose name gained a caller, or vanished, goes."""
    unused = set(unused_public_names())
    assert sorted(set(ALLOWED) - unused) == []
