"""Every public name of the library has a caller outside the tests.

A public module-level function or class counts as used when its name
appears in src/ (other than as its own definition), demos/ or bench/: as a
name, an attribute, an import or a dotted string such as bench/spans.py's
"Mat.inv".  A public method or property of class C counts only when it is
reached through a receiver that can be C: `self.m` or `cls.m` inside C,
`C.m`, a dotted string "C.m", or `x.m` on any other receiver unless m is
also a method of a builtin type (`set.add`, `dict.get`, `str.split`, ...),
whose calls cannot be told apart from C's without types.  A local variable
that happens to share its name does not count.  Names that only the tests
need are listed in ALLOWED, each with the reason it stays.
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
    "galois.Mat.transpose": "the tests' oracle for ranks and for Theta_G^T in decoder checks",
    "repair.parse_records": "reads back the wire records the CLI writes",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
BUILTIN_METHODS = {
    attr for kind in (set, frozenset, dict, list, tuple, str, bytes, bytearray, int, float)
    for attr in dir(kind) if not attr.startswith("_")
}


def _docstrings(tree):
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


class _Uses(ast.NodeVisitor):
    """names, attrs (on receivers of unknown type) and typed (class, attribute)
    pairs that one caller file mentions."""

    def __init__(self, docs, classes):
        self.docs, self.classes, self.enclosing = docs, classes, []
        self.names, self.attrs, self.typed = set(), set(), set()

    def visit_ClassDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_alias(self, node):
        self.names.add(node.name.rpartition(".")[2])

    def visit_Attribute(self, node):
        recv = node.value
        recv_name = recv.id if isinstance(recv, ast.Name) else getattr(recv, "attr", None)
        if recv_name in ("self", "cls") and self.enclosing:
            self.typed.add((self.enclosing[-1], node.attr))
        elif recv_name in self.classes:
            self.typed.add((recv_name, node.attr))
        else:
            self.attrs.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        value = node.value
        if isinstance(value, str) and id(node) not in self.docs and DOTTED.fullmatch(value):
            parts = value.split(".")
            self.names.update(parts)
            self.attrs.update(parts)
            self.typed.update(zip(parts, parts[1:]))


def _public_defs(package):
    """(qualified name, class or None, name) for every public def and class."""
    for path in sorted(package.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{mod}.{node.name}", None, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{mod}.{node.name}.{item.name}", node.name, item.name


def unused_public_names(package=PACKAGE, callers=CALLERS):
    defs = list(_public_defs(package))
    classes = {owner for _, owner, _ in defs if owner}
    names, attrs, typed = set(), set(), set()
    for top in callers:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text())
            uses = _Uses(_docstrings(tree), classes)
            uses.visit(tree)
            names |= uses.names
            attrs |= uses.attrs
            typed |= uses.typed
    return [
        qual for qual, owner, name in defs
        if (owner is None and name not in names and name not in attrs)
        or (owner is not None and (owner, name) not in typed
            and (name not in attrs or name in BUILTIN_METHODS))
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(set(unused_public_names()) - set(ALLOWED)) == []


def test_every_allowed_name_exists_and_is_unused():
    """An allowlist entry whose name gained a caller, or vanished, goes."""
    unused = set(unused_public_names())
    assert sorted(set(ALLOWED) - unused) == []


def test_a_dead_method_sharing_a_builtin_or_self_name_is_flagged(tmp_path):
    """Neither `set.add` nor `self.add` of another class keeps Field.add alive."""
    package, callers = tmp_path / "lib", tmp_path / "app"
    package.mkdir()
    callers.mkdir()
    (package / "field.py").write_text(
        "class Field:\n"
        "    def add(self, a, b):\n        return a + b\n"
        "    def point(self, node):\n        return node\n"
    )
    (callers / "main.py").write_text(
        "from field import Field\n"
        "class Bag:\n"
        "    def add(self, v):\n        return v\n"
        "    def put(self, v):\n        return self.add(v)\n"
        "seen = set()\n"
        "seen.add(Field().point(1))\n"
    )
    assert unused_public_names(package, (package, callers)) == ["field.Field.add"]
