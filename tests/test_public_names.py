"""Every public name of the library has a caller outside the tests.

A public module-level function or class counts as used when its name
appears in src/ (other than as its own definition), demos/ or bench/: as a
name, an attribute, an import or a dotted string such as bench/spans.py's
"repair1.omega_build".  A public method or property of class C counts only
when it is reached through a receiver that can be C: `self.m` or `cls.m`
inside C, `C.m`, a dotted string "C.m", `f(...).m` where f is C or a
library function whose return annotation is C, or `x.m` on any other
receiver unless m is also a method of a builtin type (`set.add`,
`dict.get`, `str.split`, ...), whose calls cannot be told apart from C's
without types.  A dotted string names no bare attribute: "galois.inv" keeps
no `inv` alive.  A local variable that happens to share its name does not
count.  A field of a public dataclass or NamedTuple counts only when some
caller reads it: an attribute load of that name that is not the callee of a
call, so `share.index` keeps NodeShare.index alive and `xs.index(v)` does
not, nor does passing the field to a constructor.  Names that only the tests
need are listed in ALLOWED, each with the reason it stays.

An error class of errors.py exists only where some caller tells it apart: an
`except` clause in src/ or tests/ names it, or a reference scan of the tests
counts it as a failure (the failures argument of `first_consistent`).
Every other refusal raises BaerCodeError with its message.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baercode"
CALLERS = (ROOT / "src", ROOT / "demos", ROOT / "bench")
TELLERS = (ROOT / "src", ROOT / "tests")

ALLOWED = {
    "encoder.coeff_vector": "the tests' oracle for a node's full coefficient vector",
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
    pairs that one caller file mentions; `returns` maps each library class,
    and each library function returning one, to that class."""

    def __init__(self, docs, classes, returns):
        self.docs, self.classes, self.returns, self.enclosing = docs, classes, returns, []
        self.names, self.attrs, self.typed, self.reads = set(), set(), set(), set()
        self.callees = set()

    def visit_ClassDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_alias(self, node):
        self.names.add(node.name.rpartition(".")[2])

    def visit_Call(self, node):
        self.callees.add(id(node.func))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and id(node) not in self.callees:
            self.reads.add(node.attr)
        recv = node.value
        if isinstance(recv, ast.Call):
            callee = recv.func
            owner = self.returns.get(getattr(callee, "id", None) or getattr(callee, "attr", None))
        else:
            name = recv.id if isinstance(recv, ast.Name) else getattr(recv, "attr", None)
            owner = (self.enclosing[-1] if name in ("self", "cls") and self.enclosing
                     else name if name in self.classes else None)
        if owner is None:
            self.attrs.add(node.attr)
        else:
            self.typed.add((owner, node.attr))
        self.generic_visit(node)

    def visit_Constant(self, node):
        value = node.value
        if isinstance(value, str) and id(node) not in self.docs and DOTTED.fullmatch(value):
            parts = value.split(".")
            self.names.update(parts)
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


def _is_record(node):
    """A class declared as a dataclass or as a NamedTuple."""
    decorators = [dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list]
    return any(getattr(kind, "id", None) in ("dataclass", "NamedTuple")
               or getattr(kind, "attr", None) in ("dataclass", "NamedTuple")
               for kind in decorators + node.bases)


def _public_fields(package):
    """(qualified name, name) for every public annotated field of a public
    dataclass or NamedTuple."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") \
                    and _is_record(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) \
                            and not item.target.id.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def _return_types(package, classes):
    """{name: class} for every library class and for every module-level
    function (private ones too) whose return annotation is one; a name
    defined twice with different types is left out."""
    returns, clashes = {c: c for c in classes}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                kind = getattr(node.returns, "id", None)
                kind = kind if kind in classes else None
                if returns.setdefault(node.name, kind) != kind:
                    clashes.add(node.name)
    return {name: kind for name, kind in returns.items() if kind and name not in clashes}


def unused_public_names(package=PACKAGE, callers=CALLERS):
    defs = list(_public_defs(package))
    classes = {owner for _, owner, _ in defs if owner}
    returns = _return_types(package, classes)
    names, attrs, typed, reads = set(), set(), set(), set()
    for top in callers:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text())
            uses = _Uses(_docstrings(tree), classes, returns)
            uses.visit(tree)
            names |= uses.names
            attrs |= uses.attrs
            typed |= uses.typed
            reads |= uses.reads
    return [
        qual for qual, owner, name in defs
        if (owner is None and name not in names and name not in attrs)
        or (owner is not None and (owner, name) not in typed
            and (name not in attrs or name in BUILTIN_METHODS))
    ] + [qual for qual, name in _public_fields(package) if name not in reads]


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


def test_a_dead_field_is_flagged_and_a_non_call_read_keeps_one(tmp_path):
    """A field only passed to a constructor (Share.point), or only named as a
    call's callee (`xs.count(4)`), is dead; `share.index`, a read, keeps
    Share.index alive beside the call `xs.index(5)`."""
    package, callers = tmp_path / "lib", tmp_path / "app"
    package.mkdir()
    callers.mkdir()
    (package / "share.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Share:\n"
        "    index: int\n"
        "    point: int\n"
        "    x: tuple\n"
        "class Found(NamedTuple):\n"
        "    count: int\n"
    )
    (callers / "main.py").write_text(
        "from share import Found, Share\n"
        "share = Share(index=1, point=3, x=(2,))\n"
        "xs = [4, 5]\n"
        "print(share.index, share.x, xs.index(5), xs.count(4), Found(count=1))\n"
    )
    assert unused_public_names(package, (package, callers)) == [
        "share.Share.point", "share.Found.count"]


def test_a_dead_method_sharing_a_typed_call_or_span_name_is_flagged(tmp_path):
    """Neither `theta(...).inv()`, `Mat(...).inv()` nor the span name
    "galois.inv" keeps Field.inv alive; each alone would."""
    package, callers = tmp_path / "lib", tmp_path / "app"
    package.mkdir()
    callers.mkdir()
    (package / "galois.py").write_text(
        "class Field:\n"
        "    def inv(self, a):\n        return a\n"
        "    def point(self, node):\n        return node\n"
        "class Mat:\n"
        "    def inv(self):\n        return self\n"
        "    def rank(self):\n        return 0\n"
        "def theta(fld) -> Mat:\n    return Mat()\n"
    )
    (callers / "main.py").write_text(
        "import galois\n"
        "SPAN = 'galois.inv'\n"
        "fld = galois.Field()\n"
        "galois.theta(fld).inv()\n"
        "galois.Mat().inv()\n"
        "galois.theta(fld.point(1)).rank()\n"
    )
    assert unused_public_names(package, (package, callers)) == ["galois.Field.inv"]


def _told_apart(tree):
    """Names in the `except` clauses, and in the failures argument of the
    first_consistent calls, of one file."""
    caught = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught.append(node.type)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "first_consistent"
              and len(node.args) == 5):
            caught.append(node.args[4])
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for expr in caught for sub in ast.walk(expr)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def untold_error_classes(errors=PACKAGE / "errors.py", tellers=TELLERS):
    """Classes of `errors` that no file under `tellers` tells apart."""
    told = set()
    for top in tellers:
        for path in sorted(top.rglob("*.py")):
            told |= _told_apart(ast.parse(path.read_text()))
    tree = ast.parse(errors.read_text())
    return [node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name not in told]


def test_every_error_class_is_told_apart_by_some_caller():
    assert untold_error_classes() == []


def test_an_error_class_nothing_catches_is_flagged(tmp_path):
    errors, caller = tmp_path / "errors.py", tmp_path / "caller.py"
    errors.write_text(
        "class Base(Exception):\n    pass\n"
        "class Caught(Base):\n    pass\n"
        "class Scanned(Base):\n    pass\n"
        "class Raised(Base):\n    pass\n"
    )
    caller.write_text(
        "import errors\n"
        "try:\n    raise errors.Raised('x')\n"
        "except (errors.Caught, Base):\n    pass\n"
        "first_consistent([1, 2], 2, 1, len, Scanned)\n"
    )
    assert untold_error_classes(errors, (tmp_path,)) == ["Raised"]
