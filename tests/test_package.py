"""Package audit: every definition in src/qweyl is reached from the package."""

import ast
import time
from pathlib import Path

import qweyl

PACKAGE = Path(qweyl.__file__).resolve().parent


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node: ast.AST):
    """The identifiers node uses: names, attributes and imported names;
    string constants do not count."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _units(root: Path):
    """The package's code, cut into units: (label, name, owner, names used).

    A unit is a top-level function or class body (label "module.name"), a
    method (label "module.Class.name", owner the label of its class), or
    the rest of a module (name None), which always runs.  A class body's
    own unit holds its statements other than methods.  __init__.py, which
    only re-exports, is left out."""
    units = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        rest = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units.append((f"{module}.{node.name}", node.name, None, set(_names(node))))
            elif isinstance(node, ast.ClassDef):
                label = f"{module}.{node.name}"
                body = []
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = None if _dunder(item.name) else item.name
                        units.append((f"{label}.{item.name}", name, label, set(_names(item))))
                    else:
                        body.append(item)
                used = set().union(*(_names(n) for n in body + node.bases + node.decorator_list))
                units.append((label, node.name, None, used))
            else:
                rest.append(node)
        units.append((module, None, None, set().union(*map(_names, rest))))
    return units


def unreached(root: Path = PACKAGE):
    """Labels of the definitions no live code of the package names, to a
    fixpoint: a definition that only dead code names is dead as well, and
    a method of a dead class is dead with it."""
    units = _units(root)
    live = {label for label, *_ in units}
    while True:
        dead = set()
        for label, name, owner, _ in units:
            if label not in live:
                continue
            if owner is not None and owner not in live:
                dead.add(label)
            elif name is not None and not any(
                    name in used for other, _, _, used in units if other != label and other in live):
                dead.add(label)
        if not dead:
            return sorted(label for label, name, *_ in units if name is not None and label not in live)
        live -= dead


def test_every_definition_is_reached_from_the_package():
    start = time.perf_counter()
    assert unreached() == []
    assert time.perf_counter() - start < 0.5


def test_the_audit_catches_a_helper_of_an_unreached_helper(tmp_path):
    (tmp_path / "core.py").write_text(
        "def used():\n    return 1\n\n\nX = used()\n\n\n"
        "def _helper():\n    return 'used'\n\n\n"
        "def orphan():\n    return _helper()\n\n\n"
        "class Box:\n    def kept(self):\n        return 1\n\n"
        "    def spare(self):\n        return self.kept()\n\n\n"
        "Box().kept()\n")
    (tmp_path / "__init__.py").write_text("from .core import orphan, _helper\n")
    assert unreached(tmp_path) == ["core.Box.spare", "core._helper", "core.orphan"]
