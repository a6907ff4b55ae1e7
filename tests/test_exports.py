"""Every name in a `wpvol` module's `__all__` is used by the program.

A name counts as used when some module in `src/wpvol` or `wpbench` loads it,
reads it as an attribute or imports it, outside the name's own top-level
definition.  A name that only the tests call belongs in `tests/`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "wpvol").glob("*.py"))
USERS = MODULES + sorted((ROOT / "wpbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _references(tree, skip=None):
    """Names loaded, attributes read and names imported in `tree`, outside the
    top-level def or class named `skip`."""
    found = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if _exports(_parse(p))],
                         ids=lambda p: p.stem)
def test_every_export_is_used(path):
    tree = _parse(path)
    elsewhere = set()
    for user in USERS:
        if user != path:
            elsewhere |= _references(_parse(user))
    unused = [name for name in _exports(tree)
              if name not in elsewhere and name not in _references(tree, skip=name)]
    assert unused == []
