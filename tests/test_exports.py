"""Every name in a `wpvol` module's `__all__`, and every public attribute of
a class defined in `wpvol`, is used by the program.

A name counts as used when some module in `src/wpvol` or `wpbench` loads it,
reads it as an attribute or imports it, outside the name's own definition.
A name that only the tests call belongs in `tests/`.  No module in
`src/wpvol` imports another's private (underscored) name.
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
    node `skip`."""
    found = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _top_level(tree, name):
    """The top-level def or class named `name`, if any."""
    return next((node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == name), None)


def _public_attributes(tree):
    """(name, defining node) of each public method, class attribute and field
    in the body of each top-level class of `tree`."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            yield from ((name, node) for name in names if not name.startswith("_"))


def _used_elsewhere(path):
    """Every name referenced by a user module other than `path`."""
    found = set()
    for user in USERS:
        if user != path:
            found |= _references(_parse(user))
    return found


# every module keeps its id, also one with no __all__ or no class
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_is_used(path):
    tree = _parse(path)
    elsewhere = _used_elsewhere(path)
    unused = [name for name in _exports(tree) if name not in elsewhere
              and name not in _references(tree, skip=_top_level(tree, name))]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_class_attribute_is_used(path):
    tree = _parse(path)
    elsewhere = _used_elsewhere(path)
    unused = [name for name, node in _public_attributes(tree) if name not in elsewhere
              and name not in _references(tree, skip=node)]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_private_name(path):
    # a name with a leading underscore belongs to its own module
    private = [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(_parse(path))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
