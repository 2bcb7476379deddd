"""Every name that gclkit or one of its modules exports resolves, and is read."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gclkit

MODULES = ["gclkit"] + [
    f"gclkit.{info.name}"
    for info in pkgutil.iter_modules(gclkit.__path__)
    if info.name != "__main__"  # importing it runs the command line
]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}"
    exec(f"from {name} import *", {})


def _declares_all(node):
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", None) == "__all__" for target in node.targets
    )


def _exported(tree):
    """The literal ``__all__`` of a module, or () if it has none."""
    for node in tree.body:
        if _declares_all(node) and isinstance(node.value, (ast.List, ast.Tuple)):
            return ast.literal_eval(node.value)
    return ()


def _reads(node, skip):
    """Names read under ``node`` outside the subtrees in ``skip``: loaded
    names, attributes and the string constants perfbench binds spans by."""
    if node in skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, skip)


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a name in a module's __all__, or a public method of a class listed
    # there, that only its own definition and the tests read belongs in
    # tests/oracles.py, not in the package
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    wanted = {}  # (module path, name or Class.method) -> its definition
    for path, tree in trees.items():
        exported = set(_exported(tree))
        for node in tree.body:
            names = [getattr(node, "name", None)] + [
                t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)
            ]
            for name in exported.intersection(names):
                wanted[path, name] = node
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        wanted[path, f"{name}.{member.name}"] = member
        unseen = exported - {name for p, name in wanted if p == path}
        assert not unseen, f"{path.relative_to(ROOT)} exports {unseen} but defines no such name"
    # the __all__ lists and imports declare names; they do not read them
    declarations = {
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _declares_all(node)
    }
    unread = []
    for (path, name), definition in wanted.items():
        leaf, skip = name.rsplit(".", 1)[-1], declarations | {definition}
        if not any(leaf in set(_reads(tree, skip)) for tree in trees.values()):
            unread.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unread, "exported but read only by the tests: " + ", ".join(unread)
