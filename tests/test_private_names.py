"""Every private top-level name in src/tilegate/ is used in src/.

A function, class or constant whose name starts with one underscore is
the package's own business, so nothing outside src/ should keep it
alive: once its last caller in src/ goes, it is dead code.  A use is a
load of the name or an attribute of that name anywhere in src/, outside
the name's own definition; an import alone does not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tilegate"


def _private_definitions(tree: ast.Module):
    # (name, first line, last line) of each top-level private definition
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _uses(tree: ast.Module):
    # (name, line) of every load of a name and every attribute access
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_private_top_level_name_is_used_in_src():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = {path: list(_uses(tree)) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            if not any(used == name and (other is not path or not first <= line <= last)
                       for other, found in uses.items() for used, line in found):
                unused.append(f"{path.name}: {name}")
    assert not unused
