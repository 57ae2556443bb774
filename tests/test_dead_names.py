"""No package definition goes unread, or is read by tests alone.

Every top-level function and class of src/morsediag/*.py, and every method
or property of those classes that is not a dunder, must be used somewhere
outside its own definition: as a loaded name, an attribute name or an
imported name, in src/, bench/ or demos/.  A name that only its own body
reads is dead code; one that only tests read is reference code, which
belongs in tests/.  Since an import counts as a use, every name a package
module imports must also be loaded in that module, or an unused import
could keep a name alive.  ``__init__`` imports to re-export, and a
re-export is not a use, so ``__init__`` is read by neither check.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "morsediag"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each definition the check covers."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEFS) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _uses(node: ast.AST, inside: tuple, out: list) -> None:
    """Append (name, ids of the definitions enclosing the use) for every
    use below ``node``."""
    if isinstance(node, _DEFS):
        inside += (id(node),)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out.append((node.id, inside))
    elif isinstance(node, ast.Attribute):
        out.append((node.attr, inside))
    elif isinstance(node, ast.alias):
        out += [(part, inside) for part in node.name.split(".")]
    for child in ast.iter_child_nodes(node):
        _uses(child, inside, out)


def dead_names(readers=("src", "tests", "bench", "demos")) -> list[str]:
    """The package definitions that no code under ``readers`` uses."""
    package = {path: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    uses: list = []
    for top in readers:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            tree = package.get(path) or ast.parse(path.read_text(), str(path))
            _uses(tree, (), uses)
    users: dict = {}
    for name, inside in uses:
        users.setdefault(name, []).append(inside)
    return [f"{path.name}: {qualname}"
            for path, tree in package.items()
            for qualname, name, node in _definitions(tree)
            if all(id(node) in inside for inside in users.get(name, ()))]


def unused_imports() -> list[str]:
    """The names a package module other than ``__init__`` imports (not from
    ``__future__``) and never loads."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{path.name}: {alias.asname or alias.name.split('.')[0]}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
                if (alias.asname or alias.name.split(".")[0]) not in loaded]
    return out


def test_every_definition_is_used_outside_itself():
    assert dead_names() == []


def test_no_definition_is_read_by_tests_alone():
    assert dead_names(("src", "bench", "demos")) == []


def test_every_import_is_loaded_where_it_is_imported():
    assert unused_imports() == []
