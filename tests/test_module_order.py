"""Every package import points down the module order.

The modules of src/morsediag form layers, in the order of ``ORDER``: each
import of a package module from another, at the top of the module or
inside a function, must name a module earlier in that order.  So no module
needs a later one, and no two import each other.  ``from . import
__version__`` names the package, not a module, and is allowed;
``__init__``, which re-exports every layer, is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "morsediag"
ORDER = ("_formats", "combmap", "chord", "prdiag", "catalog", "cli")


def _imported_modules(node: ast.AST):
    """The package modules that an import statement names."""
    if isinstance(node, ast.Import):
        yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("morsediag."))
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if not node.level:   # absolute: only morsediag's own modules count
            package, _, module = module.partition(".")
            if package != "morsediag":
                return
        if module:
            yield module.split(".")[0]
        else:   # from . import name: a module, or a name the package defines
            yield from (a.name for a in node.names if (PACKAGE / f"{a.name}.py").is_file())


def upward_imports() -> list[str]:
    """'module -> module' for each import that does not point down ORDER,
    and each package module that ORDER does not place."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        if path.stem not in ORDER:
            out.append(f"{path.stem}: not in the module order")
            continue
        here = ORDER.index(path.stem)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            out += [f"{path.stem} -> {name}" for name in _imported_modules(node)
                    if name not in ORDER[:here]]
    return out


def test_every_package_import_points_down_the_module_order():
    assert upward_imports() == []
