"""Every name a package module imports is used in that module.

A name that moves out of a module can strand the imports it needed; this
check reads each module's syntax tree with the standard library alone.
``__init__`` re-exports its imports and is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pade_lab"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_a_stranded_import_is_found():
    tree = ast.parse("from .errors import SizeError, SolveResidualError\n"
                     "raise SolveResidualError('x')\n")
    assert _unused_imports(tree) == ["SizeError (line 1)"]
