"""Every name a package module imports is used in that module, and the
package and the test oracles stay apart.

A name that moves out of a module can strand the imports it needed; this
check reads each module's syntax tree with the standard library alone.
``__init__`` re-exports its imports and is exempt.  No name that
``tests/oracles.py`` defines is defined in or exported by the package, and
``pade_core`` and ``circuit_sim`` stay numpy-only.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pade_lab"
ORACLES = Path(__file__).resolve().with_name("oracles.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined_names(tree: ast.Module, imports: bool = False) -> set[str]:
    """Names bound at the top level of a module by def, class or assignment,
    and by import too with ``imports``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


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
    assert _unused_imports(_tree(PACKAGE / module)) == []


def test_oracles_stay_out_of_the_package():
    oracles = _defined_names(_tree(ORACLES))
    assert {"pade_propagator", "solve_dense", "whole_unitary_defect"} <= oracles
    for path in sorted(PACKAGE.glob("*.py")):
        shared = oracles & _defined_names(_tree(path), imports=path.name == "__init__.py")
        assert not shared, f"{path.name} defines or exports the oracles {sorted(shared)}"


def _scipy_imports(module: str) -> set[str]:
    modules = set()
    for node in ast.walk(_tree(PACKAGE / module)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_pade_core_is_numpy_only():
    assert not _scipy_imports("pade_core.py")


def test_circuit_sim_imports_no_scipy():
    assert not _scipy_imports("circuit_sim.py")


def test_a_stranded_import_is_found():
    tree = ast.parse("from .errors import SizeError, SolveResidualError\n"
                     "raise SolveResidualError('x')\n")
    assert _unused_imports(tree) == ["SizeError (line 1)"]
