"""Every name a package module imports is used in that module, and the
package and the test oracles stay apart.

A name that moves out of a module can strand the imports it needed; this
check reads each module's syntax tree with the standard library alone.
``__init__`` re-exports its imports and is exempt.  No name that
``tests/oracles.py`` defines is defined in or exported by the package, and
``pade_core`` and ``circuit_sim`` stay numpy-only.  Scheme names appear
only at the sites of ``SCHEME_NAME_SITES``: everywhere else the code reads
the scheme record.  The dense one-step block is formed only at the sites of
``ONE_STEP_SITES``, so W has one elimination.
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


#: (module, function) -> the string constants "pade" and "taylor" there; None
#: is module level.  Every other module and function reads the scheme record.
SCHEME_NAME_SITES = {
    ("pade_core", None): 2,  # SCHEME_NAMES itself
    ("error_bounds", "make_params"): 1,  # the default scheme
    ("error_bounds", "select_parameters"): 1,  # the paper's Padé parameter rule
    ("system_builder", "build_pade_system"): 1,  # builder shims of the benchmark
    ("system_builder", "build_taylor_system"): 1,
    ("analysis", "_drift"): 1,  # the drift is built on the Padé table
    ("circuit_sim", "primitive_targets"): 1,  # the circuits encode Padé alone
    ("circuit_sim", "_emit_m3"): 1,
    ("circuit_sim", "_emit_m5"): 1,
    ("cli", "_add_system_flags"): 1,  # the --scheme default
    ("cli", "_cmd_circuit_verify"): 1,
}


#: (module, function) -> the calls ``.one_step(...)`` there: the one
#: elimination of W, and the W target of ``circuit-verify``.
ONE_STEP_SITES = {
    ("classical_solver", "_eliminate"): 1,
    ("cli", "_cmd_circuit_verify"): 1,
}


def _count_by_scope(tree: ast.Module, module: str, hit) -> dict:
    """(module, qualified function name or None) -> count of the nodes for
    which ``hit`` holds."""
    counts = {}

    def visit(node, scope):
        if hit(node):
            counts[module, scope] = counts.get((module, scope), 0) + 1
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return counts


def _scheme_names(tree: ast.Module, module: str) -> dict:
    """The string constants "pade" and "taylor" by scope."""
    return _count_by_scope(tree, module, lambda node: isinstance(node, ast.Constant)
                           and node.value in ("pade", "taylor"))


def _one_step_calls(tree: ast.Module, module: str) -> dict:
    """The calls of an attribute ``one_step`` by scope."""
    return _count_by_scope(tree, module, lambda node: isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "one_step")


def _package_counts(counter) -> dict:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(counter(_tree(path), path.stem))
    return found


def test_scheme_names_only_at_their_sites():
    assert _package_counts(_scheme_names) == SCHEME_NAME_SITES


def test_one_step_calls_only_at_their_sites():
    assert _package_counts(_one_step_calls) == ONE_STEP_SITES


def test_a_scheme_name_test_is_found():
    tree = ast.parse('class R:\n    def f(self, p):\n        return p.scheme == "pade"\n'
                     'NAME = f"{SCHEMES[\'taylor\']}"\n')
    assert _scheme_names(tree, "m") == {("m", "R.f"): 1, ("m", None): 1}


def test_a_one_step_call_is_found():
    tree = ast.parse("def f(rec, xh):\n    return step_inverses(rec, xh), rec.one_step(xh)\n"
                     "def one_step(x):\n    return x\n"
                     "W = SCHEMES['pade'](3).one_step(A)\n")
    assert _one_step_calls(tree, "m") == {("m", "f"): 1, ("m", None): 1}
