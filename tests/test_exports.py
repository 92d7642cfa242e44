"""Every name a module of the package exports in __all__ exists, and is run
by the package's own code or kept for a stated reason."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import causalatom

MODULES = sorted(m.name for m in pkgutil.iter_modules(causalatom.__path__))
SRC = Path(causalatom.__file__).parent

# exported names that no code in the package references, and why each stays
KEEP = {
    "sym_bracket": "the tests' reference bracket B(u; C) at real u, on and off the support",
    "z_factor": "the scalar Z observable, an oracle of the rate and the shift at resonance",
    "polynomial_residual": "fits the quadratic between two splittings; C from the "
                           "threshold split will read it",
    "PolynomialResidual": "the result of polynomial_residual",
    "build_grid_window": "the asymmetric WW window that a band-edge shift study needs",
}


def exported() -> dict:
    """module name -> its __all__."""
    return {name: getattr(importlib.import_module(f"causalatom.{name}"), "__all__", [])
            for name in MODULES}


def referenced() -> set:
    """The names that code in the package loads, as a name or an attribute,
    outside the definition of the name itself.  Read from the syntax tree,
    so that docstrings and other text do not count."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in SRC.rglob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    return found


def test_modules_found():
    assert {"cli", "numerics", "observables", "selfenergy", "splitting"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"causalatom.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_export_is_referenced_or_kept():
    used = referenced()
    unused = {f"{module}.{name}" for module, names in exported().items()
              for name in names if name not in used and name not in KEEP}
    assert unused == set()


def test_every_kept_name_is_exported():
    # a name deleted from the package leaves the keep-list with it
    names = {name for names in exported().values() for name in names}
    assert set(KEEP) - names == set()
