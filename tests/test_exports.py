"""Every name a module of the package exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import causalatom

MODULES = sorted(m.name for m in pkgutil.iter_modules(causalatom.__path__))


def test_modules_found():
    assert {"cli", "numerics", "observables", "selfenergy", "splitting"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"causalatom.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
