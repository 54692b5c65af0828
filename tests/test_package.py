"""Package hygiene: every exported name exists."""

import importlib
import pkgutil

import pytest

import lorentzlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(lorentzlab.__path__))


def test_modules_found():
    assert {"dynamics", "kinetic", "macroscale", "scattering"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # "from lorentzlab.<module> import *"
    mod = importlib.import_module(f"lorentzlab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
