"""Every name that the package or one of its modules lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import tagwalk

MODULES = ["tagwalk", *(f"tagwalk.{m.name}" for m in pkgutil.iter_modules(tagwalk.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
