"""Every name in the ``__all__`` of the package and of each of its modules exists."""

import importlib
import pkgutil

import pytest

import lmlp

MODULES = ["lmlp"] + [f"lmlp.{info.name}" for info in pkgutil.iter_modules(lmlp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
