"""Every name in the ``__all__`` of the package and of each of its modules
exists, and the engine exports no private name."""

import importlib
import pkgutil

import pytest

import lmlp
from lmlp import tensor as T

MODULES = ["lmlp"] + [f"lmlp.{info.name}" for info in pkgutil.iter_modules(lmlp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_engine_exports_no_private_name():
    """The benchmark's tracer wraps every name in ``tensor.__all__`` as an op
    and records only outermost op spans; an exported step runner would hide
    every op inside a step."""
    assert [name for name in T.__all__ if name.startswith("_")] == []
    for private in ("_unchecked", "_checked_once"):
        assert hasattr(T, private) and private not in T.__all__
