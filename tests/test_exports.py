"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import emitpair

MODULES = ["emitpair"] + [
    f"emitpair.{info.name}" for info in pkgutil.iter_modules(emitpair.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
