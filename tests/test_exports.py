"""Every name the package and its modules export resolves; one version."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

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


def test_pyproject_version_is_the_package_version():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == emitpair.__version__
