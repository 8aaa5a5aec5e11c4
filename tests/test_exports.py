"""Every name the package and its modules export resolves, and so does every
binding the benchmark traces; no module imports a name it neither uses nor
exports, and no private definition goes unread; one version; every package
the tests import is declared."""

import ast
import importlib
import pkgutil
import re
import sys
import tomllib
from pathlib import Path

import pytest

import emitpair

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["emitpair"] + [
    f"emitpair.{info.name}" for info in pkgutil.iter_modules(emitpair.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# imported but unused, on purpose: perfbench's own test checks that tracing
# rebinds build_assembly in nonclassicality
_UNUSED_IMPORTS_KEPT = {"emitpair.nonclassicality": {"build_assembly"}}


@pytest.mark.parametrize("module_name", MODULES)
def test_no_unused_imports(module_name):
    path = Path(importlib.import_module(module_name).__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(module_name), "__all__", ()))
    kept = _UNUSED_IMPORTS_KEPT.get(module_name, set())
    assert sorted(imported - used - exported - kept) == []


def test_no_unread_private_definitions():
    # a private function, class or constant that no module reads is dead,
    # typically a helper that a removal left behind
    trees = {
        name: ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
        for name in MODULES
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module_name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [
                f"{module_name}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    assert unread == []


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_pyproject_version_is_the_package_version():
    assert _project()["version"] == emitpair.__version__


def test_every_third_party_test_import_is_declared():
    # ``pip install .[test]`` must be enough to collect every test file
    project = _project()
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in requirements}
    imported = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = set(sys.stdlib_module_names) | {"emitpair", "perfbench"}
    assert sorted(imported - local - declared) == []


def test_every_binding_the_benchmark_traces_resolves(monkeypatch):
    # perfbench rebinds these by name; a refactor that drops one must fail here
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import spec

    for var in spec.BLAS_THREAD_VARS:  # importing the workload pins them
        monkeypatch.setenv(var, "1")
    from perfbench import spans, workload

    targets = [(module, qualname) for module, qualname, _ in workload.TRACED] + [
        ("emitpair.operators", "SparseComplexMatrix.__init__"),
        # perfbench's own test checks that tracing rebinds it in this module
        ("emitpair.nonclassicality", "build_assembly"),
    ]

    def resolves(module_name, qualname):
        try:
            _, owner, attr = spans._resolve(module_name, qualname)
        except AttributeError:  # a missing class on the way
            return False
        return hasattr(owner, attr)

    assert [f"{m}.{q}" for m, q in targets if not resolves(m, q)] == []
