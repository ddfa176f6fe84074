"""Meta-tests: every public item in the library is documented."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
]


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        member = getattr(module, name, None)
        if member is None:
            continue
        # Only check things defined in this package.
        defined_in = getattr(member, "__module__", "") or ""
        if defined_in.startswith("repro"):
            yield name, member


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in public_members(module):
        if inspect.isclass(member) or inspect.isfunction(member):
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items: {undocumented}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_methods_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for class_name, member in public_members(module):
        if not inspect.isclass(member):
            continue
        for method_name, method in inspect.getmembers(member, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if (getattr(method, "__module__", "") or "").startswith("repro"):
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(f"{class_name}.{method_name}")
    assert not undocumented, f"{module_name}: undocumented methods: {sorted(set(undocumented))}"


def test_package_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"


def test_api_md_is_current():
    """``docs/API.md`` is what ``tools/generate_api_docs.py`` renders today.

    A lazily exported name that stopped resolving would silently drop out
    of the reference; regenerate with ``python tools/generate_api_docs.py``.
    """
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "generate_api_docs", root / "tools" / "generate_api_docs.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.render() == (root / "docs" / "API.md").read_text()
