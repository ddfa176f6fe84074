"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that declares ``{submodule: names}`` instead of
importing the names pays for a submodule when one of its names is first
used, not when the package is::

    __getattr__, __dir__ = lazy_exports(__name__, {".asha": ["ASHA"], ...})

A name resolves through its defining submodule on *every* access and is
never cached in the package namespace, so whatever rebinds
``package.submodule.name`` (a monkeypatch, ``bench/trace.py``'s span
wrappers) is what ``package.name`` returns too.  One exception: importing
a submodule binds the *module* under its own name, so an export that
shares its submodule's name (``experiments.run_all``) is written over it.
"""

import sys
from importlib import import_module


def lazy_exports(package, table):
    """``(__getattr__, __dir__)`` for ``package`` from ``{submodule: names}``."""
    origin = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(origin[name], package), name)
        if origin[name] == "." + name:
            setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
