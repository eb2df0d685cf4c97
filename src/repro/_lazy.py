"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package that re-exports names from its submodules would otherwise
import every one of them — and NumPy behind several — the moment any
submodule is imported: ``import repro.service.node`` runs
``repro/__init__.py`` first.  :func:`lazy_exports` gives such a
package a module-level ``__getattr__``/``__dir__`` pair instead, so a
re-exported name costs its import only when it is first read, and the
serving stack never pays for summarizers it does not run.  Every name
stays importable exactly as before (``from repro import Graph``,
``from repro import *``, ``dir(repro)``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, list[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module path to the names re-exported from it,
    mirroring the ``from <module> import <names>`` lines it replaces.
    A name that is not an attribute of its module is imported as its
    submodule, as ``from <module> import <name>`` would.  A resolved
    name is stored on the package, so each costs one lookup.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module_name = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(module_name)
        try:
            value = getattr(module, name)
        except AttributeError:
            value = importlib.import_module(f"{module_name}.{name}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
