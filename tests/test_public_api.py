"""The lazily re-exported package namespaces stay what they were.

``repro``, ``repro.algorithms``, ``repro.core``, ``repro.graph`` and
``repro.queries`` resolve their public names on first access
(:mod:`repro._lazy`).  Every name must still be the object its
defining module holds, and ``import *`` and ``dir()`` must see them.
"""

from __future__ import annotations

import importlib
import pkgutil
import types

import pytest

import repro

LAZY_PACKAGES = [
    "repro",
    "repro.algorithms",
    "repro.core",
    "repro.graph",
    "repro.queries",
]


def _exports():
    for package in LAZY_PACKAGES:
        for name in importlib.import_module(package).__all__:
            yield package, name


def _defining_module(value, name: str) -> types.ModuleType:
    """A class's or function's own module; for a plain value (a dict,
    a list), the one non-package ``repro`` module whose ``__all__``
    lists ``name``."""
    if callable(value):
        return importlib.import_module(value.__module__)
    homes = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            continue
        module = importlib.import_module(info.name)
        if name in getattr(module, "__all__", ()):
            homes.append(module)
    assert len(homes) == 1, (name, homes)
    return homes[0]


@pytest.mark.parametrize(
    "package, name", list(_exports()), ids=lambda value: value
)
def test_name_is_its_defining_modules_object(package, name):
    value = getattr(importlib.import_module(package), name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    if isinstance(value, types.ModuleType):
        assert importlib.import_module(value.__name__) is value
        return
    assert getattr(_defining_module(value, name), name) is value


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_lists_every_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        module.nope
    assert not hasattr(module, "nope")


def test_submodules_still_import_through_the_package():
    from repro.core import costs
    from repro.graph import generators

    assert costs is importlib.import_module("repro.core.costs")
    assert generators is repro.generators
