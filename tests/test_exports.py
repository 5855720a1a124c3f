"""Every exported name resolves: a name left in an `__all__` after its
definition is deleted fails only on a star import, so each star import is
made here, in a fresh namespace."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

import groupcut

# the modules that declare an __all__; without one a star import takes every
# public name and cannot name a missing one
MODULES = [
    name
    for name in sorted(
        path.stem for path in Path(groupcut.__file__).resolve().parent.glob("*.py")
    )
    if name != "__init__"
    and hasattr(importlib.import_module(f"groupcut.{name}"), "__all__")
]


def test_package_star_import_resolves():
    namespace = {}
    exec("from groupcut import *", namespace)
    assert set(groupcut.__all__) <= namespace.keys()


def test_modules_found():
    assert {"cli", "finite_functions", "group_core", "polytope"} <= set(MODULES)


def test_package_exports_each_name_once():
    repeated = [name for name, n in Counter(groupcut.__all__).items() if n > 1]
    assert repeated == []


@pytest.mark.parametrize("module", MODULES)
def test_module_star_import_resolves(module):
    exported = importlib.import_module(f"groupcut.{module}").__all__
    namespace = {}
    exec(f"from groupcut.{module} import *", namespace)
    assert set(exported) <= namespace.keys()
