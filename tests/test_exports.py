"""Every exported name resolves: a name left in an `__all__` after its
definition is deleted fails only on a star import, so each star import is
made here, in a fresh namespace.  The package exports exactly the library
modules' lists, and importing it leaves the command line unloaded."""

import importlib
import os
import subprocess
import sys
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


def test_package_exports_the_library_modules_lists():
    names = ["__version__"] + [
        name
        for module in MODULES
        if module != "cli"
        for name in importlib.import_module(f"groupcut.{module}").__all__
    ]
    assert len(set(names)) == len(names)
    assert sorted(groupcut.__all__) == sorted(names)


def test_import_leaves_the_command_line_unloaded():
    src = Path(groupcut.__file__).resolve().parents[1]
    code = (
        "import sys, groupcut; "
        "print(sorted({'argparse', 'groupcut.cli'} & sys.modules.keys()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_module_star_import_resolves(module):
    exported = importlib.import_module(f"groupcut.{module}").__all__
    namespace = {}
    exec(f"from groupcut.{module} import *", namespace)
    assert set(exported) <= namespace.keys()
