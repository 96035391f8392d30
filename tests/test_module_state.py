"""State is owned by a run or by an algebra object, never by a module.

A module-level dict, list or set in the package would be mutable state
shared by every algebra and every run (a global cache, say); memoized
data belongs on the algebra it was computed over.  Nor does the engine
draw random numbers: every answer is a function of its input alone.
"""

import importlib
import pkgutil
import random

import tautilt


def _package_modules():
    for info in pkgutil.iter_modules(tautilt.__path__):
        yield info.name, importlib.import_module("tautilt." + info.name)


def test_no_module_level_mutable_containers():
    found = []
    for modname, module in _package_modules():
        for name, value in vars(module).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                found.append(f"tautilt.{modname}.{name}")
    assert not found, found


def test_no_module_holds_random():
    found = [f"tautilt.{modname}.{name}"
             for modname, module in _package_modules()
             for name, value in vars(module).items() if value is random]
    assert not found, found
