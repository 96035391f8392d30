"""State is owned by a run or by an algebra object, never by a module.

A module-level dict, list or set in the package would be mutable state
shared by every algebra and every run (a global cache, say); memoized
data belongs on the algebra it was computed over.
"""

import importlib
import pkgutil

import tautilt


def test_no_module_level_mutable_containers():
    found = []
    for info in pkgutil.iter_modules(tautilt.__path__):
        module = importlib.import_module("tautilt." + info.name)
        for name, value in vars(module).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                found.append(f"tautilt.{info.name}.{name}")
    assert not found, found
