"""State is owned by a run or by an algebra object, never by a module.

A module-level dict, list or set in the package would be mutable state
shared by every algebra and every run (a global cache, say); memoized
data belongs on the algebra it was computed over.  Nor does the engine
draw random numbers: every answer is a function of its input alone.
The tables an algebra owns are the ones its docstring lists.
"""

import importlib
import pkgutil
import random
import re

import tautilt
from tautilt.algebra import BoundQuiverAlgebra

from conftest import read_algebra


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


def test_the_algebra_owns_the_tables_its_docstring_lists():
    # every table a fresh algebra starts with empty is a cache or registry
    # it fills later; a table added or dropped without its docs fails here
    alg = read_algebra("a3.alg")
    empty = [name for name, value in vars(alg).items()
             if isinstance(value, (dict, list, set)) and not value]
    listed = re.findall(r"^ *\* (\w+):", BoundQuiverAlgebra.__doc__, re.M)
    assert empty == listed == [
        "form_ids", "summands", "summand_forms", "summand_splits",
        "hom_memo", "wall_memo", "sum_memo"]
