"""Every entry point the benchmark tracer wraps must exist in the package.

bench/spans.py rebinds these names from outside the package; a rename
in src/ would otherwise surface only as an AttributeError in a traced
benchmark run.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    missing = []
    for name, modname, attr in load_spans().ENTRY_POINTS:
        module = importlib.import_module("tautilt." + modname)
        if "." in attr:
            # the tracer takes methods from the class's own namespace
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{name}: tautilt.{modname}.{attr}")
    assert not missing, missing
