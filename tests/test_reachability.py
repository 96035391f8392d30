"""Every function of the package is reached by what the package is for.

Under `sys.setprofile`, `product_runs` uses the package as its users
do, on tiny inputs: every CLI subcommand (`enumerate` in all three
formats, `tau` in both) and `main`, the calls `bench/run.py` makes, and
README's Library block.  Every function defined in `src/tautilt` must
be called, except dunder methods, which Python calls implicitly, and
the entries of ALLOWED, each with its reason.  A function that only the
tests read belongs in `tests/reference.py`.
"""

import ast
import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

import tautilt
from tautilt import cli, linalg, modrep as mr, sttilt as st

from conftest import data_path, read_algebra
from test_readme import run_library_block

PACKAGE = os.path.dirname(os.path.abspath(tautilt.__file__))

SPANS = ("a bench/spans.py entry point, kept until the engine owns its "
         "counters (ROADMAP item 1)")
ALLOWED = {
    "linalg.ExactMatrix.rref": SPANS,
    "linalg.ExactMatrix.solve_right": SPANS,
    "modrep.modules_isomorphic": SPANS,
    "modrep.summands_match": (
        "the summand match of the bench/spans.py entry points "
        "modrep.modules_isomorphic and sttilt.pairs_isomorphic"),
    "splitting.minimal_polynomial": SPANS,
    "sttilt.HasseGraph.to_json": SPANS,
    "sttilt.pairs_isomorphic": SPANS,
    "twoterm.complexes_isomorphic": SPANS,
    "twoterm.indecomposables_isomorphic": (
        "runs only when a second serialization of a registered g-vector "
        "turns up, which no small input makes"),
}

# (dims, {arrow: integer rows}, zero elsewhere) of two module summands of
# Pi(A3) that form an almost complete tau-rigid pair; `bench/run.py`
# builds its modules from such integer data
PREPROJ_MODULES = (((0, 1, 1), {"b2": [[1]]}),
                   ((1, 1, 1), {"b1": [[1]], "b2": [[1]]}))


def defined_functions():
    """{(module, first line): qualname} of every function defined in the
    package; a decorated function's code starts at its first decorator."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                out[module, first] = prefix + child.name
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                walk(ast.parse(fh.read()), name[:-3], "")
    return out


def cli_runs(tmp):
    """Every subcommand through `cli.run`, and one through `cli.main`."""
    def write(name, text):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def pair(modules, proj):
        return write(f"pair{len(os.listdir(tmp))}.json", json.dumps(
            {"modules": modules, "projective_part": proj}))

    def over_f3(name):
        with open(data_path(name), encoding="utf-8") as fh:
            return write(f"f3_{name}", fh.read().replace('"Q"', '"Fp:3"'))

    s1 = {"dim_vector": [1, 0], "arrows": {}}
    a2 = ["--algebra", data_path("a2.alg")]
    runs = [
        ["enumerate", *a2, "--format", "table"],
        ["enumerate", "--algebra", data_path("preproj_a2.alg"),
         "--format", "json"],
        ["enumerate", "--algebra", data_path("loop2.alg"), "--format", "dot"],
        ["enumerate", "--algebra", over_f3("three_paths.alg"),
         "--format", "json", "--max-nodes", "30"],
        # chain maps over GF(3) whose reduction to a class cancels
        ["enumerate", "--algebra", over_f3("kronecker.alg"),
         "--format", "table", "--max-nodes", "8"],
        ["check", *a2, "--module", data_path("s1.mod")],
        ["tau", *a2, "--module", data_path("s1.mod")],
        ["tau", "--algebra", data_path("preproj_a2.alg"),
         "--module", data_path("p1.mod"), "--format", "json"],
        ["mutate", *a2, "--index", "1", "--pair", pair(
            [{"dim_vector": [1, 1], "arrows": {"a": [["1"]]}},
             {"dim_vector": [0, 1], "arrows": {}}], [0, 0])],
        # S1 twice: the basic closure compares two isomorphic summands
        ["bongartz", *a2, "--pair", pair([s1, s1], [0, 0])],
        # P1 of k[x]/(x^2): a local End of dimension 2
        ["cocompletion", "--algebra", data_path("loop2.alg"), "--pair",
         pair([{"dim_vector": [2], "arrows": {"x": [["0", "1"],
                                                    ["0", "0"]]}}], [0])],
        ["gvectors", *a2, "--pair", pair([], [0, 1])],
        ["oracle", "--algebra", data_path("kronecker.alg"),
         "--dim-bound", "1,1"],
        ["oracle", "--algebra", data_path("a3.alg"), "--dim-bound", "1,1,1"],
        ["tilting", *a2, "--module", data_path("p1.mod")],
    ]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(argv, out=out, err=err) == 0, (argv, err.getvalue())
    argv = sys.argv
    sys.argv = ["tau-tilt", "gvectors", *a2, "--pair", data_path(
        "s1_pair.json")]
    try:
        with redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as done:
            cli.main()
    finally:
        sys.argv = argv
    assert done.value.code == 0


def bench_runs():
    """The engine calls of `bench/run.py` outside the CLI: an enumeration
    and the finiteness test at a node budget, and a pair built from
    integer module data with both of its completions."""
    kronecker = read_algebra("kronecker.alg")
    assert not st.enumerate_sttilt(kronecker, max_nodes=8).complete
    result = st.is_tau_tilting_finite(kronecker, max_nodes=8)
    assert result.kind == "unknown"
    alg = read_algebra("preproj_a3.alg")
    F = alg.field
    parts = []
    for dims, mats in PREPROJ_MODULES:
        maps = {}
        for ai, arrow in enumerate(alg.arrows):
            rows = mats.get(arrow.name, [[0] * dims[arrow.target]]
                            * dims[arrow.source])
            maps[ai] = linalg.ExactMatrix.from_rows(
                F, [[F.from_int(v) for v in row] for row in rows],
                ncols=dims[arrow.target])
        parts.append(mr.Representation(alg, dims, maps))
    pair = st.pair_from_module_data(alg, mr.direct_sum(alg, parts),
                                    (0,) * alg.n)
    assert pair.size == 2
    assert st.bongartz_completion(pair).size == alg.n
    assert st.minimal_completion(pair).size == alg.n


def product_runs(tmp):
    cli_runs(tmp)
    bench_runs()
    assert run_library_block() == "(0, 1)\n5 True\n"


def reached_functions(tmp):
    """(module, first line) of every package function `product_runs`
    calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        product_runs(tmp)
    finally:
        sys.setprofile(None)
    return {(os.path.basename(code.co_filename)[:-3], code.co_firstlineno)
            for code in codes
            if os.path.dirname(os.path.abspath(code.co_filename)) == PACKAGE}


def test_every_function_is_reached(tmp_path):
    defined = defined_functions()
    reached = {f"{module}.{defined[module, line]}"
               for module, line in reached_functions(str(tmp_path))
               if (module, line) in defined}
    names = {f"{module}.{name}" for (module, _), name in defined.items()}
    assert not set(ALLOWED) - names, "allowlisted but not defined"
    assert not set(ALLOWED) & reached, "allowlisted but reached"
    unreached = sorted(
        name for name in names - reached - set(ALLOWED)
        if not (name.rsplit(".", 1)[-1].startswith("__")
                and name.endswith("__")))
    assert unreached == []
