"""Completions of every singleton and almost complete tau-rigid pair of the
preprojective algebra of A3, against the GF(2) oracle's poset.

The cases and their expected keys come from bench/inputs.py, which reads
them off the oracle's Hasse quiver; the engine must agree on the pair's
own key, its Bongartz (maximum) and its minimal completion.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from tautilt import cli, linalg, modrep as mr, oracle as orc, sttilt as st
from tautilt.algebra import parse_algebra

INPUTS = os.path.join(os.path.dirname(__file__), "..", "bench", "inputs.py")


def load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def preproj_cases():
    inputs = load_inputs()
    alg = parse_algebra(inputs.preprojective_text(3))
    cases, npairs, nedges = inputs.preprojective_cases(orc, alg, (1, 2, 1))
    assert (npairs, nedges) == (24, 36)  # (n+1)! pairs, n-regular quiver
    return alg, cases


def _module(alg, modules):
    F = alg.field
    parts = []
    for dims, mats in modules:
        maps = {}
        for ai, arrow in enumerate(alg.arrows):
            rows = [[F.from_int(v) for v in row] for row in mats[ai]]
            maps[ai] = linalg.ExactMatrix.from_rows(
                F, rows, ncols=dims[arrow.target])
        parts.append(mr.Representation(alg, dims, maps))
    return mr.direct_sum(alg, parts)


def test_completions_match_the_oracle(preproj_cases):
    alg, cases = preproj_cases
    kinds = [c.kind for c in cases]
    assert (kinds.count("singleton"), kinds.count("almost-complete")) \
        == (14, 36)
    wrong = []
    for case in cases:
        pair = st.pair_from_module_data(alg, _module(alg, case.modules),
                                        case.proj)
        got = (pair.key(), st.bongartz_completion(pair).key(),
               st.minimal_completion(pair).key())
        if got != (case.key, case.bongartz, case.minimal):
            wrong.append((case.kind, case.key, got))
    assert not wrong, wrong


def test_completion_outputs_are_byte_identical(preproj_cases):
    # the CLI JSON of the input pair, both completions and a second build
    # of the input, each case on a fresh algebra, pinned by its digest
    _, cases = preproj_cases
    text = load_inputs().preprojective_text(3)
    lines = []
    for case in cases:
        alg = parse_algebra(text)
        M = _module(alg, case.modules)
        pair = st.pair_from_module_data(alg, M, case.proj)
        again = st.pair_from_module_data(alg, M, case.proj)
        for q in (pair, st.bongartz_completion(pair),
                  st.minimal_completion(pair), again):
            lines.append(json.dumps(cli.pair_to_json(q), sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest.startswith("d93fd337caec2d70"), digest
