import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from tautilt import modrep as mr
from tautilt import twoterm as tt
from tautilt.algebra import parse_algebra
from tautilt.sttilt import TauRigidPair

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def read_algebra(name):
    with open(data_path(name), "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def loads_without_floats(text):
    """The JSON text parsed; a float or a NaN or infinity in it fails the
    test, since the package writes exact numbers as ints or strings."""
    def refuse(literal):
        raise AssertionError(f"a float in JSON output: {literal}")

    return json.loads(text, parse_float=refuse, parse_constant=refuse)


def path_name(alg, i):
    """The name of basis path i of alg: e<label> or its arrows joined by *."""
    path = alg.basis[i]
    if not path:
        return f"e{alg.vertex_labels[alg.basis_source[i]]}"
    return "*".join(alg.arrows[a].name for a in path)


def arrow_element(alg, name):
    """The arrow called name, as an element of alg."""
    return {alg.arrow_elem[alg.spec.aindex[name]]: alg.field.one}


def algebra_stalk(alg, shift=0):
    """The stalk complex of A in degree 0, or of A[1] in degree -1."""
    return tt.stalk_complex(alg, range(alg.n), shift)


def identity_map(alg, verts):
    """The identity of the sum of projectives e_v A over verts, as an
    AlgMatrix with the idempotents e_v on its diagonal."""
    return tt.AlgMatrix(alg, verts, verts,
                        {(i, i): alg.idempotent_elem(v)
                         for i, v in enumerate(verts)})


def top_and_bottom(graph):
    """Node ids of (A, 0) and (0, A) in graph, or None where absent: the
    nodes whose keys are the sorted unit vectors and the sorted negated
    unit vectors."""
    n = graph.alg.n
    units = [tuple(int(i == v) for i in range(n)) for v in range(n)]
    ids = {p.key(): i for i, p in enumerate(graph.nodes)}
    return (ids.get(tuple(sorted(units))),
            ids.get(tuple(sorted(tuple(-x for x in u) for u in units))))


def pair_module(pair):
    """The module of pair: the direct sum of its module summands."""
    return mr.direct_sum(pair.alg, pair.module_summands())


def pair_complex(pair):
    """The whole complex of pair: the direct sum of its summands."""
    if not pair.summands:
        return tt.TwoTermComplex(pair.alg, (), ())
    return tt.direct_sum_complex(pair.summands)


def module_side_pair(alg, M, proj_mults):
    """The basic pair of M and proj_mults built on the module side, with
    no rigidity test: the presentation of one summand of M per
    isomorphism class, and one P_v[1] per vertex with proj_mults[v] >= 1."""
    summands = [tt.presentation_complex(group[0])
                for group in mr.group_by_iso(mr.decompose(M))]
    summands.extend(tt.stalk_complex(alg, (v,), 1)
                    for v in range(alg.n) if proj_mults[v] >= 1)
    return TauRigidPair(alg, summands)


@pytest.fixture(scope="session")
def a2():
    return read_algebra("a2.alg")


@pytest.fixture(scope="session")
def a3():
    return read_algebra("a3.alg")


@pytest.fixture(scope="session")
def a4():
    return read_algebra("a4.alg")


@pytest.fixture(scope="session")
def loop2():
    return read_algebra("loop2.alg")


@pytest.fixture(scope="session")
def preproj_a2():
    return read_algebra("preproj_a2.alg")


@pytest.fixture(scope="session")
def preproj_a3():
    return read_algebra("preproj_a3.alg")


@pytest.fixture(scope="session")
def kronecker():
    return read_algebra("kronecker.alg")


@pytest.fixture(scope="session")
def point():
    return parse_algebra('field = "Q"\nvertices = ["1"]\n')
