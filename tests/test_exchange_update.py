"""c-vectors carried through exchanges against Gauss-Jordan inverses.

An enumeration inverts only the top pair's g-matrix; each new node gets
its c-vectors and their signs from its parent's by the rank-one exchange
update (`sttilt._exchanged_c_vectors`).  The tests below record every
update of an enumeration and compare it with `_unimodular_inverse` of the
node's g-matrix and with `_mutation_directions` of its c-vectors, and
check that an exchange that is no Z-basis change is an
InvariantViolation.
"""

import re

import pytest

from tautilt import sttilt as st
from tautilt import twoterm as tt

from conftest import read_algebra, top_and_bottom
from test_sttilt import linear


def columns(g):
    return list(zip(*st._unimodular_inverse(g)))


@pytest.mark.parametrize("make, max_nodes, nodes", [
    (lambda: read_algebra("a4.alg"), 10 ** 6, 42),
    (lambda: linear(4, "Fp:3"), 10 ** 6, 42),
    (lambda: read_algebra("preproj_a3.alg"), 10 ** 6, 24),
    (lambda: read_algebra("loop2.alg"), 10 ** 6, 2),
    (lambda: read_algebra("three_paths.alg"), 60, 60),
    (lambda: read_algebra("kronecker.alg"), 12, 12),
], ids=["a4", "a4-Fp3", "preproj_a3", "loop2", "three_paths-60",
        "kronecker-12"])
def test_carried_c_vectors_are_the_inverse(make, max_nodes, nodes,
                                           monkeypatch):
    carried = {}
    inverses = []
    update = st._exchanged_c_vectors
    inverse = st._unimodular_inverse

    def recorded(pair, cs, downs, index, key, pos):
        carried[key] = update(pair, cs, downs, index, key, pos)
        return carried[key]

    def counted(g):
        inverses.append(g)
        return inverse(g)

    monkeypatch.setattr(st, "_exchanged_c_vectors", recorded)
    monkeypatch.setattr(st, "_unimodular_inverse", counted)
    graph = st.enumerate_sttilt(make(), max_nodes=max_nodes)
    assert graph.node_count() == nodes
    top = graph.nodes[top_and_bottom(graph)[0]]
    # the top pair is the one Gauss-Jordan inverse of the run
    assert inverses == [top.g_matrix()]
    assert set(carried) == {p.key() for p in graph.nodes} - {top.key()}
    for p in graph.nodes:
        assert p.key() == tuple(sorted(p.g_matrix()))
        if p is not top:
            cs, downs = carried[p.key()]
            assert cs == columns(p.g_matrix())
            # the carried signs are those recomputed from the c-vectors
            assert downs == st._mutation_directions(p.key(), cs)


@pytest.mark.parametrize("g, d", [((1, 0), 0), ((0, 2), 2)])
def test_an_exchange_off_a_z_basis_is_an_invariant_violation(g, d):
    # summand 1 of the top pair (P2, P1) of kA2 has g-vector (0, 1) and
    # c-vector (0, 1); a new g-vector g multiplies det G by g . (0, 1)
    alg = read_algebra("a2.alg")
    top = st.TauRigidPair(alg, [tt.stalk_complex(alg, (v,), 0)
                                for v in range(2)])
    cs = st._root_c_vectors(top)
    downs = st._mutation_directions(top.key(), cs)
    key, pos = st._exchanged_key(top.g_matrix(), 0, g)
    with pytest.raises(st.InvariantViolation, match=re.escape(
            f"pair {key}: the g-vectors are not a Z-basis: exchanging "
            f"summand 1 of pair {top.key()} for g-vector {g} "
            f"multiplies det G by {d}")):
        st._exchanged_c_vectors(top, cs, downs, 0, key, pos)


def test_a_changed_c_vector_is_certified_sign_coherent():
    # the top pair (P2, P1) of kA2 has c-vectors (0, 1) and (1, 0);
    # exchanging summand 1 for g-vector (1, 1) keeps det G = 1 but turns
    # the other c-vector into (1, 0) - (1, 1) . (1, 0) (0, 1) = (1, -1)
    alg = read_algebra("a2.alg")
    top = st.TauRigidPair(alg, [tt.stalk_complex(alg, (v,), 0)
                                for v in range(2)])
    cs = st._root_c_vectors(top)
    downs = st._mutation_directions(top.key(), cs)
    key, pos = st._exchanged_key(top.g_matrix(), 0, (1, 1))
    assert (key, pos) == (((1, 0), (1, 1)), 1)
    with pytest.raises(st.InvariantViolation, match=re.escape(
            f"pair {key}, summand 1: c-vector is not sign-coherent")):
        st._exchanged_c_vectors(top, cs, downs, 0, key, pos)
