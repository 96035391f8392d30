"""Predicted g-vectors of mutations against cones built from scratch.

The engine (`sttilt._mutation`) predicts the g-vector of each exchanged
summand from the multiplicities m_j it counts off the approximation
walls, sum_j m_j g(R_j) - g(X), and chooses maps and builds a cone
only when the summand registry does not hold that g-vector yet.  The
reference below builds every cone of every edge with
`approximation_cone`, down from the source and up from the target, and
checks that its g-vector is the prediction and that it is isomorphic to
the summand the registry returned.  An enumeration approximates only
the edges that make a node and reads the others off their lower end, so
this also checks every edge the engine never approximated.
"""

import re

import pytest

from tautilt import sttilt as st
from tautilt import twoterm as tt

from conftest import read_algebra
from test_sttilt import alternating, linear, preprojective


def approximation_cone(X, targets, left):
    """Cone of the minimal left add(targets)-approximation of X, or the
    cocone of the minimal right one when not left, stripped to its
    two-term part; None when the extra degree survives stripping."""
    if left:
        f = tt.assemble_left_approximation(
            X, targets, tt.minimal_left_approximation_summands(X, targets))
    else:
        f = tt.assemble_right_approximation(
            X, targets, tt.minimal_right_approximation_summands(X, targets))
    return tt._two_term_cone(f, left)


def _check_exchange(pair, index, down, expected):
    """Build the exchange of summand index (0-based) of pair from
    scratch, check it against the prediction and against expected, the
    summand the engine put in its place, and intern it."""
    X = pair.summands[index]
    rest = [c for k, c in enumerate(pair.summands) if k != index]
    if down:
        chosen = tt.minimal_left_approximation_summands(X, rest)
    else:
        chosen = tt.minimal_right_approximation_summands(X, rest)
    g = st._predicted_g_vector(pair, ("summand", index + 1), X, rest, down)
    # the counted multiplicities are those of the chosen maps
    assert g == tuple(map(sum, zip([-x for x in tt.g_vector(X)], *(
        tt.g_vector(rest[j]) for j, _ in chosen))))
    cone = approximation_cone(X, rest, down)
    assert cone is not None and not cone.is_zero()
    assert tt.g_vector(cone) == g == tt.g_vector(expected)
    assert pair.alg.summands[g] is expected
    assert tt.indecomposables_isomorphic(cone, expected)
    assert st.intern_summand(cone) is expected


def check_every_edge(alg, max_nodes=10 ** 6):
    """Enumerate, then check each edge's down cone and up cocone;
    returns the graph."""
    graph = st.enumerate_sttilt(alg, max_nodes=max_nodes)
    for s, d, i in graph.edges:
        src, dst = graph.nodes[s], graph.nodes[d]
        old, = set(src.summands) - set(dst.summands)
        new, = set(dst.summands) - set(src.summands)
        assert src.summands[i] is old
        _check_exchange(src, i, True, new)
        _check_exchange(dst, dst.summands.index(new), False, old)
    return graph


@pytest.mark.parametrize("make, max_nodes, nodes", [
    (lambda: read_algebra("a4.alg"), 10 ** 6, 42),
    (lambda: linear(4, "Fp:3"), 10 ** 6, 42),
    (lambda: alternating(5), 10 ** 6, 132),
    (lambda: read_algebra("preproj_a3.alg"), 10 ** 6, 24),
    (lambda: preprojective(4), 10 ** 6, 120),
    (lambda: read_algebra("loop2.alg"), 10 ** 6, 2),
    (lambda: read_algebra("three_paths.alg"), 60, 60),
    (lambda: read_algebra("kronecker.alg"), 12, 12),
], ids=["a4", "a4-Fp3", "alternating_a5", "preproj_a3", "preproj_a4",
        "loop2", "three_paths-60", "kronecker-12"])
def test_every_cone_has_the_predicted_g_vector(make, max_nodes, nodes):
    graph = check_every_edge(make(), max_nodes)
    assert graph.node_count() == nodes and graph.edges


def test_cones_built_over_a_prime_field_are_checked_as_registry_aliases():
    # over F_3 the A4 cones built from scratch come back in more than one
    # serialization per g-vector, so interning them runs registry checks;
    # they compare indecomposables directly and need no decomposition
    # over Q
    alg = linear(4, "Fp:3")
    graph = check_every_edge(alg)
    assert graph.complete and graph.node_count() == 42  # Catalan(5)
    assert len(alg.summand_forms) > len(alg.summands) == 14


def test_a_cone_off_its_prediction_is_an_invariant_violation(monkeypatch):
    # the top pair (P2, P1) of kA2 is exchanged at P2 through the cone
    # S1 of P2 -> P1, g = (1, -1); a prediction the registry does not
    # hold makes the engine build that cone and compare
    alg = read_algebra("a2.alg")
    top = st.TauRigidPair(alg, [tt.stalk_complex(alg, (v,), 0)
                                for v in range(2)])
    monkeypatch.setattr(st, "_predicted_g_vector", lambda *args: (2, -1))
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(f"pair {top.key()}, summand 1: "
                                       "the cone has g-vector (1, -1), "
                                       "not the predicted (2, -1)")):
        st.mutate(top, 1)


def test_a_prediction_registered_as_a_split_is_an_invariant_violation():
    # the exchange of P2 in the top pair of kA2 predicts S1, g = (1, -1);
    # an exchange puts in one indecomposable, so a decomposable object
    # registered under that g-vector contradicts the registry
    alg = read_algebra("a2.alg")
    top = st.TauRigidPair(alg, [
        st.intern_summand(tt.stalk_complex(alg, (v,), 0)) for v in range(2)])
    alg.summand_splits[(1, -1)] = top.summands
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(f"pair {top.key()}, summand 1: the "
                                       "predicted g-vector (1, -1) is "
                                       "registered as the sum of ")):
        st.mutate(top, 1)


def test_a_prediction_registered_as_another_summand_is_an_invariant_violation():
    # a split of a multiple m g(R) is recorded as (R,); the exchange of
    # P2 in the top pair of kA2 predicts g = (1, -1), and a one-summand
    # entry there that is not the indecomposable of g must not be taken
    # for the exchanged summand
    alg = read_algebra("a2.alg")
    top = st.TauRigidPair(alg, [
        st.intern_summand(tt.stalk_complex(alg, (v,), 0)) for v in range(2)])
    P2 = top.summands[0]
    assert tt.g_vector(P2) == (0, 1)
    alg.summand_splits[(1, -1)] = (P2,)
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(f"pair {top.key()}, summand 1: the "
                                       "predicted g-vector (1, -1) is "
                                       "registered as the sum of ")):
        st.mutate(top, 1)
