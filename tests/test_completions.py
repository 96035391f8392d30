"""Completions one projective at a time against the whole-A construction.

The engine (`sttilt._completion`) approximates each summand P_v of A, or
P_v[1], on its own, predicts the g-vector of each (co)cone and builds
only the pieces the summand registry does not hold.  The reference below
is the construction it replaced: one (co)cone for all of A, split with
`decompose_complex`, its summands and the pair's made basic with
`basic_summands`.  Both must give the same pair on every sub-pair of
every node.
"""

import re
from itertools import combinations

import pytest

from tautilt import sttilt as st
from tautilt import twoterm as tt

from conftest import read_algebra
from test_mutation_prediction import approximation_cone


def reference_completion(pair, left):
    """The completion from one (co)cone over the approximation of A, or
    of A[1]."""
    alg = pair.alg
    X = tt.algebra_stalk(alg, 0 if left else 1)
    targets = tt.basic_summands(pair.summands)
    Z = approximation_cone(X, targets, left)
    assert Z is not None
    return st.TauRigidPair(alg, tt.basic_summands(
        list(pair.summands) + tt.decompose_complex(Z)))


def sub_pairs(graph):
    """Every pair made of some of the summands of some node, once."""
    subs = {}
    for node in graph.nodes:
        for k in range(node.size + 1):
            for part in combinations(node.summands, k):
                pair = st.TauRigidPair(graph.alg, part)
                subs.setdefault(pair.key(), pair)
    return [subs[key] for key in sorted(subs)]


@pytest.mark.parametrize("name, subs", [
    ("a3", 45), ("a4", 197), ("loop2", 3), ("preproj_a2", 13),
    ("preproj_a3", 75)])
def test_completions_match_the_whole_a_reference(name, subs):
    alg = read_algebra(f"{name}.alg")
    pairs = sub_pairs(st.enumerate_sttilt(alg))
    assert len(pairs) == subs
    for pair in pairs:
        for left, complete in ((False, st.bongartz_completion),
                               (True, st.minimal_completion)):
            got = complete(pair)
            expected = reference_completion(pair, left)
            assert got.key() == expected.key(), (pair.key(), left)
            assert all(tt.indecomposables_isomorphic(a, b) for a, b in
                       zip(got.summands, expected.summands))


@pytest.mark.parametrize("name", [
    "a3", "a4", "loop2", "preproj_a2", "preproj_a3"])
def test_the_rigidity_check_agrees_with_the_module_side(name):
    # a completion refuses its input on the silting side, Hom(S, T[1]) =
    # 0 for all summands S, T; every set of at most three summands of the
    # registry is refused exactly when Hom(M, tau M) or Hom(P, M) is not 0
    alg = read_algebra(f"{name}.alg")
    st.enumerate_sttilt(alg)
    pool = list(alg.summands.values())
    seen = set()
    for k in (1, 2, 3):
        for part in combinations(pool, k):
            pair = st.TauRigidPair(alg, part)
            rigid = st.is_tau_rigid_pair(pair.module(),
                                         pair.projective_part())
            seen.add(rigid)
            if rigid:
                st._require_tau_rigid(pair)
            else:
                with pytest.raises(st.NotTauRigidError):
                    st._require_tau_rigid(pair)
    assert seen == {True, False}


def _recorded(monkeypatch, name):
    """The results of the calls of twoterm.<name> from now on."""
    results = []
    original = getattr(tt, name)

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(tt, name, recorded)
    return results


def test_a_repeated_completion_builds_no_cone(monkeypatch):
    # every piece of the completions of P2 in preprojective A3 is zero
    # or one indecomposable, so the first completion interns all of them
    # and the second finds each in the registry
    alg = read_algebra("preproj_a3.alg")
    pair = st.TauRigidPair(alg, [tt.stalk_complex(alg, (1,), 0)])
    cones = _recorded(monkeypatch, "_two_term_cone")
    splits = _recorded(monkeypatch, "decompose_complex")
    first = (st.bongartz_completion(pair), st.minimal_completion(pair))
    assert cones and splits
    del cones[:], splits[:]
    again = (st.bongartz_completion(pair), st.minimal_completion(pair))
    assert not cones and not splits
    assert [p.summands for p in again] == [p.summands for p in first]


def test_a_repeated_completion_builds_only_decomposable_pieces(
        monkeypatch):
    # a piece that splits has a g-vector no indecomposable has, so it is
    # built again; every other one comes from the registry
    alg = read_algebra("a4.alg")
    pairs = sub_pairs(st.enumerate_sttilt(alg))
    for pair in pairs:
        st.bongartz_completion(pair)
        st.minimal_completion(pair)
    splits = _recorded(monkeypatch, "decompose_complex")
    for pair in pairs:
        st.bongartz_completion(pair)
        st.minimal_completion(pair)
    assert splits and all(len(parts) >= 2 for parts in splits)


def test_a_piece_off_its_prediction_is_an_invariant_violation(monkeypatch):
    # the minimal completion of the zero pair of kA2 predicts P1[1], with
    # g-vector (-1, 0), for P1; a built piece P1 has g-vector (1, 0)
    alg = read_algebra("a2.alg")
    empty = st.TauRigidPair(alg, [])
    monkeypatch.setattr(tt, "_two_term_cone",
                        lambda f, left: tt.stalk_complex(alg, (0,), 0))
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(f"pair {empty.key()}, vertex 1: "
                                       "the cone has g-vector (1, 0), "
                                       "not the predicted (-1, 0)")):
        st.minimal_completion(empty)


def test_a_completion_is_certified():
    # with P1 registered under the g-vector (1, -1) of S1, the minimal
    # completion of P1 takes P1 for the piece of P2, and its result has
    # one summand
    alg = read_algebra("a2.alg")
    P1 = tt.stalk_complex(alg, (0,), 0)
    alg.summands[(1, -1)] = P1
    pair = st.TauRigidPair(alg, [P1])
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(f"pair {pair.key()}: the completion "
                                       f"{pair.key()} has 1 summands, not 2")):
        st.minimal_completion(pair)
