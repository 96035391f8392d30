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
from itertools import combinations, combinations_with_replacement, product

import pytest

from tautilt import modrep as mr
from tautilt import sttilt as st
from tautilt import twoterm as tt

from conftest import (algebra_stalk, module_side_pair, pair_module,
                      read_algebra)
from reference import basic_summands, complex_to_pair
from test_mutation_prediction import approximation_cone


def reference_completion(pair, left):
    """The completion from one (co)cone over the approximation of A, or
    of A[1]."""
    alg = pair.alg
    X = algebra_stalk(alg, 0 if left else 1)
    targets = basic_summands(pair.summands)
    Z = approximation_cone(X, targets, left)
    assert Z is not None
    return st.TauRigidPair(alg, basic_summands(
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
            rigid = st.is_tau_rigid_pair(pair_module(pair),
                                         pair.projective_part())
            seen.add(rigid)
            if rigid:
                st._require_tau_rigid(pair)
            else:
                with pytest.raises(st.NotTauRigidError):
                    st._require_tau_rigid(pair)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["a3", "loop2", "preproj_a3"])
def test_pair_from_module_data_refuses_as_the_module_side(name):
    # a pair is refused on the silting side, Hom_K(C, C[1]) = 0 for C =
    # P_M (+) P[1]; over every sum M of at most two registry modules and
    # every projective part with entries 0 and 1, exactly the pairs with
    # Hom(M, tau M) or Hom(P, M) not 0 are refused, and an accepted one
    # has the summands of the module-side decomposition
    alg = read_algebra(f"{name}.alg")
    st.enumerate_sttilt(alg)
    pool = [tt.complex_h0(c) for c in alg.summands.values() if c.p0]
    seen = set()
    for k in (0, 1, 2):
        for part in combinations_with_replacement(pool, k):
            M = mr.direct_sum(alg, part)
            for proj in product((0, 1), repeat=alg.n):
                rigid = st.is_tau_rigid_pair(M, proj)
                seen.add(rigid)
                if not rigid:
                    with pytest.raises(st.NotTauRigidError):
                        st.pair_from_module_data(alg, M, proj)
                    continue
                got = st.pair_from_module_data(alg, M, proj)
                expected = module_side_pair(alg, M, proj)
                assert got.key() == expected.key()
                assert all(alg.summands[g] is c for g, c in
                           zip(got.key(), got.summands))
    assert seen == {True, False}


def test_a_repeated_pair_build_decomposes_nothing(monkeypatch):
    # the first build of each node's pair, and of the pair with every
    # module summand doubled, splits the module and registers the split
    # under its g-vector; a second build on the same module object or an
    # equal fresh one only tests rigidity on a memoized Hom space and
    # reads the registry
    alg = read_algebra("preproj_a3.alg")
    nodes = st.enumerate_sttilt(alg).nodes

    def inputs():
        for pair in nodes:
            mods = pair.module_summands()
            yield pair_module(pair), pair.projective_part()
            yield mr.direct_sum(alg, mods + mods), pair.projective_part()

    decomposed = _recorded(monkeypatch, "decompose", mr)
    taus = _recorded(monkeypatch, "tau", mr)
    given = list(inputs())
    first = [st.pair_from_module_data(alg, M, proj).summands
             for M, proj in given]
    assert decomposed and not taus
    del decomposed[:]
    again = [st.pair_from_module_data(alg, M, proj).summands
             for M, proj in given]
    fresh = [st.pair_from_module_data(alg, M, proj).summands
             for M, proj in inputs()]
    assert not decomposed and not taus
    assert again == fresh == first  # complexes compare by identity
    assert first == [pair.summands for pair in nodes for _ in (0, 1)]


def test_a_module_keeps_its_presentation(monkeypatch):
    # a module never changes, so it keeps its minimal presentation and
    # its complex: a second build on the same module object presents
    # nothing and gives the same summands, and a fresh module equal as
    # data is presented
    alg = read_algebra("preproj_a3.alg")
    nodes = st.enumerate_sttilt(alg).nodes
    given = [(pair_module(pair), pair.projective_part()) for pair in nodes]
    first = [st.pair_from_module_data(alg, M, proj).summands
             for M, proj in given]
    covers = _recorded(monkeypatch, "projective_cover", mr)
    again = [st.pair_from_module_data(alg, M, proj).summands
             for M, proj in given]
    assert not covers
    assert all(tt.presentation_complex(M) is tt.presentation_complex(M)
               for M, _ in given)
    fresh = [st.pair_from_module_data(alg, mr.direct_sum(
        alg, pair.module_summands()), pair.projective_part()).summands
        for pair in nodes]
    assert len(covers) >= len(nodes)
    assert again == fresh == first  # complexes compare by identity


def _recorded(monkeypatch, name, module=tt):
    """The results of the calls of module.<name> from now on."""
    results = []
    original = getattr(module, name)

    def recorded(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


def test_a_repeated_completion_builds_no_cone(monkeypatch):
    # every piece of the completions of P2 in preprojective A3 is zero
    # or one indecomposable, so the first completion interns all of them
    # and the second finds each in the registry; the second counts each
    # piece off the walls the first memoized, the algebra's only
    # composition data, so it composes no chain map either; it reads
    # each P_v and P_v[1] off the registry, so it makes no complex and
    # serializes none
    alg = read_algebra("preproj_a3.alg")
    pair = st.TauRigidPair(alg, [tt.stalk_complex(alg, (1,), 0)])
    cones = _recorded(monkeypatch, "_two_term_cone")
    splits = _recorded(monkeypatch, "decompose_complex")
    composites = _recorded(monkeypatch, "compose", tt.ChainMap)
    made = _recorded(monkeypatch, "__init__", tt.TwoTermComplex)
    serialized = _recorded(monkeypatch, "serialize", tt.TwoTermComplex)
    first = (st.bongartz_completion(pair), st.minimal_completion(pair))
    assert cones and splits and composites and made and serialized
    del cones[:], splits[:], composites[:], made[:], serialized[:]
    again = (st.bongartz_completion(pair), st.minimal_completion(pair))
    assert not cones and not splits and not composites
    assert not made and not serialized
    assert [p.summands for p in again] == [p.summands for p in first]


def test_a_repeated_completion_builds_and_splits_nothing(monkeypatch):
    # each piece the first pass splits is registered under its g-vector
    # with its summands, so the second pass reads every piece off the
    # registry and returns the same summand objects
    alg = read_algebra("a4.alg")
    pairs = sub_pairs(st.enumerate_sttilt(alg))
    cones = _recorded(monkeypatch, "_two_term_cone")
    splits = _recorded(monkeypatch, "decompose_complex")
    first = [(st.bongartz_completion(pair).summands,
              st.minimal_completion(pair).summands) for pair in pairs]
    assert cones and any(len(parts) >= 2 for parts in splits)
    assert alg.summand_splits
    del cones[:], splits[:]
    again = [(st.bongartz_completion(pair).summands,
              st.minimal_completion(pair).summands) for pair in pairs]
    assert not cones and not splits
    assert again == first  # complexes compare by identity


def reference_decomposition(T):
    """The split of T through `complex_to_pair`: the presentations of
    the summands of H^0 and the shifted projectives it counts."""
    alg = T.alg
    M, shifted = complex_to_pair(T)
    out = [tt.presentation_complex(m) for m in mr.decompose(M)]
    out.extend(tt.stalk_complex(alg, (v,), 1)
               for v in range(alg.n) for _ in range(shifted[v]))
    return sorted(out, key=lambda c: (tt.g_vector(c), c.serialize()))


@pytest.mark.parametrize("name, cones, splits", [
    ("a3", 360, 84), ("a4", 1970, 488), ("loop2", 12, 0),
    ("preproj_a2", 78, 16), ("preproj_a3", 600, 168)])
def test_decompose_complex_matches_the_reference(name, cones, splits):
    # every piece of every completion of every sub-pair, built from
    # scratch, registered or not, and the whole-A (co)cone
    alg = read_algebra(f"{name}.alg")
    seen = []
    for pair in sub_pairs(st.enumerate_sttilt(alg)):
        for left in (False, True):
            shift = 0 if left else 1
            stalks = [tt.stalk_complex(alg, (v,), shift)
                      for v in range(alg.n)]
            for X in stalks + [algebra_stalk(alg, shift)]:
                Z = approximation_cone(X, list(pair.summands), left)
                got = tt.decompose_complex(Z)
                assert [c.serialize() for c in got] == [
                    c.serialize() for c in reference_decomposition(Z)]
                seen.append(len(got) >= 2)
    assert (len(seen), sum(seen)) == (cones, splits)


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
