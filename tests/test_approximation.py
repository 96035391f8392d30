"""Minimal approximations in class coordinates against chain maps.

The engine counts the multiplicities of each approximation
(`twoterm.approximation_counts`) and chooses its maps
(`twoterm._approximation_summands`) only for a cone the summand registry
does not hold; both read the memoized walls (`twoterm._walls`).  The
reference below is the chain-map algorithm they replaced: compose
representatives, reduce each composite modulo homotopies and collect
the results in a `RowSpace` over the ambient coordinates of the
chain-map system.  The engine must choose exactly the same (target
index, representative) list, and count exactly as many maps into each
target, on every approximation an enumeration or a completion asks for.
"""

import re
from collections import Counter

import pytest

from tautilt import splitting
from tautilt import sttilt as st
from tautilt import twoterm as tt
from tautilt.algebra import parse_algebra
from tautilt.linalg import RowSpace

from conftest import data_path, read_algebra
from test_completions import sub_pairs
from test_preprojective_completions import _module, preproj_cases  # noqa: F401
from test_sttilt import alternating, linear, preprojective


def _class_vec(hs, cm):
    vec = {}
    hs.c1.entries_to_vec(cm.f1.entries, vec)
    hs.c0.entries_to_vec(cm.f0.entries, vec)
    return hs.homotopies.reduce(vec)


def _combine(T, U, terms):
    """The chain map T -> U summing c * f over the (c, f) in terms."""
    alg = T.alg
    f1 = tt.AlgMatrix(alg, U.p1, T.p1)
    f0 = tt.AlgMatrix(alg, U.p0, T.p0)
    for c, f in terms:
        for acc, part in ((f1, f.f1), (f0, f.f0)):
            for key, e in part.entries.items():
                s = alg.elem_add(acc.entries.get(key, {}),
                                 alg.elem_scale(c, e))
                if s:
                    acc.entries[key] = s
                else:
                    acc.entries.pop(key, None)
    return tt.ChainMap(T, U, f1, f0)


def _radical_maps(R, end_hom):
    """rad End(R) as strict chain maps R -> R, end_hom = Hom(R, R)."""
    dim, reps = end_hom.dim, end_hom.reps
    table = {(i, j): end_hom.chain_map_class(reps[i].compose(reps[j]))
             for i in range(dim) for j in range(dim)}
    rows = (splitting.radical_from_mult_table(R.alg.field, table, dim)
            if dim else [])
    return [_combine(R, R, ((c, reps[k]) for k, c in row.items()))
            for row in rows]


def reference_approximation(X, targets, left):
    """(chosen list, whether some End radical was nonzero)."""
    def hom(A, B):
        return tt.hom_homotopy(A, B, 0) if left else tt.hom_homotopy(B, A, 0)

    def then(a, b):
        return a.compose(b) if left else b.compose(a)

    homs = [hom(X, R) for R in targets]
    chosen = []
    radical_seen = False
    for j, R in enumerate(targets):
        hs = homs[j]
        if hs.dim == 0:
            continue
        end = hom(R, R)
        wall = []
        for l, Rl in enumerate(targets):
            if l == j:
                radical = _radical_maps(R, end)
                radical_seen |= bool(radical)
            else:
                radical = hom(Rl, R).reps
            for u in homs[l].reps:
                for v in radical:
                    wall.append(_class_vec(hs, then(v, u)))
        covered = RowSpace(X.alg.field, hs.classes.ambient, wall)
        for cand in hs.reps:
            if covered.contains(_class_vec(hs, cand)):
                continue
            chosen.append((j, cand))
            for e in end.reps:
                covered.add(_class_vec(hs, then(e, cand)))
    return chosen, radical_seen


def _record(monkeypatch, name):
    """The (X, targets, left, answer) of every call of twoterm.<name>
    from now on."""
    calls = []
    engine = getattr(tt, name)

    def record(X, targets, left):
        answer = engine(X, targets, left)
        calls.append((X, list(targets), left, answer))
        return answer

    monkeypatch.setattr(tt, name, record)
    return calls


def _recorded_calls(monkeypatch, run):
    """The calls that run() makes of the chooser and of the count."""
    chosen = _record(monkeypatch, "_approximation_summands")
    counted = _record(monkeypatch, "approximation_counts")
    run()
    monkeypatch.undo()
    return chosen, counted


def _multiplicities(counts):
    """{j: m_j} of an `approximation_counts` answer, whose every
    division must be exact."""
    assert all(free % orbit == 0 for _, free, orbit in counts), counts
    return {j: free // orbit for j, free, orbit in counts}


def _check_counts(calls):
    """Compare the multiplicities counted on every call with those of
    the reference's choice; return (left calls, right calls)."""
    sides = Counter()
    for X, targets, left, counts in calls:
        expected, _ = reference_approximation(X, targets, left)
        assert _multiplicities(counts) == Counter(j for j, _ in expected), \
            (X, left)
        sides[left] += 1
    return sides[True], sides[False]


def _check_against_reference(calls):
    """Compare every call; return (left calls, right calls, calls
    whose targets had a nonzero End radical)."""
    counts = {True: 0, False: 0, "radical": 0}
    for X, targets, left, chosen in calls:
        expected, radical_seen = reference_approximation(X, targets, left)
        assert [j for j, _ in chosen] == [j for j, _ in expected], (X, left)
        assert all(a is b for (_, a), (_, b) in zip(chosen, expected))
        counts[left] += 1
        counts["radical"] += radical_seen
    return counts[True], counts[False], counts["radical"]


def _loop_arrow_over_q():
    with open(data_path("loop_arrow_f2.alg"), encoding="utf-8") as fh:
        text = fh.read()
    return parse_algebra(text.replace('field = "Fp:2"', 'field = "Q"'))


@pytest.mark.parametrize("name,max_nodes,min_radical", [
    ("a4", 10 ** 6, 0), ("preproj_a3", 10 ** 6, 1),
    ("loop_arrow", 10 ** 6, 1), ("kronecker", 12, 0),
    ("three_paths", 60, 0)],
    ids=["a4", "preproj_a3", "loop_arrow_over_q", "kronecker-12",
         "three_paths-60"])
def test_enumeration_approximations_match_chain_maps(
        monkeypatch, name, max_nodes, min_radical):
    alg = (_loop_arrow_over_q() if name == "loop_arrow"
           else read_algebra(f"{name}.alg"))
    chosen, counted = _recorded_calls(
        monkeypatch, lambda: st.enumerate_sttilt(alg, max_nodes=max_nodes))
    left, right, radical = _check_against_reference(chosen)
    # enumeration mutates down only, and chooses maps for new cones only
    assert left == len(alg.summands) - alg.n and not right
    assert radical >= min_radical
    assert _check_counts(counted) == (len(counted), 0)
    assert len(counted) >= left


def test_completion_approximations_match_chain_maps(monkeypatch,
                                                    preproj_cases):
    # the Bongartz completion is the right approximation of A[1], the
    # minimal one the left approximation of A
    alg, cases = preproj_cases

    def run():
        for case in cases:
            pair = st.pair_from_module_data(
                alg, _module(alg, case.modules), case.proj)
            st.bongartz_completion(pair)
            st.minimal_completion(pair)

    chosen, counted = _recorded_calls(monkeypatch, run)
    # one count per vertex of A: P_v for the minimal completion, P_v[1]
    # for the Bongartz one; maps are chosen for a new piece only
    assert _check_counts(counted) == (150, 150) == (alg.n * len(cases),) * 2
    left, right, radical = _check_against_reference(chosen)
    assert 0 < left < 150 and 0 < right < 150
    assert radical


@pytest.mark.parametrize("make, nodes", [
    (lambda: linear(5), 132),
    (lambda: read_algebra("preproj_a3.alg"), 24),
], ids=["A5", "preprojective A3"])
def test_choosing_composes_only_the_chosen_orbits(make, nodes, monkeypatch):
    # a chosen map covers its End(R_j) orbit, its composites with the
    # reps of End(R_j); the walls are memoized by the count before, so
    # choosing composes dim End(R_j) times per chosen map and no other
    # representative
    alg = make()
    inside, composites, orbits = [], [], []
    choose, compose = tt._approximation_summands, tt.ChainMap.compose

    def counted(self, other):
        if inside:
            composites.append(None)
        return compose(self, other)

    def chooser(X, targets, left):
        inside.append(None)
        try:
            chosen = choose(X, targets, left)
        finally:
            inside.pop()
        orbits.extend(tt.hom_homotopy(targets[j], targets[j]).dim
                      for j, _ in chosen)
        return chosen

    monkeypatch.setattr(tt.ChainMap, "compose", counted)
    monkeypatch.setattr(tt, "_approximation_summands", chooser)
    assert st.enumerate_sttilt(alg).node_count() == nodes
    assert orbits
    assert len(composites) == sum(orbits)


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_a_wall_off_the_unit_vectors_needs_the_orbit(left):
    # Hom(P2, P1) has the classes of a*e and b*f; the only map through
    # P3 is c*d = a*e + b*f, so the wall is their sum.  Choosing a*e
    # covers b*f only through the End(P1) orbit of the choice.
    alg = read_algebra("three_paths.alg")
    P1, P2, P3 = (tt.stalk_complex(alg, (v,), 0) for v in range(3))
    X, targets = (P2, [P1, P3]) if left else (P1, [P2, P3])
    chosen = tt._approximation_summands(X, targets, left)
    expected, _ = reference_approximation(X, targets, left)
    assert [j for j, _ in chosen] == [j for j, _ in expected] == [0, 1]
    assert all(a is b for (_, a), (_, b) in zip(chosen, expected))


def _count_corpus():
    """(X, targets, left) of every exchange of some enumerations, down
    from the edge's source and up from its target, and of both
    completions of every sub-pair of preprojective A3, one P_v or P_v[1]
    at a time."""
    algebras = [read_algebra("a4.alg"), alternating(4),
                read_algebra("loop2.alg"), read_algebra("preproj_a3.alg"),
                preprojective(4)]
    graphs = [st.enumerate_sttilt(alg) for alg in algebras]
    graphs.append(st.enumerate_sttilt(read_algebra("kronecker.alg"),
                                      max_nodes=12))
    for graph in graphs:
        for s, d, i in graph.edges:
            for pair, old, left in ((graph.nodes[s], i, True),
                                    (graph.nodes[d], None, False)):
                if old is None:
                    old, = (k for k, c in enumerate(pair.summands)
                            if c not in graph.nodes[s].summands)
                yield (pair.summands[old], [c for k, c in enumerate(
                    pair.summands) if k != old], left)
    alg = algebras[3]
    for pair in sub_pairs(graphs[3]):
        for v in range(alg.n):
            for left in (True, False):
                yield (tt.stalk_complex(alg, (v,), 0 if left else 1),
                       list(pair.summands), left)


def test_counts_match_the_reference_choice():
    # every count is a whole number of End(R_j)/rad orbits, and it is the
    # number of maps into R_j the chain-map algorithm chooses
    reached = set()
    for X, targets, left in _count_corpus():
        counts = tt.approximation_counts(X, targets, left)
        expected, radical_seen = reference_approximation(X, targets, left)
        got = _multiplicities(counts)
        assert got == Counter(j for j, _ in expected), (X, targets, left)
        free = {j: f for j, f, _ in counts}
        for j, R in enumerate(targets):
            dim = (tt.hom_homotopy(X, R) if left
                   else tt.hom_homotopy(R, X)).dim
            if not dim:
                reached.add("zero Hom")
            elif 0 < free.get(j, 0) < dim:
                reached.add("wall strictly inside Hom")
        if radical_seen:
            reached.add("End radical")
    assert reached == {"zero Hom", "wall strictly inside Hom", "End radical"}


def test_a_count_off_the_orbits_is_an_invariant_violation(monkeypatch):
    # End(P2) of preprojective A3 has a radical of dimension 1; a radical
    # that misses it leaves one map P3 -> P2 over the wall, not a whole
    # orbit of dimension dim End(P2) = 2
    alg = read_algebra("preproj_a3.alg")
    top = st.TauRigidPair(alg, [tt.stalk_complex(alg, (v,), 0)
                                for v in range(alg.n)])
    monkeypatch.setattr(tt, "_end_radical", lambda end: [])
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(f"pair {top.key()}, summand 1: the "
                                       "maps into the target (0, 1, 0) have "
                                       "dimension 1 over its wall, not a "
                                       "multiple of dim End/rad = 2")):
        st.mutate(top, 1)


def test_a_self_wall_over_a_one_dimensional_end_builds_no_table(
        monkeypatch):
    # End(P1) of kA2 is Q id, a field: its radical is 0 with no
    # composition table and no trace form, so the wall of P1 itself is
    # empty on both sides
    alg = read_algebra("a2.alg")
    R = tt.stalk_complex(alg, (0,), 0)

    def refuse(*args):
        raise AssertionError("a composition table was built")

    monkeypatch.setattr(tt, "composition_table", refuse)
    end = tt.hom_homotopy(R, R)
    assert end.dim == 1
    for left in (True, False):
        assert tt._wall_image(R, R, R, left, 1) == ()
    assert end.radical == []
