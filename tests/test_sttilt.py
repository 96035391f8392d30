import random
import re

import pytest

from tautilt.algebra import parse_algebra
from tautilt.fields import QQ
from tautilt.linalg import ExactMatrix
from tautilt import modrep as mr
from tautilt import sttilt as st
from tautilt import twoterm as tt

from conftest import (arrow_element, data_path, pair_module, read_algebra,
                      top_and_bottom)
from reference import complex_to_pair, inverse, leq, silting_leq


@pytest.fixture(scope="module")
def kA2():
    return parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }')


@pytest.fixture(scope="module")
def kx2():
    return parse_algebra(
        'field = "Q"\nvertices = ["1"]\n'
        'arrow = { name = "x", source = "1", target = "1" }\n'
        'relations = ["x*x"]')


def linear(n, field="Q"):
    """Path algebra of 1 -> 2 -> ... -> n."""
    names = ", ".join(f'"{v}"' for v in range(1, n + 1))
    return parse_algebra(
        f'field = "{field}"\nvertices = [{names}]\n'
        + "".join(f'arrow = {{ name = "a{i}", source = "{i}", '
                  f'target = "{i + 1}" }}\n' for i in range(1, n)))


def alternating(n):
    """Path algebra of A_n with alternating arrows 1 -> 2 <- 3 -> ..."""
    names = ", ".join(f'"{v}"' for v in range(1, n + 1))
    arrows = ""
    for i in range(1, n):
        s, t = (i, i + 1) if i % 2 else (i + 1, i)
        arrows += (f'arrow = {{ name = "a{i}", source = "{s}", '
                   f'target = "{t}" }}\n')
    return parse_algebra(f'field = "Q"\nvertices = [{names}]\n' + arrows)


def preprojective(n):
    """Preprojective algebra of A_n: a_i: i -> i+1 and b_i: i+1 -> i,
    with the mesh relation at every vertex."""
    names = ", ".join(f'"{v}"' for v in range(1, n + 1))
    arrows = ""
    for i in range(1, n):
        arrows += (f'arrow = {{ name = "a{i}", source = "{i}", '
                   f'target = "{i + 1}" }}\n'
                   f'arrow = {{ name = "b{i}", source = "{i + 1}", '
                   f'target = "{i}" }}\n')
    mesh = []
    for v in range(1, n + 1):
        terms = [f"a{v}*b{v}"] if v < n else []
        if v > 1:
            terms.append(f"b{v - 1}*a{v - 1}")
        mesh.append(" - ".join(terms))
    return parse_algebra(
        f'field = "Q"\nvertices = [{names}]\n' + arrows
        + "relations = [" + ", ".join(f'"{r}"' for r in mesh) + "]\n")


def std(alg, v, flavor):
    return mr.standard_module(alg, v, flavor)


def pair_of(alg, mods, proj):
    M = mr.direct_sum(alg, mods)
    return st.pair_from_module_data(alg, M, proj)


def test_tau_rigid_examples(kA2, kx2):
    assert st.is_tau_rigid_pair(std(kA2, 0, "simple"), (0, 0))
    assert not st.is_tau_rigid_pair(std(kx2, 0, "simple"), (0,))
    assert st.is_tau_rigid_pair(mr.zero_rep(kA2), (1, 1))
    assert st.is_tau_rigid_pair(mr.zero_rep(kA2), (0, 0))


def test_bongartz_of_empty_is_top(kA2):
    done = st.bongartz_completion(st.TauRigidPair(kA2, []))
    assert done.projective_part() == (0, 0)
    assert sorted(m.dims for m in done.module_summands()) == [(0, 1), (1, 1)]


def test_minimal_of_empty_is_bottom(kA2):
    done = st.minimal_completion(st.TauRigidPair(kA2, []))
    assert done.projective_part() == (1, 1)
    assert not done.module_summands()


def test_completion_examples(kA2):
    pS1 = pair_of(kA2, [std(kA2, 0, "simple")], (0, 0))
    bon = st.bongartz_completion(pS1)
    assert bon.projective_part() == (0, 0)
    assert sorted(m.dims for m in bon.module_summands()) == [(1, 0), (1, 1)]
    mini = st.minimal_completion(pS1)
    assert mini.projective_part() == (0, 1)
    assert [m.dims for m in mini.module_summands()] == [(1, 0)]
    # projective input: Bongartz is the top
    pP2 = pair_of(kA2, [std(kA2, 1, "projective")], (0, 0))
    bon2 = st.bongartz_completion(pP2)
    assert sorted(m.dims for m in bon2.module_summands()) == [(0, 1), (1, 1)]


def test_completions_fix_tau_tilting(kA2):
    tilt = st.bongartz_completion(pair_of(kA2, [std(kA2, 0, "simple")], (0, 0)))
    assert st.pairs_isomorphic(st.bongartz_completion(tilt), tilt)
    assert st.pairs_isomorphic(st.minimal_completion(tilt), tilt)


def test_not_tau_rigid_rejected(kx2):
    with pytest.raises(st.NotTauRigidError):
        pair_of(kx2, [std(kx2, 0, "simple")], (0,))


def test_mutate_examples(kA2):
    top = st.TauRigidPair(kA2, [tt.stalk_complex(kA2, (0,), 0),
                                tt.stalk_complex(kA2, (1,), 0)])
    # summand order is canonical: index 1 = P2 (g = (0,1)), index 2 = P1
    assert top.g_matrix() == ((0, 1), (1, 0))
    down1, dir1 = st.mutate(top, 1)  # exchange P2
    assert dir1 == "down"
    assert sorted(m.dims for m in down1.module_summands()) == [(1, 0), (1, 1)]
    down2, dir2 = st.mutate(top, 2)  # exchange P1
    assert dir2 == "down"
    assert [m.dims for m in down2.module_summands()] == [(0, 1)]
    assert down2.projective_part() == (1, 0)


def test_mutation_involution(kA2):
    top = st.TauRigidPair(kA2, [tt.stalk_complex(kA2, (0,), 0),
                                tt.stalk_complex(kA2, (1,), 0)])
    for i in (1, 2):
        child, d = st.mutate(top, i)
        assert d == "down"
        back = None
        for j in range(1, child.size + 1):
            cand, dr = st.mutate(child, j)
            if st.pairs_isomorphic(cand, top):
                back = dr
                break
        assert back == "up"


def test_unimodular_inverse_matches_the_field_inverse():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 6)
        g = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):  # elementary row operations of det +-1
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                g[i] = [-x for x in g[i]]
            else:
                c = rng.choice((-2, -1, 1, 2))
                g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        inv = st._unimodular_inverse(g)
        assert inv is not None
        assert ExactMatrix.from_rows(QQ, inv, n) == \
            inverse(ExactMatrix.from_rows(QQ, g, n))
    # no entry of the first column is a unit, so Euclid's steps are needed
    assert st._unimodular_inverse([[2, 3], [3, 5]]) == [[5, -3], [-3, 2]]


@pytest.mark.parametrize("g", [
    [[2]], [[1, 1], [1, -1]], [[3, 1], [1, 1]],            # det +-2
    [[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]],  # singular
])
def test_unimodular_inverse_rejects_other_determinants(g):
    assert st._unimodular_inverse(g) is None


def test_mutate_certifies_c_vectors(kA2):
    # P1 twice is not basic: its g-matrix ((1, 0), (1, 0)) has no inverse,
    # so no c-vector can orient the mutation
    P1 = tt.stalk_complex(kA2, (0,), 0)
    pair = st.TauRigidPair(kA2, [P1, P1])
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(str(pair.key())) + ".*Z-basis"):
        st.mutate(pair, 1)


def test_mutate_certifies_sign_coherence():
    # three tau-rigid summands of preprojective A3 that lie in no common pair:
    # G is unimodular but the first c-vector is (-1, 0, 1)
    alg = read_algebra("preproj_a3.alg")
    pool = {tt.g_vector(c): c
            for p in st.enumerate_sttilt(alg).nodes for c in p.summands}
    pair = st.TauRigidPair(
        alg, [pool[(-1, 0, 0)], pool[(-1, 1, -1)], pool[(0, -1, 0)]])
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(str(pair.key()))
                       + ", summand 1: c-vector is not sign-coherent"):
        st.mutate(pair, 3)


@pytest.mark.parametrize("make, nodes", [
    (lambda: linear(5), 132),
    (lambda: read_algebra("preproj_a3.alg"), 24),
], ids=["A5", "preprojective A3"])
def test_enumeration_builds_one_cone_per_new_summand(make, nodes,
                                                     monkeypatch):
    # an edge whose predicted g-vector is in the registry builds no
    # cone, so the cones built are exactly the summands beyond the
    # projectives the enumeration starts from
    alg = make()
    cones = []
    cone = tt._two_term_cone

    def counted(*args):
        cones.append(args)
        return cone(*args)

    monkeypatch.setattr(tt, "_two_term_cone", counted)
    graph = st.enumerate_sttilt(alg)
    assert graph.complete and graph.node_count() == nodes
    assert len(cones) == len(alg.summands) - alg.n < len(graph.edges)


def _counted_approximations(monkeypatch):
    """The calls, from now on, that count an approximation's
    multiplicities and those that choose its maps."""
    def record(name):
        seen = []
        original = getattr(tt, name)

        def counted(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(tt, name, counted)
        return seen

    return {"count": record("approximation_counts"),
            "choose": record("minimal_left_approximation_summands")}


@pytest.mark.parametrize("make, nodes", [
    (lambda: read_algebra("a4.alg"), 42),
    (lambda: read_algebra("preproj_a3.alg"), 24),
    (lambda: read_algebra("loop2.alg"), 2),
    (lambda: alternating(4), 42),
], ids=["A4", "preprojective A3", "loop2", "alternating A4"])
def test_enumeration_approximates_once_per_new_node(make, nodes,
                                                    monkeypatch):
    # an almost complete pair lies in exactly two pairs (AIR 2014, Thm
    # 2.18), so a down edge whose lower end is already a node is read
    # off that node, and only the edge that makes a node counts its
    # approximation; maps are chosen only for a cone the registry misses
    alg = make()
    calls = _counted_approximations(monkeypatch)
    graph = st.enumerate_sttilt(alg)
    assert graph.complete and graph.node_count() == nodes
    assert len(calls["count"]) == graph.node_count() - 1 <= len(graph.edges)
    assert len(calls["choose"]) == len(alg.summands) - alg.n


def _self_wall_tables(monkeypatch):
    """The targets R of the walls (X, R, R) reached from now on, and
    those whose wall builds a composition table."""
    reached, built, inside = set(), set(), []
    wall_image, products = tt._wall_image, tt._products

    def wall(X, Rl, R, left, dim):
        if Rl is R:
            reached.add(R)
        inside.append(Rl is R)
        try:
            return wall_image(X, Rl, R, left, dim)
        finally:
            inside.pop()

    def table(X, Y, Z, left):
        if inside and inside[-1]:
            built.add(Y)
        return products(X, Y, Z, left)

    monkeypatch.setattr(tt, "_wall_image", wall)
    monkeypatch.setattr(tt, "_products", table)
    return reached, built


@pytest.mark.parametrize("make, nodes, radicals", [
    (lambda: linear(5), 132, False),
    (lambda: read_algebra("preproj_a3.alg"), 24, True),
], ids=["A5", "preprojective A3"])
def test_a_self_wall_builds_a_table_only_over_a_radical(make, nodes,
                                                        radicals,
                                                        monkeypatch):
    # the wall of R itself is rad End(R) . Hom(X, R): empty when
    # rad End(R) = 0, as for every summand of A5, whose Ends are k
    alg = make()
    reached, built = _self_wall_tables(monkeypatch)
    assert st.enumerate_sttilt(alg).node_count() == nodes
    # each wall of R itself reads rad End(R), kept on its Hom object
    with_radical = {R for R in reached if tt.hom_homotopy(R, R).radical}
    assert built == with_radical
    assert bool(built) is radicals


def test_enumeration_past_max_nodes_approximates_no_further(monkeypatch):
    alg = read_algebra("kronecker.alg")
    calls = _counted_approximations(monkeypatch)
    graph = st.enumerate_sttilt(alg, max_nodes=12)
    assert not graph.complete and graph.node_count() == 12
    assert len(calls["count"]) <= 11
    assert len(calls["choose"]) == len(alg.summands) - alg.n


def test_an_edge_read_off_its_lower_end_is_certified(monkeypatch):
    # the bottom (P1[1], P2[1]) of kA2 lies below two pairs; the edge
    # from the one that does not make it is read off the bottom, so a
    # doubled bottom g-matrix gives g' . c = -2 there
    alg = read_algebra("a2.alg")
    bottom = ((-1, 0), (0, -1))
    original = st.TauRigidPair.g_matrix

    def corrupt(pair):
        gmat = original(pair)
        if gmat == bottom:
            return tuple(tuple(2 * x for x in g) for g in gmat)
        return gmat

    monkeypatch.setattr(st.TauRigidPair, "g_matrix", corrupt)
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(f"the pair {bottom} below it has "
                                       "g-vector (")
                       + r".* with g \. c = -2, not -1"):
        st.enumerate_sttilt(alg)


def _a2_with_a_corrupt_registry():
    """kA2 with P1 registered under the g-vector (1, -1) of S1, the
    summand that replaces P2 when the top pair mutates down at P2: a
    mutation trusting the registry puts P1 in twice, and only the
    certificate of the result can tell."""
    alg = read_algebra("a2.alg")
    alg.summands[(1, -1)] = tt.stalk_complex(alg, (0,), 0)
    return alg


def test_mutate_certifies_its_result():
    alg = _a2_with_a_corrupt_registry()
    top = st.TauRigidPair(alg, [tt.stalk_complex(alg, (v,), 0)
                                for v in range(2)])
    bad = st.TauRigidPair(alg, [tt.stalk_complex(alg, (0,), 0)] * 2)
    with pytest.raises(st.InvariantViolation,
                       match=re.escape(str(bad.key())) + ".*Z-basis"):
        st.mutate(top, 1)


def test_enumeration_certifies_the_nodes_at_the_depth_limit():
    # the child (P1, P1) is the last node the budget admits, so the
    # enumeration mutates it no further
    alg = _a2_with_a_corrupt_registry()
    with pytest.raises(st.InvariantViolation, match="Z-basis"):
        st.enumerate_sttilt(alg, max_nodes=2)


def test_trace_form_radical_refuses_small_characteristic():
    # a loop x with x^2 = 0 at the source of an arrow: End(P1) has
    # dimension 2, so over F_2 the trace form cannot decide its radical;
    # over F_3 it can
    with open(data_path("loop_arrow_f2.alg"), encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(mr.DecompositionError,
                       match=r"characteristic 0 or p > dim"):
        st.enumerate_sttilt(parse_algebra(text))
    graph = st.enumerate_sttilt(parse_algebra(text.replace("Fp:2", "Fp:3")))
    assert graph.complete and graph.node_count() == 6


def test_mutate_index_range(kA2):
    top = st.TauRigidPair(kA2, [tt.stalk_complex(kA2, (0,), 0),
                                tt.stalk_complex(kA2, (1,), 0)])
    with pytest.raises(Exception):
        st.mutate(top, 0)
    with pytest.raises(Exception):
        st.mutate(top, 3)


def test_leq_examples(kA2):
    g = st.enumerate_sttilt(kA2)
    top, bottom = (g.nodes[i] for i in top_and_bottom(g))
    for node in g.nodes:
        assert leq(node, top)
        assert leq(bottom, node)
    # (S1, P2) and (P2, P1) are incomparable
    s1p2 = next(p for p in g.nodes
                if p.projective_part() == (0, 1))
    p2p1 = next(p for p in g.nodes
                if p.projective_part() == (1, 0))
    assert not leq(s1p2, p2p1)
    assert not leq(p2p1, s1p2)


def test_order_cross_check_silting(kA2):
    g = st.enumerate_sttilt(kA2)
    for u in g.nodes:
        for t in g.nodes:
            assert leq(u, t) == silting_leq(u, t)


def test_enumerate_pentagon(kA2):
    g = st.enumerate_sttilt(kA2)
    assert g.node_count() == 5
    assert len(g.edges) == 5
    assert g.complete
    max_node, min_node = top_and_bottom(g)
    assert max_node is not None and min_node is not None
    # pentagon: one chain of length 3 and one of length 2 from top to bottom
    from collections import defaultdict
    out = defaultdict(list)
    for (s, d, i) in g.edges:
        out[s].append(d)
    assert len(out[max_node]) == 2


def test_enumerate_point(point):
    g = st.enumerate_sttilt(point)
    assert g.node_count() == 2 and len(g.edges) == 1 and g.complete


def test_enumerate_local(kx2):
    g = st.enumerate_sttilt(kx2)
    assert g.node_count() == 2 and len(g.edges) == 1 and g.complete
    assert None not in top_and_bottom(g)


def test_finiteness_results(kA2, kronecker):
    fin = st.is_tau_tilting_finite(kA2)
    assert fin.kind == "finite" and fin.count == 5
    unk = st.is_tau_tilting_finite(kronecker, max_nodes=12)
    assert unk.kind == "unknown"


def test_classical_tilting_examples(kA2):
    P1 = std(kA2, 0, "projective")
    P2 = std(kA2, 1, "projective")
    S1 = std(kA2, 0, "simple")
    assert st.is_classical_tilting(mr.direct_sum(kA2, [P1, P2]))
    assert st.is_classical_tilting(mr.direct_sum(kA2, [P1, S1]))
    assert not st.is_classical_tilting(S1)


def test_maximality_criterion(kA2):
    # Thm-style check: a compatible indecomposable candidate pair must
    # already lie in add of the tau-tilting pair
    g = st.enumerate_sttilt(kA2)
    pool_modules = []
    for p in g.nodes:
        for m in p.module_summands():
            if not any(mr.modules_isomorphic(m, x) for x in pool_modules):
                pool_modules.append(m)
    for p in g.nodes:
        M = pair_module(p)
        tM = mr.tau(M)
        proj = p.projective_part()
        for N in pool_modules:
            tN = mr.tau(N)
            if mr.hom_space(M, tN) or mr.hom_space(N, tM):
                continue
            if any(proj[v] and N.dims[v] for v in range(kA2.n)):
                continue
            assert any(mr.modules_isomorphic(N, m)
                       for m in p.module_summands())
        for v in range(kA2.n):
            Q = std(kA2, v, "projective")
            if mr.hom_space(Q, M):
                continue
            # (0, Q) compatible: must be a summand of the pair
            assert proj[v] >= 1


def test_order_interpolation(kA2):
    # if T > U then some down mutation of T lies above U and some up
    # mutation of U lies below T
    g = st.enumerate_sttilt(kA2)
    nodes = g.nodes
    for T in nodes:
        muts = [st.mutate(T, i) for i in range(1, T.size + 1)]
        for U in nodes:
            if st.pairs_isomorphic(T, U) or not leq(U, T):
                continue
            assert any(d == "down" and leq(U, mt)
                       for (mt, d) in muts)
            umuts = [st.mutate(U, i) for i in range(1, U.size + 1)]
            assert any(d == "up" and leq(mu, T)
                       for (mu, d) in umuts)


def test_completion_sandwich_small(kA2):
    # minimal <= Bongartz, equality exactly for tau-tilting inputs
    g = st.enumerate_sttilt(kA2)
    summand_pool = []
    for p in g.nodes:
        for c in p.summands:
            if not any(tt.complexes_isomorphic(c, d) for d in summand_pool):
                summand_pool.append(c)
    import itertools
    for r in (0, 1, 2):
        for combo in itertools.combinations(summand_pool, r):
            pair = st.TauRigidPair(kA2, list(combo))
            M = pair_module(pair)
            if not st.is_tau_rigid_pair(M, pair.projective_part()):
                continue
            lo = st.minimal_completion(pair)
            hi = st.bongartz_completion(pair)
            assert leq(lo, hi)
            if pair.size == kA2.n:
                assert st.pairs_isomorphic(lo, hi)
            else:
                assert not st.pairs_isomorphic(lo, hi)


def test_annihilator(kA2):
    A = mr.direct_sum(kA2, [std(kA2, 0, "projective"),
                            std(kA2, 1, "projective")])
    assert st.annihilator_dim(A) == 0
    assert st.annihilator_dim(std(kA2, 0, "simple")) > 0


def test_max_nodes_limit(kA2):
    g = st.enumerate_sttilt(kA2, max_nodes=3)
    assert not g.complete and g.node_count() == 3


@pytest.mark.parametrize("max_nodes", [0, -1])
def test_max_nodes_below_one_is_rejected(kA2, max_nodes):
    with pytest.raises(ValueError, match="max_nodes"):
        st.enumerate_sttilt(kA2, max_nodes=max_nodes)
    with pytest.raises(ValueError, match="max_nodes"):
        st.is_tau_tilting_finite(kA2, max_nodes=max_nodes)


def test_h0_round_trip_on_corpus(kA2, kx2):
    from tautilt.algebra import parse_algebra
    preproj = parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }\n'
        'arrow = { name = "b", source = "2", target = "1" }\n'
        'relations = ["a*b", "b*a"]')
    for alg in (kA2, kx2, preproj):
        g = st.enumerate_sttilt(alg)
        for p in g.nodes:
            M = pair_module(p)
            proj = p.projective_part()
            T = tt.pair_to_complex(M, proj)
            # a minimal presentation has its differential in the radical,
            # so there is nothing to strip
            assert tt.strip_contractible(T).serialize() == T.serialize()
            M2, proj2 = complex_to_pair(T)
            assert proj2 == proj
            assert mr.modules_isomorphic(M2, M)


def test_registry_rejects_non_isomorphic_summands_of_one_g_vector():
    # P2 -a-> P1 and P2 -b-> P1 over the Kronecker algebra share the
    # g-vector (1, -1) but are not isomorphic (their cokernels differ).
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }\n'
        'arrow = { name = "b", source = "1", target = "2" }')

    def arrow_complex(name):
        d = tt.AlgMatrix(alg, (0,), (1,), {(0, 0): arrow_element(alg, name)})
        return tt.TwoTermComplex(alg, (1,), (0,), d)

    first = arrow_complex("a")
    assert st.intern_summand(first) is first
    assert st.intern_summand(arrow_complex("a")) is first
    with pytest.raises(st.InvariantViolation, match=r"\(1, -1\)"):
        st.intern_summand(arrow_complex("b"))


def test_registry_rejects_a_summand_whose_g_vector_is_a_split():
    # the checked input pair P1 (+) P2 of kA2 is split and recorded under
    # g = (1, 1); the complex P1 (+) P2, with that g-vector, is therefore
    # no indecomposable of the registry
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }')
    P1, P2 = (std(alg, v, "projective") for v in range(2))
    pair = pair_of(alg, [P1, P2], (0, 0))
    assert set(alg.summand_splits[(1, 1)]) == set(pair.summands)
    with pytest.raises(st.InvariantViolation,
                       match=re.escape("the summand with g-vector (1, 1) is "
                                       "registered as the sum of ")):
        st.intern_summand(tt.stalk_complex(alg, (0, 1), 0))
    assert (1, 1) not in alg.summands


def test_second_enumeration_builds_no_hom(monkeypatch):
    # the Hom spaces and the approximation walls are memoized on the
    # algebra, and the walls are its only composition data: a second
    # enumeration counts every exchange off them and hits the registry,
    # so it neither builds a Hom space nor composes a chain map
    alg = linear(5)
    builds = []
    composites = []
    init = tt.HomotopyHom.__init__
    compose = tt.ChainMap.compose

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def counted_compose(self, other):
        composites.append(other)
        return compose(self, other)

    monkeypatch.setattr(tt.HomotopyHom, "__init__", counted)
    monkeypatch.setattr(tt.ChainMap, "compose", counted_compose)
    first = st.enumerate_sttilt(alg)
    assert first.complete and first.node_count() == 132  # Catalan(6)
    assert builds and composites
    builds.clear()
    composites.clear()
    second = st.enumerate_sttilt(alg)
    assert [p.key() for p in second.nodes] == [p.key() for p in first.nodes]
    assert second.edges == first.edges
    assert builds == [] and composites == []
