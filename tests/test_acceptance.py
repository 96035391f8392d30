"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Counts, Hasse quivers and g-matrices are checked exactly; the stated
runtime ceilings are asserted with time.perf_counter.
"""

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from tautilt.algebra import parse_algebra
from tautilt.fields import GF
from tautilt.linalg import ExactMatrix
from tautilt import modrep as mr
from tautilt import oracle as orc
from tautilt import sttilt as st
from tautilt import twoterm as tt

from conftest import module_side_pair, top_and_bottom


def report(num, name, ok=True):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        report(num, name, ok=False)
        raise
    report(num, name, ok=True)


def graph_key_edges(graph):
    keys = sorted(p.key() for p in graph.nodes)
    edges = sorted((graph.nodes[s].key(), graph.nodes[d].key())
                   for (s, d, i) in graph.edges)
    return keys, edges


def oracle_key_edges(alg, bound):
    pairs, keys, edges = orc.oracle_hasse(alg, orc.OracleConfig(bound))
    return sorted(keys), sorted((keys[s], keys[d]) for (s, d) in edges)


def assert_n_regular(graph, n):
    deg = defaultdict(int)
    for (s, d, _) in graph.edges:
        deg[s] += 1
        deg[d] += 1
    for i in range(graph.node_count()):
        assert deg[i] == n, f"node {i} has degree {deg[i]} != {n}"


def assert_unique_source_sink(graph):
    indeg = defaultdict(int)
    outdeg = defaultdict(int)
    for (s, d, _) in graph.edges:
        outdeg[s] += 1
        indeg[d] += 1
    sources = [i for i in range(graph.node_count()) if indeg[i] == 0]
    sinks = [i for i in range(graph.node_count()) if outdeg[i] == 0]
    max_node, min_node = top_and_bottom(graph)
    assert sources == [max_node]
    assert sinks == [min_node]


def assert_acyclic(graph):
    order = defaultdict(list)
    indeg = defaultdict(int)
    for (s, d, _) in graph.edges:
        order[s].append(d)
        indeg[d] += 1
    queue = [i for i in range(graph.node_count()) if indeg[i] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in order[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    assert seen == graph.node_count(), "Hasse quiver has a cycle"


def assert_involution(graph):
    for (s, d, i) in graph.edges:
        src, dst = graph.nodes[s], graph.nodes[d]
        back = None
        for j in range(1, dst.size + 1):
            cand, direction = st.mutate(dst, j)
            if st.pairs_isomorphic(cand, src):
                back = direction
                break
        assert back == "up", "mutating the target does not return the source"


def test_criterion_1_pentagon(a2):
    with criterion(1, "pentagon"):
        t0 = time.perf_counter()
        graph = st.enumerate_sttilt(a2)
        ekeys, eedges = graph_key_edges(graph)
        okeys, oedges = oracle_key_edges(a2, (1, 1))
        elapsed = time.perf_counter() - t0
        assert graph.node_count() == 5 and graph.complete
        # the pentagon: five nodes, five covering edges, one length-3 and
        # one length-2 maximal chain from (A, 0) down to (0, A)
        assert len(graph.edges) == 5
        assert ekeys == okeys
        assert eedges == oedges
        outdeg = defaultdict(int)
        for (s, d, _) in graph.edges:
            outdeg[s] += 1
        assert outdeg[top_and_bottom(graph)[0]] == 2
        assert elapsed < 1.0, f"pentagon took {elapsed:.2f}s"


def interval_modules(alg):
    """All interval representations of a linear A_n quiver."""
    n = alg.n
    out = []
    F = alg.field
    for i in range(n):
        for j in range(i, n):
            dims = tuple(1 if i <= v <= j else 0 for v in range(n))
            maps = {}
            for ai, arrow in enumerate(alg.arrows):
                s, t = arrow.source, arrow.target
                if dims[s] and dims[t]:
                    maps[ai] = ExactMatrix.from_rows(F, [[F.one]])
            out.append(mr.Representation(alg, dims, maps))
    return out


def module_side_count_linear(alg):
    """Subset-filter enumeration of pairs from the interval module pool."""
    n = alg.n
    pool = interval_modules(alg)
    taus = [mr.tau(M) for M in pool]
    compat = {}
    for i, M in enumerate(pool):
        for j, N in enumerate(pool):
            compat[(i, j)] = (len(mr.hom_space(M, taus[j])) == 0)
    count = 0
    for r in range(n + 1):
        for mods in itertools.combinations(range(len(pool)), r):
            if not all(compat[(i, j)] and compat[(j, i)]
                       for i in mods for j in mods):
                continue
            support = [v for v in range(n)
                       if all(pool[i].dims[v] == 0 for i in mods)]
            for sup in itertools.combinations(support, n - r):
                count += 1
    return count


def test_criterion_2_catalan(a3, a4):
    with criterion(2, "Catalan counts for linear A3 and A4"):
        t0 = time.perf_counter()
        g3 = st.enumerate_sttilt(a3)
        assert g3.node_count() == 14 and g3.complete
        okeys, _ = oracle_key_edges(a3, (1, 1, 1))
        ekeys, _ = graph_key_edges(g3)
        assert ekeys == okeys
        g4 = st.enumerate_sttilt(a4)
        assert g4.node_count() == 42 and g4.complete
        # engine-vs-engine: silting-side BFS against a module-side
        # subset filter over the interval modules
        assert module_side_count_linear(a4) == 42
        assert_n_regular(g3, 3)
        assert_n_regular(g4, 4)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"A3+A4 took {elapsed:.2f}s"


def test_criterion_3_local_algebra(loop2):
    with criterion(3, "k[x]/(x^2) has two pairs"):
        graph = st.enumerate_sttilt(loop2)
        assert graph.node_count() == 2 and graph.complete
        assert len(graph.edges) == 1
        (s, d, _), = graph.edges
        assert (s, d) == top_and_bottom(graph)
        ekeys, eedges = graph_key_edges(graph)
        okeys, oedges = oracle_key_edges(loop2, (2,))
        assert ekeys == okeys and eedges == oedges


def test_criterion_4_preprojective(preproj_a2):
    with criterion(4, "preprojective algebra of A2 has six pairs"):
        graph = st.enumerate_sttilt(preproj_a2)
        assert graph.node_count() == 6 and graph.complete
        ekeys, eedges = graph_key_edges(graph)
        okeys, oedges = oracle_key_edges(preproj_a2, (1, 1))
        assert ekeys == okeys and eedges == oedges
        assert_n_regular(graph, 2)
        assert_unique_source_sink(graph)


def test_criterion_5_structural_invariants(a2, a3, a4, loop2, preproj_a2,
                                           point):
    with criterion(5, "regularity, extremes, acyclicity, involution"):
        for alg in (a2, a3, a4, loop2, preproj_a2, point):
            graph = st.enumerate_sttilt(alg)
            assert graph.complete
            assert_n_regular(graph, alg.n)
            assert_unique_source_sink(graph)
            assert_acyclic(graph)
            assert_involution(graph)


def module_side_pairs(alg, graph):
    """Pairs assembled module-theoretically from the indecomposable pool."""
    pool = []
    for p in graph.nodes:
        for m in p.module_summands():
            if not any(mr.modules_isomorphic(m, x) for x in pool):
                pool.append(m)
    taus = [mr.tau(M) for M in pool]
    ok = {}
    for i, M in enumerate(pool):
        for j in range(len(pool)):
            ok[(i, j)] = (len(mr.hom_space(M, taus[j])) == 0)
    n = alg.n
    found = []
    for r in range(n + 1):
        for mods in itertools.combinations(range(len(pool)), r):
            if not all(ok[(i, j)] and ok[(j, i)]
                       for i in mods for j in mods):
                continue
            free = [v for v in range(n)
                    if all(pool[i].dims[v] == 0 for i in mods)]
            for sup in itertools.combinations(free, n - r):
                M = mr.direct_sum(alg, [pool[i] for i in mods])
                proj = tuple(1 if v in sup else 0 for v in range(n))
                found.append(module_side_pair(alg, M, proj))
    return found


def test_criterion_6_bijection_suite(a2, a3, loop2, preproj_a2):
    with criterion(6, "module-side and silting-side pictures agree"):
        for alg in (a2, a3, loop2, preproj_a2):
            graph = st.enumerate_sttilt(alg)
            silting_keys = sorted(p.key() for p in graph.nodes)
            mod_pairs = module_side_pairs(alg, graph)
            module_keys = sorted(p.key() for p in mod_pairs)
            assert module_keys == silting_keys
            # the two order tests agree on all ordered pairs of nodes
            nodes = graph.nodes
            for u in nodes:
                for t in nodes:
                    assert st.leq(u, t) == st.silting_leq(u, t)
            # Hasse edges are exactly the covering relations of the order
            strictly_less = {}
            for i, u in enumerate(nodes):
                for j, t in enumerate(nodes):
                    strictly_less[(i, j)] = (
                        i != j and st.leq(u, t) and not st.leq(t, u))
            covers = set()
            for (i, j), lt in strictly_less.items():
                if not lt:
                    continue
                if not any(strictly_less[(i, k)] and strictly_less[(k, j)]
                           for k in range(len(nodes))):
                    covers.add((j, i))  # edge from larger to smaller
            assert covers == {(s, d) for (s, d, _) in graph.edges}


def test_criterion_7_completion_suite(a2, a3, loop2, preproj_a2):
    with criterion(7, "minimum and Bongartz completions sandwich"):
        for alg in (a2, a3, loop2, preproj_a2):
            graph = st.enumerate_sttilt(alg)
            pool = []
            for p in graph.nodes:
                for c in p.summands:
                    if not any(tt.complexes_isomorphic(c, d) for d in pool):
                        pool.append(c)
            for r in (0, 1, 2):
                for combo in itertools.combinations(pool, r):
                    pair = st.TauRigidPair(alg, list(combo))
                    if not st.is_tau_rigid_pair(pair.module(),
                                                pair.projective_part()):
                        continue
                    lo = st.minimal_completion(pair)
                    hi = st.bongartz_completion(pair)
                    assert st.leq(lo, hi)
                    same = st.pairs_isomorphic(lo, hi)
                    assert same == (pair.size == alg.n)
            empty = st.TauRigidPair(alg, [])
            top = st.bongartz_completion(empty)
            bottom = st.minimal_completion(empty)
            max_node, min_node = top_and_bottom(graph)
            assert top.key() == graph.nodes[max_node].key()
            assert bottom.key() == graph.nodes[min_node].key()


def oracle_to_representation(alg_p, M):
    F = alg_p.field
    maps = {}
    for ai in range(len(alg_p.arrows)):
        rows = [[F.from_int(v) for v in row] for row in M.mats[ai]]
        s, t = alg_p.arrows[ai].source, alg_p.arrows[ai].target
        maps[ai] = ExactMatrix.from_rows(F, rows, ncols=M.dims[t])
    return mr.Representation(alg_p, M.dims, maps)


def test_criterion_8_ar_duality(a2, a3, loop2):
    with criterion(8, "AR duality on oracle indecomposables"):
        for alg, bound in ((a2, (1, 1)), (a3, (1, 1, 1)), (loop2, (2,))):
            alg2 = orc.algebra_mod_p(alg, 2)
            mods = [oracle_to_representation(alg2, m)
                    for m in orc.brute_force_indecomposables(
                        alg, orc.OracleConfig(bound))]
            for X in mods:
                tX = mr.tau(X)
                for Y in mods:
                    assert mr.ext1_dim(X, Y) == mr.stable_hom_dim(Y, tX)


def det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * det(minor)
    return total


def test_criterion_9_g_matrices(a2, a3, a4, loop2, preproj_a2):
    with criterion(9, "unimodular, pairwise distinct g-matrices"):
        for alg in (a2, a3, a4, loop2, preproj_a2):
            graph = st.enumerate_sttilt(alg)
            keys = [p.key() for p in graph.nodes]
            assert len(set(keys)) == len(keys)
            for p in graph.nodes:
                cols = [list(c) for c in p.g_matrix()]
                matrix = [[cols[j][i] for j in range(len(cols))]
                          for i in range(len(cols))]
                assert det(matrix) in (1, -1)


def test_criterion_10_kronecker_guard(kronecker):
    with criterion(10, "Kronecker enumeration stays honest"):
        t0 = time.perf_counter()
        graph = st.enumerate_sttilt(kronecker, max_nodes=100)
        elapsed = time.perf_counter() - t0
        assert not graph.complete
        assert graph.node_count() == 100
        # distinct canonical g-matrices certify pairwise non-isomorphism
        keys = {p.key() for p in graph.nodes}
        assert len(keys) == 100
        fin = st.is_tau_tilting_finite(kronecker, max_nodes=100)
        assert fin.kind == "unknown"
        assert elapsed < 30.0, f"Kronecker guard took {elapsed:.2f}s"
