import pytest

from tautilt.algebra import AlgebraError, CornerGrid, parse_algebra
from tautilt.linalg import RowSpace
from tautilt import modrep as mr
from tautilt import twoterm as tt

from conftest import algebra_stalk, arrow_element, identity_map, pair_complex
from reference import complex_to_pair, minimal_left_approximation


@pytest.fixture(scope="module")
def kA2():
    return parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }')


@pytest.fixture(scope="module")
def s1_complex(kA2):
    return tt.presentation_complex(mr.standard_module(kA2, 0, "simple"))


def test_presentation_complex_shape(kA2, s1_complex):
    assert s1_complex.p1 == (1,) and s1_complex.p0 == (0,)
    entry = s1_complex.d.entries.get((0, 0))
    assert entry  # the radical inclusion, a multiple of the arrow


def test_hom_homotopy_examples(kA2, s1_complex):
    # self [1]-homs of the S1 complex vanish
    assert tt.hom_homotopy(s1_complex, s1_complex, 1).dim == 0
    A0 = algebra_stalk(kA2, 0)
    A1 = algebra_stalk(kA2, 1)
    # no overlapping degrees
    assert tt.hom_homotopy(A0, A1, 0).dim == 0
    # identity shift: End(A[1]) = A as a space
    assert tt.hom_homotopy(A1, A1, 0).dim == kA2.dim
    assert tt.hom_homotopy(A0, A0, 0).dim == kA2.dim


def test_a_hom_space_over_an_empty_grid(monkeypatch):
    # on 1 -> 2 -> 3 -> 4, Hom(P1, P4) = e4 A e1 holds no path, so its
    # Hom^0 grid has no coordinates at all and no kernel is computed
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1", "2", "3", "4"]\n'
        + "".join(f'arrow = {{ name = "a{i}", source = "{i}", '
                  f'target = "{i + 1}" }}\n' for i in range(1, 4)))
    kernels = []
    kernel = tt.kernel_via_presolve

    def counted(*args):
        kernels.append(args)
        return kernel(*args)

    monkeypatch.setattr(tt, "kernel_via_presolve", counted)
    P1, P4 = tt.stalk_complex(alg, (0,)), tt.stalk_complex(alg, (3,))
    hs = tt.hom_homotopy(P1, P4)
    assert hs.c0.end == 0 and hs.dim == 0 and hs.reps == []
    assert not kernels
    zero = tt.ChainMap(P1, P4, tt.AlgMatrix(alg, (), ()),
                       tt.AlgMatrix(alg, (3,), (0,)))
    assert hs.chain_map_class(zero) == {}
    # the other way the grid holds the path from 1 to 4: one class
    assert tt.hom_homotopy(P4, P1).dim == 1 and len(kernels) == 1


def test_equal_complexes_share_one_hom_entry(kA2):
    # two distinct objects with equal serializations get one form id, so
    # they share every memo entry keyed by it
    def s1():
        return tt.presentation_complex(mr.standard_module(kA2, 0, "simple"))

    first, second = s1(), s1()
    assert first is not second and first.serialize() == second.serialize()
    assert first.form_id() == second.form_id()
    A0 = algebra_stalk(kA2, 0)
    assert A0.form_id() != first.form_id()
    entries = len(kA2.hom_memo)
    hs = tt.hom_homotopy(first, A0, 0)
    assert len(kA2.hom_memo) <= entries + 1
    entries = len(kA2.hom_memo)
    assert tt.hom_homotopy(second, A0, 0) is hs
    assert tt.hom_homotopy(second, algebra_stalk(kA2, 0), 0) is hs
    assert len(kA2.hom_memo) == entries


def test_high_shifts_vanish(kA2, s1_complex):
    A0 = algebra_stalk(kA2, 0)
    for T in (s1_complex, A0):
        for U in (s1_complex, A0):
            for s in (2, -2, 3):
                assert tt.hom_homotopy(T, U, s).dim == 0


def test_silting_examples(kA2, s1_complex):
    A0 = algebra_stalk(kA2, 0)
    A1 = algebra_stalk(kA2, 1)
    for T in (A0, A1):
        assert tt.hom_homotopy(T, T, 1).dim == 0
        assert len(tt.decompose_complex(T)) == kA2.n
    both = tt.direct_sum_complex([A0, A1])
    assert tt.hom_homotopy(both, both, 1).dim
    # complex of the pair (P1 + S1, 0) is silting
    P1 = mr.standard_module(kA2, 0, "projective")
    S1 = mr.standard_module(kA2, 0, "simple")
    M = mr.direct_sum(kA2, [P1, S1])
    T = tt.pair_to_complex(M, (0, 0))
    assert tt.hom_homotopy(T, T, 1).dim == 0
    assert len(tt.decompose_complex(T)) == kA2.n


def test_pair_complex_round_trips(kA2, s1_complex):
    S1 = mr.standard_module(kA2, 0, "simple")
    M, pm = complex_to_pair(s1_complex)
    assert mr.modules_isomorphic(M, S1) and pm == (0, 0)
    # (0, P2) -> P2[1]
    shifted = tt.pair_to_complex(mr.zero_rep(kA2), (0, 1))
    assert shifted.p1 == (1,) and shifted.p0 == ()
    M2, pm2 = complex_to_pair(shifted)
    assert M2.total_dim == 0 and pm2 == (0, 1)
    # (A, 0) -> stalk
    P1 = mr.standard_module(kA2, 0, "projective")
    P2 = mr.standard_module(kA2, 1, "projective")
    A = mr.direct_sum(kA2, [P1, P2])
    stalk = tt.pair_to_complex(A, (0, 0))
    assert tt.complexes_isomorphic(stalk, algebra_stalk(kA2, 0))
    MA, pmA = complex_to_pair(algebra_stalk(kA2, 0))
    assert MA.dims == (1, 2) and pmA == (0, 0)


def test_minimal_left_approximation_examples(kA2):
    P1s = tt.stalk_complex(kA2, (0,), 0)
    P2s = tt.stalk_complex(kA2, (1,), 0)
    # Hom(P2, P1) is one dimensional: the inclusion
    f = minimal_left_approximation(P2s, P1s)
    assert f.target.p0 == (0,)
    assert (f.f0.matmul(f.source.d).entries
            == f.target.d.matmul(f.f1).entries)
    assert not f.f0.is_zero()
    # Hom(P1, P2) = 0: approximation by zero
    g = minimal_left_approximation(P1s, P2s)
    assert g.target.is_zero()
    # identity approximation
    h = minimal_left_approximation(P1s, P1s)
    assert tt.complexes_isomorphic(h.target, P1s)


def test_an_approximation_refuses_another_algebra(kA2):
    # the walls are read by form ids, which each algebra numbers apart
    other = parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }')
    with pytest.raises(AlgebraError, match="different algebras"):
        minimal_left_approximation(tt.stalk_complex(kA2, (1,), 0),
                                      tt.stalk_complex(other, (0,), 0))


def test_approximation_factorization(kA2):
    # every map X -> T'' with T'' in add T factors through the approximation
    P2s = tt.stalk_complex(kA2, (1,), 0)
    P1s = tt.stalk_complex(kA2, (0,), 0)
    T = tt.direct_sum_complex([P1s, P1s])
    f = minimal_left_approximation(P2s, T)
    hs = tt.hom_homotopy(P2s, T, 0)
    # g factors through f when its class lies in the span of the r . f
    image = [hs.chain_map_class(r.compose(f))
             for r in tt.hom_homotopy(f.target, T, 0).reps]
    through_f = RowSpace(kA2.field, hs.dim, image)
    for g in hs.reps:
        assert through_f.contains(hs.chain_map_class(g))


def test_cone_examples(kA2):
    A0 = algebra_stalk(kA2, 0)
    A1 = algebra_stalk(kA2, 1)
    zero_target = tt.TwoTermComplex(kA2, (), ())
    zmap = tt.ChainMap(A0, zero_target,
                       tt.AlgMatrix(kA2, (), ()),
                       tt.AlgMatrix(kA2, (), A0.p0))
    assert tt.complexes_isomorphic(tt._two_term_cone(zmap, True), A1)
    idmap = tt.ChainMap(A0, A0, tt.AlgMatrix(kA2, (), ()),
                        identity_map(kA2, A0.p0))
    assert tt._two_term_cone(idmap, True).is_zero()


def test_bongartz_style_cone(kA2, s1_complex):
    # minimal left add(P1-stalk)-approximation of the algebra stalk is
    # A -> P1^2, whose cone strips to (P2 -> P1)
    A0 = algebra_stalk(kA2, 0)
    P1s = tt.stalk_complex(kA2, (0,), 0)
    f = minimal_left_approximation(A0, P1s)
    assert len(f.target.p0) == 2 and set(f.target.p0) == {0}
    cone = tt._two_term_cone(f, True)
    assert tt.hom_homotopy(cone, cone, 1).dim == 0
    parts = tt.decompose_complex(cone)
    assert len(parts) == 1
    assert tt.complexes_isomorphic(parts[0], s1_complex)


def test_g_vectors(kA2, s1_complex):
    assert tt.g_vector(s1_complex) == (1, -1)
    assert tt.g_vector(tt.stalk_complex(kA2, (0,), 0)) == (1, 0)
    assert tt.g_vector(tt.stalk_complex(kA2, (1,), 1)) == (0, -1)


def test_decompose_complex_examples(kA2, s1_complex):
    A0 = algebra_stalk(kA2, 0)
    parts = tt.decompose_complex(A0)
    assert len(parts) == 2
    assert len(tt.decompose_complex(s1_complex)) == 1
    # contractible summand is stripped before decomposing
    d = tt.AlgMatrix(kA2, (0, 1), (1, 1))
    d.set(0, 0, arrow_element(kA2, "a"))
    d.set(1, 1, kA2.idempotent_elem(1))
    messy = tt.TwoTermComplex(kA2, (1, 1), (0, 1), d)
    parts = tt.decompose_complex(messy)
    assert len(parts) == 1
    assert tt.complexes_isomorphic(parts[0], s1_complex)


def test_decompose_complex_with_duplicates(kA2, s1_complex):
    double = tt.direct_sum_complex([s1_complex, s1_complex])
    parts = tt.decompose_complex(double)
    assert len(parts) == 2
    for p in parts:
        assert tt.complexes_isomorphic(p, s1_complex)


def test_strip_contractible(kA2, s1_complex):
    d = tt.AlgMatrix(kA2, (0, 1), (1, 1))
    d.set(0, 0, arrow_element(kA2, "a"))
    d.set(1, 1, kA2.idempotent_elem(1))
    messy = tt.TwoTermComplex(kA2, (1, 1), (0, 1), d)
    stripped = tt.strip_contractible(messy)
    assert stripped.p1 == (1,) and stripped.p0 == (0,)
    assert tt.complexes_isomorphic(stripped, s1_complex)


def test_complexes_isomorphic_negative(kA2, s1_complex):
    assert not tt.complexes_isomorphic(
        s1_complex, tt.stalk_complex(kA2, (0,), 0))
    assert not tt.complexes_isomorphic(
        tt.stalk_complex(kA2, (0,), 0), tt.stalk_complex(kA2, (1,), 0))
    # equal H^0 (the simple S1), different shifted part
    with_shift = tt.direct_sum_complex(
        [s1_complex, tt.stalk_complex(kA2, (1,), 1)])
    assert mr.modules_isomorphic(tt.complex_h0(with_shift),
                                 tt.complex_h0(s1_complex))
    assert not tt.complexes_isomorphic(with_shift, s1_complex)
    assert not tt.complexes_isomorphic(s1_complex, with_shift)


def _mix(T):
    """T under a unipotent base change in both degrees: every later
    summand at a vertex gets a multiple of the first one there."""
    alg = T.alg
    d = T.d
    for verts, degree0 in ((T.p0, True), (T.p1, False)):
        g = identity_map(alg, verts)
        first = {}
        for j, v in enumerate(verts):
            i = first.setdefault(v, j)
            if i != j:
                c = alg.elem_scale(alg.field.from_int(1 + j % 2),
                                   alg.idempotent_elem(v))
                # row j of d gains c times row i; column j likewise
                g.set(*((j, i) if degree0 else (i, j)), c)
        d = g.matmul(d) if degree0 else d.matmul(g)
    return tt.TwoTermComplex(alg, T.p1, T.p0, d)


def _assert_summands(parts, expected):
    assert (sorted(tt.g_vector(c) for c in parts)
            == sorted(tt.g_vector(c) for c in expected))
    for part in parts:
        assert any(tt.complexes_isomorphic(part, c) for c in expected), part


@pytest.mark.parametrize("name,max_nodes,min_mixed", [
    ("a4", 10 ** 6, 26), ("preproj_a3", 10 ** 6, 17), ("loop2", 10 ** 6, 0),
    ("kronecker", 12, 9)],
    ids=["a4", "preproj_a3", "loop2", "kronecker-12"])
def test_decompose_complex_mixed_sums(request, name, max_nodes, min_mixed):
    # Sums that are not block-diagonal: the whole complex of a pair and
    # two stalks P_v[1], mixed by a base change, then a contractible
    # P_v -> P_v mixed into every summand at v.  The pair's summands and
    # the two stalks come back.
    from tautilt.sttilt import enumerate_sttilt
    alg = request.getfixturevalue(name)
    graph = enumerate_sttilt(alg, max_nodes=max_nodes)
    still_mixed = 0
    for pair in graph.nodes:
        T = pair_complex(pair)
        v = (T.p1 or T.p0)[0]
        unit = tt.AlgMatrix(alg, (v,), (v,))
        unit.set(0, 0, alg.idempotent_elem(v))
        contractible = tt.TwoTermComplex(alg, (v,), (v,), unit)
        stalk = tt.stalk_complex(alg, (v,), 1)
        plain = tt.direct_sum_complex([T, stalk, stalk])
        inner = _mix(plain)
        mixed = _mix(tt.direct_sum_complex([contractible, inner]))
        assert mixed.serialize() != tt.direct_sum_complex(
            [contractible, plain]).serialize()
        # stripping undoes the contractible's mixing, not the inner one
        still_mixed += (tt.strip_contractible(mixed).serialize()
                        != plain.serialize())
        parts = tt.decompose_complex(mixed)
        _assert_summands(parts, list(pair.summands) + [stalk, stalk])
        assert sum(p.serialize() == stalk.serialize() for p in parts) \
            == pair.projective_part()[v] + 2
    # one vertex leaves nothing to mix the pair's summands with
    assert still_mixed >= min_mixed


def test_preprojective_loops():
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }\n'
        'arrow = { name = "b", source = "2", target = "1" }\n'
        'relations = ["a*b", "b*a"]')
    P1 = mr.standard_module(alg, 0, "projective")
    T = tt.presentation_complex(P1)
    assert tt.hom_homotopy(T, T, 1).dim == 0
    S1 = mr.standard_module(alg, 0, "simple")
    TS = tt.presentation_complex(S1)
    assert tt.hom_homotopy(TS, TS, 1).dim == 0
    M, pm = complex_to_pair(TS)
    assert mr.modules_isomorphic(M, S1) and pm == (0, 0)


def test_shift_minus_one(kA2):
    P2s = tt.stalk_complex(kA2, (1,), 0)
    shifted = tt.stalk_complex(kA2, (1,), 1)
    # Hom(T, U[-1]) with U = P2[1] recovers End(P2)
    assert tt.hom_homotopy(P2s, shifted, -1).dim == 1
    s1 = tt.presentation_complex(mr.standard_module(kA2, 0, "simple"))
    assert tt.hom_homotopy(s1, shifted, -1).dim == 0


@pytest.mark.parametrize("name,max_nodes", [
    ("a3", 10 ** 6), ("a4", 10 ** 6), ("preproj_a2", 10 ** 6),
    ("loop2", 10 ** 6), ("kronecker", 12)],
    ids=["a3", "a4", "preproj_a2", "loop2", "kronecker-12"])
def test_euler_form_ties_the_shifts(request, name, max_nodes):
    # For two-term T, U the alternating sum of the Hom dimensions over the
    # shifts -1, 0, 1 equals the Euler form of the degree-wise terms:
    # dim Hom(T,U) - dim Hom(T,U[1]) - dim Hom(T,U[-1])
    #   = sum over p, q in {-1, 0} of (-1)^(p-q) dim Hom(T^p, U^q).
    from tautilt.sttilt import enumerate_sttilt
    alg = request.getfixturevalue(name)
    graph = enumerate_sttilt(alg, max_nodes=max_nodes)
    summands = {}
    for pair in graph.nodes:
        for c in pair.summands:
            summands.setdefault(c.serialize(), c)

    def proj_hom(src, tgt):
        return sum(len(alg.corner_basis(w, v)) for v in src for w in tgt)

    def round_trips(grid):
        # every coordinate of the grid is one basis path of one corner
        one = alg.field.one
        for k in range(grid.offset, grid.end):
            entries = grid.vec_to_entries({k: one})
            assert len(entries) == 1
            assert grid.entries_to_vec(entries, {}) == {k: one}
        # coordinates outside the grid are not read
        assert not grid.vec_to_entries({grid.offset - 1: one, grid.end: one})

    def kernel_of_d(U):
        src, _, f = U.d.realize()
        return mr.kernel_subrep(alg, src.rep, f)[0]

    # the module-side data of each summand: H^0, tau H^0 and ker d
    module = {key: (tt.complex_h0(T), mr.tau(tt.complex_h0(T)),
                    kernel_of_d(T))
              for key, T in summands.items()}

    nonzero = {shift: 0 for shift in (-1, 0, 1)}
    for tkey, T in summands.items():
        for ukey, U in summands.items():
            homs = {shift: tt.hom_homotopy(T, U, shift)
                    for shift in (-1, 0, 1)}
            # the grids of Hom^1 = (U^0, T^-1) and Hom^-1 = (U^-1, T^0)
            for grid in (homs[0].c1, homs[0].c0, CornerGrid(alg, U.p0, T.p1),
                         CornerGrid(alg, U.p1, T.p0)):
                round_trips(grid)
            dims = {shift: hs.dim for shift, hs in homs.items()}
            euler = (proj_hom(T.p1, U.p1) + proj_hom(T.p0, U.p0)
                     - proj_hom(T.p1, U.p0) - proj_hom(T.p0, U.p1))
            assert dims[0] - dims[1] - dims[-1] == euler, (T, U, dims)
            # the shifts +-1 on their own, computed in mod A: an
            # indecomposable T is a minimal presentation P_M of M = H^0 T
            # or a shifted projective Q[1]
            (M, tau_m, _), (N, _, ker_u) = module[tkey], module[ukey]
            if T.p0:
                # Auslander-Reiten: Hom_K(P_M, P_N[1]) = D Hom_A(N, tau M)
                shift1 = len(mr.hom_space(N, tau_m))
            else:
                # Hom_K(Q[1], U[1]) = Hom_K(Q, U) = Hom_A(Q, H^0 U)
                shift1 = sum(N.dims[v] for v in T.p1)
            assert dims[1] == shift1, (T, U, dims)
            # maps T^0 -> U^-1 killed by d_T on the right and by d_U on
            # the left: Hom_A(H^0 T, ker d_U)
            assert dims[-1] == len(mr.hom_space(M, ker_u)), (T, U, dims)
            for shift, dim in dims.items():
                nonzero[shift] += dim != 0
    # every shift contributes somewhere, so no term is checked vacuously
    assert all(nonzero.values()), nonzero
