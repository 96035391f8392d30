import pytest

from tautilt.algebra import AlgebraError, parse_algebra
from tautilt import modrep as mr

from conftest import arrow_element
from reference import ext1_dim, in_fac, stable_hom_dim, trace_rows


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


def std(alg, v, flavor):
    return mr.standard_module(alg, v, flavor)


def test_standard_modules_kA2(kA2):
    P1 = std(kA2, 0, "projective")
    assert P1.dims == (1, 1)
    assert P1.maps[0].entry(0, 0) == kA2.field.one  # identity arrow map
    assert std(kA2, 1, "projective").dims == (0, 1)
    assert std(kA2, 0, "injective").dims == (1, 0)  # I1 = S1
    assert std(kA2, 1, "injective").dims == (1, 1)
    for v in range(2):
        S = std(kA2, v, "simple")
        assert S.dims == tuple(1 if w == v else 0 for w in range(2))


def test_standard_module_rejects_out_of_range_vertices(a3):
    # the vertices of A3 are 0, 1, 2; v = -1 must not wrap around
    for v in (3, -1, 7):
        for flavor in ("projective", "injective", "simple"):
            with pytest.raises(AlgebraError, match=f"vertex {v} .*n = 3"):
                std(a3, v, flavor)


def test_relation_compliance_enforced(kx2):
    from tautilt.linalg import ExactMatrix
    bad = ExactMatrix.from_rows(kx2.field, [[kx2.field.one, kx2.field.zero],
                                            [kx2.field.zero, kx2.field.one]])
    with pytest.raises(AlgebraError):
        mr.Representation(kx2, (2,), {0: bad})


def test_hom_dims(kA2):
    P1 = std(kA2, 0, "projective")
    S2 = std(kA2, 1, "simple")
    assert len(mr.hom_space(P1, P1)) == 1
    assert len(mr.hom_space(P1, S2)) == 0
    assert len(mr.hom_space(P1, mr.zero_rep(kA2))) == 0


def test_subrep_from_rows_reads_coordinates_off_the_rref(kA2):
    from tautilt.linalg import ExactMatrix
    F = kA2.field
    # k -> k^2 sending e to (3, 6); the span of (2, 4) at vertex 2 has the
    # RREF basis (1, 2), so the restricted arrow acts by 3
    M = mr.Representation(kA2, (1, 2), {0: ExactMatrix.from_rows(
        F, [[F.from_int(3), F.from_int(6)]])})
    sub, incl = mr.subrep_from_rows(
        M, [[{0: F.one}], [{0: F.from_int(2), 1: F.from_int(4)}]])
    assert sub.dims == (1, 1)
    m = sub.maps[0]
    assert (m.nrows, m.ncols, m.rows) == (1, 1, [{0: F.from_int(3)}])
    m = incl[1]
    assert (m.nrows, m.ncols, m.rows) == (
        1, 2, [{0: F.one, 1: F.from_int(2)}])


def test_subrep_from_rows_rejects_rows_not_closed_under_arrows(kA2):
    P1 = std(kA2, 0, "projective")
    # the top of P1 without its image under the arrow at vertex 2
    with pytest.raises(AlgebraError, match="subrepresentation"):
        mr.subrep_from_rows(P1, [[{0: kA2.field.one}], []])


def test_minimal_presentation_examples(kA2, kx2):
    S1 = std(kA2, 0, "simple")
    pres = mr.minimal_projective_presentation(S1)
    assert pres.P0.verts == (0,) and pres.P1.verts == (1,)
    # projectives are their own cover
    P1 = std(kA2, 0, "projective")
    assert mr.minimal_projective_presentation(P1).P1.verts == ()
    # simple over k[x]/(x^2): A -> A
    S = std(kx2, 0, "simple")
    presS = mr.minimal_projective_presentation(S)
    assert presS.P0.verts == (0,) and presS.P1.verts == (0,)
    # the presentation map is multiplication by x: check it realizes x
    entry = presS.entries[(0, 0)]
    assert entry == arrow_element(kx2, "x") or \
        entry == kx2.elem_neg(arrow_element(kx2, "x"))


def test_tau_examples(kA2, kx2):
    S1 = std(kA2, 0, "simple")
    S2 = std(kA2, 1, "simple")
    t = mr.tau(S1)
    assert t.dims == (0, 1)
    assert mr.modules_isomorphic(t, S2)
    for v in range(2):
        assert mr.tau(std(kA2, v, "projective")).total_dim == 0
    S = std(kx2, 0, "simple")
    tS = mr.tau(S)
    assert mr.modules_isomorphic(tS, S)


def test_ext1_examples(kA2, kx2):
    S1, S2 = std(kA2, 0, "simple"), std(kA2, 1, "simple")
    assert ext1_dim(S1, S2) == 1
    assert ext1_dim(S2, S1) == 0  # S2 projective
    for v in range(2):
        P = std(kA2, v, "projective")
        assert ext1_dim(P, S1) == 0 and ext1_dim(P, S2) == 0
    # self-injective case: Ext^1(S, A) = 0 but Ext^1(S, S) = 1
    S = std(kx2, 0, "simple")
    A = std(kx2, 0, "projective")
    assert ext1_dim(S, A) == 0
    assert ext1_dim(S, S) == 1


def test_stable_hom_examples(kA2):
    P1 = std(kA2, 0, "projective")
    S2 = std(kA2, 1, "simple")
    # P1 is injective over kA2, so its identity dies in the quotient
    assert stable_hom_dim(P1, P1) == 0
    tS1 = mr.tau(std(kA2, 0, "simple"))
    assert stable_hom_dim(S2, tS1) == 1  # = Ext^1(S1, S2)
    assert stable_hom_dim(P1, mr.zero_rep(kA2)) == 0


def test_ar_duality_kA2(kA2):
    mods = [std(kA2, 0, "simple"), std(kA2, 1, "simple"),
            std(kA2, 0, "projective")]
    for X in mods:
        tX = mr.tau(X)
        for Y in mods:
            assert ext1_dim(X, Y) == stable_hom_dim(Y, tX)


def test_in_fac_examples(kA2):
    P1 = std(kA2, 0, "projective")
    S1, S2 = std(kA2, 0, "simple"), std(kA2, 1, "simple")
    assert in_fac(S1, P1)
    M = mr.direct_sum(kA2, [P1, S1])
    assert not in_fac(S2, M)
    assert in_fac(M, M)
    assert in_fac(mr.zero_rep(kA2), mr.zero_rep(kA2))


def test_trace_idempotent_and_quotient_stable(kA2):
    P1 = std(kA2, 0, "projective")
    S1 = std(kA2, 0, "simple")
    M = mr.direct_sum(kA2, [P1, S1])
    t1 = trace_rows(M, P1)
    t2 = trace_rows(M, P1)
    assert t1 == t2
    # in_fac passes to quotients: X in Fac M, X' a quotient of X
    X = P1
    assert in_fac(X, M)
    sub = [[], [{0: kA2.field.one}]]  # the socle of P1
    Q, _ = mr.quotient_rep(X, sub)
    assert in_fac(Q, M)


def test_decompose_examples(kA2):
    P1 = std(kA2, 0, "projective")
    P2 = std(kA2, 1, "projective")
    S2 = std(kA2, 1, "simple")
    A = mr.direct_sum(kA2, [P1, P2])
    parts = mr.decompose(A)
    assert sorted(p.dims for p in parts) == [(0, 1), (1, 1)]
    assert [p.dims for p in mr.decompose(std(kA2, 0, "simple"))] == [(1, 0)]
    big = mr.direct_sum(kA2, [P1, P1, S2])
    groups = mr.group_by_iso(mr.decompose(big))
    assert sorted((g[0].dims, g[1]) for g in groups) == \
        [((0, 1), 1), ((1, 1), 2)]


def test_decompose_partition_and_stability(kA2, kx2):
    mods = [mr.direct_sum(kA2, [std(kA2, 0, "projective"),
                                std(kA2, 1, "simple"),
                                std(kA2, 0, "simple")]),
            mr.direct_sum(kx2, [std(kx2, 0, "projective"),
                                std(kx2, 0, "simple")])]
    for M in mods:
        parts = mr.decompose(M)
        total = [0] * len(M.dims)
        for p in parts:
            for v, d in enumerate(p.dims):
                total[v] += d
        assert tuple(total) == M.dims
        for p in parts:
            again = mr.decompose(p)
            assert len(again) == 1 and again[0].dims == p.dims


def test_decompose_needs_rationals():
    alg = parse_algebra('field = "Fp:2"\nvertices = ["1"]\n')
    S = mr.standard_module(alg, 0, "simple")
    with pytest.raises(AlgebraError):
        mr.decompose(S)


def test_modules_isomorphic(kA2):
    P2 = std(kA2, 1, "projective")
    S2 = std(kA2, 1, "simple")
    S1 = std(kA2, 0, "simple")
    I1 = std(kA2, 0, "injective")
    assert mr.modules_isomorphic(P2, S2)
    assert mr.modules_isomorphic(S1, I1)
    assert not mr.modules_isomorphic(S1, S2)
    # nontrivial base change: twisted copy of P1
    from tautilt.linalg import ExactMatrix
    F = kA2.field
    twisted = mr.Representation(
        kA2, (1, 1), {0: ExactMatrix.from_rows(F, [[F.from_int(7)]])})
    assert mr.modules_isomorphic(std(kA2, 0, "projective"), twisted)


def test_indecomposables_isomorphic_over_a_prime_field():
    alg = parse_algebra(
        'field = "Fp:3"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }')
    F = alg.field
    from tautilt.linalg import ExactMatrix
    twisted = mr.Representation(
        alg, (1, 1), {0: ExactMatrix.from_rows(F, [[F.from_int(2)]])})
    assert mr.indecomposables_isomorphic(std(alg, 0, "projective"), twisted)
    assert mr.indecomposables_isomorphic(std(alg, 1, "projective"),
                                         std(alg, 1, "simple"))
    assert not mr.indecomposables_isomorphic(std(alg, 0, "simple"),
                                             std(alg, 1, "simple"))
    assert mr.indecomposables_isomorphic(mr.zero_rep(alg), mr.zero_rep(alg))
    # the general test decomposes, which needs the rationals
    with pytest.raises(AlgebraError):
        mr.modules_isomorphic(twisted, twisted)


def test_tau_zero_iff_projective_summands(kA2, kx2):
    # tau kills exactly the projective part
    P1 = std(kA2, 0, "projective")
    S1 = std(kA2, 0, "simple")
    M = mr.direct_sum(kA2, [P1, S1])
    t = mr.tau(M)
    assert mr.modules_isomorphic(t, mr.tau(S1))
    assert mr.tau(mr.direct_sum(kx2, [std(kx2, 0, "projective")])).total_dim == 0


# -- certified Krull-Schmidt ---------------------------------------------

def _rep(alg, dims, arrow_rows):
    from tautilt.linalg import ExactMatrix
    F = alg.field
    maps = {ai: ExactMatrix.from_rows(
                F, [[F.from_int(v) for v in row] for row in rows],
                ncols=dims[alg.arrows[ai].target])
            for ai, rows in enumerate(arrow_rows)}
    return mr.Representation(alg, dims, maps)


def test_local_end_is_certified_without_a_search(kx2, monkeypatch):
    # End(A) = k[x]/(x^2): one candidate has minimal polynomial (x - c)^k
    # with deg 1 = dim End/rad End, which certifies End local
    from tautilt import splitting
    calls = []
    original = splitting.minimal_polynomial

    def counted(field, mat):
        calls.append(mat)
        return original(field, mat)

    monkeypatch.setattr(splitting, "minimal_polynomial", counted)
    P = std(kx2, 0, "projective")
    assert len(mr.hom_space(P, P)) == 2
    assert [p.dims for p in mr.decompose(P)] == [(2,)]
    assert len(calls) <= 2


def test_end_a_quadratic_field_is_local(kronecker):
    # a = I, b^2 = 2I: End is the centralizer Q[b] = Q(sqrt 2), a field of
    # dimension 2, certified by a candidate with minimal polynomial x^2 - 2
    M = _rep(kronecker, (2, 2), [[[1, 0], [0, 1]], [[0, 2], [1, 0]]])
    assert len(mr.hom_space(M, M)) == 2
    parts = mr.decompose(M)
    assert len(parts) == 1 and parts[0] is M
    scaled = _rep(kronecker, (2, 2), [[[2, 0], [0, 2]], [[0, 4], [2, 0]]])
    assert mr.modules_isomorphic(M, scaled)
    assert mr.modules_isomorphic(mr.direct_sum(kronecker, [M, scaled]),
                                 mr.direct_sum(kronecker, [scaled, M]))
    other = _rep(kronecker, (2, 2), [[[1, 0], [0, 1]], [[0, 3], [1, 0]]])
    assert not mr.modules_isomorphic(M, other)


def test_end_a_quaternion_algebra_raises():
    # arrows 1, L_i, L_j on H = Q^4: End is the commutant of H, a
    # noncommutative division algebra of dimension 4 whose elements all
    # have minimal polynomial of degree at most 2, so no candidate
    # splits it or certifies it local
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1", "2"]\n'
        'arrow = { name = "a", source = "1", target = "2" }\n'
        'arrow = { name = "b", source = "1", target = "2" }\n'
        'arrow = { name = "c", source = "1", target = "2" }')
    one = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    left_i = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    left_j = [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]
    M = _rep(alg, (4, 4), [one, left_i, left_j])
    assert len(mr.hom_space(M, M)) == 4
    with pytest.raises(mr.DecompositionError):
        mr.decompose(M)
