"""Module-side sums of projectives and injectives on corner-space grids.

`modrep.ProjSum` and `modrep.InjSum` lay out each vertex space as a grid
of corners e_u A e_v (`algebra.CornerGrid`) and write every map between
them, the arrow actions included, with the one product routine
`algebra.add_products`.  An orientation or transpose error there breaks
the relations, a morphism square or a Hom dimension below directly, not
only through tau.
"""

from itertools import product

import pytest

from tautilt import modrep as mr
from tautilt import twoterm as tt
from tautilt.linalg import RowSpace
from tautilt.sttilt import enumerate_sttilt

from conftest import read_algebra

CASES = [("a3", 10 ** 6), ("loop2", 10 ** 6), ("preproj_a2", 10 ** 6),
         ("three_paths", 60), ("kronecker", 12)]


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def enumerated(request):
    name, max_nodes = request.param
    alg = read_algebra(name + ".alg")
    graph = enumerate_sttilt(alg, max_nodes=max_nodes)
    summands = {}
    for pair in graph.nodes:
        for c in pair.summands:
            summands.setdefault(c.serialize(), c)
    return alg, list(summands.values())


def is_module_map(alg, M, N, f):
    """f = (F_v) is a morphism M -> N: M_a . F_t = F_s . N_a for every
    arrow a: s -> t."""
    if any((f[v].nrows, f[v].ncols) != (M.dims[v], N.dims[v])
           for v in range(alg.n)):
        return False
    return all(M.maps[ai].mul(f[a.target]) == f[a.source].mul(N.maps[ai])
               for ai, a in enumerate(alg.arrows))


def test_sums_satisfy_the_relations(enumerated):
    alg, _ = enumerated
    for length in range(3):
        for verts in product(range(alg.n), repeat=length):
            for cls in (mr.ProjSum, mr.InjSum):
                built = cls.of(alg, verts)
                built.rep.check_relations()
                # the memo hands out one object per class and vertex tuple
                assert cls.of(alg, list(verts)) is built
            assert mr.ProjSum.of(alg, verts) is not mr.InjSum.of(alg, verts)


def test_vertex_spaces_are_the_corners(enumerated):
    # P_u = e_u A has e_u A e_v at v and I_u = D(A e_u) has D(e_v A e_u);
    # Hom(P_u, M) = M_u and Hom(M, I_u) = D(M_u)
    alg, summands = enumerated
    modules = [tt.complex_h0(T) for T in summands]
    for u in range(alg.n):
        P, I = mr.ProjSum.of(alg, (u,)).rep, mr.InjSum.of(alg, (u,)).rep
        assert P.dims == tuple(len(alg.corner_basis(u, v))
                               for v in range(alg.n))
        assert I.dims == tuple(len(alg.corner_basis(v, u))
                               for v in range(alg.n))
        for M in modules:
            assert len(mr.hom_space(P, M)) == M.dims[u]
            assert len(mr.hom_space(M, I)) == M.dims[u]


def test_differentials_realize_as_module_maps(enumerated):
    alg, summands = enumerated
    assert summands
    for T in summands:
        src = mr.ProjSum.of(alg, T.p1)
        tgt = mr.ProjSum.of(alg, T.p0)
        f = src.realize_alg_map(tgt, T.d.entries)
        assert is_module_map(alg, src.rep, tgt.rep, f), T
        assert src.extract_alg_entries(tgt, f) == T.d.entries, T
        # the Nakayama functor of the presentation of H^0 T, and of T
        pres = mr.minimal_projective_presentation(tt.complex_h0(T))
        for p1, p0, entries in ((pres.P1, pres.P0, pres.entries),
                                (src, tgt, T.d.entries)):
            I1, I0, nf = mr.nakayama_map(alg, p1, p0, entries)
            assert I1 is mr.InjSum.of(alg, p1.verts)
            assert is_module_map(alg, I1.rep, I0.rep, nf), T


def test_injective_envelope_embeds(enumerated):
    alg, summands = enumerated
    for T in summands:
        M = tt.complex_h0(T)
        E, emb = mr.injective_envelope(M)
        assert is_module_map(alg, M, E.rep, emb), T
        assert all(emb[v].rank() == M.dims[v] for v in range(alg.n)), T
        # one summand per socle dimension: the embedding is essential
        assert len(E.verts) == sum(
            RowSpace(alg.field, M.dims[v], rows).dim
            for v, rows in enumerate(mr.socle_rows(M)))
