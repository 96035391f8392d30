"""References the tests compare the engine against.

The engine carries every pair on the two-term silting side (Adachi-
Iyama-Reiten, "tau-tilting theory", 2014).  The module-side picture
below reaches the same answers another way, so the tests use it as a
cross-check and the package does not carry it:

- Ext^1 against the stable Hom through tau (Auslander-Reiten duality);
- the order by Fac containment (`leq`) against the silting order,
  Hom(T, U[1]) = 0 (`silting_leq`);
- a complex's pair read off its stripped form (`complex_to_pair`), and a
  minimal approximation built from a whole complex
  (`minimal_left_approximation`);
- the field-side inverse, a horizontal stack and an echelon basis of
  `ExactMatrix`, as functions of a matrix.
"""

from tautilt.linalg import ExactMatrix, RowSpace
from tautilt.modrep import (InjSum, _morphism_layout, hom_space,
                            kernel_subrep, minimal_projective_presentation,
                            morphism_compose, projective_cover)
from tautilt.twoterm import (_shifted, assemble_left_approximation,
                             complex_h0, decompose_complex, hom_homotopy,
                             indecomposables_isomorphic,
                             minimal_left_approximation_summands,
                             strip_contractible)

from conftest import pair_complex, pair_module


# -- linear algebra -------------------------------------------------------

def hstack(field, mats, nrows):
    rows = [{} for _ in range(nrows)]
    off = 0
    for m in mats:
        if m.nrows != nrows:
            raise ValueError("hstack height mismatch")
        for i, r in enumerate(m.rows):
            for j, v in r.items():
                rows[i][off + j] = v
        off += m.ncols
    return ExactMatrix(field, nrows, off, rows)


def row_space_rows(m):
    """Canonical (RREF) basis of the row space of m as a matrix."""
    space = RowSpace(m.field, m.ncols, m.rows)
    return ExactMatrix(m.field, space.dim, m.ncols, space.reduced)


def inverse(m):
    if m.nrows != m.ncols:
        return None
    h = m.solve_right(ExactMatrix.identity(m.field, m.nrows))
    if h is None or h.mul(m) != ExactMatrix.identity(m.field, m.nrows):
        return None
    return h


# -- modules --------------------------------------------------------------

def _flatten_morphism(alg, M, N, f):
    """Coordinates of a morphism in the `_morphism_layout` of (M, N)."""
    offsets, _ = _morphism_layout(M, N)
    vec = {}
    for v in range(alg.n):
        off, dn = offsets[v], N.dims[v]
        for i, row in enumerate(f[v].rows):
            for j, val in row.items():
                vec[off + i * dn + j] = val
    return vec


def socle_rows(M):
    """Row spans of soc M = {m : m J = 0} at each vertex."""
    alg = M.alg
    F = alg.field
    out = []
    for v in range(alg.n):
        outgoing = [M.maps[ai] for ai, a in enumerate(alg.arrows) if a.source == v]
        if not outgoing:
            out.append(ExactMatrix.identity(F, M.dims[v]).rows)
            continue
        stacked = hstack(F, outgoing, nrows=M.dims[v])
        out.append(stacked.left_kernel_rows().rows)
    return out


def _hom_dim_modulo(X, N, f, Y):
    """dim Hom(X, N) modulo the maps g . f, g in Hom(Y, N), for f: X -> Y."""
    alg = X.alg
    vecs = [_flatten_morphism(alg, X, N, morphism_compose(alg, f, g))
            for g in hom_space(Y, N)]
    rank = RowSpace(alg.field, _morphism_layout(X, N)[1], vecs).dim
    return len(hom_space(X, N)) - rank


def ext1_dim(M, N):
    """dim Ext^1(M, N) from 0 -> K -> P0 -> M -> 0."""
    P0, cover = projective_cover(M)
    K, incl = kernel_subrep(M.alg, P0.rep, cover)
    return _hom_dim_modulo(K, N, incl, P0.rep)


def injective_envelope(M):
    """(E: InjSum, embedding morphism M -> E.rep).

    E has one summand I_u per socle basis vector at u.  A functional phi
    on M_u gives the map M -> I_u, m -> sum_p phi(m.p) p^* over the paths
    p into u; with phi dual to the socle basis at u these maps restrict to
    an isomorphism of socles, so together they embed M.
    """
    alg = M.alg
    F = alg.field
    socs = [row_space_rows(ExactMatrix(F, len(rows), M.dims[v], rows))
            for v, rows in enumerate(socle_rows(M))]
    # column k of duals[u] is the functional dual to socle basis vector k
    duals = [soc.solve_right(ExactMatrix.identity(F, soc.nrows))
             for soc in socs]
    summands = [(u, k) for u, soc in enumerate(socs) for k in range(soc.nrows)]
    E = InjSum.of(alg, [u for u, _ in summands])
    emb = []
    for v in range(alg.n):
        cols = []
        for u, k in summands:
            for p in alg.corner_basis(v, u):
                images = M.path_matrix(p).mul(duals[u]).rows
                cols.append({i: r[k] for i, r in enumerate(images) if k in r})
        emb.append(ExactMatrix(F, len(cols), M.dims[v], cols).transpose())
    return E, tuple(emb)


def stable_hom_dim(M, N):
    """dim of Hom(M, N) modulo maps factoring through an injective.

    Factorization is tested through the injective envelope of M: any map
    through an injective extends along the essential embedding, so the
    quotient by { g . emb : g in Hom(E(M), N) } is the costable Hom.
    """
    E, emb = injective_envelope(M)
    return _hom_dim_modulo(M, N, emb, E.rep)


def trace_rows(M, X):
    """Row spans (per vertex) of the trace of M in X."""
    alg = M.alg
    homs = hom_space(M, X)
    out = []
    for v in range(alg.n):
        rows = []
        for f in homs:
            rows.extend(f[v].rows)
        out.append(rows)
    return out


def in_fac(X, M):
    """True iff X lies in Fac M (the trace of M in X is all of X)."""
    alg = X.alg
    tr = trace_rows(M, X)
    for v in range(alg.n):
        if RowSpace(alg.field, X.dims[v], tr[v]).dim != X.dims[v]:
            return False
    return True


# -- the order ------------------------------------------------------------

def leq(U, T):
    """U <= T in the support tau-tilting order: Fac(M_U) inside Fac(M_T)."""
    MT = pair_module(T)
    for s in U.module_summands():
        if not in_fac(s, MT):
            return False
    return True


def silting_leq(U, T):
    """U <= T on the silting side: Hom(T, U[1]) = 0."""
    return hom_homotopy(pair_complex(T), pair_complex(U), 1).dim == 0


# -- complexes ------------------------------------------------------------

def complex_to_pair(T):
    """(M, P-multiplicities) with M = H^0(T), P the shifted summand.

    Stripped, P^-1 is the P^-1 of the minimal presentation of M plus P
    (see `decompose_complex`), whether or not T is presilting.
    """
    alg = T.alg
    T = strip_contractible(T)
    M = complex_h0(T)
    return M, _shifted(
        alg, T.p1, minimal_projective_presentation(M).P1.verts)


def basic_summands(complexes):
    """One representative per isomorphism class of indecomposable
    complexes, in first-seen order."""
    out = []
    for c in complexes:
        if not any(indecomposables_isomorphic(c, d) for d in out):
            out.append(c)
    return out


def minimal_left_approximation(X, T):
    """Minimal left add(T)-approximation of X, as a chain map X -> T'."""
    targets = basic_summands(decompose_complex(T))
    chosen = minimal_left_approximation_summands(X, targets)
    return assemble_left_approximation(X, targets, chosen)
