"""Finite-dimensional right modules over a bound quiver algebra.

A module is a representation: a space at each vertex and a matrix for
each arrow, acting on row vectors along the arrow direction.  A morphism
M -> N is a tuple of vertex matrices F_v with M_a . F_t = F_s . N_a for
every arrow a: s -> t; composition is vertex-wise matrix product.

Maps between sums of indecomposable projectives are also carried
algebraically: Hom(e_u A, e_w A) = e_w A e_u via left multiplication,
so a map of projective sums is a matrix of algebra elements.  The
Nakayama functor sends such a matrix to a map of the corresponding
injective sums, which is what the Auslander-Reiten translation kernel
is computed from.  Both sums lay out their vertex spaces as grids of
corner spaces (`algebra.CornerGrid`), and every map between them, the
arrow actions included, is written by `algebra.add_products`.
"""

from bisect import bisect_right

from .algebra import AlgebraError, CornerGrid, add_products
from .linalg import ExactMatrix, RowSpace
from . import splitting
from .splitting import DecompositionError  # re-exported for callers


class Representation:
    """A right module as a quiver representation; never changed after
    __init__, so it keeps its minimal presentation once computed."""

    __slots__ = ("alg", "dims", "maps", "total_dim", "_pres")

    def __init__(self, alg, dims, maps, validate=True):
        self.alg = alg
        self.dims = tuple(dims)
        if len(self.dims) != alg.n or any(d < 0 for d in self.dims):
            raise AlgebraError("bad dimension vector")
        self.maps = {}
        for ai, arrow in enumerate(alg.arrows):
            m = maps.get(ai)
            if m is None:
                m = ExactMatrix.zero(alg.field, self.dims[arrow.source],
                                     self.dims[arrow.target])
            if (m.nrows, m.ncols) != (self.dims[arrow.source], self.dims[arrow.target]):
                raise AlgebraError(f"arrow {arrow.name!r} matrix has wrong shape")
            self.maps[ai] = m
        self.total_dim = sum(self.dims)
        self._pres = None
        if validate:
            self.check_relations()

    def check_relations(self):
        for rel in self.alg.spec.relations:
            first = next(iter(rel))
            src = self.alg.arrows[first[0]].source
            tgt = self.alg.arrows[first[-1]].target
            acc = ExactMatrix.zero(self.alg.field, self.dims[src], self.dims[tgt])
            for path, c in rel.items():
                acc = acc.add(self.path_matrix_arrows(path).scale(c))
            if not acc.is_zero():
                raise AlgebraError("representation violates a relation")

    def path_matrix_arrows(self, arrow_path):
        """Matrix of acting by a path given as a tuple of arrow indices."""
        if not arrow_path:
            raise ValueError("need a source vertex for the empty path")
        m = self.maps[arrow_path[0]]
        for ai in arrow_path[1:]:
            m = m.mul(self.maps[ai])
        return m

    def path_matrix(self, basis_index):
        """Matrix of acting by a basis path of the algebra."""
        path = self.alg.basis[basis_index]
        v = self.alg.basis_source[basis_index]
        if not path:
            return ExactMatrix.identity(self.alg.field, self.dims[v])
        return self.path_matrix_arrows(path)

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def zero_rep(alg):
    return Representation(alg, (0,) * alg.n, {}, validate=False)


def direct_sum(alg, reps):
    reps = list(reps)
    if not reps:
        return zero_rep(alg)
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(alg.n))
    maps = {ai: _block_diagonal(alg.field, [r.maps[ai] for r in reps])
            for ai in range(len(alg.arrows))}
    return Representation(alg, dims, maps, validate=False)


def _block_diagonal(F, mats):
    """The block-diagonal matrix with the given blocks, in order."""
    rows = []
    ncols = 0
    for m in mats:
        rows.extend({ncols + j: v for j, v in r.items()} for r in m.rows)
        ncols += m.ncols
    return ExactMatrix(F, len(rows), ncols, rows)


# -- morphisms ---------------------------------------------------------

def morphism_compose(alg, f, g):
    """Vertex-wise f then g."""
    return tuple(f[v].mul(g[v]) for v in range(alg.n))


def _morphism_layout(M, N):
    """Coordinates of prod_v k^(dM_v x dN_v): entry (i, j) of F_v is
    coordinate offsets[v] + i * dN_v + j.  Returns (offsets, dimension)."""
    offsets = []
    off = 0
    for dm, dn in zip(M.dims, N.dims):
        offsets.append(off)
        off += dm * dn
    return offsets, off


def _unflatten_morphism(alg, M, N, vec):
    offsets, _ = _morphism_layout(M, N)
    rows = [[{} for _ in range(d)] for d in M.dims]
    for k, val in vec.items():
        # the last block starting at or before k (empty blocks share offsets)
        v = bisect_right(offsets, k) - 1
        i, j = divmod(k - offsets[v], N.dims[v])
        rows[v][i][j] = val
    return tuple(ExactMatrix(alg.field, M.dims[v], N.dims[v], rows[v])
                 for v in range(alg.n))


def hom_space(M, N):
    """Basis of Hom_A(M, N) as a list of morphisms (canonical order)."""
    alg = M.alg
    if alg is not N.alg:
        raise AlgebraError("modules over different algebras")
    F = alg.field
    offsets, nunk = _morphism_layout(M, N)
    rows = []
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        off_s, off_t, dn_s, dn_t = offsets[s], offsets[t], N.dims[s], N.dims[t]
        na_cols = N.maps[ai].transpose().rows
        # M_a . F_t - F_s . N_a = 0, one equation per (i in M_s, j in N_t)
        for i, ma_row in enumerate(M.maps[ai].rows):
            for j in range(dn_t):
                row = {off_t + k * dn_t + j: val for k, val in ma_row.items()}
                for k, nav in na_cols[j].items():
                    key = off_s + i * dn_s + k
                    nv = F.sub(row.get(key, F.zero), nav)
                    if nv == 0:
                        del row[key]
                    else:
                        row[key] = nv
                if row:
                    rows.append(row)
    return [_unflatten_morphism(alg, M, N, vec)
            for vec in RowSpace(F, nunk, rows).kernel()]


# -- standard modules ---------------------------------------------------

def _products(src, dst, d, d_left):
    """Matrix of X -> X.d (d.X when d_left) from the grid src to the grid
    dst, one row per coordinate of dst (`algebra.add_products`)."""
    rows = [{} for _ in range(dst.end)]
    add_products(rows, src, dst, d, d_left)
    return ExactMatrix(src.alg.field, dst.end, src.end, rows)


class _PathSum:
    """A sum of path-basis modules, one summand per vertex in verts.

    grids[v] lays out the space at vertex v, summand by summand; an arrow
    a: v -> w acts by multiplying with a.  Built once per vertex tuple,
    through `of`.
    """

    def __init__(self, alg, verts):
        self.alg = alg
        self.verts = tuple(verts)
        self.grids = [self._grid(v) for v in range(alg.n)]
        one = alg.field.one
        maps = {ai: self._action(a.source, a.target,
                                 {(0, 0): {alg.arrow_elem[ai]: one}})
                for ai, a in enumerate(alg.arrows)}
        self.rep = Representation(alg, [g.end for g in self.grids], maps,
                                  validate=False)

    @classmethod
    def of(cls, alg, verts):
        """The sum over verts, memoized in alg.sum_memo."""
        key = (cls, tuple(verts))
        found = alg.sum_memo.get(key)
        if found is None:
            found = alg.sum_memo[key] = cls(alg, key[1])
        return found


class ProjSum(_PathSum):
    """P = (+) e_{verts[s]} A: at vertex v the grid (verts, (v,)) of the
    corners e_{verts[s]} A e_v, with arrows acting on the right."""

    def _grid(self, v):
        return CornerGrid(self.alg, self.verts, (v,))

    def _action(self, v, w, a):
        # b -> b.a maps the grid at v to the grid at w; rows are the
        # module's row vectors at v, so transpose
        return _products(self.grids[v], self.grids[w], a, False).transpose()

    def realize_alg_map(self, target, entries):
        """Vertex matrices of the map self -> target with algebra entries.

        entries: {(t, s): element of e_{target.verts[t]} A e_{self.verts[s]}},
        acting by left multiplication.
        """
        return tuple(_products(g, target.grids[v], entries, True).transpose()
                     for v, g in enumerate(self.grids))

    def extract_alg_entries(self, target, f):
        """Inverse of realize_alg_map: read algebra entries off generator rows."""
        alg = self.alg
        entries = {}
        for s, u in enumerate(self.verts):
            gen = (self.grids[u].start(s, 0)
                   + alg.corner_pos[alg.idempotent[u]])
            row = f[u].rows[gen]
            for (t, _), e in target.grids[u].vec_to_entries(row).items():
                entries[(t, s)] = e
        return entries


class InjSum(_PathSum):
    """I = (+) D(A e_{verts[s]}): at vertex v the grid ((v,), verts) of the
    dual bases of the corners e_v A e_{verts[s]}."""

    def _grid(self, v):
        return CornerGrid(self.alg, (v,), self.verts)

    def _action(self, v, w, a):
        # dual basis action p^* . a = sum_q <a.q, p> q^*: the rows of q -> a.q
        # from the grid at w to the grid at v
        return _products(self.grids[w], self.grids[v], a, True)


def standard_module(alg, vertex, flavor):
    """P_v, I_v or S_v as a representation."""
    if not 0 <= vertex < alg.n:
        raise AlgebraError(
            f"vertex {vertex} is out of range for an algebra with "
            f"n = {alg.n} vertices")
    if flavor == "projective":
        return ProjSum.of(alg, (vertex,)).rep
    if flavor == "injective":
        return InjSum.of(alg, (vertex,)).rep
    if flavor == "simple":
        dims = tuple(1 if v == vertex else 0 for v in range(alg.n))
        return Representation(alg, dims, {}, validate=False)
    raise ValueError(f"unknown flavor {flavor!r}")


# -- submodules, quotients, radical --------------------------------------

def subrep_from_rows(M, rows_per_vertex):
    """Subrepresentation spanned by given row vectors (must be closed).

    Returns (S, inclusions) with inclusions[v] the RREF basis of S_v as
    rows in M_v.  The RREF has an identity at its pivot columns, so a
    member's coordinates over the basis are its entries there.
    """
    alg = M.alg
    F = alg.field
    spaces = [RowSpace(F, M.dims[v], rows_per_vertex[v]) for v in range(alg.n)]
    basis_mats = [ExactMatrix(F, sp.dim, M.dims[v], sp.reduced)
                  for v, sp in enumerate(spaces)]
    maps = {}
    for ai, arrow in enumerate(alg.arrows):
        target = spaces[arrow.target]
        rows = []
        for img in basis_mats[arrow.source].mul(M.maps[ai]).rows:
            if not target.contains(img):
                raise AlgebraError("rows do not span a subrepresentation")
            rows.append({k: img[p] for k, p in enumerate(target.pivots)
                         if p in img})
        maps[ai] = ExactMatrix(F, len(rows), target.dim, rows)
    sub = Representation(alg, (sp.dim for sp in spaces), maps, validate=False)
    return sub, tuple(basis_mats)


def quotient_rep(M, sub_rows):
    """Quotient of M by the subrepresentation spanned by sub_rows.

    Returns (Q, projections) with projections[v]: M_v -> Q_v.
    """
    alg = M.alg
    F = alg.field
    spaces = [RowSpace(F, M.dims[v], sub_rows[v]) for v in range(alg.n)]
    free = [sp.free_cols() for sp in spaces]
    dims = tuple(len(fr) for fr in free)
    projs = []
    for v in range(alg.n):
        sp, fr = spaces[v], free[v]
        colpos = {c: k for k, c in enumerate(fr)}
        rows = []
        for i in range(M.dims[v]):
            red = sp.reduce({i: F.one})
            rows.append({colpos[c]: val for c, val in red.items()})
        projs.append(ExactMatrix(F, M.dims[v], dims[v], rows))
    maps = {}
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        # lift the free coordinates, push along the arrow, project
        lifted = [M.maps[ai].rows[c] for c in free[s]]
        maps[ai] = ExactMatrix(F, dims[s], M.dims[t], lifted).mul(projs[t])
    return Representation(alg, dims, maps, validate=False), tuple(projs)


def radical_rows(M):
    """Row spans of M.rad = M J at each vertex."""
    alg = M.alg
    out = []
    for v in range(alg.n):
        rows = []
        for ai, arrow in enumerate(alg.arrows):
            if arrow.target == v:
                rows.extend(M.maps[ai].rows)
        out.append(rows)
    return out


# -- projective covers and presentations ---------------------------------

def projective_cover(M):
    """(P: ProjSum, c: morphism P.rep -> M) with P the projective cover."""
    alg = M.alg
    F = alg.field
    rad = radical_rows(M)
    gens = [(v, c) for v in range(alg.n)
            for c in RowSpace(F, M.dims[v], rad[v]).free_cols()]
    P = ProjSum.of(alg, [v for v, _ in gens])
    # summand (u, c) sends its generator e_u to the unit vector at c, so
    # it sends a basis path b from u to row c of M.path_matrix(b)
    acts = {}
    cover = []
    for w in range(alg.n):
        rows = []
        for u, c in gens:
            for b in alg.corner_basis(u, w):
                if b not in acts:
                    acts[b] = M.path_matrix(b)
                rows.append(acts[b].rows[c])
        cover.append(ExactMatrix(F, len(rows), M.dims[w], rows))
    return P, tuple(cover)


def kernel_subrep(alg, M, f):
    """Kernel of f: M -> N as (K, inclusion row matrices K_v -> M_v)."""
    K_rows = [f[v].left_kernel_rows() for v in range(alg.n)]
    return subrep_from_rows(M, [m.rows for m in K_rows])


class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0.

    `complex` is its two-term complex, set by the first
    `twoterm.presentation_complex` of M and kept for M's later calls."""

    __slots__ = ("P1", "P0", "entries", "complex")

    def __init__(self, P1, P0, entries):
        self.P1 = P1
        self.P0 = P0
        self.entries = entries  # algebra-entry matrix {(t, s): elem}
        self.complex = None


def minimal_projective_presentation(M):
    """Projective covers of M and of the cover's kernel, once per M."""
    if M._pres is None:
        P0, cover = projective_cover(M)
        K, incl = kernel_subrep(M.alg, P0.rep, cover)
        P1, cover1 = projective_cover(K)
        f = tuple(cover1[v].mul(incl[v]) for v in range(M.alg.n))
        M._pres = Presentation(P1, P0, P1.extract_alg_entries(P0, f))
    return M._pres


def nakayama_map(alg, P1, P0, entries):
    """nu of an algebra-entry map of projective sums, realized on injectives.

    nu(left mult by c): I_u -> I_w sends p^* to sum_q <q.c, p> q^*, so its
    rows are those of q -> q.c from the grids of I0 to those of I1.
    Returns (I1, I0, morphism I1.rep -> I0.rep).
    """
    I1 = InjSum.of(alg, P1.verts)
    I0 = InjSum.of(alg, P0.verts)
    return I1, I0, tuple(_products(g, I1.grids[v], entries, False)
                         for v, g in enumerate(I0.grids))


def tau(M):
    """Auslander-Reiten translation: kernel of nu(P1) -> nu(P0)."""
    pres = minimal_projective_presentation(M)
    I1, I0, nf = nakayama_map(M.alg, pres.P1, pres.P0, pres.entries)
    K, _ = kernel_subrep(M.alg, I1.rep, nf)
    return K


# -- Krull-Schmidt decomposition -----------------------------------------

def decompose(M):
    """Indecomposable direct summands of M (with repetition), recursively.

    Needs the rationals: splitting factors minimal polynomials over Q,
    takes exact Bezout idempotents in End(M) and certifies a summand
    indecomposable by its local End (see `splitting`).  Raises
    DecompositionError when End(M) is neither split nor certified local.
    """
    alg = M.alg
    if alg.field.characteristic != 0:
        raise AlgebraError("decompose requires the rationals")
    if M.total_dim == 0:
        return []
    ends = hom_space(M, M)
    if len(ends) == 1:
        return [M]
    # each endomorphism on the total space of M
    mats = [_block_diagonal(alg.field, f) for f in ends]
    e = splitting.find_idempotent(alg.field, mats, M.total_dim)
    if e is None:
        return [M]
    out = []
    for part in (e, ExactMatrix.identity(alg.field, M.total_dim).sub(e)):
        sub, _ = subrep_from_rows(M, _vertex_rows(M, part))
        if sub.total_dim == 0 or sub.total_dim == M.total_dim:
            raise DecompositionError("idempotent produced a trivial split")
        out.extend(decompose(sub))
    out.sort(key=lambda r: (r.total_dim, r.dims))
    return out


def _vertex_rows(M, e):
    """Rows of the vertex blocks of a block-diagonal total-space matrix."""
    out = []
    off = 0
    for d in M.dims:
        out.append([{j - off: val for j, val in e.rows[off + i].items()}
                    for i in range(d)])
        off += d
    return out


def group_by_iso(reps):
    """Group a list of indecomposable representations into iso classes
    with multiplicity."""
    groups = []
    for r in reps:
        for g in groups:
            if indecomposables_isomorphic(g[0], r):
                g[1] += 1
                break
        else:
            groups.append([r, 1])
    return [(g[0], g[1]) for g in groups]


def modules_isomorphic(M, N):
    """Exact isomorphism test: a Krull-Schmidt match of the indecomposable
    summands of M and N (so, like `decompose`, over the rationals)."""
    return M.dims == N.dims and summands_match(decompose(M), decompose(N))


def summands_match(xs, ys):
    """Whether two lists of indecomposables agree up to isomorphism and
    order."""
    unmatched = list(ys)
    for X in xs:
        for i, Y in enumerate(unmatched):
            if indecomposables_isomorphic(X, Y):
                del unmatched[i]
                break
        else:
            return False
    return not unmatched


def indecomposables_isomorphic(X, Y):
    """Isomorphism of X and Y, each indecomposable or zero, over any field:
    some composite g.f of basis maps f: X -> Y, g: Y -> X is invertible.

    End X is local, so its non-units form the subspace rad End X.  An
    isomorphism puts the identity in the span of the composites, so they
    are not all non-units; conversely an invertible g.f makes X a summand
    of the indecomposable Y.
    """
    if X.dims != Y.dims:
        return False
    if X.total_dim == 0:
        return True
    alg = X.alg
    back = hom_space(Y, X)
    if not back:
        return False
    for f in hom_space(X, Y):
        for g in back:
            fg = morphism_compose(alg, f, g)
            if all(fg[v].rank() == X.dims[v] for v in range(alg.n)):
                return True
    return False
