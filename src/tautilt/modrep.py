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
is computed from.
"""

from bisect import bisect_right

from .algebra import AlgebraError
from .linalg import ExactMatrix, RowSpace
from . import splitting
from .splitting import DecompositionError  # re-exported for callers


class Representation:
    """A right module as a quiver representation."""

    __slots__ = ("alg", "dims", "maps", "total_dim")

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

    def is_zero(self):
        return self.total_dim == 0

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


def morphism_add(f, g):
    return tuple(a.add(b) for a, b in zip(f, g))


def morphism_scale(c, f):
    return tuple(m.scale(c) for m in f)


def _morphism_layout(M, N):
    """Coordinates of prod_v k^(dM_v x dN_v): entry (i, j) of F_v is
    coordinate offsets[v] + i * dN_v + j.  Returns (offsets, dimension)."""
    offsets = []
    off = 0
    for dm, dn in zip(M.dims, N.dims):
        offsets.append(off)
        off += dm * dn
    return offsets, off


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

def _path_layout(alg, verts, ends, places):
    """Layout of a sum of path-basis modules, one summand per vertex in
    verts: summand s holds the basis paths b with ends[b] == verts[s],
    each at vertex places[b].  Returns (layout, pos): layout[v] lists the
    (summand, path) pairs at v in order, pos[v] maps each to its index.
    """
    layout = [[] for _ in range(alg.n)]
    for s, u in enumerate(verts):
        for b in range(alg.dim):
            if ends[b] == u:
                layout[places[b]].append((s, b))
    return layout, [{sb: i for i, sb in enumerate(lay)} for lay in layout]


class ProjSum:
    """P = (+) e_{verts[s]} A with an explicit path-basis layout."""

    def __init__(self, alg, verts):
        self.alg = alg
        self.verts = tuple(verts)
        self.layout, self.pos = _path_layout(
            alg, self.verts, alg.basis_source, alg.basis_target)
        self.rep = self._build_rep()

    def _build_rep(self):
        alg = self.alg
        F = alg.field
        dims = tuple(len(self.layout[v]) for v in range(alg.n))
        maps = {}
        for ai, arrow in enumerate(alg.arrows):
            v, w = arrow.source, arrow.target
            a_elem_idx = alg.arrow_elem[ai]
            rows = [{} for _ in range(dims[v])]
            for i, (s, b) in enumerate(self.layout[v]):
                prod = alg.mult_table.get((b, a_elem_idx))
                if not prod:
                    continue
                for b2, c in prod.items():
                    rows[i][self.pos[w][(s, b2)]] = c
            maps[ai] = ExactMatrix(F, dims[v], dims[w], rows)
        return Representation(alg, dims, maps, validate=False)

    def generator_position(self, s):
        """Position of the summand generator e_u in the layout at its vertex."""
        u = self.verts[s]
        return u, self.pos[u][(s, self.alg.idempotent[u])]

    def realize_alg_map(self, target, entries):
        """Vertex matrices of the map self -> target with algebra entries.

        entries: {(t, s): element of e_{target.verts[t]} A e_{self.verts[s]}}.
        """
        alg = self.alg
        F = alg.field
        mats = []
        for v in range(alg.n):
            rows = [{} for _ in range(len(self.layout[v]))]
            for i, (s, b) in enumerate(self.layout[v]):
                for (t, s2), c in entries.items():
                    if s2 != s or not c:
                        continue
                    img = alg.elem_mul(c, {b: F.one})
                    for b2, val in img.items():
                        key = target.pos[v][(t, b2)]
                        cur = rows[i].get(key, F.zero)
                        nv = F.add(cur, val)
                        if nv == 0:
                            rows[i].pop(key, None)
                        else:
                            rows[i][key] = nv
            mats.append(ExactMatrix(F, len(self.layout[v]), len(target.layout[v]), rows))
        return tuple(mats)

    def extract_alg_entries(self, target, f):
        """Inverse of realize_alg_map: read algebra entries off generator rows."""
        alg = self.alg
        entries = {}
        for s in range(len(self.verts)):
            u, gpos = self.generator_position(s)
            row = f[u].rows[gpos]
            for col, val in row.items():
                t, b = target.layout[u][col]
                entries.setdefault((t, s), {})[b] = val
        return entries


class InjSum:
    """I = (+) D(A e_{verts[s]}) on the dual path basis."""

    def __init__(self, alg, verts):
        self.alg = alg
        self.verts = tuple(verts)
        self.layout, self.pos = _path_layout(
            alg, self.verts, alg.basis_target, alg.basis_source)
        self.rep = self._build_rep()

    def _build_rep(self):
        # dual basis action: p^* . a = sum_q <a.q, p> q^*
        alg = self.alg
        F = alg.field
        dims = tuple(len(self.layout[v]) for v in range(alg.n))
        maps = {}
        for ai, arrow in enumerate(alg.arrows):
            v, w = arrow.source, arrow.target
            a_elem_idx = alg.arrow_elem[ai]
            rows = [{} for _ in range(dims[v])]
            for jcol, (s, q) in enumerate(self.layout[w]):
                prod = alg.mult_table.get((a_elem_idx, q))
                if not prod:
                    continue
                for p, c in prod.items():
                    key = self.pos[v].get((s, p))
                    if key is not None:
                        rows[key][jcol] = c
            maps[ai] = ExactMatrix(F, dims[v], dims[w], rows)
        return Representation(alg, dims, maps, validate=False)


def standard_module(alg, vertex, flavor):
    """P_v, I_v or S_v as a representation."""
    if flavor == "projective":
        return ProjSum(alg, (vertex,)).rep
    if flavor == "injective":
        return InjSum(alg, (vertex,)).rep
    if flavor == "simple":
        dims = tuple(1 if v == vertex else 0 for v in range(alg.n))
        return Representation(alg, dims, {}, validate=False)
    raise ValueError(f"unknown flavor {flavor!r}")


# -- submodules, quotients, radical, socle -------------------------------

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
        stacked = ExactMatrix.hstack(F, outgoing, nrows=M.dims[v])
        out.append(stacked.left_kernel_rows().rows)
    return out


# -- projective covers and presentations ---------------------------------

def projective_cover(M):
    """(P: ProjSum, c: morphism P.rep -> M) with P the projective cover."""
    alg = M.alg
    F = alg.field
    rad = radical_rows(M)
    gens = [(v, c) for v in range(alg.n)
            for c in RowSpace(F, M.dims[v], rad[v]).free_cols()]
    P = ProjSum(alg, [v for v, _ in gens])
    # summand s sends its generator e_u to the unit vector at gens[s][1],
    # so it sends a basis path b from u to row gens[s][1] of M.path_matrix(b)
    acts = {}
    cover = []
    for w, layout in enumerate(P.layout):
        rows = []
        for s, b in layout:
            if b not in acts:
                acts[b] = M.path_matrix(b)
            rows.append(acts[b].rows[gens[s][1]])
        cover.append(ExactMatrix(F, len(rows), M.dims[w], rows))
    return P, tuple(cover)


def kernel_subrep(alg, M, f):
    """Kernel of f: M -> N as (K, inclusion row matrices K_v -> M_v)."""
    K_rows = [f[v].left_kernel_rows() for v in range(alg.n)]
    return subrep_from_rows(M, [m.rows for m in K_rows])


class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0."""

    __slots__ = ("P1", "P0", "entries")

    def __init__(self, P1, P0, entries):
        self.P1 = P1
        self.P0 = P0
        self.entries = entries  # algebra-entry matrix {(t, s): elem}


def minimal_projective_presentation(M):
    """Projective cover of M and of the kernel of the cover."""
    alg = M.alg
    P0, cover = projective_cover(M)
    K, incl = kernel_subrep(alg, P0.rep, cover)
    P1, cover1 = projective_cover(K)
    f = tuple(cover1[v].mul(incl[v]) for v in range(alg.n))
    return Presentation(P1, P0, P1.extract_alg_entries(P0, f))


def nakayama_map(alg, P1, P0, entries):
    """nu of an algebra-entry map of projective sums, realized on injectives.

    nu(left mult by c): I_u -> I_w sends p^* to sum_q <q.c, p> q^*.
    Returns (I1, I0, morphism I1.rep -> I0.rep).
    """
    F = alg.field
    I1 = InjSum(alg, P1.verts)
    I0 = InjSum(alg, P0.verts)
    mats = []
    for v in range(alg.n):
        rows = [{} for _ in range(len(I1.layout[v]))]
        for jcol, (t, q) in enumerate(I0.layout[v]):
            for (t2, s), c in entries.items():
                if t2 != t or not c:
                    continue
                img = alg.elem_mul({q: F.one}, c)  # q . c, a path v -> verts[s]
                for p, val in img.items():
                    key = I1.pos[v].get((s, p))
                    if key is not None:
                        cur = rows[key].get(jcol, F.zero)
                        nv = F.add(cur, val)
                        if nv == 0:
                            rows[key].pop(jcol, None)
                        else:
                            rows[key][jcol] = nv
        mats.append(ExactMatrix(F, len(I1.layout[v]), len(I0.layout[v]), rows))
    return I1, I0, tuple(mats)


def tau(M):
    """Auslander-Reiten translation: kernel of nu(P1) -> nu(P0)."""
    pres = minimal_projective_presentation(M)
    I1, I0, nf = nakayama_map(M.alg, pres.P1, pres.P0, pres.entries)
    K, _ = kernel_subrep(M.alg, I1.rep, nf)
    return K


def ext1_dim(M, N):
    """dim Ext^1(M, N) from 0 -> K -> P0 -> M -> 0."""
    alg = M.alg
    P0, cover = projective_cover(M)
    K, incl = kernel_subrep(alg, P0.rep, cover)
    homKN = hom_space(K, N)
    homP0N = hom_space(P0.rep, N)
    restricted = [tuple(incl[v].mul(g[v]) for v in range(alg.n)) for g in homP0N]
    vecs = [_flatten_morphism(alg, K, N, r) for r in restricted]
    rank = RowSpace(alg.field, _morphism_layout(K, N)[1], vecs).dim
    return len(homKN) - rank


def injective_envelope(M):
    """(E: InjSum, embedding morphism M -> E.rep)."""
    alg = M.alg
    F = alg.field
    socs = [ExactMatrix(F, len(rows), M.dims[v], rows).row_space_rows()
            for v, rows in enumerate(socle_rows(M))]
    E = InjSum(alg, [v for v in range(alg.n) for _ in range(socs[v].nrows)])
    homs = hom_space(M, E.rep)
    # the k-th socle basis vector at v, summand s of E, must map to the
    # socle coordinate e_v^* of summand s: one equation per coordinate of
    # E_v in the coefficients over the hom basis
    eqs, want = [], []
    s = 0
    for v, soc in enumerate(socs):
        images = [soc.mul(h[v]).rows for h in homs]
        for k in range(soc.nrows):
            tpos = E.pos[v][(s, alg.idempotent[v])]
            for col in range(E.rep.dims[v]):
                eqs.append({ci: img[k][col] for ci, img in enumerate(images)
                            if col in img[k]})
                want.append({0: F.one} if col == tpos else {})
            s += 1
    sol = ExactMatrix(F, len(eqs), len(homs), eqs).solve_right(
        ExactMatrix(F, len(eqs), 1, want))
    if sol is None:
        raise AssertionError("injective envelope embedding must exist")
    emb = None
    for ci in range(len(homs)):
        c = sol.rows[ci].get(0)
        if not c:
            continue
        term = morphism_scale(c, homs[ci])
        emb = term if emb is None else morphism_add(emb, term)
    if emb is None:
        emb = tuple(ExactMatrix.zero(F, M.dims[v], E.rep.dims[v])
                    for v in range(alg.n))
    return E, emb


def stable_hom_dim(M, N):
    """dim of Hom(M, N) modulo maps factoring through an injective.

    Factorization is tested through the injective envelope of M: any map
    through an injective extends along the essential embedding, so the
    quotient by { g . emb : g in Hom(E(M), N) } is the costable Hom.
    """
    alg = M.alg
    homMN = hom_space(M, N)
    if not homMN:
        return 0
    E, emb = injective_envelope(M)
    homEN = hom_space(E.rep, N)
    vecs = []
    for g in homEN:
        comp = morphism_compose(alg, emb, g)
        vecs.append(_flatten_morphism(alg, M, N, comp))
    rank = RowSpace(alg.field, _morphism_layout(M, N)[1], vecs).dim
    return len(homMN) - rank


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
