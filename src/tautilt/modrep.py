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
    F = alg.field
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(alg.n))
    maps = {}
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        rows = [{} for _ in range(dims[s])]
        roff, coff = 0, 0
        for r in reps:
            m = r.maps[ai]
            for i in range(m.nrows):
                for j, v in m.rows[i].items():
                    rows[roff + i][coff + j] = v
            roff += r.dims[s]
            coff += r.dims[t]
        maps[ai] = ExactMatrix(F, dims[s], dims[t], rows)
    return Representation(alg, dims, maps, validate=False)


# -- morphisms ---------------------------------------------------------

def morphism_compose(alg, f, g):
    """Vertex-wise f then g."""
    return tuple(f[v].mul(g[v]) for v in range(alg.n))


def morphism_add(f, g):
    return tuple(a.add(b) for a, b in zip(f, g))


def morphism_scale(c, f):
    return tuple(m.scale(c) for m in f)


def _flatten_morphism(alg, M, N, f):
    """Deterministic coordinates of a morphism inside prod_v k^(dM_v x dN_v)."""
    vec = {}
    off = 0
    for v in range(alg.n):
        for i in range(M.dims[v]):
            row = f[v].rows[i]
            for j, val in row.items():
                vec[off + i * N.dims[v] + j] = val
        off += M.dims[v] * N.dims[v]
    return vec


def _morphism_space_dim(M, N):
    return sum(dm * dn for dm, dn in zip(M.dims, N.dims))


def _unflatten_morphism(alg, M, N, vec):
    mats = []
    off = 0
    for v in range(alg.n):
        rows = [{} for _ in range(M.dims[v])]
        block = M.dims[v] * N.dims[v]
        for k, val in vec.items():
            if off <= k < off + block:
                i, j = divmod(k - off, N.dims[v])
                rows[i][j] = val
        mats.append(ExactMatrix(alg.field, M.dims[v], N.dims[v], rows))
        off += block
    return tuple(mats)


def hom_space(M, N):
    """Basis of Hom_A(M, N) as a list of morphisms (canonical order)."""
    alg = M.alg
    if alg is not N.alg:
        raise AlgebraError("modules over different algebras")
    F = alg.field
    nunk = _morphism_space_dim(M, N)
    offsets = []
    off = 0
    for v in range(alg.n):
        offsets.append(off)
        off += M.dims[v] * N.dims[v]

    def unk(v, i, j):
        return offsets[v] + i * N.dims[v] + j

    rows = []
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        Ma, Na = M.maps[ai], N.maps[ai]
        # M_a . F_t - F_s . N_a = 0, one equation per (i in M_s, j in N_t)
        for i in range(M.dims[s]):
            for j in range(N.dims[t]):
                row = {}
                for k, val in Ma.rows[i].items():
                    row[unk(t, k, j)] = F.add(row.get(unk(t, k, j), F.zero), val)
                # - F_s . N_a contribution: entries F_s[i, k] * N_a[k, j]
                for k in range(N.dims[s]):
                    nav = Na.rows[k].get(j)
                    if nav is not None:
                        key = unk(s, i, k)
                        cur = row.get(key, F.zero)
                        nv = F.sub(cur, nav)
                        if nv == 0:
                            row.pop(key, None)
                        else:
                            row[key] = nv
                if row:
                    rows.append(row)
    mat = ExactMatrix.from_row_dicts(F, len(rows), nunk, rows)
    ker = mat.right_kernel_basis()
    out = []
    for k in range(ker.ncols):
        vec = {i: ker.rows[i][k] for i in range(nunk) if k in ker.rows[i]}
        out.append(_unflatten_morphism(alg, M, N, vec))
    return out


# -- standard modules ---------------------------------------------------

class ProjSum:
    """P = (+) e_{verts[s]} A with an explicit path-basis layout."""

    def __init__(self, alg, verts):
        self.alg = alg
        self.verts = tuple(verts)
        self.layout = [[] for _ in range(alg.n)]  # vertex -> [(summand, basis idx)]
        for s, u in enumerate(self.verts):
            for b in range(alg.dim):
                if alg.basis_source[b] == u:
                    self.layout[alg.basis_target[b]].append((s, b))
        for v in range(alg.n):
            self.layout[v].sort()
        self.pos = [
            {sb: i for i, sb in enumerate(self.layout[v])} for v in range(alg.n)]
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
        self.layout = [[] for _ in range(alg.n)]  # vertex -> [(summand, basis idx)]
        for s, u in enumerate(self.verts):
            for b in range(alg.dim):
                if alg.basis_target[b] == u:
                    self.layout[alg.basis_source[b]].append((s, b))
        for v in range(alg.n):
            self.layout[v].sort()
        self.pos = [
            {sb: i for i, sb in enumerate(self.layout[v])} for v in range(alg.n)]
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
    """Subrepresentation spanned by given row vectors (must be closed)."""
    alg = M.alg
    F = alg.field
    spaces = [RowSpace(F, M.dims[v], rows_per_vertex[v]) for v in range(alg.n)]
    basis_mats = [
        ExactMatrix.from_row_dicts(F, sp.dim, M.dims[v], sp.reduced)
        for v, sp in enumerate(spaces)]
    dims = tuple(sp.dim for sp in spaces)
    maps = {}
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        img = basis_mats[s].mul(M.maps[ai])
        sol = basis_mats[t].solve_left(img)
        if sol is None:
            raise AlgebraError("rows do not span a subrepresentation")
        maps[ai] = sol
    sub = Representation(alg, dims, maps, validate=False)
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
        rows = []
        for c in free[s]:
            # lift the free coordinate, push along the arrow, project
            img_row = M.maps[ai].rows[c]
            acc = {}
            for j, val in img_row.items():
                for k, pv in projs[t].rows[j].items():
                    cur = acc.get(k, F.zero)
                    nv = F.add(cur, F.mul(val, pv))
                    if nv == 0:
                        acc.pop(k, None)
                    else:
                        acc[k] = nv
            rows.append(acc)
        maps[ai] = ExactMatrix(F, dims[s], dims[t], rows)
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
    verts = []
    gens = []  # (vertex, chosen generator row vector)
    for v in range(alg.n):
        sp = RowSpace(F, M.dims[v], rad[v])
        for c in sp.free_cols():
            verts.append(v)
            gens.append((v, {c: F.one}))
    P = ProjSum(alg, verts)
    mats = []
    for v in range(alg.n):
        rows = [{} for _ in range(len(P.layout[v]))]
        mats.append(rows)
    for s, (u, gen) in enumerate(gens):
        # generator e_u -> gen; basis path b: u -> w  ->  gen . (action of b)
        for b in range(alg.dim):
            if alg.basis_source[b] != u:
                continue
            w = alg.basis_target[b]
            act = M.path_matrix(b)
            img = {}
            for i, val in gen.items():
                for j, mv in act.rows[i].items():
                    cur = img.get(j, F.zero)
                    nv = F.add(cur, F.mul(val, mv))
                    if nv == 0:
                        img.pop(j, None)
                    else:
                        img[j] = nv
            mats[w][P.pos[w][(s, b)]] = img
    cover = tuple(
        ExactMatrix(F, len(P.layout[v]), M.dims[v], mats[v]) for v in range(alg.n))
    return P, cover


def kernel_subrep(alg, M, f):
    """Kernel of f: M -> N as (K, inclusion row matrices K_v -> M_v)."""
    K_rows = [f[v].left_kernel_rows() for v in range(alg.n)]
    return subrep_from_rows(M, [m.rows for m in K_rows])


class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0."""

    __slots__ = ("P1", "P0", "entries", "f", "cover")

    def __init__(self, P1, P0, entries, f, cover):
        self.P1 = P1
        self.P0 = P0
        self.entries = entries  # algebra-entry matrix {(t, s): elem}
        self.f = f              # realized morphism P1.rep -> P0.rep
        self.cover = cover      # morphism P0.rep -> M


def minimal_projective_presentation(M):
    """Projective cover of M and of the kernel of the cover."""
    alg = M.alg
    P0, cover = projective_cover(M)
    K, incl = kernel_subrep(alg, P0.rep, cover)
    P1, cover1 = projective_cover(K)
    f = tuple(cover1[v].mul(incl[v]) for v in range(alg.n))
    entries = P1.extract_alg_entries(P0, f)
    return Presentation(P1, P0, entries, f, cover)


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
    rank = RowSpace(alg.field, _morphism_space_dim(K, N), vecs).dim
    return len(homKN) - rank


def injective_envelope(M):
    """(E: InjSum, embedding morphism M -> E.rep)."""
    alg = M.alg
    F = alg.field
    soc = socle_rows(M)
    soc_spaces = [RowSpace(F, M.dims[v], soc[v]) for v in range(alg.n)]
    verts = []
    gens = []  # (vertex, socle row index within the reduced socle basis)
    for v in range(alg.n):
        for k in range(soc_spaces[v].dim):
            verts.append(v)
            gens.append((v, k))
    E = InjSum(alg, verts)
    homs = hom_space(M, E.rep)
    # conditions: k-th socle basis vector at v maps to the socle coordinate
    # e_v^* of its own summand of E; solve for coefficients over the hom basis
    conds = []
    for s, (v, k) in enumerate(gens):
        x = soc_spaces[v].reduced[k]
        target_pos = E.pos[v][(s, alg.idempotent[v])]
        conds.append((v, x, target_pos))
    eqs = []
    for (v, x, tpos) in conds:
        # one equation per coordinate of E_v
        img_per_h = []
        for h in homs:
            acc = {}
            for i, val in x.items():
                for j, hv in h[v].rows[i].items():
                    cur = acc.get(j, F.zero)
                    nv = F.add(cur, F.mul(val, hv))
                    if nv == 0:
                        acc.pop(j, None)
                    else:
                        acc[j] = nv
            img_per_h.append(acc)
        for col in range(E.rep.dims[v]):
            row = {}
            for ci, acc in enumerate(img_per_h):
                if col in acc:
                    row[ci] = acc[col]
            want = F.one if col == tpos else F.zero
            eqs.append((row, want))
    A = ExactMatrix.from_row_dicts(F, len(eqs), len(homs), [r for r, _ in eqs])
    b = ExactMatrix.from_row_dicts(
        F, len(eqs), 1, [{0: w} if w != 0 else {} for _, w in eqs])
    sol = A.solve_right(b)
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
    rank = RowSpace(alg.field, _morphism_space_dim(M, N), vecs).dim
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

def _endo_total_matrix(alg, M, f):
    """Block-diagonal matrix of an endomorphism on the total space of M."""
    F = alg.field
    total = M.total_dim
    rows = [{} for _ in range(total)]
    off = 0
    for v in range(alg.n):
        for i in range(M.dims[v]):
            for j, val in f[v].rows[i].items():
                rows[off + i][off + j] = val
        off += M.dims[v]
    return ExactMatrix(F, total, total, rows)


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
    mats = [_endo_total_matrix(alg, M, f) for f in ends]
    e = splitting.find_idempotent(alg.field, mats, M.total_dim)
    if e is None:
        return [M]
    emorph = _total_to_vertexwise(alg, M, e)
    out = []
    for part in (emorph, _complement(alg, M, emorph)):
        rows = [part[v].row_space_rows().rows for v in range(alg.n)]
        sub, _ = subrep_from_rows(M, rows)
        if sub.total_dim == 0 or sub.total_dim == M.total_dim:
            raise DecompositionError("idempotent produced a trivial split")
        out.extend(decompose(sub))
    out.sort(key=lambda r: (r.total_dim, r.dims))
    return out


def _total_to_vertexwise(alg, M, e):
    mats = []
    off = 0
    for v in range(alg.n):
        d = M.dims[v]
        rows = [{} for _ in range(d)]
        for i in range(d):
            for j, val in e.rows[off + i].items():
                rows[i][j - off] = val
        mats.append(ExactMatrix(alg.field, d, d, rows))
        off += d
    return tuple(mats)


def _complement(alg, M, emorph):
    return tuple(
        ExactMatrix.identity(alg.field, M.dims[v]).sub(emorph[v])
        for v in range(alg.n))


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
