"""Brute-force ground truth over a prime field, for tiny algebras only.

Everything here is deliberately independent of the module and complex
machinery used by the main engine: its own dense mod-p linear algebra,
modules as plain integer matrix tuples, isomorphism by exhaustive base
change, indecomposability by enumerating idempotent endomorphisms, and
the translate of a module computed directly from the definition (dual
path bases of injectives, kernel of the induced map on a minimal
presentation).  Agreement of this module with the main engine on the
test corpus is the package's principal correctness evidence, so meaning
requires non-shared code.  Only the algebra presentation itself (path
basis, structure constants) is shared plumbing.
"""

import itertools

from .algebra import BoundQuiverAlgebra, QuiverSpec
from .fields import PrimeField

CANDIDATE_CEILING = 10 ** 8
SEARCH_CEILING = 10 ** 6


class OracleError(RuntimeError):
    pass


class OracleConfig:
    def __init__(self, dim_bound, p=2):
        self.dim_bound = tuple(dim_bound)
        self.p = p


def algebra_mod_p(alg, p):
    """Rebuild a bound quiver algebra given over Q or GF(p) as one over
    GF(p).  A relation coefficient that vanishes mod p or has p in its
    denominator, and a field GF(q) with q != p, would give another
    algebra; each raises OracleError."""
    field = PrimeField(p)
    F = alg.field
    if F.characteristic not in (0, p):
        raise OracleError(f"an algebra over {F!r} has no reduction mod {p}")
    spec = alg.spec
    relations = []
    for rel in spec.relations:
        terms = []
        for path, coeff in rel.items():
            names = [spec.arrows[i].name for i in path]
            if F.characteristic == 0:
                den = coeff.denominator % p
                if den == 0:
                    raise OracleError("relation coefficient has p in "
                                      "its denominator")
                c = (coeff.numerator * pow(den, -1, p)) % p
                if c == 0:
                    raise OracleError(
                        f"relation coefficient {F.to_string(coeff)} of "
                        f"{'*'.join(names)} vanishes mod {p}")
            else:
                c = coeff
            terms.append((c, names))
        relations.append(terms)
    new_spec = QuiverSpec(
        field, list(spec.vertices),
        [(a.name, spec.vertices[a.source], spec.vertices[a.target])
         for a in spec.arrows],
        relations, spec.path_length_bound)
    return BoundQuiverAlgebra(new_spec)


# -- tiny dense mod-p linear algebra --------------------------------------

def _rref(rows, ncols, p):
    """Dense in-place RREF; returns (rank, pivot columns)."""
    rows[:] = [list(r) for r in rows]
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    del rows[rank:]
    return rank, pivots


def _nullspace(rows, ncols, p):
    """Basis vectors of the right kernel of a dense system."""
    work = [list(r) for r in rows]
    rank, pivots = _rref(work, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-work[r][free]) % p
        basis.append(vec)
    return basis


def _matmul(a, b, p):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt]
            for row in a]


def _is_invertible(m, p):
    n = len(m)
    if n == 0:
        return True
    work = [list(r) for r in m]
    rank, _ = _rref(work, n, p)
    return rank == n


# -- modules --------------------------------------------------------------

class OracleModule:
    """dims + per-arrow integer matrices over GF(p)."""

    __slots__ = ("alg", "dims", "mats")

    def __init__(self, alg, dims, mats):
        self.alg = alg
        self.dims = tuple(dims)
        self.mats = tuple(tuple(tuple(r) for r in m) for m in mats)

    def total_dim(self):
        return sum(self.dims)


def _path_action(M, path, p):
    """Matrix of a path (tuple of arrow indices) acting on M.

    Tracks target dimensions explicitly so zero-dimensional intermediate
    spaces still produce zero matrices of the right shape.
    """
    alg = M.alg
    nrows = M.dims[alg.arrows[path[0]].source]
    m = [list(r) for r in M.mats[path[0]]]
    cur = alg.arrows[path[0]].target
    for ai in path[1:]:
        nxt = alg.arrows[ai].target
        if M.dims[cur] == 0:
            m = [[0] * M.dims[nxt] for _ in range(nrows)]
        else:
            m = _matmul(m, [list(r) for r in M.mats[ai]], p)
            if not m:
                m = [[0] * M.dims[nxt] for _ in range(nrows)]
        cur = nxt
    return m


def _satisfies_relations(M, p):
    alg = M.alg
    for rel in alg.spec.relations:
        first = next(iter(rel))
        s = alg.arrows[first[0]].source
        t = alg.arrows[first[-1]].target
        acc = [[0] * M.dims[t] for _ in range(M.dims[s])]
        for path, c in rel.items():
            act = _path_action(M, path, p)
            for i in range(M.dims[s]):
                for j in range(M.dims[t]):
                    acc[i][j] = (acc[i][j] + c * act[i][j]) % p
        if any(v % p for row in acc for v in row):
            return False
    return True


def _hom_basis(M, N, p):
    """Basis of Hom(M, N) as tuples of vertex matrices."""
    alg = M.alg
    offs = []
    off = 0
    for v in range(alg.n):
        offs.append(off)
        off += M.dims[v] * N.dims[v]
    nunk = off

    def unk(v, i, j):
        return offs[v] + i * N.dims[v] + j

    rows = []
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        Ma, Na = M.mats[ai], N.mats[ai]
        for i in range(M.dims[s]):
            for j in range(N.dims[t]):
                row = [0] * nunk
                for k in range(M.dims[t]):
                    row[unk(t, k, j)] = (row[unk(t, k, j)] + Ma[i][k]) % p
                for k in range(N.dims[s]):
                    row[unk(s, i, k)] = (row[unk(s, i, k)] - Na[k][j]) % p
                if any(row):
                    rows.append(row)
    basis = _nullspace(rows, nunk, p)
    out = []
    for vec in basis:
        mats = []
        for v in range(alg.n):
            mats.append(tuple(
                tuple(vec[unk(v, i, j)] for j in range(N.dims[v]))
                for i in range(M.dims[v])))
        out.append(tuple(mats))
    return out


def modules_isomorphic(M, N, p):
    """Exhaustive base-change search at tiny sizes."""
    if M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    alg = M.alg
    # enumerate invertible matrices per vertex
    per_vertex = []
    total = 1
    for v in range(alg.n):
        d = M.dims[v]
        if d == 0:
            per_vertex.append([()])
            continue
        invs = []
        for flat in itertools.product(range(p), repeat=d * d):
            g = tuple(tuple(flat[i * d + j] for j in range(d))
                      for i in range(d))
            if _is_invertible(g, p):
                invs.append(g)
        per_vertex.append(invs)
        total *= len(invs)
        if total > SEARCH_CEILING:
            raise OracleError("isomorphism search ceiling exceeded")
    for gs in itertools.product(*per_vertex):
        ok = True
        for ai, arrow in enumerate(alg.arrows):
            s, t = arrow.source, arrow.target
            gs_s = [list(r) for r in gs[s]] if M.dims[s] else []
            gs_t = [list(r) for r in gs[t]] if M.dims[t] else []
            left = _matmul([list(r) for r in M.mats[ai]], gs_t, p)
            right = _matmul(gs_s, [list(r) for r in N.mats[ai]], p)
            if left != right:
                ok = False
                break
        if ok:
            return True
    return False


def is_indecomposable(M, p):
    """No idempotent endomorphism other than 0 and 1."""
    if M.total_dim() == 0:
        return False
    ends = _hom_basis(M, M, p)
    if p ** len(ends) > SEARCH_CEILING:
        raise OracleError("endomorphism search ceiling exceeded")
    alg = M.alg
    ident = tuple(
        tuple(tuple(1 if i == j else 0 for j in range(M.dims[v]))
              for i in range(M.dims[v])) for v in range(alg.n))
    zero = tuple(
        tuple(tuple(0 for _ in range(M.dims[v]))
              for _ in range(M.dims[v])) for v in range(alg.n))
    for coeffs in itertools.product(range(p), repeat=len(ends)):
        e = [[[0] * M.dims[v] for _ in range(M.dims[v])]
             for v in range(alg.n)]
        for c, h in zip(coeffs, ends):
            if c == 0:
                continue
            for v in range(alg.n):
                for i in range(M.dims[v]):
                    for j in range(M.dims[v]):
                        e[v][i][j] = (e[v][i][j] + c * h[v][i][j]) % p
        esq = [_matmul(e[v], e[v], p) for v in range(alg.n)]
        if all(esq[v] == e[v] for v in range(alg.n)):
            et = tuple(tuple(tuple(r) for r in e[v]) for v in range(alg.n))
            if et != ident and et != zero:
                return False
    return True


def candidate_count(alg, bound, p):
    total = 0
    ranges = [range(b + 1) for b in bound]
    for dims in itertools.product(*ranges):
        if not any(dims):
            continue
        c = 1
        for arrow in alg.arrows:
            c *= p ** (dims[arrow.source] * dims[arrow.target])
        total += c
    return total


def brute_force_indecomposables(alg_q, cfg):
    """All indecomposables with dims <= bound, up to isomorphism."""
    alg = algebra_mod_p(alg_q, cfg.p)
    p = cfg.p
    if candidate_count(alg, cfg.dim_bound, p) > CANDIDATE_CEILING:
        raise OracleError("candidate ceiling exceeded")
    found = []
    ranges = [range(b + 1) for b in cfg.dim_bound]
    for dims in itertools.product(*ranges):
        if not any(dims):
            continue
        shapes = [(dims[a.source], dims[a.target]) for a in alg.arrows]
        entry_counts = [r * c for (r, c) in shapes]
        pools = [itertools.product(range(p), repeat=n) for n in entry_counts]
        for flats in itertools.product(*pools):
            mats = []
            for (r, c), flat in zip(shapes, flats):
                mats.append(tuple(tuple(flat[i * c + j] for j in range(c))
                                  for i in range(r)))
            M = OracleModule(alg, dims, mats)
            if not _satisfies_relations(M, p):
                continue
            if not is_indecomposable(M, p):
                continue
            if any(modules_isomorphic(M, N, p) for N in found
                   if N.dims == M.dims):
                continue
            found.append(M)
    found.sort(key=lambda m: (m.total_dim(), m.dims, m.mats))
    return found


# -- translate from the definition -----------------------------------------

def _projective(alg, v):
    p = alg.field.p
    layout = [[] for _ in range(alg.n)]
    for b in range(alg.dim):
        if alg.basis_source[b] == v:
            layout[alg.basis_target[b]].append(b)
    dims = tuple(len(layout[w]) for w in range(alg.n))
    mats = []
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        aelem = alg.arrow_elem[ai]
        mat = [[0] * dims[t] for _ in range(dims[s])]
        for i, b in enumerate(layout[s]):
            prod = alg.mult_table.get((b, aelem), {})
            for b2, c in prod.items():
                mat[i][layout[t].index(b2)] = c % p
        mats.append(mat)
    return OracleModule(alg, dims, mats), layout


def _top_generators(M, p):
    """(vertex, row vector) generators of M / M J."""
    alg = M.alg
    gens = []
    for v in range(alg.n):
        incoming = []
        for ai, arrow in enumerate(alg.arrows):
            if arrow.target == v:
                incoming.extend(M.mats[ai])
        work = [list(r) for r in incoming]
        rank, pivots = _rref(work, M.dims[v], p)
        pivot_set = set(pivots)
        for c in range(M.dims[v]):
            if c not in pivot_set:
                vec = [0] * M.dims[v]
                vec[c] = 1
                gens.append((v, vec))
    return gens


def _cover(M, p):
    """Projective cover as (verts, per-vertex matrices P -> M, layouts)."""
    alg = M.alg
    gens = _top_generators(M, p)
    verts = [v for (v, _) in gens]
    projs = [_projective(alg, v) for v in verts]
    dims = tuple(sum(pr.dims[w] for pr, _ in projs) for w in range(alg.n))
    # cover map rows follow the concatenated projective layouts
    cover = [[[0] * M.dims[w] for _ in range(dims[w])] for w in range(alg.n)]
    offs = [0] * alg.n
    for (v, gen), (pr, layout) in zip(gens, projs):
        for w in range(alg.n):
            for i, b in enumerate(layout[w]):
                path = alg.basis[b]
                if path:
                    act = _path_action(M, path, p)
                    img = [sum(gen[ii] * act[ii][j] for ii in range(M.dims[v])) % p
                           for j in range(M.dims[w])]
                else:
                    img = list(gen)
                cover[w][offs[w] + i] = img
            offs[w] += pr.dims[w]
    parts = [pr for pr, _ in projs]
    big = _direct_sum(alg, parts, p)
    return verts, big, cover


def _direct_sum(alg, mods, p):
    dims = tuple(sum(m.dims[v] for m in mods) for v in range(alg.n))
    mats = []
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        block = [[0] * dims[t] for _ in range(dims[s])]
        ro = co = 0
        for m in mods:
            for i in range(m.dims[s]):
                for j in range(m.dims[t]):
                    block[ro + i][co + j] = m.mats[ai][i][j]
            ro += m.dims[s]
            co += m.dims[t]
        mats.append(block)
    return OracleModule(alg, dims, mats)


def _kernel_module(M, f, N, p):
    """Kernel of f: M -> N (per-vertex matrices) as a module + basis rows."""
    alg = M.alg
    basis_rows = []
    for v in range(alg.n):
        rows = []
        if M.dims[v]:
            # left kernel: vectors x with x f_v = 0
            ft = list(zip(*f[v])) if N.dims[v] else []
            null = _nullspace([list(r) for r in ft], M.dims[v], p) \
                if ft else [[1 if i == j else 0 for j in range(M.dims[v])]
                            for i in range(M.dims[v])]
            rows = null
        basis_rows.append(rows)
    dims = tuple(len(r) for r in basis_rows)
    mats = []
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        img = _matmul([list(r) for r in basis_rows[s]],
                      [list(r) for r in M.mats[ai]], p) if dims[s] else []
        # express img rows in the kernel basis at t
        mat = [[0] * dims[t] for _ in range(dims[s])]
        if dims[s] and dims[t]:
            aug = [list(basis_rows[t][k]) for k in range(dims[t])]
            for i, target in enumerate(img):
                coeffs = _solve_in_span(aug, target, p)
                if coeffs is None:
                    raise OracleError("kernel is not a submodule (bug)")
                mat[i] = coeffs
        elif dims[s]:
            if any(any(r) for r in img):
                raise OracleError("kernel is not a submodule (bug)")
        mats.append(mat)
    return OracleModule(alg, dims, mats), basis_rows


def _solve_in_span(rows, target, p):
    """Coefficients expressing target in the span of rows, or None."""
    k = len(rows)
    n = len(target)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(k)]
           for i in range(k)]
    work = [list(r) for r in aug]
    rank, pivots = _rref(work, n + k, p)
    vec = list(target) + [0] * k
    # reduce target against the reduced rows
    for r, c in [(r, c) for r, c in enumerate(pivots) if c < n]:
        f = vec[c] % p
        if f:
            vec = [(a - f * b) % p for a, b in zip(vec, work[r])]
    if any(vec[:n]):
        return None
    return [(-v) % p for v in vec[n:]]


def _injective(alg, v):
    p = alg.field.p
    layout = [[] for _ in range(alg.n)]
    for b in range(alg.dim):
        if alg.basis_target[b] == v:
            layout[alg.basis_source[b]].append(b)
    dims = tuple(len(layout[w]) for w in range(alg.n))
    mats = []
    for ai, arrow in enumerate(alg.arrows):
        s, t = arrow.source, arrow.target
        aelem = alg.arrow_elem[ai]
        mat = [[0] * dims[t] for _ in range(dims[s])]
        for j, q in enumerate(layout[t]):
            prod = alg.mult_table.get((aelem, q), {})
            for b2, c in prod.items():
                if b2 in layout[s]:
                    mat[layout[s].index(b2)][j] = c % p
        mats.append(mat)
    return OracleModule(alg, dims, mats), layout


def tau_oracle(M, p):
    """Translate from the definition: kernel of nu(P1) -> nu(P0)."""
    alg = M.alg
    if M.total_dim() == 0:
        return OracleModule(alg, (0,) * alg.n, [
            [[0] * 0 for _ in range(0)] for _ in alg.arrows])
    verts0, P0, cover = _cover(M, p)
    K, krows = _kernel_module(P0, cover, M, p)
    if K.total_dim() == 0:
        return OracleModule(alg, (0,) * alg.n,
                            [[[0] * 0 for _ in range(0)] for _ in alg.arrows])
    verts1, P1, cover1 = _cover(K, p)
    # f: P1 -> P0 via K inclusion
    f = []
    for v in range(alg.n):
        inc = [list(r) for r in krows[v]]
        fv = _matmul([list(r) for r in cover1[v]], inc, p) \
            if K.dims[v] and P0.dims[v] else \
            [[0] * P0.dims[v] for _ in range(P1.dims[v])]
        f.append(fv)
    # algebra entries of f from generator rows
    layouts0 = [_projective(alg, v)[1] for v in verts0]
    layouts1 = [_projective(alg, v)[1] for v in verts1]
    entries = {}  # (t, s) -> {basis idx: coeff}
    offs0 = _offsets(alg, layouts0)
    offs1 = _offsets(alg, layouts1)
    for s, u in enumerate(verts1):
        gen_pos = offs1[u][s] + layouts1[s][u].index(alg.idempotent[u])
        row = f[u][gen_pos]
        for t in range(len(verts0)):
            for i, b in enumerate(layouts0[t][u]):
                c = row[offs0[u][t] + i] % p
                if c:
                    entries.setdefault((t, s), {})[b] = c
    # nu(f): dual path layouts
    inj0 = [_injective(alg, v) for v in verts0]
    inj1 = [_injective(alg, v) for v in verts1]
    I0 = _direct_sum(alg, [m for m, _ in inj0], p)
    I1 = _direct_sum(alg, [m for m, _ in inj1], p)
    ioffs0 = _offsets(alg, [lay for _, lay in inj0])
    ioffs1 = _offsets(alg, [lay for _, lay in inj1])
    nf = []
    for w in range(alg.n):
        mat = [[0] * I0.dims[w] for _ in range(I1.dims[w])]
        for (t, s), elem in entries.items():
            lay1 = inj1[s][1][w]
            lay0 = inj0[t][1][w]
            for jq, q in enumerate(lay0):
                prod = {}
                for b, c in elem.items():
                    qc = alg.mult_table.get((q, b), {})
                    for bb, cc in qc.items():
                        prod[bb] = (prod.get(bb, 0) + c * cc) % p
                for ip, pb in enumerate(lay1):
                    c = prod.get(pb, 0) % p
                    if c:
                        mat[ioffs1[w][s] + ip][ioffs0[w][t] + jq] = c
        nf.append(mat)
    TK, _ = _kernel_module(I1, nf, I0, p)
    return TK


def _offsets(alg, layouts):
    """offsets[v][s]: starting row of summand s at vertex v."""
    offs = [[0] * len(layouts) for _ in range(alg.n)]
    for v in range(alg.n):
        acc = 0
        for s, lay in enumerate(layouts):
            offs[v][s] = acc
            acc += len(lay[v])
    return offs


def _module_g_vector(M, p):
    """[P0] - [P1] of the minimal presentation, as integer counts."""
    alg = M.alg
    verts0, P0, cover = _cover(M, p)
    K, _ = _kernel_module(P0, cover, M, p)
    g = [0] * alg.n
    for v in verts0:
        g[v] += 1
    for (v, _) in _top_generators(K, p):
        g[v] -= 1
    return tuple(g)


def _hom_dim(M, N, p):
    return len(_hom_basis(M, N, p))


def _in_fac(X, gens, p):
    """X in Fac((+) gens): the trace of the sum fills X."""
    alg = X.alg
    if X.total_dim() == 0:
        return True
    M = _direct_sum(alg, gens, p) if gens else None
    if M is None:
        return False
    homs = _hom_basis(M, X, p)
    for v in range(alg.n):
        if X.dims[v] == 0:
            continue
        rows = []
        for h in homs:
            rows.extend(list(r) for r in h[v])
        work = [list(r) for r in rows]
        rank, _ = _rref(work, X.dims[v], p)
        if rank != X.dims[v]:
            return False
    return True


class OraclePair:
    def __init__(self, modules, support):
        self.modules = tuple(modules)   # indecomposable OracleModules
        self.support = tuple(support)   # projective part multiplicities

    def g_columns(self, p):
        cols = [_module_g_vector(m, p) for m in self.modules]
        for v, mult in enumerate(self.support):
            for _ in range(mult):
                g = [0] * len(self.support)
                g[v] = -1
                cols.append(tuple(g))
        return tuple(sorted(cols))


def brute_force_sttilt(alg_q, cfg):
    """All support tau-tilting pairs from exhaustive subset search."""
    alg = algebra_mod_p(alg_q, cfg.p)
    p = cfg.p
    n = alg.n
    indecs = brute_force_indecomposables(alg_q, cfg)
    taus = [tau_oracle(m, p) for m in indecs]
    rigid = []
    for m, t in zip(indecs, taus):
        if _hom_dim(m, t, p) == 0:
            rigid.append(m)
    rigid_tau = {id(m): tau_oracle(m, p) for m in rigid}
    pairs = []
    for r in range(0, n + 1):
        for mods in itertools.combinations(rigid, r):
            # mutual tau-rigidity
            ok = True
            for a in mods:
                ta = rigid_tau[id(a)]
                for b in mods:
                    if _hom_dim(b, ta, p) != 0:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            # support vertices must avoid the module support
            used = [any(m.dims[v] for m in mods) for v in range(n)]
            free = [v for v in range(n) if not used[v]]
            need = n - r
            for sup in itertools.combinations(free, need):
                pairs.append(OraclePair(
                    mods, tuple(1 if v in sup else 0 for v in range(n))))
    return pairs


def oracle_hasse(alg_q, cfg):
    """Pairs, order relation and Hasse edges by transitive reduction."""
    alg = algebra_mod_p(alg_q, cfg.p)
    p = cfg.p
    pairs = brute_force_sttilt(alg_q, cfg)
    keys = [pr.g_columns(p) for pr in pairs]
    if len(set(keys)) != len(keys):
        raise OracleError("oracle pairs share a g-matrix")
    order = sorted(range(len(pairs)), key=lambda i: keys[i])
    pairs = [pairs[i] for i in order]
    keys = [keys[i] for i in order]
    npairs = len(pairs)
    le = [[False] * npairs for _ in range(npairs)]
    for i, u in enumerate(pairs):
        for j, t in enumerate(pairs):
            le[i][j] = all(_in_fac(m, list(t.modules), p) for m in u.modules)
    edges = []
    for j in range(npairs):       # source (larger)
        for i in range(npairs):   # target (smaller)
            if i == j or not le[i][j] or le[j][i]:
                continue
            covered = False
            for k in range(npairs):
                if k in (i, j):
                    continue
                if le[i][k] and le[k][j] and not le[k][i] and not le[j][k]:
                    covered = True
                    break
            if not covered:
                edges.append((j, i))
    return pairs, keys, edges


def oracle_graph_json(alg_q, cfg):
    """Graph in the same JSON schema the engine's enumeration emits."""
    p = cfg.p
    pairs, keys, edges = oracle_hasse(alg_q, cfg)
    nodes = []
    for i, pr in enumerate(pairs):
        nodes.append({
            "id": i,
            "g_matrix": [list(c) for c in keys[i]],
            "module_summands": [
                {"dim_vector": list(m.dims),
                 "arrows": {
                     alg_q.arrows[ai].name: [
                         [str(v) for v in row] for row in m.mats[ai]]
                     for ai in range(len(alg_q.arrows))}}
                for m in pr.modules],
            "projective_part": list(pr.support),
        })
    out_edges = []
    for (src, dst) in edges:
        # exchanged summand: the g-column of the source that the target lacks
        scols = list(keys[src])
        tcols = list(keys[dst])
        for c in tcols:
            if c in scols:
                scols.remove(c)
        idx = keys[src].index(scols[0]) if scols else 0
        out_edges.append({"src": src, "dst": dst, "index": idx + 1})
    return {
        "nodes": nodes,
        "edges": sorted(out_edges, key=lambda e: (e["src"], e["dst"])),
        "flags": {"complete": True},
    }

