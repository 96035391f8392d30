"""Two-term complexes of projectives and their homotopy category.

A complex lives in degrees -1 and 0: P^{-1} -> P^0, both sums of
indecomposable projectives listed by vertex, with the differential as a
matrix of algebra elements (entry (target t, source s) lies in
e_{vt} A e_{vs}, acting by left multiplication).

Hom_K(T, U[s]) is H^s of one Hom complex, for every shift s.  Its
degrees are grids of corner spaces: Hom^-1 = (U^-1, T^0), Hom^0 =
(U^-1, T^-1) + (U^0, T^0) and Hom^1 = (U^0, T^-1), with differentials
h -> (h d_T, d_U h) and (f1, f0) -> f0 d_T - d_U f1, both written by one
routine, `algebra.add_products` (the block matrix of X -> X.d or X -> d.X
between grids `algebra.CornerGrid`, which also lay out the module-side
sums of projectives and injectives in `modrep`).  At shift 0 the kernel
is the strict chain maps and the image the homotopies; at s = -1 nothing
comes in and at s = 1 nothing goes out.

Krull-Schmidt splitting and isomorphism go through H^0: a stripped
complex is the minimal presentation of H^0(T) plus shifted projectives
Q[1] (Adachi-Iyama-Reiten, "tau-tilting theory", 2014, Thm 3.2), so
`decompose_complex` and `complexes_isomorphic` hand H^0 to the module
layer (`modrep.decompose`, `modrep.modules_isomorphic`).  The engine
only compares indecomposable summands, with `indecomposables_isomorphic`,
which needs no decomposition and so works over any field.

Everything mutation-shaped runs through mapping cones of minimal
approximations.  The approximation is written once, in its left form;
the right form is its dual, read in the opposite category: Hom(A, B)
becomes Hom(B, A) and a.b becomes b.a.  It works in class coordinates,
on walls the algebra memoizes per form ids (`_walls`), each read off
a composition table that `composition_table` builds when asked and keeps
nowhere; `approximation_counts` reads the multiplicities off the walls
and chooses no map.  A cone of a map of
two-term complexes transiently occupies three degrees; stripping contractible
pairs (unit entries between equal projectives) reduces it back, and
whether the extreme degree empties is exactly the test for the mutation
direction staying two-term (`_two_term_cone`).  Stripping is Gaussian
elimination (Bar-Natan, "Fast Khovanov homology computations", 2007),
one pass per differential: a cancellation rewrites only its own
differential and drops a row or column of the other, so d_low is
stripped to the end and then d_high, with the composite checked to be
zero before and after.
"""

from heapq import heapify, heappop, heappush

from .algebra import AlgebraError, CornerGrid, add_products
from .linalg import ExactMatrix, RowSpace, kernel_via_presolve
from . import modrep as mr
from . import splitting


class AlgMatrix:
    """Matrix of algebra elements: map (+) e_{col[j]} A -> (+) e_{row[i]} A."""

    __slots__ = ("alg", "row_verts", "col_verts", "entries")

    def __init__(self, alg, row_verts, col_verts, entries=None):
        self.alg = alg
        self.row_verts = tuple(row_verts)
        self.col_verts = tuple(col_verts)
        self.entries = {}
        if entries:
            for (i, j), e in entries.items():
                if e:
                    self.set(i, j, e)

    def set(self, i, j, elem):
        if not self.alg.elem_in_corner(elem, self.row_verts[i], self.col_verts[j]):
            raise AlgebraError("entry outside its corner space")
        if elem:
            self.entries[(i, j)] = elem
        else:
            self.entries.pop((i, j), None)

    def matmul(self, other):
        """Composite self . other (other first)."""
        if other.row_verts != self.col_verts:
            raise AlgebraError("composition mismatch")
        alg = self.alg
        out = AlgMatrix(alg, self.row_verts, other.col_verts)
        by_row = {}
        for (j, k), b in other.entries.items():
            by_row.setdefault(j, []).append((k, b))
        acc = {}
        for (i, j), a in self.entries.items():
            for k, b in by_row.get(j, ()):
                prod = alg.elem_mul(a, b)
                if prod:
                    key = (i, k)
                    acc[key] = alg.elem_add(acc.get(key, {}), prod)
        for key, e in acc.items():
            if e:
                out.entries[key] = e
        return out

    def is_zero(self):
        return not self.entries

    def serialize(self):
        alg = self.alg
        items = []
        for (i, j) in sorted(self.entries):
            e = self.entries[(i, j)]
            items.append((i, j, tuple(sorted(
                (b, alg.field.to_string(c)) for b, c in e.items()))))
        return tuple(items)

    def realize(self):
        """(ProjSum of col, ProjSum of row, vertex matrices of this map)."""
        src = mr.ProjSum.of(self.alg, self.col_verts)
        tgt = mr.ProjSum.of(self.alg, self.row_verts)
        f = src.realize_alg_map(tgt, self.entries)
        return src, tgt, f


class TwoTermComplex:
    """P^{-1} -> P^0 with algebra-entry differential."""

    __slots__ = ("alg", "p1", "p0", "d", "_ser", "_fid", "_g", "_h0")

    def __init__(self, alg, p1, p0, d=None):
        self.alg = alg
        self.p1 = tuple(p1)
        self.p0 = tuple(p0)
        if d is None:
            d = AlgMatrix(alg, self.p0, self.p1)
        if d.row_verts != self.p0 or d.col_verts != self.p1:
            raise AlgebraError("differential shape mismatch")
        self.d = d
        self._ser = None
        self._fid = None
        self._g = None
        self._h0 = None

    def is_zero(self):
        return not self.p1 and not self.p0

    def serialize(self):
        if self._ser is None:
            self._ser = (self.p1, self.p0, self.d.serialize())
        return self._ser

    def form_id(self):
        """Small int naming this complex's serialization in the algebra's
        form_ids numbering: equal ids mean equal serializations."""
        if self._fid is None:
            ids = self.alg.form_ids
            self._fid = ids.setdefault(self.serialize(), len(ids))
        return self._fid

    def __repr__(self):
        labels = self.alg.vertex_labels
        p1 = "+".join(f"P{labels[v]}" for v in self.p1) or "0"
        p0 = "+".join(f"P{labels[v]}" for v in self.p0) or "0"
        return f"({p1} -> {p0})"


def stalk_complex(alg, verts, shift=0):
    """Projective stalk (+)P_v in degree 0, or its shift [1] in degree -1."""
    if shift == 0:
        return TwoTermComplex(alg, (), tuple(verts))
    if shift == 1:
        return TwoTermComplex(alg, tuple(verts), ())
    raise ValueError("only shifts 0 and 1 are two-term")


def direct_sum_complex(summands):
    summands = list(summands)
    if not summands:
        raise ValueError("empty direct sum needs an algebra; use TwoTermComplex")
    alg = summands[0].alg
    p1, p0 = [], []
    entries = {}
    r_off = c_off = 0
    for s in summands:
        for (i, j), e in s.d.entries.items():
            entries[(r_off + i, c_off + j)] = e
        p0.extend(s.p0)
        p1.extend(s.p1)
        r_off += len(s.p0)
        c_off += len(s.p1)
    d = AlgMatrix(alg, tuple(p0), tuple(p1), entries)
    return TwoTermComplex(alg, tuple(p1), tuple(p0), d)


def multiplicities(alg, verts):
    """How often each vertex occurs in verts."""
    mults = [0] * alg.n
    for v in verts:
        mults[v] += 1
    return tuple(mults)


def g_vector(T):
    """[P^0] - [P^-1] in the projective basis of K_0; computed once per
    complex."""
    if T._g is None:
        g = [0] * T.alg.n
        for v in T.p0:
            g[v] += 1
        for v in T.p1:
            g[v] -= 1
        T._g = tuple(g)
    return T._g


# -- three-degree chains and stripping -----------------------------------

def _eliminate(alg, table, row_verts, col_verts):
    """Cancel the unit entries of table in place, smallest (i, j) first.

    Gaussian elimination at a unit c = table[i0, j0]: entry (i, j) gains
    -table[i, j0] . c^-1 . table[i0, j], and row i0 and column j0 leave
    the table.  Units appear and vanish as entries change, so candidates
    wait on a heap and are checked when popped.  Returns the sets of
    cancelled rows and columns.
    """
    def unit(i, j, e):
        v = row_verts[i]
        return v == col_verts[j] and alg.elem_scalar_part(e, v) != 0

    heap = [ij for ij, e in table.items() if unit(*ij, e)]
    rows_gone, cols_gone = set(), set()
    if not heap:
        return rows_gone, cols_gone
    heapify(heap)
    by_row = {}  # row -> the columns of its entries
    for i, j in table:
        by_row.setdefault(i, set()).add(j)
    while heap:
        i0, j0 = heappop(heap)
        c = table.get((i0, j0))
        if c is None or not unit(i0, j0, c):
            continue
        rows_gone.add(i0)
        cols_gone.add(j0)
        cinv = alg.local_inverse(table.pop((i0, j0)), row_verts[i0])
        row = {j: table.pop((i0, j)) for j in by_row.pop(i0) - {j0}}
        for i, js in by_row.items():
            if j0 not in js:
                continue
            js.discard(j0)
            fac = alg.elem_neg(alg.elem_mul(table.pop((i, j0)), cinv))
            for j, b in row.items():
                nv = alg.elem_add(table.get((i, j), {}), alg.elem_mul(fac, b))
                if nv:
                    table[(i, j)] = nv
                    js.add(j)
                    if unit(i, j, nv):
                        heappush(heap, (i, j))
                else:
                    table.pop((i, j), None)
                    js.discard(j)
    return rows_gone, cols_gone


def _kept(verts, gone):
    """verts without the indices in gone, and the new index of the rest."""
    out, index = [], {}
    for k, v in enumerate(verts):
        if k not in gone:
            index[k] = len(out)
            out.append(v)
    return out, index


class Chain3:
    """low -> mid -> high with composite zero; used for cone bookkeeping."""

    def __init__(self, alg, low, mid, high, d_low, d_high):
        self.alg = alg
        self.low = list(low)
        self.mid = list(mid)
        self.high = list(high)
        self.d_low = {k: v for k, v in d_low.items() if v}    # (mid, low) -> elem
        self.d_high = {k: v for k, v in d_high.items() if v}  # (high, mid) -> elem

    def _check_chain(self):
        if self.d_low and self.d_high:
            # the entries lie in their corners already: skip set's check
            high = AlgMatrix(self.alg, self.high, self.mid)
            low = AlgMatrix(self.alg, self.mid, self.low)
            high.entries, low.entries = self.d_high, self.d_low
            if not high.matmul(low).is_zero():
                raise AssertionError("strip: d_high . d_low is not zero")

    def strip(self):
        """Remove all contractible pairs; leaves the minimal chain.

        Eliminating a unit of one differential only drops a row or a
        column of the other, which creates no unit there, so d_low is
        stripped to the end first and d_high after it.
        """
        self._check_chain()
        alg = self.alg
        mid_gone, low_gone = _eliminate(alg, self.d_low, self.mid, self.low)
        if mid_gone:
            self.d_high = {k: e for k, e in self.d_high.items()
                           if k[1] not in mid_gone}
        high_gone, mid_cut = _eliminate(alg, self.d_high, self.high, self.mid)
        mid_gone |= mid_cut
        if mid_gone:  # each cancellation takes one mid summand
            self.low, low = _kept(self.low, low_gone)
            self.mid, mid = _kept(self.mid, mid_gone)
            self.high, high = _kept(self.high, high_gone)
            self.d_low = {(mid[i], low[j]): e
                          for (i, j), e in self.d_low.items() if i in mid}
            self.d_high = {(high[i], mid[j]): e
                           for (i, j), e in self.d_high.items()}
            self._check_chain()
        return self


def strip_contractible(T):
    """Minimal representative of a two-term complex."""
    ch = Chain3(T.alg, (), T.p1, T.p0, {}, T.d.entries).strip()
    return TwoTermComplex(T.alg, ch.mid, ch.high,
                          AlgMatrix(T.alg, ch.high, ch.mid, ch.d_high))


class ChainMap:
    """Strict chain map between two-term complexes: degree blocks f1, f0."""

    __slots__ = ("source", "target", "f1", "f0")

    def __init__(self, source, target, f1, f0):
        self.source = source
        self.target = target
        self.f1 = f1  # AlgMatrix rows=target.p1 cols=source.p1
        self.f0 = f0  # AlgMatrix rows=target.p0 cols=source.p0

    def compose(self, other):
        """self . other (other first)."""
        return ChainMap(other.source, self.target,
                        self.f1.matmul(other.f1), self.f0.matmul(other.f0))


def mapping_cone_chain(f):
    """Cone of f: X -> Y as a three-degree chain (X.p1, X.p0 + Y.p1, Y.p0)."""
    X, Y = f.source, f.target
    alg = X.alg
    nx0 = len(X.p0)
    d_low = {k: alg.elem_neg(e) for k, e in X.d.entries.items()}
    d_low.update(((nx0 + i, j), e) for (i, j), e in f.f1.entries.items())
    d_high = dict(f.f0.entries)
    d_high.update(((i, nx0 + j), e) for (i, j), e in Y.d.entries.items())
    return Chain3(alg, X.p1, X.p0 + Y.p1, Y.p0, d_low, d_high)


def _two_term_cone(f, left):
    """Stripped cone of f: X -> Y (left) or cocone of f: Y -> X, as a
    two-term complex; None when the extra degree survives stripping."""
    ch = mapping_cone_chain(f).strip()
    if (ch.low if left else ch.high):
        return None
    p1, p0, d = ((ch.mid, ch.high, ch.d_high) if left
                 else (ch.low, ch.mid, ch.d_low))
    return TwoTermComplex(ch.alg, p1, p0, AlgMatrix(ch.alg, p0, p1, d))


# -- homotopy Hom spaces --------------------------------------------------

class HomotopyHom:
    """Hom_K(T, U[shift]) between two-term complexes: H^shift of the Hom
    complex.

    The degrees of the Hom complex are grids: Hom^-1 = (U^-1, T^0),
    Hom^0 = (U^-1, T^-1) + (U^0, T^0) and Hom^1 = (U^0, T^-1), with
    differentials h -> (h d_T, d_U h) and (f1, f0) -> f0 d_T - d_U f1.
    The classes are the kernel of the outgoing differential reduced
    modulo `homotopies`, the image of the incoming one, and `dim` counts
    them.  An empty Hom^shift grid gives dim 0 with neither a kernel
    nor a boundary row computed; when only the kernel is empty the
    homotopies are still built, since `chain_map_class` reduces by them.
    At shift 0 `reps` holds one strict chain map per class, over the
    grids c1 and c0, with composition through canonical class
    coordinates.  At shifts +-1 only `dim` is read (the rigidity tests),
    so no representative is built.
    Built through `hom_homotopy`, which checks that T and U share their
    algebra.
    """

    def __init__(self, T, U, shift=0):
        alg = T.alg
        F = alg.field
        self.radical = None  # for U = T: rad End(T) as rows over reps
        h = CornerGrid(alg, U.p1, T.p0)
        c1 = CornerGrid(alg, U.p1, T.p1)
        c0 = CornerGrid(alg, U.p0, T.p0, offset=c1.end)
        e = CornerGrid(alg, U.p0, T.p1)
        size = {-1: h.end, 0: c0.end, 1: e.end}
        dT, dU = T.d.entries, U.d.entries
        neg_dU = {pos: alg.elem_neg(x) for pos, x in dU.items()}
        # the terms (src, dst, d, d_left) of each differential
        terms = {-1: ((h, c1, dT, False), (h, c0, dU, True)),
                 0: ((c0, e, dT, False), (c1, e, neg_dU, True))}

        def differential(k):
            # rows of Hom^k -> Hom^(k+1), one per coordinate of Hom^(k+1);
            # a map from or to a zero space needs none
            if not size.get(k) or not size.get(k + 1):
                return []
            rows = [{} for _ in range(size[k + 1])]
            for term in terms[k]:
                add_products(rows, *term)
            return rows

        n = size.get(shift, 0)
        cycles, boundaries = [], []
        if n:  # an empty grid has no cycles and no homotopies
            cycles = kernel_via_presolve(F, differential(shift), n)
            boundaries = [{} for _ in range(size.get(shift - 1, 0))]
            for r, row in enumerate(differential(shift - 1)):
                for col, c in row.items():
                    boundaries[col][r] = c
        self.homotopies = RowSpace(F, n, boundaries)
        self.classes = RowSpace(F, n, map(self.homotopies.reduce, cycles))
        self.dim = self.classes.dim

        def matrix(grid, row):
            return AlgMatrix(alg, grid.row_verts, grid.col_verts,
                             grid.vec_to_entries(row))

        if shift == 0:
            self.c1, self.c0 = c1, c0
            self.reps = [ChainMap(T, U, matrix(c1, row), matrix(c0, row))
                         for row in self.classes.reduced]

    def chain_map_class(self, cm):
        """Canonical class coordinates of a strict chain map: the {index:
        coefficient} dict of its class over self.reps."""
        vec = {}
        self.c1.entries_to_vec(cm.f1.entries, vec)
        self.c0.entries_to_vec(cm.f0.entries, vec)
        red = self.homotopies.reduce(vec)
        if self.classes.reduce(red):
            raise AssertionError("chain map outside the computed Hom space")
        return {idx: red[pc] for idx, pc in enumerate(self.classes.pivots)
                if red.get(pc)}


def hom_homotopy(T, U, shift=0):
    """Hom_{K^b(proj)}(T, U[shift]) for two-term T, U.

    Memoized in T.alg.hom_memo, which the algebra owns: one build per
    (shift, T.form_id(), U.form_id()) for as long as the algebra lives.
    Equal form ids mean equal serializations, so complexes that are
    equal as data share one entry.  Summands are interned by g-vector
    (``sttilt.intern_summand``), so the mutations of an enumeration ask
    for a few distinct keys only.
    """
    if T.alg is not U.alg:
        raise AlgebraError("complexes over different algebras")
    return _memo_hom(T, U, (shift, T.form_id(), U.form_id()))


def _memo_hom(T, U, key):
    """The hom_memo entry under key = (shift, T.form_id(), U.form_id()),
    built on a miss: the one memo path of `hom_homotopy` and `_walls`."""
    memo = T.alg.hom_memo
    hs = memo.get(key)
    if hs is None:
        hs = memo[key] = HomotopyHom(T, U, key[0])
    return hs


def composition_table(A, B, C):
    """Structure constants of composition Hom(B, C) x Hom(A, B) ->
    Hom(A, C) in the homotopy category.

    Entry [a][b] holds the class coordinates (`chain_map_class`) of
    rep_b . rep_a in Hom(A, C), for rep_a in Hom(A, B) and rep_b in
    Hom(B, C).  Built on each call from the memoized Hom spaces; the
    walls that read it are memoized instead (`_walls`).  Hom(A, C)
    is only requested when both factors are nonzero.
    """
    ab, bc = hom_homotopy(A, B), hom_homotopy(B, C)
    ac = hom_homotopy(A, C) if ab.dim and bc.dim else None
    return [[ac.chain_map_class(b.compose(a)) for b in bc.reps]
            for a in ab.reps]


# -- decomposition and isomorphism through H^0 ------------------------------

def decompose_complex(T):
    """Indecomposable summands of T in the homotopy category.

    Stripped, T is the minimal presentation of M = H^0(T) plus shifted
    projectives: d lies in the radical, so P^0 -> M is a projective
    cover, and P^-1 -> im d is the cover of the kernel plus a summand
    mapping to zero.  Presentations are additive, so the summands are
    those of the summands of M and one P_v[1] per extra P_v in P^-1.
    """
    alg = T.alg
    T = strip_contractible(T)
    out = [presentation_complex(m) for m in mr.decompose(complex_h0(T))]
    shifted = _shifted(alg, T.p1, [v for c in out for v in c.p1])
    out.extend(stalk_complex(alg, (v,), 1)
               for v in range(alg.n) for _ in range(shifted[v]))
    out.sort(key=lambda c: (g_vector(c), c.serialize()))
    return out


def complexes_isomorphic(T, U):
    """Homotopy equivalence: equal g-vectors and isomorphic H^0.

    By `decompose_complex`, T is the presentation of H^0(T) plus Q[1],
    and [Q] is the g-vector of that presentation minus g(T), so H^0 and
    the g-vector determine T; neither needs stripping.
    """
    return g_vector(T) == g_vector(U) and mr.modules_isomorphic(
        complex_h0(T), complex_h0(U))


def indecomposables_isomorphic(T, U):
    """`complexes_isomorphic` for indecomposable T and U, over any field.

    Each H^0 is then indecomposable or zero (zero for P_v[1]), so the
    direct test of `modrep.indecomposables_isomorphic` applies.
    """
    return g_vector(T) == g_vector(U) and mr.indecomposables_isomorphic(
        complex_h0(T), complex_h0(U))


# -- translation between pairs and complexes ------------------------------

def presentation_complex(M):
    """Two-term complex of a minimal projective presentation of M.

    Built once per module and kept with its `modrep.Presentation`, so a
    repeated call returns the same complex, with its form id and the
    Hom spaces memoized under it."""
    pres = mr.minimal_projective_presentation(M)
    if pres.complex is None:
        alg = M.alg
        d = AlgMatrix(alg, pres.P0.verts, pres.P1.verts, pres.entries)
        pres.complex = TwoTermComplex(alg, pres.P1.verts, pres.P0.verts, d)
    return pres.complex


def pair_to_complex(M, proj_mults):
    """Complex of the pair (M, P): presentation of M plus P[1] summands;
    the presentation itself when P = 0."""
    alg = M.alg
    shift_verts = [v for v in range(alg.n) for _ in range(proj_mults[v])]
    if not shift_verts:
        return presentation_complex(M)
    return direct_sum_complex(
        [presentation_complex(M), stalk_complex(alg, shift_verts, shift=1)])


def complex_h0(T):
    """H^0(T) = coker(d) as a representation (computed once per object)."""
    if T._h0 is None:
        src, tgt, f = T.d.realize()
        T._h0, _ = mr.quotient_rep(tgt.rep,
                                   [f[v].rows for v in range(T.alg.n)])
    return T._h0


def _shifted(alg, p1, pres_p1):
    """Multiplicities of the shifted projectives of a stripped complex
    with P^-1 = p1 whose H^0 presentation has P^-1 = pres_p1."""
    have, pres = multiplicities(alg, p1), multiplicities(alg, pres_p1)
    if any(a < b for a, b in zip(have, pres)):
        raise AlgebraError(
            "invariant failed: the stripped complex has P^-1 multiplicities "
            f"{have}, fewer than the {pres} of its H^0 presentation")
    return tuple(a - b for a, b in zip(have, pres))


# -- minimal approximations ------------------------------------------------

def _end_radical(end):
    """rad End_K(R) as coefficient rows over the representatives of
    end = Hom(R, R); computed once per Hom object."""
    if end.radical is None:
        end.radical = []
        if end.dim:
            R = end.reps[0].source
            # b_i b_j = rep_i . rep_j, entry [j][i] of the composition table
            table = composition_table(R, R, R)
            mult = {(i, j): table[j][i]
                    for i in range(end.dim) for j in range(end.dim)}
            end.radical = splitting.radical_from_mult_table(
                end.classes.field, mult, end.dim)
    return end.radical


def _products(X, Y, Z, left):
    """Row u holds the coordinates in Hom(X, Z) of each v . u, for u in
    Hom(X, Y) and v in Hom(Y, Z), read in the approximation's category."""
    if left:
        return composition_table(X, Y, Z)
    return list(zip(*composition_table(Z, Y, X)))


def _wall_image(X, Rl, R, left, dim):
    """RREF rows of the image of Hom(Rl, R) . Hom(X, Rl), or of
    rad End(R) . Hom(X, R) when Rl is R (one form id), in Hom(X, R) of
    dimension dim, read in the approximation's category; `_walls`
    memoizes them.  When rad End(R) = 0 the wall of R itself is empty,
    and its composition table is not built."""
    F = X.alg.field
    if Rl.form_id() != R.form_id():
        image = [vec for row in _products(X, Rl, R, left) for vec in row]
    else:  # rad End(R) as rows over the reps of End(R), times row u
        rad = _end_radical(hom_homotopy(R, R))
        image = []
        for row in _products(X, R, R, left) if rad else ():
            image += ExactMatrix(F, len(rad), len(row), rad).mul(
                ExactMatrix(F, len(row), dim, row)).rows
    return tuple(RowSpace(F, dim, image).reduced)


def _walls(X, targets, left):
    """(j, Hom(X, R_j), the images spanning its wall: the maps through a
    radical map into R_j) for each target with Hom(X, R_j) != 0.

    X's form id is read once.  Each Hom space is then one hom_memo
    lookup (`_memo_hom`), and each wall one wall_memo lookup keyed by
    the direction and the form ids of X, R_l and R_j; `_wall_image`
    runs only on a miss."""
    if any(R.alg is not X.alg for R in targets):
        raise AlgebraError("complexes over different algebras")
    x = X.form_id()
    ids = [R.form_id() for R in targets]
    homs = [_memo_hom(X, R, (0, x, r)) if left else _memo_hom(R, X, (0, r, x))
            for R, r in zip(targets, ids)]
    walls = X.alg.wall_memo
    out = []
    for j, R in enumerate(targets):
        dim = homs[j].dim
        if not dim:
            continue
        images = []
        for l, Rl in enumerate(targets):
            if homs[l].dim:
                key = (left, x, ids[l], ids[j])
                rows = walls.get(key)
                if rows is None:
                    rows = walls[key] = _wall_image(X, Rl, R, left, dim)
                images.append(rows)
        out.append((j, homs[j], images))
    return out


def approximation_counts(X, targets, left):
    """(j, dim Hom(X, R_j)/wall_j, dim End(R_j)/rad) for each target the
    minimal left add(targets)-approximation of X (right when not left)
    reaches.  The quotient is a vector space over the division ring
    End(R_j)/rad, and its dimension over it is the multiplicity of R_j."""
    out = []
    for j, hs, images in _walls(X, targets, left):
        images = [rows for rows in images if rows]
        wall = (len(images[0]) if len(images) == 1 else RowSpace(
            X.alg.field, hs.dim, [r for rows in images for r in rows]).dim)
        if wall < hs.dim:
            end = hom_homotopy(targets[j], targets[j])
            out.append((j, hs.dim - wall, end.dim - len(_end_radical(end))))
    return out


def _approximation_summands(X, targets, left):
    """Chosen maps X -> targets[j] realizing the minimal left
    add(targets)-approximation of X, as (j, ChainMap) pairs.

    With left=False every Hom space and composite is read in the opposite
    category, which yields the minimal right approximation: maps
    targets[j] -> X.

    In class coordinates, F^{dim Hom(X, R_j)} starts covered by the
    memoized wall that `approximation_counts` reads too (`_walls`); a
    representative whose unit vector is not covered yet is chosen and
    covers its End(R_j) orbit: its composites with the reps of End(R_j),
    made for the chosen representatives only.
    """
    F = X.alg.field
    chosen = []
    for j, hs, images in _walls(X, targets, left):
        covered = RowSpace(F, hs.dim, [r for rows in images for r in rows])
        for i, cand in enumerate(hs.reps):
            if not covered.contains({i: F.one}):
                chosen.append((j, cand))
                for e in hom_homotopy(targets[j], targets[j]).reps:
                    covered.add(hs.chain_map_class(
                        e.compose(cand) if left else cand.compose(e)))
    return chosen


def minimal_left_approximation_summands(X, targets):
    """Chosen maps realizing the minimal left add(targets)-approximation.

    targets: pairwise non-isomorphic indecomposable complexes.  Returns a
    list of (target_index, ChainMap X -> targets[j]).
    """
    return _approximation_summands(X, targets, True)


def minimal_right_approximation_summands(X, targets):
    """Chosen maps realizing the minimal right add(targets)-approximation.

    Returns a list of (target_index, ChainMap targets[j] -> X).
    """
    return _approximation_summands(X, targets, False)


def _assemble(X, targets, chosen, left):
    """Stack chosen maps into one chain map X -> (+) chosen targets, or
    (+) chosen targets -> X when not left."""
    alg = X.alg
    parts = [targets[j] for j, _ in chosen]
    S = direct_sum_complex(parts) if parts else TwoTermComplex(alg, (), ())
    src, tgt = (X, S) if left else (S, X)
    f1 = AlgMatrix(alg, tgt.p1, src.p1)
    f0 = AlgMatrix(alg, tgt.p0, src.p0)
    off1 = off0 = 0
    for j, cm in chosen:
        for f, part, off in ((f1, cm.f1, off1), (f0, cm.f0, off0)):
            for (i, k), e in part.entries.items():
                f.entries[(off + i, k) if left else (i, off + k)] = e
        off1 += len(targets[j].p1)
        off0 += len(targets[j].p0)
    return ChainMap(src, tgt, f1, f0)


def assemble_left_approximation(X, targets, chosen):
    """Stack chosen maps into one chain map X -> (+) chosen targets."""
    return _assemble(X, targets, chosen, True)


def assemble_right_approximation(X, targets, chosen):
    """Stack chosen maps into one chain map (+) chosen targets -> X."""
    return _assemble(X, targets, chosen, False)
