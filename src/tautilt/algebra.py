"""Bound quiver algebras A = kQ/I with an explicit path basis.

Paths compose left to right: "a*b" means traverse a, then b, so a*b is
nonzero exactly when target(a) = source(b).  Modules elsewhere in the
package are right modules, carrying maps along arrow direction.

The admissible ideal I is turned into a rewriting system on paths
(deglex order: length first, then arrow-name order), completed by
overlap resolution truncated at path_length_bound.  The surviving
irreducible paths, enumerated by increasing length, are the basis.
Finite-dimensionality is certified operationally: some layer below the
bound must be empty, and the arrow ideal must be nilpotent.
"""

import ast
import re
from bisect import bisect_right

from .fields import QQ, FieldError, parse_field


class AlgebraError(ValueError):
    """Invalid algebra data (semantic problems)."""


class AlgebraFileError(AlgebraError):
    """Malformed algebra description text."""


class AdmissibilityError(AlgebraError):
    """Basis generation did not certify a finite-dimensional quotient."""


class Arrow:
    __slots__ = ("name", "source", "target")

    def __init__(self, name, source, target):
        self.name = name
        self.source = source
        self.target = target

    def __repr__(self):
        return f"Arrow({self.name}: {self.source}->{self.target})"


class QuiverSpec:
    """Raw quiver + relations data, validated but not yet completed."""

    def __init__(self, field, vertices, arrows, relations, path_length_bound=64):
        if len(set(vertices)) != len(vertices):
            raise AlgebraError("duplicate vertex labels")
        if not vertices:
            raise AlgebraError("need at least one vertex")
        names = [a[0] for a in arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow names")
        vset = set(vertices)
        self.field = field
        self.vertices = list(vertices)
        self.vindex = {v: i for i, v in enumerate(vertices)}
        self.arrows = []
        for name, src, tgt in arrows:
            if src not in vset or tgt not in vset:
                raise AlgebraError(f"arrow {name!r} references unknown vertex")
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise AlgebraError(f"arrow name {name!r} is not an identifier")
            self.arrows.append(Arrow(name, self.vindex[src], self.vindex[tgt]))
        self.aindex = {a.name: i for i, a in enumerate(self.arrows)}
        if path_length_bound < 1:
            raise AlgebraError("path_length_bound must be positive")
        self.path_length_bound = path_length_bound
        self.relations = [self._check_relation(r) for r in relations]

    def _check_relation(self, rel):
        """rel: list of (coeff, path-as-arrow-name-list); returns indexed form."""
        if not rel:
            raise AlgebraError("empty relation")
        out = {}
        sig = None
        for coeff, names in rel:
            if len(names) < 2:
                raise AlgebraError(
                    f"relation path {'*'.join(names)!r} has length < 2")
            try:
                path = tuple(self.aindex[nm] for nm in names)
            except KeyError as exc:
                raise AlgebraError(f"unknown arrow {exc.args[0]!r} in relation") from exc
            for x, y in zip(path, path[1:]):
                if self.arrows[x].target != self.arrows[y].source:
                    raise AlgebraError(
                        f"paths not composable in relation: {'*'.join(names)}")
            st = (self.arrows[path[0]].source, self.arrows[path[-1]].target)
            if sig is None:
                sig = st
            elif sig != st:
                raise AlgebraError("relation mixes non-parallel paths")
            out[path] = self.field.add(out.get(path, self.field.zero), coeff)
        out = {p: c for p, c in out.items() if c != 0}
        return out


_KEYVAL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*?)\s*$")
_ARROW_RE = re.compile(
    r'^\{\s*name\s*=\s*"([^"]+)"\s*,\s*source\s*=\s*"([^"]+)"\s*,'
    r'\s*target\s*=\s*"([^"]+)"\s*\}$')
_TERM_SPLIT_RE = re.compile(r"(?=[+-])")


def _parse_relation_text(text):
    """Parse "a*b - 2*c*d + 1/2*e*f" into [(coeff-string, [names])]."""
    text = text.strip()
    if not text:
        raise AlgebraFileError("empty relation string")
    chunks = [c for c in _TERM_SPLIT_RE.split(text) if c.strip()]
    terms = []
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("+"):
            chunk = chunk[1:].strip()
        elif chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        factors = [f.strip() for f in chunk.split("*")]
        if not factors or any(not f for f in factors):
            raise AlgebraFileError(f"bad relation term {chunk!r}")
        coeff = "1"
        if re.fullmatch(r"\(?-?\d+(/\d+)?\)?", factors[0]):
            coeff = factors[0].strip("()")
            factors = factors[1:]
        if not factors:
            raise AlgebraFileError(f"relation term {chunk!r} has no path")
        if sign == -1:
            coeff = "-" + coeff if not coeff.startswith("-") else coeff[1:]
        terms.append((coeff, factors))
    return terms


def _string_list(value, what):
    """A list or tuple literal of strings, as a list.  Anything else is a
    file error: a set's order follows the hash seed, and a bare string
    would be read one character per item."""
    try:
        items = ast.literal_eval(value)
    except (ValueError, SyntaxError) as exc:
        raise AlgebraFileError(f"{what}: not a list literal") from exc
    if not isinstance(items, (list, tuple)) or not all(
            isinstance(x, str) for x in items):
        raise AlgebraFileError(f"{what} must be a list of strings")
    return list(items)


def parse_quiver_spec(text):
    """Parse the line-oriented algebra file format into a QuiverSpec."""
    field = QQ
    vertices = None
    arrows = []
    relations_text = []
    bound = 64
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _KEYVAL_RE.match(line)
        if not m:
            raise AlgebraFileError(f"line {lineno}: expected key = value")
        key, value = m.group(1), m.group(2)
        if key != "arrow" and key in seen:
            raise AlgebraFileError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "field":
            try:
                field = parse_field(ast.literal_eval(value))
            except (ValueError, SyntaxError, FieldError) as exc:
                raise AlgebraFileError(f"line {lineno}: {exc}") from exc
        elif key == "vertices":
            vertices = _string_list(value, f"line {lineno}: vertices")
        elif key == "arrow":
            am = _ARROW_RE.match(value)
            if not am:
                raise AlgebraFileError(f"line {lineno}: bad arrow syntax")
            arrows.append((am.group(1), am.group(2), am.group(3)))
        elif key == "relations":
            relations_text = _string_list(value, f"line {lineno}: relations")
        elif key == "path_length_bound":
            try:
                bound = int(value)
            except ValueError as exc:
                raise AlgebraFileError(f"line {lineno}: bad bound") from exc
        else:
            raise AlgebraFileError(f"line {lineno}: unknown key {key!r}")
    if vertices is None:
        raise AlgebraFileError("missing vertices")
    relations = []
    for rtext in relations_text:
        terms = _parse_relation_text(rtext)
        try:
            relations.append([(field.from_string(c), names)
                              for c, names in terms])
        except FieldError as exc:
            raise AlgebraFileError(f"relation {rtext!r}: {exc}") from exc
    return QuiverSpec(field, vertices, arrows, relations, bound)


def parse_algebra(text):
    """Parse an algebra description document and build the algebra."""
    return BoundQuiverAlgebra(parse_quiver_spec(text))


# -- path polynomial helpers (paths are tuples of arrow indices) ---------

def _path_key(spec, path):
    # deglex: length first, then arrow-name order
    return (len(path), tuple(spec.name_rank[i] for i in path))


class _Rewriter:
    """Truncated Buchberger completion of the relation rewriting system."""

    def __init__(self, spec):
        self.spec = spec
        self.field = spec.field
        spec.name_rank = {}
        for rank, name in enumerate(sorted(a.name for a in spec.arrows)):
            spec.name_rank[spec.aindex[name]] = rank
        self.bound = spec.path_length_bound
        self.rules = {}  # leading path -> tail polynomial {path: coeff}
        self.max_lt = 0
        pending = [dict(rel) for rel in spec.relations]
        while pending:
            poly = self.reduce(pending.pop())
            if not poly:
                continue
            lt = self._leading(poly)
            if len(lt) > self.bound:
                continue  # irrelevant for bases below the bound
            c = poly.pop(lt)
            inv = self.field.inv(c)
            tail = {p: self.field.neg(self.field.mul(inv, v))
                    for p, v in poly.items()}
            pending.extend(self._overlaps(lt, tail))
            self.rules[lt] = tail
            self.max_lt = max(self.max_lt, len(lt))

    def _leading(self, poly):
        spec = self.spec
        return max(poly, key=lambda p: _path_key(spec, p))

    def _overlaps(self, lt, tail):
        """S-polynomials of the new rule against all rules (including itself)."""
        out = []
        for w, t in list(self.rules.items()) + [(lt, tail)]:
            out.extend(self._pair_spolys(lt, tail, w, t))
            if w != lt:
                out.extend(self._pair_spolys(w, t, lt, tail))
        return out

    def _pair_spolys(self, w1, t1, w2, t2):
        """Overlaps where a suffix of w1 is a prefix of w2, or w2 inside w1."""
        out = []
        F = self.field
        n1, n2 = len(w1), len(w2)
        # suffix-prefix overlaps: w1 = u.o, w2 = o.v, overlap word u.o.v
        for k in range(1, min(n1, n2) + (1 if w1 != w2 else 0)):
            if w1[n1 - k:] == w2[:k]:
                word_len = n1 + n2 - k
                if word_len > self.bound + self.max_lt:
                    continue
                u = w1[:n1 - k]
                v = w2[k:]
                # g1*v - u*g2 where gi = wi - ti: spoly = u.t2 - t1.v ... with
                # w1.v = u.w2 cancelling:  (w1 - t1).v - u.(w2 - t2) = u.t2 - t1.v
                poly = {}
                for p, cval in t2.items():
                    self._acc(poly, u + p, cval)
                for p, cval in t1.items():
                    self._acc(poly, p + v, F.neg(cval))
                out.append(poly)
        # containment: w2 strictly inside w1
        if n2 < n1:
            for s in range(0, n1 - n2 + 1):
                if w1[s:s + n2] == w2:
                    u, v = w1[:s], w1[s + n2:]
                    poly = {}
                    for p, cval in t1.items():
                        self._acc(poly, p, cval)
                    for p, cval in t2.items():
                        self._acc(poly, u + p + v, F.neg(cval))
                    out.append(poly)
        return out

    def _acc(self, poly, path, c):
        F = self.field
        cur = poly.get(path, F.zero)
        nv = F.add(cur, c)
        if nv == 0:
            poly.pop(path, None)
        else:
            poly[path] = nv

    def reducible_at(self, path):
        """First (start, lt) with path[start:start+len(lt)] == lt, or None."""
        n = len(path)
        for start in range(n):
            for end in range(start + 2, n + 1):  # rule LTs have length >= 2
                if end - start > self.max_lt:
                    break
                sub = path[start:end]
                if sub in self.rules:
                    return start, sub
        return None

    def reduce(self, poly):
        """Normal form of a path polynomial under the current rules."""
        F = self.field
        poly = dict(poly)
        work = sorted(poly, key=lambda p: _path_key(self.spec, p), reverse=True)
        while work:
            path = work.pop()
            c = poly.get(path)
            if c is None or c == 0:
                continue
            hit = self.reducible_at(path)
            if hit is None:
                continue
            start, lt = hit
            del poly[path]
            u, v = path[:start], path[start + len(lt):]
            for p, tv in self.rules[lt].items():
                newp = u + p + v
                cur = poly.get(newp, F.zero)
                nv = F.add(cur, F.mul(c, tv))
                if nv == 0:
                    poly.pop(newp, None)
                else:
                    poly[newp] = nv
                    work.append(newp)
        return {p: c for p, c in poly.items() if c != 0}


class BoundQuiverAlgebra:
    """A finite-dimensional bound quiver algebra with exact structure constants.

    The structure is immutable after construction and element operations
    are pure.  Basis order: vertex idempotents first, then paths by
    increasing length (deglex).  Elements are sparse
    {basis_index: coefficient} dicts.

    The algebra also owns the memoized two-term data computed over it,
    which lives exactly as long as the algebra does:

    * form_ids: every complex serialization seen, numbered by a small
      int in first-seen order (``TwoTermComplex.form_id``); the memos
      below are keyed by these ids, so equal keys mean equal data;
    * summands: the summand registry, one canonical indecomposable
      complex per g-vector (filled by ``sttilt.intern_summand``);
    * summand_forms: the form id of every complex seen for a registered
      summand, mapped to its canonical complex;
    * summand_splits: the g-vector of every decomposable presilting
      object the engine has split, mapped to its distinct canonical
      summands; one lookup-or-split step, ``sttilt._summands``, reads
      both tables for every exchange (mutation or completion piece) and
      every checked input pair, and no g-vector is in both;
    * hom_memo: Hom spaces in the homotopy category, keyed by
      (shift, T.form_id(), U.form_id()) (``twoterm._memo_hom``, the
      one lookup of ``twoterm.hom_homotopy`` and ``twoterm._walls``);
    * wall_memo: approximation walls, the RREF rows (a tuple, () when
      empty) of the image of Hom(R_l, R_j) . Hom(X, R_l), or of
      rad End(R_j) . Hom(X, R_j), per direction and form-id triple
      (X, R_l, R_j) (``twoterm._walls``); the only composition data
      kept, since ``twoterm.composition_table`` builds each table when
      asked;
    * sum_memo: the sums of projectives and injectives on the path basis,
      one per class and vertex tuple (``modrep.ProjSum.of``,
      ``modrep.InjSum.of``).
    """

    def __init__(self, spec):
        self.spec = spec
        self.field = spec.field
        self.n = len(spec.vertices)
        self.vertex_labels = list(spec.vertices)
        self.arrows = spec.arrows
        self.rewriter = _Rewriter(spec)
        self._build_basis()
        self._build_structure()
        self._check_radical_nilpotent()
        self.form_ids = {}
        self.summands = {}
        self.summand_forms = {}
        self.summand_splits = {}
        self.hom_memo = {}
        self.wall_memo = {}
        self.sum_memo = {}

    # -- construction ----------------------------------------------------

    def _build_basis(self):
        spec, rw = self.spec, self.rewriter
        by_source = {}
        for i, a in enumerate(self.arrows):
            by_source.setdefault(a.source, []).append(i)
        basis = [((), v) for v in range(self.n)]  # (path, source-vertex)
        layer = list(basis)
        length = 0
        while layer:
            length += 1
            if length > spec.path_length_bound:
                raise AdmissibilityError(
                    "path basis still growing at path_length_bound: "
                    "increase bound or ideal not admissible")
            nxt = []
            for path, src in layer:
                tgt = src if not path else self.arrows[path[-1]].target
                for ai in by_source.get(tgt, ()):
                    cand = path + (ai,)
                    # path is irreducible, so only suffixes ending at the
                    # new arrow can match a rule leading term
                    ok = True
                    for k in range(2, min(len(cand), rw.max_lt) + 1):
                        if cand[-k:] in rw.rules:
                            ok = False
                            break
                    if ok:
                        nxt.append((cand, src))
            if length == spec.path_length_bound and nxt:
                raise AdmissibilityError(
                    "irreducible path of maximal length survives: "
                    "increase bound or ideal not admissible")
            basis.extend(nxt)
            layer = nxt
        key = lambda item: ((0,) if not item[0] else (1,)) + _path_key(spec, item[0]) + (item[1],)
        basis.sort(key=key)
        self.basis = [p for p, _ in basis]
        self.basis_source = []
        self.basis_target = []
        for p, src in basis:
            self.basis_source.append(src)
            self.basis_target.append(src if not p else self.arrows[p[-1]].target)
        self.dim = len(self.basis)
        self.index_of = {}
        for i, (p, src) in enumerate(basis):
            self.index_of[(p, src)] = i
        self.idempotent = [self.index_of[((), v)] for v in range(self.n)]
        self.arrow_elem = [self.index_of[((a,), self.arrows[a].source)]
                           for a in range(len(self.arrows))]
        # basis indices grouped by (source, target), and the position of
        # each index inside its group
        self.basis_by_st = {}
        self.corner_pos = []
        for i in range(self.dim):
            corner = self.basis_by_st.setdefault(
                (self.basis_source[i], self.basis_target[i]), [])
            self.corner_pos.append(len(corner))
            corner.append(i)

    def _nf_to_elem(self, poly, src):
        out = {}
        for p, c in poly.items():
            out[self.index_of[(p, src)]] = c
        return out

    def _build_structure(self):
        rw = self.rewriter
        self.mult_table = {}
        for i in range(self.dim):
            for j in range(self.dim):
                if self.basis_target[i] != self.basis_source[j]:
                    continue
                concat = self.basis[i] + self.basis[j]
                nf = rw.reduce({concat: self.field.one})
                if nf:
                    self.mult_table[(i, j)] = self._nf_to_elem(
                        nf, self.basis_source[i])

    def _check_radical_nilpotent(self):
        """The span of length >= 1 basis paths must be a nilpotent ideal.

        Powers J^k weakly decrease (right ideals), so a stuck nonzero
        dimension certifies failure; reaching zero certifies nilpotency.
        """
        from .linalg import RowSpace
        rad = [i for i in range(self.dim) if self.basis[i]]
        current = [{i: self.field.one} for i in rad]
        prev_dim = None
        while True:
            space = RowSpace(self.field, self.dim, current)
            if space.dim == 0:
                return
            if space.dim == prev_dim:
                raise AdmissibilityError(
                    "arrow ideal is not nilpotent: ideal not admissible")
            prev_dim = space.dim
            basis_vecs = space.reduced
            current = []
            for i in rad:
                gen = {i: self.field.one}
                for w in basis_vecs:
                    prod = self.elem_mul(gen, w)
                    if prod:
                        current.append(prod)

    # -- element arithmetic ----------------------------------------------

    def idempotent_elem(self, v):
        return {self.idempotent[v]: self.field.one}

    def elem_add(self, x, y):
        F = self.field
        out = dict(x)
        for i, c in y.items():
            nv = F.add(out.get(i, F.zero), c)
            if nv == 0:
                out.pop(i, None)
            else:
                out[i] = nv
        return out

    def elem_scale(self, c, x):
        if c == 0:
            return {}
        F = self.field
        return {i: F.mul(c, v) for i, v in x.items()}

    def elem_neg(self, x):
        F = self.field
        return {i: F.neg(v) for i, v in x.items()}

    def elem_mul(self, x, y):
        F = self.field
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                prod = self.mult_table.get((i, j))
                if not prod:
                    continue
                c = F.mul(a, b)
                for kk, sv in prod.items():
                    nv = F.add(out.get(kk, F.zero), F.mul(c, sv))
                    if nv == 0:
                        out.pop(kk, None)
                    else:
                        out[kk] = nv
        return out

    def elem_scalar_part(self, x, v):
        """Coefficient of the vertex idempotent e_v in x."""
        return x.get(self.idempotent[v], self.field.zero)

    def elem_in_corner(self, x, v, w):
        """True if x lies in e_v . A . e_w."""
        return all(self.basis_source[i] == v and self.basis_target[i] == w
                   for i in x)

    def corner_basis(self, v, w):
        """Basis indices of e_v . A . e_w."""
        return self.basis_by_st.get((v, w), [])

    def local_inverse(self, x, v):
        """Inverse of x in the local ring e_v . A . e_v (None if not a unit)."""
        F = self.field
        lam = self.elem_scalar_part(x, v)
        if lam == 0:
            return None
        e = self.idempotent_elem(v)
        r = self.elem_add(x, self.elem_scale(F.neg(lam), e))  # radical part
        inv_lam = F.inv(lam)
        # (lam e + r)^-1 = lam^-1 sum_k (-lam^-1 r)^k, r nilpotent
        out = self.elem_scale(inv_lam, e)
        term = e
        for _ in range(self.dim + 1):
            term = self.elem_mul(self.elem_scale(F.neg(inv_lam), r), term)
            if not term:
                break
            out = self.elem_add(out, self.elem_scale(inv_lam, term))
        else:
            raise AssertionError("radical part failed to be nilpotent")
        return out

    def __repr__(self):
        return (f"BoundQuiverAlgebra(n={self.n}, dim={self.dim}, "
                f"field={self.field!r})")


# -- grids of corner spaces ----------------------------------------------

class CornerGrid:
    """Flat coordinates for a grid of corner spaces e_{rv[i]} A e_{cv[j]}.

    A matrix over the grid is a {(i, j): element} dict with entry (i, j)
    in e_{rv[i]} A e_{cv[j]}, laid out row by row from offset up to end.
    Corner widths depend only on the row's vertex v: corner j of a row at
    v starts col_start[v][j] after row_start[i], and basis path b of
    corner (i, j) sits at start(i, j) + alg.corner_pos[b].
    """

    __slots__ = ("alg", "row_verts", "col_verts", "offset", "row_start",
                 "col_start", "end")

    def __init__(self, alg, row_verts, col_verts, offset=0):
        self.alg = alg
        self.row_verts = row_verts
        self.col_verts = col_verts
        self.offset = offset
        col_start = self.col_start = {}
        row_start = self.row_start = [offset]
        for v in row_verts:
            starts = col_start.get(v)
            if starts is None:
                starts = col_start[v] = [0]
                for w in col_verts:
                    starts.append(starts[-1] + len(alg.corner_basis(v, w)))
            row_start.append(row_start[-1] + starts[-1])
        self.end = row_start[-1]

    def start(self, i, j):
        """First coordinate of the corner at (i, j)."""
        return self.row_start[i] + self.col_start[self.row_verts[i]][j]

    def entries_to_vec(self, entries, vec):
        """Write the coordinates of a matrix over this grid into vec."""
        pos = self.alg.corner_pos
        for (i, j), e in entries.items():
            s = self.start(i, j)
            for b, c in e.items():
                vec[s + pos[b]] = c
        return vec

    def vec_to_entries(self, vec):
        """The matrix of the coordinates of vec inside this grid; the
        others are ignored."""
        entries = {}
        for k, c in vec.items():
            if c and self.offset <= k < self.end:
                # the last row, then corner, starting at or before k
                # (an empty one shares its start with the next)
                i = bisect_right(self.row_start, k) - 1
                v, k = self.row_verts[i], k - self.row_start[i]
                starts = self.col_start[v]
                j = bisect_right(starts, k) - 1
                corner = self.alg.corner_basis(v, self.col_verts[j])
                entries.setdefault((i, j), {})[corner[k - starts[j]]] = c
        return entries


def add_products(rows, src, dst, d, d_left):
    """Add the block matrix of X -> X.d, or X -> d.X when d_left, to rows.

    X ranges over the grid src and its product over the grid dst; d is a
    {(i, j): element} matrix.  rows[dst coordinate] maps src coordinates
    to coefficients.  The sum runs over the index of X that d contracts;
    the other index of X is free and passes through, grouped by vertex so
    each corner basis is listed, and the offsets of its cells looked up,
    once per entry of d and vertex.
    """
    if not d:
        return
    alg, F = src.alg, src.alg.field
    one = F.one
    free = src.col_verts if d_left else src.row_verts
    inner = src.row_verts if d_left else src.col_verts
    groups = {}
    for t, v in enumerate(free):
        groups.setdefault(v, []).append(t)
    cpos, srow, drow = alg.corner_pos, src.row_start, dst.row_start
    for pos, e in d.items():
        j, keep = (pos[1], pos[0]) if d_left else pos
        if d_left:  # cells (j, t) -> (keep, t)
            s0, d0 = srow[j], drow[keep]
            sc = src.col_start[inner[j]]
            dc = dst.col_start[dst.row_verts[keep]]
        for v, ts in groups.items():
            corner = (alg.corner_basis(inner[j], v) if d_left
                      else alg.corner_basis(v, inner[j]))
            if not d_left:  # cells (t, j) -> (t, keep), t at v in both
                sj, dk = src.col_start[v][j], dst.col_start[v][keep]
            for b0 in corner:
                prod = (alg.elem_mul(e, {b0: one}) if d_left
                        else alg.elem_mul({b0: one}, e))
                if not prod:
                    continue
                for t in ts:
                    if d_left:
                        col, out = s0 + sc[t], d0 + dc[t]
                    else:
                        col, out = srow[t] + sj, drow[t] + dk
                    col += cpos[b0]
                    for b, c in prod.items():
                        row = rows[out + cpos[b]]
                        cur = row.get(col)
                        nv = c if cur is None else F.add(cur, c)
                        if nv == 0:
                            row.pop(col, None)
                        else:
                            row[col] = nv
