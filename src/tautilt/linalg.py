"""Exact sparse linear algebra over Q or GF(p).

Matrices are immutable-by-convention sparse row dicts.  Every
elimination goes through `RowSpace`, one incremental Gauss-Jordan that
keeps the reduced row echelon form of the rows added so far.  The RREF
of a row space is unique, so every reduced output (echelon bases,
`RowSpace.kernel`, particular solutions) is a function of the row space
alone, independent of the order the rows arrive in.  The kernel basis
of `kernel_via_presolve` is expanded over its classes of variables
equal up to a scalar, not reduced: only its span is canonical.

0 x n and n x 0 matrices are legal and behave as empty maps.
"""

from bisect import bisect


class ExactMatrix:
    """Sparse exact matrix: list of {col: scalar} rows over a field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(field, data, ncols=None):
        nrows = len(data)
        if ncols is None:
            ncols = len(data[0]) if nrows else 0
        rows = []
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            rows.append({j: v for j, v in enumerate(r) if v != 0})
        return ExactMatrix(field, nrows, ncols, rows)

    @staticmethod
    def zero(field, nrows, ncols):
        return ExactMatrix(field, nrows, ncols, [{} for _ in range(nrows)])

    @staticmethod
    def identity(field, n):
        one = field.one
        return ExactMatrix(field, n, n, [{i: one} for i in range(n)])

    # -- basics ---------------------------------------------------------

    def entry(self, i, j):
        return self.rows[i].get(j, self.field.zero)

    def is_zero(self):
        return all(not r for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols} over {self.field!r})"

    # -- arithmetic -----------------------------------------------------

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        F = self.field
        add, mul = F.add, F.mul
        out = []
        orows = other.rows
        for r in self.rows:
            acc = {}
            for k, a in r.items():
                for j, b in orows[k].items():
                    c = mul(a, b)
                    if j in acc:
                        s = add(acc[j], c)
                        if s == 0:
                            del acc[j]
                        else:
                            acc[j] = s
                    elif c != 0:
                        acc[j] = c
            out.append(acc)
        return ExactMatrix(F, self.nrows, other.ncols, out)

    def add(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        F = self.field
        out = []
        for r, s in zip(self.rows, other.rows):
            acc = dict(r)
            for j, v in s.items():
                if j in acc:
                    t = F.add(acc[j], v)
                    if t == 0:
                        del acc[j]
                    else:
                        acc[j] = t
                else:
                    acc[j] = v
            out.append(acc)
        return ExactMatrix(F, self.nrows, self.ncols, out)

    def scale(self, c):
        F = self.field
        if c == 0:
            return ExactMatrix.zero(F, self.nrows, self.ncols)
        return ExactMatrix(F, self.nrows, self.ncols,
                           [{j: F.mul(c, v) for j, v in r.items()} for r in self.rows])

    def transpose(self):
        rows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return ExactMatrix(self.field, self.ncols, self.nrows, rows)

    # -- elimination-backed queries --------------------------------------

    def rref(self):
        """Canonical reduced row echelon form of the row space.

        Returns (pivot_cols, rows) with rows sorted by pivot column: the
        unique RREF basis of the row space.
        """
        space = RowSpace(self.field, self.ncols, self.rows)
        return space.pivots, space.reduced

    def rank(self):
        return RowSpace(self.field, self.ncols, self.rows).dim

    def left_kernel_rows(self):
        """Rows spanning {v : v . self = 0}."""
        vecs = RowSpace(self.field, self.nrows, self.transpose().rows).kernel()
        return ExactMatrix(self.field, len(vecs), self.nrows, vecs)

    def solve_right(self, g):
        """One h with self . h = g (reduced-echelon particular solution) or None."""
        if g.nrows != self.nrows:
            raise ValueError("row counts incompatible in solve")
        r = self.ncols
        aug = []
        for i in range(self.nrows):
            row = dict(self.rows[i])
            for j, v in g.rows[i].items():
                row[r + j] = v
            aug.append(row)
        space = RowSpace(self.field, r + g.ncols, aug)
        if space.pivots and space.pivots[-1] >= r:
            return None  # the RREF of [self | g] has a row 0 = nonzero
        h_rows = [{} for _ in range(r)]
        for pcol, row in zip(space.pivots, space.reduced):
            for j, v in row.items():
                if j >= r:
                    h_rows[pcol][j - r] = v
        return ExactMatrix(self.field, r, g.ncols, h_rows)


class RowSpace:
    """A subspace of k^n, kept as the reduced row echelon form of its rows.

    This is the package's one elimination engine.  `add` reduces a vector
    by the stored rows, normalizes the remainder at its leftmost column
    and clears that column from the stored rows, so `pivots` (ascending)
    and `reduced` are always the unique RREF basis of the span of the
    rows added so far, whatever their order.  Vectors are {col: scalar}
    dicts without zero entries; the space never keeps a caller's dict.
    """

    def __init__(self, field, ambient, rows=()):
        self.field = field
        self.ambient = ambient
        self.pivots = []
        self.reduced = []
        self._row_at = {}   # pivot column -> its row
        self._holders = {}  # free column -> pivot columns whose rows have it
        # the RREF does not depend on the order of the rows, but the
        # fill-in on the way does: add the sparsest rows first
        for r in sorted(rows, key=len):
            self.add(r)

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Reduce a {col: val} vector modulo the subspace (canonical rep)."""
        F = self.field
        sub, mul, neg = F.sub, F.mul, F.neg
        row_at = self._row_at
        out = dict(vec)
        # each stored row is zero at every other pivot, so the order of
        # the subtractions does not matter
        for c in [c for c in vec if c in row_at]:
            factor = out.pop(c)
            for cc, pv in row_at[c].items():
                if cc == c:
                    continue
                cur = out.get(cc)
                if cur is None:
                    out[cc] = neg(mul(factor, pv))
                else:
                    nv = sub(cur, mul(factor, pv))
                    if nv == 0:
                        del out[cc]
                    else:
                        out[cc] = nv
        return out

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        """Add vec to the span; return its new basis row, or {} if vec was
        already in the span.  The returned row belongs to the space."""
        red = self.reduce(vec)
        if not red:
            return red
        F = self.field
        sub, mul, neg = F.sub, F.mul, F.neg
        c = min(red)
        v = red[c]
        if v != F.one:
            inv = F.inv(v)
            red = {cc: mul(inv, x) for cc, x in red.items()}
        holders = self._holders
        row_at = self._row_at
        clear = holders.pop(c, ())
        for cc in red:
            if cc != c:
                holders.setdefault(cc, set()).add(c)
        for p in clear:
            row = row_at[p]
            factor = row.pop(c)
            for cc, pv in red.items():
                if cc == c:
                    continue
                cur = row.get(cc)
                if cur is None:
                    row[cc] = neg(mul(factor, pv))
                    holders[cc].add(p)
                else:
                    nv = sub(cur, mul(factor, pv))
                    if nv == 0:
                        del row[cc]
                        holders[cc].discard(p)
                    else:
                        row[cc] = nv
        row_at[c] = red
        i = bisect(self.pivots, c)
        self.pivots.insert(i, c)
        self.reduced.insert(i, red)
        return red

    def free_cols(self):
        return [j for j in range(self.ambient) if j not in self._row_at]

    def kernel(self):
        """Vectors spanning {x : r . x = 0 for every row r}, one per free
        column j: x_j = 1, x_p = -row_p[j] at each pivot p."""
        F = self.field
        row_at, holders = self._row_at, self._holders
        out = []
        for j in self.free_cols():
            vec = {j: F.one}
            for p in sorted(holders.get(j, ())):
                vec[p] = F.neg(row_at[p][j])
            out.append(vec)
        return out


def kernel_via_presolve(field, rows, ncols):
    """Right-kernel basis vectors of a sparse homogeneous system.

    Built for the Hom-complex differentials of `twoterm.HomotopyHom`,
    which are almost all two-term unit equations.  Each variable is a
    multiple of its class root, x = mult[x] * root[x].  A row rewritten
    over the roots so far (dead classes dropped) to one entry kills its
    class; to two, a*x + b*y = 0, it moves the smaller class under the
    larger, so no variable moves more than log2(ncols) times.  Longer
    rows wait, are rewritten over the final roots and solved over the
    live roots by `RowSpace`; each solution is expanded over the
    classes.  The vectors span the kernel but are not reduced.
    """
    one, mul, add = field.one, field.mul, field.add
    root = list(range(ncols))
    mult = [one] * ncols
    size = [1] * ncols
    after = [-1] * ncols  # the next member of a class, from its root
    last = list(range(ncols))
    dead = [False] * ncols

    def rewrite(row):
        # the row over the roots, dead classes dropped
        acc = {}
        for x, c in row.items():
            r = root[x]
            if dead[r]:
                continue
            m = mult[x]
            cm = c if m == one else mul(c, m)
            cur = acc.get(r)
            nv = cm if cur is None else add(cur, cm)
            if nv == 0:
                acc.pop(r, None)
            else:
                acc[r] = nv
        return acc

    # rewritten rows hold distinct live roots, so two entries always
    # join two classes; a longer row waits for the final roots
    pending = []
    for row in rows:
        acc = rewrite(row)
        if len(acc) == 1:
            dead[next(iter(acc))] = True
        elif len(acc) == 2:
            (x, a), (y, b) = acc.items()
            if size[x] < size[y]:
                x, a, y, b = y, b, x, a
            f = field.neg(field.div(a, b))  # y = f * x
            z = y
            while z >= 0:
                root[z] = x
                mult[z] = f if mult[z] == one else mul(mult[z], f)
                z = after[z]
            after[last[x]], last[x] = y, last[y]
            size[x] += size[y]
        elif acc:
            pending.append(acc)

    live = [r for r in range(ncols) if root[r] == r and not dead[r]]
    pos = {r: i for i, r in enumerate(live)}
    res_rows = [{pos[r]: c for r, c in acc.items()}
                for acc in map(rewrite, pending) if acc]
    vectors = []
    for sol in RowSpace(field, len(live), res_rows).kernel():
        vec = {}
        for i, val in sol.items():
            z = live[i]
            while z >= 0:
                m = mult[z]
                vec[z] = val if m == one else mul(m, val)
                z = after[z]
        vectors.append(vec)
    return vectors
