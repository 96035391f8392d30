"""Exact sparse linear algebra over Q or GF(p).

Matrices are immutable-by-convention sparse row dicts.  Every
elimination goes through `RowSpace`, one incremental Gauss-Jordan that
keeps the reduced row echelon form of the rows added so far.  The RREF
of a row space is unique, so every reduced output (echelon bases,
`RowSpace.kernel`, particular solutions) is a function of the row space
alone, independent of the order the rows arrive in.  The kernel basis
of `kernel_via_presolve` is expanded from its union-find, not reduced.

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

    def right_kernel_basis(self):
        """Columns spanning {x : self . x = 0}; rank + kernel cols = ncols."""
        vecs = RowSpace(self.field, self.ncols, self.rows).kernel()
        out = [{} for _ in range(self.ncols)]
        for k, vec in enumerate(vecs):
            for i, v in vec.items():
                out[i][k] = v
        return ExactMatrix(self.field, self.ncols, len(vecs), out)

    def left_kernel_rows(self):
        """Rows spanning {v : v . self = 0}."""
        return self.transpose().right_kernel_basis().transpose()

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

    Each row is rewritten once over the class representatives so far;
    one or two entries left pin a variable to zero or identify two up to
    a scalar through a weighted union-find.  Longer rows are rewritten
    over the final representatives and the (small) residual system runs
    through `RowSpace`.  Built for the differentials
    of the Hom complexes (`twoterm.HomotopyHom`), which are almost
    entirely two-term unit equations.

    Returns a list of {col: val} vectors spanning the kernel.
    """
    parent = list(range(ncols))
    one = field.one
    mult = [one] * ncols  # var = mult[var] * parent[var]
    is_zero = [False] * ncols

    def resolve(x):
        p = parent[x]
        if p == x:
            return x, one
        if parent[p] == p:
            return p, mult[x]
        # path compression, deepest first so multipliers compose correctly
        chain = [x]
        x2 = p
        while parent[x2] != x2:
            chain.append(x2)
            x2 = parent[x2]
        root = x2
        for y in reversed(chain):
            p2 = parent[y]
            if p2 != root:
                mp = mult[p2]
                if mp != one:
                    mult[y] = field.mul(mult[y], mp)
                parent[y] = root
        return root, mult[x]

    def pin_zero(x):
        r, _ = resolve(x)
        is_zero[r] = True

    def link(x, a, y, b):
        # a x + b y = 0
        rx, mx = resolve(x)
        ry, my = resolve(y)
        ca = a if mx == one else field.mul(a, mx)
        cb = b if my == one else field.mul(b, my)
        if rx == ry:
            if field.add(ca, cb) != 0:
                is_zero[rx] = True
            return
        if is_zero[rx] or is_zero[ry]:
            is_zero[rx] = is_zero[ry] = True
        # attach the larger root under the smaller for determinism
        if rx > ry:
            rx, ry, ca, cb = ry, rx, cb, ca
        # now attach ry under rx: ry = -(ca/cb) rx
        parent[ry] = rx
        mult[ry] = field.neg(field.div(ca, cb))
        if is_zero[rx]:
            is_zero[ry] = True

    def rewrite(row):
        # the row over the class representatives, zero classes dropped
        acc = {}
        for x, c in row.items():
            r, m = resolve(x)
            if is_zero[r]:
                continue
            cm = c if m == one else field.mul(c, m)
            cur = acc.get(r)
            nv = cm if cur is None else field.add(cur, cm)
            if nv == 0:
                acc.pop(r, None)
            else:
                acc[r] = nv
        return acc

    # one pass: a row still longer than two entries once rewritten goes
    # to the residual system, which is rewritten over the final roots
    pending = []
    for row in rows:
        acc = rewrite(row)
        if len(acc) == 1:
            (x, _), = acc.items()
            pin_zero(x)
        elif len(acc) == 2:
            (x, a), (y, b) = acc.items()
            link(x, a, y, b)
        elif acc:
            pending.append(acc)

    # residual system over surviving roots
    live = set()
    for x in range(ncols):
        r, _ = resolve(x)
        if not is_zero[r]:
            live.add(r)
    live_roots = sorted(live)
    root_pos = {r: i for i, r in enumerate(live_roots)}
    res_rows = [{root_pos[r]: c for r, c in acc.items()}
                for acc in map(rewrite, pending) if acc]
    root_solutions = [
        {live_roots[i]: v for i, v in vec.items()}
        for vec in RowSpace(field, len(live_roots), res_rows).kernel()]

    # expand each root solution across its class members
    members = {}
    for x in range(ncols):
        r, m = resolve(x)
        if is_zero[r]:
            continue
        members.setdefault(r, []).append((x, m))
    vectors = []
    for sol in root_solutions:
        vec = {}
        for r, val in sol.items():
            for (x, m) in members.get(r, ()):
                v = val if m == one else field.mul(m, val)
                if v != 0:
                    vec[x] = v
        if vec:
            vectors.append(vec)
    return vectors
