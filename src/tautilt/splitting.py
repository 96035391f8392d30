"""Certified idempotent splitting of matrix algebras over Q.

Used by the Krull-Schmidt decomposition of modules (`modrep.decompose`);
two-term complexes are split through their H^0.  It hands in a basis of
an endomorphism algebra E realized as square matrices on the total space;
each candidate x is decided by the factors of its minimal polynomial.

- Two or more coprime primary factors f, g: the Bezout identity
  s f + t g = 1 gives the exact idempotent (t g)(x) (identity on the
  f-primary part, zero on the rest), no lifting needed.
- One primary factor p^k with deg p = dim E/rad E: the image y of x in
  the semisimple E/rad E has minimal polynomial p, so Q[y] is a subfield
  of E/rad E of full dimension.  Then E/rad E is a field, E is local and
  the object is indecomposable.

The candidates are the basis elements, then their pairwise sums.  Returning
None certifies a local algebra; when no candidate decides (E/rad E a
noncommutative division algebra, say) `find_idempotent` raises
DecompositionError rather than guess.
"""

import itertools

from .linalg import ExactMatrix, RowSpace


class DecompositionError(RuntimeError):
    """No candidate splits the endomorphism algebra or certifies it local."""


def _flatten(mat):
    vec = {}
    n = mat.ncols
    for i, row in enumerate(mat.rows):
        for j, v in row.items():
            vec[i * n + j] = v
    return vec


def minimal_polynomial(field, mat):
    """Monic minimal polynomial of a square matrix, as a coefficient list.

    Returns [c0, c1, ..., 1] with sum c_k x^k = 0.
    """
    n = mat.nrows
    nn = n * n
    space = RowSpace(field, nn + n + 1)
    power = ExactMatrix.identity(field, n)
    for k in itertools.count():
        # the row [x^k | e_k]: once x^k reduces to zero in the first nn
        # columns, the tail holds the monic relation sum c_i x^i = 0
        vec = _flatten(power)
        vec[nn + k] = field.one
        red = space.reduce(vec)
        if min(red) >= nn:
            return [red.get(nn + i, field.zero) for i in range(k + 1)]
        space.add(red)
        power = power.mul(mat)


def _eval_poly(field, coeffs, mat):
    n = mat.nrows
    acc = ExactMatrix.zero(field, n, n)
    power = ExactMatrix.identity(field, n)
    for k, c in enumerate(coeffs):
        if c != 0:
            acc = acc.add(power.scale(c))
        if k + 1 < len(coeffs):
            power = power.mul(mat)
    return acc


def _bezout_idempotent(field, mat, factors):
    """(t g)(mat) for s f + t g = 1, f the first primary factor and g the
    product of the others."""
    f = factors[0][0] ** factors[0][1]
    g = f.one
    for base, mult in factors[1:]:
        g *= base ** mult
    _, t, _ = f.gcdex(g)
    tg = t * g
    e = _eval_poly(field, [field.from_string(str(c))
                           for c in reversed(tg.all_coeffs())], mat)
    if e.mul(e) != e:
        raise DecompositionError("Bezout element is not idempotent")
    return e


def find_idempotent(field, basis_mats, total_dim):
    """Nontrivial idempotent in the span of basis_mats, or None when the
    span is a local algebra.

    basis_mats must be closed under multiplication up to span (an algebra
    basis) and contain the identity in their span.  Raises
    DecompositionError when no candidate decides.
    """
    import sympy

    k = len(basis_mats)
    if k == 1:
        return None  # the span of the identity: Q itself
    pairs = (basis_mats[i].add(basis_mats[j])
             for i in range(k) for j in range(i + 1, k))
    top_dim = None
    x = sympy.Symbol("x")
    for mat in itertools.chain(basis_mats, pairs):
        coeffs = minimal_polynomial(field, mat)
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x,
                          domain="QQ")
        factors = poly.factor_list()[1]
        if len(factors) > 1:
            return _bezout_idempotent(field, mat, factors)
        if top_dim is None:
            top_dim = k - len(radical_from_trace(field, basis_mats, total_dim))
        if factors[0][0].degree() == top_dim:
            return None
    raise DecompositionError(
        f"no basis element or pairwise sum splits the {k}-dimensional "
        f"endomorphism algebra or certifies it local")


def radical_from_trace(field, basis_mats, total_dim):
    """Radical of the algebra spanned by the total_dim x total_dim
    matrices basis_mats.

    Returns coefficient vectors over the given basis: the left kernel of
    the Gram matrix G[i][j] = trace(b_i b_j).  That kernel is the radical
    in characteristic 0 and in characteristic p > total_dim, where by
    Newton's identities a subspace of trace-zero powers is nil (Dickson);
    for smaller p it can be too large, so DecompositionError is raised.
    """
    p = field.characteristic
    if 0 < p <= total_dim:
        raise DecompositionError(
            f"the trace form decides the radical only in characteristic 0 "
            f"or p > dim; here p = {p} and dim = {total_dim}")
    k = len(basis_mats)
    gram = []
    for i in range(k):
        row = {}
        for j in range(k):
            prod = basis_mats[i].mul(basis_mats[j])
            tr = field.zero
            for d in range(total_dim):
                tr = field.add(tr, prod.entry(d, d))
            if tr != 0:
                row[j] = tr
        gram.append(row)
    G = ExactMatrix.from_row_dicts(field, k, k, gram)
    return G.left_kernel_rows().rows


def radical_from_mult_table(field, table, dim):
    """Radical via the regular representation for an abstract algebra.

    table[(i, j)] = {k: c} gives b_i b_j = sum c b_k.
    """
    mats = []
    for i in range(dim):
        rows = [{} for _ in range(dim)]
        for j in range(dim):
            prod = table.get((i, j), {})
            for k, c in prod.items():
                rows[j][k] = c
        # left multiplication by b_i on coefficient rows:
        # (b_i . y)_k = sum_j y_j (b_i b_j)_k
        mats.append(ExactMatrix(field, dim, dim, rows))
    return radical_from_trace(field, mats, dim)
