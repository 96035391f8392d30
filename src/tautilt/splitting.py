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
from functools import reduce

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


def _radical(field, total_dim, k, upper):
    """The radical of an algebra with basis b_1..b_k acting on a space of
    dimension total_dim, as coefficient vectors over that basis: the
    kernel of the Gram matrix G[i][j] = trace(b_i b_j), which is
    symmetric, so upper yields (i, j, G[i][j]) for i <= j only.

    That kernel is the radical in characteristic 0 and in characteristic
    p > total_dim, where by Newton's identities a subspace of trace-zero
    powers is nil (Dickson); for smaller p it can be too large, so
    DecompositionError is raised before upper is run.
    """
    p = field.characteristic
    if 0 < p <= total_dim:
        raise DecompositionError(
            f"the trace form decides the radical only in characteristic 0 "
            f"or p > dim; here p = {p} and dim = {total_dim}")
    gram = [{} for _ in range(k)]
    for i, j, t in upper:
        if t != 0:
            gram[i][j] = gram[j][i] = t
    return RowSpace(field, k, gram).kernel()


def _sum(field, values):
    return reduce(field.add, values, field.zero)


def radical_from_trace(field, basis_mats, total_dim):
    """Radical of the algebra spanned by the total_dim x total_dim
    matrices basis_mats (`_radical`), with trace(b_i b_j) read as
    sum_{a,c} (b_i)_{ac} (b_j)_{ca}, no product formed."""
    def upper():
        for i, bi in enumerate(basis_mats):
            for j in range(i, len(basis_mats)):
                bj = basis_mats[j].rows
                yield i, j, _sum(field, (
                    field.mul(x, bj[c][a]) for a, row in enumerate(bi.rows)
                    for c, x in row.items() if a in bj[c]))

    return _radical(field, total_dim, len(basis_mats), upper())


def radical_from_mult_table(field, table, dim):
    """Radical of an abstract algebra with b_i b_j = sum_k c_ij^k b_k,
    given as table[(i, j)] = {k: c_ij^k} (`_radical`).  On the regular
    representation trace(b_i b_j) = sum_k c_ij^k t_k with t_k =
    trace(b_k) = sum_j c_kj^j, so no representation matrix is formed.
    """
    def upper():
        t = [_sum(field, (table.get((k, j), {}).get(j, field.zero)
                          for j in range(dim))) for k in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                yield i, j, _sum(field, (field.mul(c, t[k]) for k, c
                                         in table.get((i, j), {}).items()))

    return _radical(field, dim, dim, upper())
