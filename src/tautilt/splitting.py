"""Certified Krull-Schmidt splitting of matrix algebras over Q.

Used by the Krull-Schmidt decomposition of modules (`modrep.decompose`);
two-term complexes are split through their H^0.  It hands in a basis of
an endomorphism algebra E of M, realized as square matrices on the total
space of M.

- Radical first.  rad E is the kernel of the trace form (`_radical`).  If
  dim E/rad E = 1, then E/rad E = Q, so E is local and M indecomposable;
  no candidate is tried.
- Fitting split.  Otherwise the candidates x are the basis elements, then
  their pairwise sums.  For a power y = x^N whose rank no longer drops,
  M = im y + ker y is a direct sum of submodules (Fitting's lemma); it
  splits M unless x is nilpotent (y = 0) or invertible.
- Only an invertible x needs its minimal polynomial m, factored with
  sympy, which is imported there and nowhere else: two coprime factors
  split M along the Fitting decomposition of the first one at x, and a
  single irreducible factor of degree dim E/rad E certifies E local.

The first two steps are exact int/Fraction arithmetic.  Returning None
certifies a local algebra; when no candidate decides (E/rad E a
noncommutative division algebra, say) `find_idempotent` raises
DecompositionError rather than guess.
"""

import itertools
from functools import reduce

from .linalg import ExactMatrix, RowSpace


class DecompositionError(RuntimeError):
    """No candidate splits the endomorphism algebra or certifies it local."""


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
        vec = {i * n + j: v for i, row in enumerate(power.rows)
               for j, v in row.items()}
        vec[nn + k] = field.one
        red = space.reduce(vec)
        if min(red) >= nn:
            return [red.get(nn + i, field.zero) for i in range(k + 1)]
        space.add(red)
        power = power.mul(mat)


def _fitting_power(mat):
    """(y, rank y) for the first y = mat^(2^j) with rank y^2 = rank y.

    Then im y and ker y meet in 0 and span the space: Fitting's
    decomposition of mat, into its invertible and its nilpotent part.
    """
    y, r = mat, mat.rank()
    while r:
        square = y.mul(y)
        rank = square.rank()
        if rank == r:
            break
        y, r = square, rank
    return y, r


def find_idempotent(field, basis_mats, total_dim):
    """A Fitting element y of the span of basis_mats, or None when the
    span is a local algebra.

    y has 0 < rank y = rank y^2 < total_dim, so its row space and its
    left kernel (im y and ker y, on row vectors) are complementary
    nonzero submodules.  basis_mats must be closed under multiplication
    up to span (an algebra basis) and contain the identity in their
    span.  Raises DecompositionError when no candidate decides.
    """
    k = len(basis_mats)
    top = k - len(radical_from_trace(field, basis_mats, total_dim))
    if top == 1:
        return None  # E/rad E = Q, so E is local
    one = ExactMatrix.identity(field, total_dim)
    pairs = (basis_mats[i].add(basis_mats[j])
             for i in range(k) for j in range(i + 1, k))
    for x in itertools.chain(basis_mats, pairs):
        y, r = _fitting_power(x)
        if r < total_dim:
            if r:
                return y
            continue  # nilpotent
        import sympy

        coeffs = minimal_polynomial(field, x)
        t = sympy.Symbol("t")
        factors = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator)
             for c in reversed(coeffs)], t, domain="QQ").factor_list()[1]
        if len(factors) == 1:
            if factors[0][0].degree() == top:
                return None
            continue
        # the first factor at x: its Fitting power splits off the rest
        z = ExactMatrix.zero(field, total_dim, total_dim)
        for c in factors[0][0].all_coeffs():
            z = z.mul(x).add(one.scale(field.div(int(c.p), int(c.q))))
        return _fitting_power(z)[0]
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
