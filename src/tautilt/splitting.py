"""Idempotent search in matrix algebras over Q.

Used by the Krull-Schmidt decomposition of modules (`modrep.decompose`);
two-term complexes are split through their H^0.  It hands in a basis of
an endomorphism algebra realized as square matrices on the total space;
we look for a nontrivial idempotent by factoring minimal polynomials of
candidate elements.  If the minimal polynomial of x splits into two
coprime parts f, g, the Bezout identity s f + t g = 1 gives the exact
idempotent (t g)(x) (identity on the f-primary part, zero on the rest),
no lifting needed.

The candidate sweep (basis elements, pairwise sums, seeded small random
combinations, small exhaustive fallback) is deterministic for a fixed
seed.  Returning None means "no splitting found", which the caller
treats as "indecomposable"; for the module sizes this package targets the
sweep is reliable because the solved echelon bases of End contain
projection-like elements whenever the object is decomposable.
"""

import itertools
import random
from fractions import Fraction

from .linalg import ExactMatrix, RowSpace


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
    powers = [ExactMatrix.identity(field, n)]
    vecs = [_flatten(powers[0])]
    while True:
        space = RowSpace(field, n * n, vecs[:-1])
        red = space.reduce(vecs[-1])
        if not red:
            # last power depends on the earlier ones: recover coefficients
            k = len(vecs) - 1
            stacked = ExactMatrix.from_row_dicts(field, k, n * n, vecs[:k])
            target = ExactMatrix.from_row_dicts(field, 1, n * n, [vecs[-1]])
            sol = stacked.solve_left(target)
            coeffs = [field.neg(sol.rows[0].get(i, field.zero)) for i in range(k)]
            coeffs.append(field.one)
            return coeffs
        powers.append(powers[-1].mul(mat))
        vecs.append(_flatten(powers[-1]))


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


def _split_idempotent_from_minpoly(field, mat, coeffs):
    """Exact idempotent from a coprime factor split of the minimal polynomial."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x, domain="QQ")
    factors = sympy.factor_list(poly)[1]
    if len(factors) < 2:
        return None
    f = factors[0][0] ** factors[0][1]
    g = sympy.Poly(1, x, domain="QQ")
    for base, mult in factors[1:]:
        g = g * base ** mult
    s, t, h = sympy.gcdex(f.as_expr(), g.as_expr(), x)
    if sympy.simplify(h) != 1:
        return None
    tg = sympy.Poly(sympy.expand(t * g.as_expr()), x, domain="QQ")
    cs = [Fraction(str(c)) for c in reversed(tg.all_coeffs())]
    e = _eval_poly(field, [field.from_string(str(c)) for c in cs], mat)
    n = mat.nrows
    if e.mul(e) != e:
        # defensive polish; with the true minimal polynomial this is a no-op
        for _ in range(20):
            e2 = e.mul(e)
            e = e2.scale(field.from_int(3)).sub(e2.mul(e).scale(field.from_int(2)))
            if e.mul(e) == e:
                break
        else:
            return None
    if e.is_zero() or e == ExactMatrix.identity(field, n):
        return None
    return e


def find_idempotent(field, basis_mats, total_dim, seed=0, random_trials=80):
    """Nontrivial idempotent in the span of basis_mats, or None.

    basis_mats must be closed under multiplication up to span (an algebra
    basis) and contain the identity in their span.
    """
    if total_dim == 0 or len(basis_mats) <= 1:
        return None

    def try_candidate(mat):
        coeffs = minimal_polynomial(field, mat)
        if len(coeffs) <= 2:
            return None  # scalar-ish element, no split
        return _split_idempotent_from_minpoly(field, mat, coeffs)

    for mat in basis_mats:
        e = try_candidate(mat)
        if e is not None:
            return e
    npairs = 0
    for i in range(len(basis_mats)):
        for j in range(i + 1, len(basis_mats)):
            e = try_candidate(basis_mats[i].add(basis_mats[j]))
            if e is not None:
                return e
            npairs += 1
            if npairs >= 60:
                break
        if npairs >= 60:
            break
    rng = random.Random(seed)
    for _ in range(random_trials):
        acc = None
        for m in basis_mats:
            c = rng.randint(-2, 2)
            if c == 0:
                continue
            term = m.scale(field.from_int(c))
            acc = term if acc is None else acc.add(term)
        if acc is None:
            continue
        e = try_candidate(acc)
        if e is not None:
            return e
    if len(basis_mats) <= 4:
        for coeffs in itertools.product(range(-2, 3), repeat=len(basis_mats)):
            acc = None
            for c, m in zip(coeffs, basis_mats):
                if c == 0:
                    continue
                term = m.scale(field.from_int(c))
                acc = term if acc is None else acc.add(term)
            if acc is None:
                continue
            e = try_candidate(acc)
            if e is not None:
                return e
    return None


def radical_from_trace(field, basis_mats, total_dim):
    """Radical of the matrix algebra spanned by basis_mats (char 0 only).

    Returns coefficient vectors over the given basis: the left kernel of
    the Gram matrix G[i][j] = trace(b_i b_j).
    """
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
