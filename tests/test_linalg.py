import random
from fractions import Fraction as F

import pytest

from tautilt import twoterm as tt
from tautilt.algebra import parse_algebra
from tautilt.fields import QQ, PrimeField
from tautilt.linalg import ExactMatrix, RowSpace, kernel_via_presolve
from tautilt.sttilt import enumerate_sttilt

from conftest import data_path
from reference import inverse, row_space_rows


def test_kernel_identity_empty():
    K = ExactMatrix.identity(QQ, 2).transpose().left_kernel_rows()
    assert K.nrows == 0


def test_kernel_zero_matrix_full():
    K = ExactMatrix.zero(QQ, 2, 3).transpose().left_kernel_rows()
    assert K.nrows == 3
    assert K.rank() == 3


def test_kernel_rank_one():
    # [[1,1],[1,1]]: kernel spanned by (1,-1) up to scaling
    M = ExactMatrix.from_rows(QQ, [[F(1), F(1)], [F(1), F(1)]])
    K = M.transpose().left_kernel_rows()
    assert K.nrows == 1
    assert M.mul(K.transpose()).is_zero()
    col = [K.entry(0, 0), K.entry(0, 1)]
    assert col[0] != 0 and col[0] == -col[1]


def test_solve_identity():
    g = ExactMatrix.from_rows(QQ, [[F(3), F(5)], [F(1), F(2)]])
    h = ExactMatrix.identity(QQ, 2).solve_right(g)
    assert h == g


def test_solve_zero_inconsistent():
    f = ExactMatrix.zero(QQ, 2, 2)
    g = ExactMatrix.from_rows(QQ, [[F(1), F(0)], [F(0), F(0)]])
    assert f.solve_right(g) is None


def test_solve_column():
    f = ExactMatrix.from_rows(QQ, [[F(1)], [F(1)]])
    g = ExactMatrix.from_rows(QQ, [[F(2)], [F(2)]])
    h = f.solve_right(g)
    assert (h.nrows, h.ncols, h.rows) == (1, 1, [{0: F(2)}])


def test_empty_shapes_behave():
    empty = ExactMatrix.zero(QQ, 0, 3)
    assert empty.transpose().left_kernel_rows().nrows == 3
    tall = ExactMatrix.zero(QQ, 3, 0)
    assert tall.transpose().left_kernel_rows().nrows == 0
    assert empty.rank() == 0


def test_random_kernel_and_solve_exact():
    rng = random.Random(7)
    for _ in range(150):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        M = ExactMatrix.from_rows(
            QQ, [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                 for _ in range(n)], ncols=m)
        K = M.transpose().left_kernel_rows()
        assert M.mul(K.transpose()).is_zero()
        assert M.rank() + K.nrows == m
        H = ExactMatrix.from_rows(
            QQ, [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(m)],
            ncols=2)
        G = M.mul(H)
        H2 = M.solve_right(G)
        assert H2 is not None
        assert M.mul(H2) == G  # bit-exact


def test_rref_canonical_under_row_shuffle():
    rng = random.Random(11)
    for _ in range(80):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
        M = ExactMatrix.from_rows(QQ, rows, ncols=m)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        M2 = ExactMatrix.from_rows(QQ, shuffled, ncols=m)
        assert M.rref() == M2.rref()


def test_prime_field_kernel():
    F2 = PrimeField(2)
    M = ExactMatrix.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
    K = M.transpose().left_kernel_rows()
    assert K.nrows == 1
    assert M.mul(K.transpose()).is_zero()


def test_presolve_kernel_matches_generic():
    rng = random.Random(3)
    for _ in range(200):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        rows = []
        for _ in range(n):
            row = {}
            for j in range(m):
                if rng.random() < 0.4:
                    v = F(rng.randint(-3, 3))
                    if v:
                        row[j] = v
            rows.append(row)
        expected = reference_rref(QQ, reference_kernel(QQ, rows, m), m)[1]
        out = kernel_via_presolve(QQ, rows, m)
        assert len(out) == len(expected)
        assert RowSpace(QQ, m, out).reduced == expected


def assert_presolve_spans_the_kernel(field, rows, ncols):
    out = kernel_via_presolve(field, rows, ncols)
    kernel = RowSpace(field, ncols, rows).kernel()
    assert len(out) == len(kernel)
    assert RowSpace(field, ncols, out).reduced \
        == RowSpace(field, ncols, kernel).reduced


@pytest.mark.parametrize("name, field, max_nodes", [
    ("kronecker.alg", "Q", 20), ("kronecker.alg", "Fp:3", 20),
    ("preproj_a3.alg", "Q", 10 ** 6)])
def test_presolve_on_the_systems_of_an_enumeration(monkeypatch, name, field,
                                                   max_nodes):
    # the Hom-complex differentials hold long classes of unit equations,
    # which the small random systems above never build
    with open(data_path(name), encoding="utf-8") as fh:
        alg = parse_algebra(fh.read().replace('"Q"', f'"{field}"'))
    systems = []
    kernel = tt.kernel_via_presolve

    def captured(F, rows, ncols):
        systems.append((F, rows, ncols))
        return kernel(F, rows, ncols)

    monkeypatch.setattr(tt, "kernel_via_presolve", captured)
    enumerate_sttilt(alg, max_nodes=max_nodes)
    assert systems
    for F, rows, ncols in systems:
        assert_presolve_spans_the_kernel(F, rows, ncols)


@pytest.mark.parametrize("field, rows, ncols", [
    # x0 = x1 = x2 = -x0 pins the class to zero outside characteristic 2;
    # the class {x3, x4} stays free
    (QQ, [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: 1}, {3: 1, 4: -1}], 5),
    (PrimeField(3), [{0: 1, 1: 2}, {1: 1, 2: 2}, {2: 1, 0: 1}, {3: 1, 4: 2}],
     5),
    # {x1, x2, x3} forms first; the third row names the singleton x0
    # before x1, and x0 = 3 x1 moves the first class it names under the
    # larger second one
    (QQ, [{1: 1, 2: -1}, {2: 1, 3: -2}, {0: 1, 1: -3}, {4: 1, 5: 1, 6: 1}],
     7)], ids=["disagreeing-cycle-Q", "disagreeing-cycle-GF3",
               "larger-second-class"])
def test_presolve_on_hand_built_classes(field, rows, ncols):
    assert_presolve_spans_the_kernel(field, rows, ncols)


# -- differential test against a dense textbook Gauss-Jordan ----------------

def reference_rref(field, rows, ncols):
    """Dense Gauss-Jordan, column by column: (pivot columns, RREF rows)."""
    mat = [[r.get(j, field.zero) for j in range(ncols)] for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        below = [i for i in range(top, len(mat)) if mat[i][col] != 0]
        if not below:
            continue
        mat[top], mat[below[0]] = mat[below[0]], mat[top]
        inv = field.inv(mat[top][col])
        mat[top] = [field.mul(inv, x) for x in mat[top]]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != top and f != 0:
                mat[i] = [field.sub(x, field.mul(f, y))
                          for x, y in zip(mat[i], mat[top])]
        pivots.append(col)
    return pivots, [{j: x for j, x in enumerate(mat[i]) if x != 0}
                    for i in range(len(pivots))]


def reference_kernel(field, rows, ncols):
    """One kernel vector per free column of the reference RREF."""
    pivots, reduced = reference_rref(field, rows, ncols)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = {j: field.one}
        for p, row in zip(pivots, reduced):
            if j in row:
                vec[p] = field.neg(row[j])
        out.append(vec)
    return out


def random_scalar(field, rng):
    if field == QQ:
        return QQ.div(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]),
                      rng.randint(1, 4))
    return rng.randrange(1, field.p)


def random_sparse_rows(field, rng, nrows, ncols):
    """Sparse rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = random_scalar(field, rng), random_scalar(field, rng)
            row = {}
            for j in set(a) | set(b):
                v = field.add(field.mul(ca, a.get(j, field.zero)),
                              field.mul(cb, b.get(j, field.zero)))
                if v != 0:
                    row[j] = v
        else:
            row = {j: random_scalar(field, rng) for j in range(ncols)
                   if rng.random() < 0.35}
        rows.append(row)
    return rows


def augmented(rows, g, m):
    """Rows of [A | g] for A with m columns."""
    return [{**r, **{m + j: v for j, v in gr.items()}}
            for r, gr in zip(rows, g.rows)]


def test_elimination_matches_dense_gauss_jordan():
    rng = random.Random(2024)
    for field in (QQ, PrimeField(2), PrimeField(5)):
        for _ in range(100):
            n, m = rng.randint(0, 8), rng.randint(0, 8)
            rows = random_sparse_rows(field, rng, n, m)
            pivots, reduced = reference_rref(field, rows, m)
            mat = ExactMatrix(field, n, m, [dict(r) for r in rows])
            assert mat.rref() == (pivots, reduced)
            assert mat.rank() == len(pivots)
            assert row_space_rows(mat).rows == reduced

            batch = RowSpace(field, m, rows)
            assert (batch.pivots, batch.reduced) == (pivots, reduced)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            grown = RowSpace(field, m)
            for row in shuffled:
                dim = grown.dim
                assert bool(grown.add(row)) == (grown.dim == dim + 1)
            assert (grown.pivots, grown.reduced) == (pivots, reduced)
            assert grown.free_cols() == [j for j in range(m)
                                         if j not in pivots]
            probe = random_sparse_rows(field, rng, 1, m)[0]
            in_span = reference_rref(field, rows + [probe], m)[0] == pivots
            assert grown.contains(probe) == in_span

            kernel = reference_kernel(field, rows, m)
            assert grown.kernel() == kernel
            assert mat.transpose().left_kernel_rows().rows == kernel
            out = kernel_via_presolve(field, rows, m)
            assert RowSpace(field, m, out).reduced \
                == reference_rref(field, kernel, m)[1]

            # consistent: g = mat . h for a random h; the solution is the
            # reduced-echelon one read off the RREF of [mat | g]
            k = rng.randint(1, 3)
            h = ExactMatrix(field, m, k, random_sparse_rows(field, rng, m, k))
            g = mat.mul(h)
            aug = augmented(rows, g, m)
            aug_pivots, aug_rows = reference_rref(field, aug, m + k)
            expected = [{} for _ in range(m)]
            for p, row in zip(aug_pivots, aug_rows):
                expected[p] = {j - m: v for j, v in row.items() if j >= m}
            assert mat.solve_right(g).rows == expected
            # inconsistent exactly when the RREF of [mat | g] pivots in g
            g = ExactMatrix(field, n, k, random_sparse_rows(field, rng, n, k))
            aug = augmented(rows, g, m)
            solvable = all(p < m for p in reference_rref(field, aug, m + k)[0])
            sol = mat.solve_right(g)
            assert (sol is not None) == solvable
            if solvable:
                assert mat.mul(sol) == g


def test_rowspace_reduce_and_contains():
    rows = [{0: F(1), 1: F(2)}, {2: F(1)}]
    sp = RowSpace(QQ, 3, rows)
    assert sp.dim == 2
    assert sp.contains({0: F(2), 1: F(4), 2: F(7)})
    assert not sp.contains({1: F(1)})
    assert sp.free_cols() == [1]


def test_inverse():
    A = ExactMatrix.from_rows(QQ, [[F(2), F(1)], [F(1), F(1)]])
    Ainv = inverse(A)
    assert A.mul(Ainv) == ExactMatrix.identity(QQ, 2)
    singular = ExactMatrix.from_rows(QQ, [[F(1), F(1)], [F(1), F(1)]])
    assert inverse(singular) is None
