"""The splitter: its trace-form radical and each of its branches.

`splitting.radical_from_trace` reads trace(b_i b_j) off the entries of
b_i and b_j, and `splitting.radical_from_mult_table` off the structure
constants and the traces of the basis elements.  The reference below
forms every product b_i b_j (for a multiplication table, of the
regular-representation matrices) and takes the left kernel of the Gram
matrix of their traces.  Both must return the same vectors on the End
algebras of the Pi(A3) summands, on the module and on the complex side.

`splitting.find_idempotent` is then run on explicit matrix algebras
whose basis elements are all invertible, so that only sympy's factors of
their minimal polynomials split them: Q x Q, and Q(sqrt 2) x Q(sqrt 3)
with a minimal polynomial of degree 4.  The radical-first certificate
and the Fitting split of a non-invertible element are enough for a CLI
completion of a Pi(A3) pair, which never imports sympy.
"""

import os
import subprocess
import sys

from tautilt import modrep as mr
from tautilt import splitting
from tautilt import sttilt as st
from tautilt import twoterm as tt
from tautilt.fields import QQ
from tautilt.linalg import ExactMatrix

from conftest import data_path, pair_module, read_algebra


def product_gram_radical(field, mats):
    k = len(mats)
    gram = []
    for a in mats:
        row = {}
        for j, b in enumerate(mats):
            prod = a.mul(b)
            tr = field.zero
            for d in range(prod.nrows):
                tr = field.add(tr, prod.entry(d, d))
            if tr != 0:
                row[j] = tr
        gram.append(row)
    G = ExactMatrix(field, k, k, gram)
    return G.left_kernel_rows().rows


def regular_representation(field, table, dim):
    """The matrix of b_i acting on coefficient rows, for each i."""
    mats = []
    for i in range(dim):
        rows = [{} for _ in range(dim)]
        for j in range(dim):
            for k, c in table.get((i, j), {}).items():
                rows[j][k] = c
        mats.append(ExactMatrix(field, dim, dim, rows))
    return mats


def test_trace_form_matches_the_products_on_preprojective_a3():
    alg = read_algebra("preproj_a3.alg")
    F = alg.field
    graph = st.enumerate_sttilt(alg)
    assert graph.node_count() == 24
    modules = [tt.complex_h0(R) for R in alg.summands.values() if R.p0]
    modules += [pair_module(p) for p in graph.nodes if p.module_summands()]
    nonzero = 0
    for M in modules:
        mats = [mr._block_diagonal(F, f) for f in mr.hom_space(M, M)]
        rad = splitting.radical_from_trace(F, mats, M.total_dim)
        assert rad == product_gram_radical(F, mats)
        nonzero += bool(rad)
    for R in alg.summands.values():
        end = tt.hom_homotopy(R, R, 0)
        table = tt.composition_table(R, R, R)
        mult = {(i, j): table[j][i]
                for i in range(end.dim) for j in range(end.dim)}
        rad = splitting.radical_from_mult_table(F, mult, end.dim)
        assert rad == product_gram_radical(
            F, regular_representation(F, mult, end.dim))
        nonzero += bool(rad)
    assert nonzero >= 10


def block_diagonal(*blocks):
    return mr._block_diagonal(QQ, [ExactMatrix.from_rows(QQ, b)
                                   for b in blocks])


def powers(mat, count):
    out = [ExactMatrix.identity(QQ, mat.nrows)]
    for _ in range(count - 1):
        out.append(out[-1].mul(mat))
    return out


def fitting_parts(y):
    """(im y, ker y) on row vectors, as RREF rows."""
    return (y.rref()[1], y.left_kernel_rows().rref()[1])


def counted_factorizations(monkeypatch):
    """The polynomials sympy factors from now on."""
    import sympy

    calls = []
    factor_list = sympy.Poly.factor_list

    def counted(poly, *args, **kwargs):
        calls.append(poly)
        return factor_list(poly, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "factor_list", counted)
    return calls


def test_a_degree_four_minimal_polynomial_is_factored_by_sympy(monkeypatch):
    # Q(sqrt 2) x Q(sqrt 3) = Q[A], A the block companion of t^2 - 2 and
    # t^2 - 3: the basis element I has minimal polynomial t - 1, which
    # decides nothing, and A has t^4 - 5t^2 + 6; its first factor t^2 - 3
    # kills the second block and splits it off
    calls = counted_factorizations(monkeypatch)
    A = block_diagonal([[0, 1], [2, 0]], [[0, 1], [3, 0]])
    y = splitting.find_idempotent(QQ, powers(A, 4), 4)
    assert len(calls) == 2
    assert fitting_parts(y) == ([{0: 1}, {1: 1}], [{2: 1}, {3: 1}])


def test_an_invertible_basis_is_split_by_its_factors(monkeypatch):
    # Q x Q spanned by I and diag(1, 2): both basis elements are
    # invertible, so each minimal polynomial goes to sympy; t - 1 (of I)
    # decides nothing, and a linear factor of (t - 1)(t - 2) at
    # diag(1, 2) splits off one coordinate
    calls = counted_factorizations(monkeypatch)
    D = block_diagonal([[1]], [[2]])
    y = splitting.find_idempotent(QQ, [ExactMatrix.identity(QQ, 2), D], 2)
    assert len(calls) == 2
    assert sorted(fitting_parts(y), key=lambda rows: list(rows[0])) \
        == [[{0: 1}], [{1: 1}]]


def test_a_cli_completion_of_a_preprojective_pair_never_imports_sympy():
    # a two-summand almost complete pair of Pi(A3): every End on the way
    # is certified local by its radical or split at a basis element
    script = (
        "import io, sys\n"
        "from tautilt import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        f"argv = ['bongartz', '--algebra', {data_path('preproj_a3.alg')!r},"
        f" '--pair', {data_path('preproj_a3_pair.json')!r}]\n"
        "assert cli.run(argv, out=out, err=err) == 0, err.getvalue()\n"
        "assert len(out.getvalue().split('dim_vector')) == 4\n"
        "assert 'sympy' not in sys.modules\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
