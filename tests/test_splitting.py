"""The trace-form radical against the Gram matrix of formed products.

`splitting.radical_from_trace` reads trace(b_i b_j) off the entries of
b_i and b_j, and `splitting.radical_from_mult_table` off the structure
constants and the traces of the basis elements.  The reference below
forms every product b_i b_j (for a multiplication table, of the
regular-representation matrices) and takes the left kernel of the Gram
matrix of their traces.  Both must return the same vectors on the End
algebras of the Pi(A3) summands, on the module and on the complex side.
"""

from tautilt import modrep as mr
from tautilt import splitting
from tautilt import sttilt as st
from tautilt import twoterm as tt
from tautilt.linalg import ExactMatrix

from conftest import pair_module, read_algebra


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
