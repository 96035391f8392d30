from itertools import product

import pytest

from tautilt.algebra import (AdmissibilityError, AlgebraError,
                             AlgebraFileError, CornerGrid, parse_algebra)
from tautilt.fields import GF

from conftest import arrow_element, path_name


def test_a2_basis(a2):
    names = [path_name(a2, i) for i in range(a2.dim)]
    assert names == ["e1", "e2", "a"]
    assert a2.dim == 3 and a2.n == 2


def test_point_algebra(point):
    assert point.dim == 1 and point.n == 1


def test_loop_cubed_basis():
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1"]\n'
        'arrow = { name = "x", source = "1", target = "1" }\n'
        'relations = ["x*x*x"]')
    assert [path_name(alg, i) for i in range(alg.dim)] == ["e1", "x", "x*x"]
    assert alg.dim == 3


def test_noncomposable_relation_rejected():
    with pytest.raises(AlgebraError, match="composable"):
        parse_algebra(
            'field = "Q"\nvertices = ["1", "2"]\n'
            'arrow = { name = "a", source = "1", target = "2" }\n'
            'relations = ["a*a"]')


def test_short_relation_rejected():
    with pytest.raises(AlgebraError, match="length"):
        parse_algebra(
            'field = "Q"\nvertices = ["1"]\n'
            'arrow = { name = "x", source = "1", target = "1" }\n'
            'relations = ["x"]')


def test_free_loop_not_finite_dimensional():
    with pytest.raises(AdmissibilityError):
        parse_algebra(
            'field = "Q"\nvertices = ["1"]\n'
            'arrow = { name = "x", source = "1", target = "1" }\n'
            'path_length_bound = 10')


def test_non_admissible_inhomogeneous_rejected():
    # x*x - x*x*x terminates the rewriting but the arrow ideal is not
    # nilpotent (x*x becomes idempotent), so construction must fail
    with pytest.raises(AdmissibilityError, match="nilpotent"):
        parse_algebra(
            'field = "Q"\nvertices = ["1"]\n'
            'arrow = { name = "x", source = "1", target = "1" }\n'
            'relations = ["x*x - x*x*x"]\npath_length_bound = 12')


def test_non_prime_field_rejected():
    with pytest.raises(AlgebraFileError, match="prime"):
        parse_algebra('field = "Fp:6"\nvertices = ["1"]\n')


def test_prime_field_parses():
    alg = parse_algebra('field = "Fp:5"\nvertices = ["1"]\n')
    assert alg.field == GF(5)


def test_duplicate_vertices_rejected():
    with pytest.raises(AlgebraError):
        parse_algebra('field = "Q"\nvertices = ["1", "1"]\n')


def test_idempotent_laws(a2, preproj_a2):
    for alg in (a2, preproj_a2):
        one = alg.unit()
        for v in range(alg.n):
            ev = alg.idempotent_elem(v)
            assert alg.elem_mul(ev, ev) == ev
            for w in range(alg.n):
                if w != v:
                    assert alg.elem_mul(ev, alg.idempotent_elem(w)) == {}
        total = {}
        for v in range(alg.n):
            total = alg.elem_add(total, alg.idempotent_elem(v))
        assert total == one


def test_multiply_examples(a2):
    e1 = a2.idempotent_elem(0)
    arrow = arrow_element(a2, "a")
    assert a2.elem_mul(e1, arrow) == arrow
    assert a2.elem_mul(arrow, e1) == {}
    one = a2.unit()
    for y in range(a2.dim):
        elem = {y: a2.field.one}
        assert a2.elem_mul(one, elem) == elem


def test_multiply_nilpotent():
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1"]\n'
        'arrow = { name = "x", source = "1", target = "1" }\n'
        'relations = ["x*x*x"]')
    x = arrow_element(alg, "x")
    xx = alg.elem_mul(x, x)
    assert xx and alg.elem_mul(x, xx) == {}


def test_associativity_exhaustive(a2, a4, loop2, preproj_a2):
    # (xy)z = x(yz) on all basis triples
    for alg in (a2, a4, loop2, preproj_a2):
        assert alg.dim <= 30
        one = alg.field.one
        for i, j, k in product(range(alg.dim), repeat=3):
            x, y, z = {i: one}, {j: one}, {k: one}
            assert alg.elem_mul(alg.elem_mul(x, y), z) == alg.elem_mul(
                x, alg.elem_mul(y, z)), (i, j, k)


def test_basis_paths_sandwiched(a4, preproj_a2):
    # p = e_source . p . e_target for every basis path
    for alg in (a4, preproj_a2):
        for i in range(alg.dim):
            elem = {i: alg.field.one}
            s, t = alg.basis_source[i], alg.basis_target[i]
            left = alg.elem_mul(alg.idempotent_elem(s), elem)
            assert alg.elem_mul(left, alg.idempotent_elem(t)) == elem


def test_relation_with_coefficients():
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1"]\n'
        'arrow = { name = "x", source = "1", target = "1" }\n'
        'arrow = { name = "y", source = "1", target = "1" }\n'
        'relations = ["x*x", "y*y", "x*y + 1/2*y*x"]')
    assert alg.dim == 4
    x, y = arrow_element(alg, "x"), arrow_element(alg, "y")
    xy = alg.elem_mul(x, y)
    yx = alg.elem_mul(y, x)
    half = alg.field.from_string("1/2")
    assert alg.elem_add(xy, alg.elem_scale(half, yx)) == {}


def test_commutative_square():
    alg = parse_algebra(
        'field = "Q"\nvertices = ["1", "2", "3", "4"]\n'
        'arrow = { name = "a", source = "1", target = "2" }\n'
        'arrow = { name = "b", source = "1", target = "3" }\n'
        'arrow = { name = "c", source = "2", target = "4" }\n'
        'arrow = { name = "d", source = "3", target = "4" }\n'
        'relations = ["a*c - b*d"]')
    # one length-2 path survives the rewrite of the other
    assert alg.dim == 9
    ac = alg.elem_mul(arrow_element(alg, "a"), arrow_element(alg, "c"))
    bd = alg.elem_mul(arrow_element(alg, "b"), arrow_element(alg, "d"))
    assert ac == bd and ac


def test_parse_errors():
    with pytest.raises(AlgebraFileError):
        parse_algebra("vertices = [1, 2]\n")  # non-string labels
    with pytest.raises(AlgebraFileError):
        parse_algebra("nonsense line without equals\nvertices = [\"1\"]\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra('vertices = ["1"]\nunknownkey = 3\n')
    with pytest.raises(AlgebraFileError):
        parse_algebra('field = "R"\nvertices = ["1"]\n')
    arrows = ('arrow = { name = "a", source = "1", target = "2" }\n'
              'arrow = { name = "b", source = "2", target = "3" }\n')
    # vertices and relations are ordered lists: a set's order depends on
    # the hash seed, and a string would be read one character a vertex
    for bad in ('vertices = {"1", "2", "3"}\n' + arrows,
                'vertices = "12"\n',
                'vertices = ["1", "2", "3"]\n' + arrows
                + 'relations = {"a*b"}\n',
                'vertices = ["1", "2", "3"]\n' + arrows
                + 'relations = "a*b"\n'):
        with pytest.raises(AlgebraFileError, match="line 1: vertices|"
                           "line 4: relations"):
            parse_algebra(bad)
    assert parse_algebra('vertices = ("1", "2", "3")\n' + arrows
                         + 'relations = ("a*b",)\n').dim == 5
    # a field tag that is not a string is a file error, not a crash
    for bad in ("5", '["Q"]'):
        with pytest.raises(AlgebraFileError, match="line 1: field tag"):
            parse_algebra(f'field = {bad}\nvertices = ["1"]\n')


def test_path_basis_function():
    from tautilt.algebra import parse_quiver_spec, path_basis
    spec = parse_quiver_spec(
        'field = "Q"\nvertices = ["1"]\n'
        'arrow = { name = "x", source = "1", target = "1" }\n'
        'relations = ["x*x*x"]')
    paths = path_basis(spec)
    assert sorted(len(p) for p in paths) == [0, 1, 2]


def _cell_layout(alg, row_verts, col_verts, offset):
    """The start of each nonzero corner, row by row, and the end."""
    start, k = {}, offset
    for i, v in enumerate(row_verts):
        for j, w in enumerate(col_verts):
            size = len(alg.corner_basis(v, w))
            if size:
                start[(i, j)] = k
                k += size
    return start, k


@pytest.mark.parametrize("offset", [0, 7])
def test_corner_grid_matches_the_cell_by_cell_layout(a3, kronecker, offset):
    # every pair of vertex tuples of length <= 3; over A3 many corners are
    # zero, over the Kronecker algebra some have dimension 2
    shapes = set()
    for alg in (a3, kronecker):
        tuples = [t for size in range(4)
                  for t in product(range(alg.n), repeat=size)]
        for rows, cols in product(tuples, repeat=2):
            grid = CornerGrid(alg, rows, cols, offset)
            start, end = _cell_layout(alg, rows, cols, offset)
            assert grid.end == end
            assert {ij: grid.start(*ij) for ij in start} == start
            # every coordinate k set, to k + 1; the ones around the grid
            # are ignored
            pos, one = alg.corner_pos, alg.field.one
            entries = {(i, j): {b: s + pos[b] + one
                                for b in alg.corner_basis(rows[i], cols[j])}
                       for (i, j), s in start.items()}
            vec = grid.entries_to_vec(entries, {offset - 1: one, end: one})
            assert grid.vec_to_entries(vec) == entries
            filled = [[(i, j) in start for j in range(len(cols))]
                      for i in range(len(rows))]
            if start:
                if not all(map(any, filled)):
                    shapes.add("empty row")
                if not all(map(any, zip(*filled))):
                    shapes.add("empty column")
                if any(any(r) and not (r[0] or r[-1]) for r in filled):
                    shapes.add("empty corners at both ends of a row")
    assert shapes == {"empty row", "empty column",
                      "empty corners at both ends of a row"}
