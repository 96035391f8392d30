"""Stripping three-degree chains back to their minimal part.

`twoterm.Chain3.strip` cancels unit entries (isomorphisms between equal
indecomposable projectives) by Gaussian elimination, d_low to the end
first and d_high after it, smallest (i, j) first in each.  The reference
below is the plain rescan that picks the smallest unit of d_low, or of
d_high when d_low has none, cancels it, reindexes both tables and starts
over; the two must agree entry for entry, pivot order included.
"""

import random

import pytest

from tautilt import modrep as mr
from tautilt import sttilt as st
from tautilt import twoterm as tt

from conftest import identity_map, read_algebra


def _units(alg, table, rows, cols):
    return sorted(ij for ij, e in table.items() if rows[ij[0]] == cols[ij[1]]
                  and alg.elem_scalar_part(e, rows[ij[0]]) != 0)


def _cut(table, row, col):
    """table without row and col (either may be None), reindexed."""
    return {(i - (row is not None and i > row),
             j - (col is not None and j > col)): e
            for (i, j), e in table.items() if i != row and j != col}


def reference_strip(alg, low, mid, high, d_low, d_high):
    """Smallest-unit-first rescan over both tables, one cancellation per
    pass; returns (low, mid, high, d_low, d_high)."""
    low, mid, high = list(low), list(mid), list(high)
    d_low, d_high = dict(d_low), dict(d_high)
    while True:
        units = _units(alg, d_low, mid, low)
        on_low = bool(units)
        if not on_low:
            units = _units(alg, d_high, high, mid)
            if not units:
                return low, mid, high, d_low, d_high
        i0, j0 = units[0]
        table, rows = (d_low, mid) if on_low else (d_high, high)
        cinv = alg.local_inverse(table[(i0, j0)], rows[i0])
        col = {i: e for (i, j), e in table.items() if j == j0 and i != i0}
        row = {j: e for (i, j), e in table.items() if i == i0 and j != j0}
        for i, a in col.items():
            for j, b in row.items():
                delta = alg.elem_mul(alg.elem_mul(a, cinv), b)
                nv = alg.elem_add(table.get((i, j), {}), alg.elem_neg(delta))
                if nv:
                    table[(i, j)] = nv
                else:
                    table.pop((i, j), None)
        if on_low:
            d_low, d_high = _cut(d_low, i0, j0), _cut(d_high, None, i0)
            del mid[i0], low[j0]
        else:
            d_low, d_high = _cut(d_low, j0, None), _cut(d_high, i0, j0)
            del high[i0], mid[j0]


def random_chain(alg, rng):
    """A random chain low -> mid -> high over an algebra with rad^2 = 0.

    A minimal part with radical differentials (their composite is zero
    as rad^2 = 0) plus contractible pairs, mixed by elementary changes
    of basis in each degree and then shuffled.
    """
    F, n, idem = alg.field, alg.n, alg.idempotent

    def elem(v, w, scalar=0):
        # random element of e_v A e_w with coefficient scalar at e_v
        e = {b: F.from_int(rng.randint(-2, 2))
             for b in alg.corner_basis(v, w) if b != idem[v]}
        if v == w and scalar:
            e[idem[v]] = F.from_int(scalar)
        return {b: c for b, c in e.items() if c != 0}

    def nonzero():
        return rng.choice((-2, -1, 1, 2))

    degs = [[rng.randrange(n) for _ in range(rng.randint(0, 3))]
            for _ in range(3)]
    low, mid, high = degs
    d_low = {(i, j): elem(v, w) for i, v in enumerate(mid)
             for j, w in enumerate(low)}
    d_high = {(i, j): elem(v, w) for i, v in enumerate(high)
              for j, w in enumerate(mid)}
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(n)
        d_low[(len(mid), len(low))] = elem(v, v, nonzero())
        low.append(v)
        mid.append(v)
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(n)
        d_high[(len(high), len(mid))] = elem(v, v, nonzero())
        mid.append(v)
        high.append(v)
    mats = [tt.AlgMatrix(alg, mid, low, d_low),
            tt.AlgMatrix(alg, high, mid, d_high)]

    for _ in range(12):
        # E = 1 + a E_ik (i != k) or a unit u at i, on degree deg; the
        # differential into deg becomes E d, the one out of it d E^-1
        deg = rng.randrange(3)
        verts = degs[deg]
        if not verts:
            continue
        i, k = rng.randrange(len(verts)), rng.randrange(len(verts))
        left = {(t, t): alg.idempotent_elem(v) for t, v in enumerate(verts)}
        right = dict(left)
        if i == k:
            u = elem(verts[i], verts[i], nonzero())
            left[(i, i)], right[(i, i)] = u, alg.local_inverse(u, verts[i])
        else:
            a = elem(verts[i], verts[k], rng.randint(-1, 1))
            left[(i, k)], right[(i, k)] = a, alg.elem_neg(a)
        E = tt.AlgMatrix(alg, verts, verts, left)
        E_inv = tt.AlgMatrix(alg, verts, verts, right)
        if deg > 0:
            mats[deg - 1] = E.matmul(mats[deg - 1])
        if deg < 2:
            mats[deg] = mats[deg].matmul(E_inv)

    perms = [rng.sample(range(len(v)), len(v)) for v in degs]
    shuffled = [[v[p] for p in perm] for v, perm in zip(degs, perms)]
    where = [{old: new for new, old in enumerate(perm)} for perm in perms]
    tables = [{(where[k + 1][i], where[k][j]): e
               for (i, j), e in mats[k].entries.items()} for k in range(2)]
    return (*shuffled, *tables)


@pytest.mark.parametrize("name", ["kronecker", "loop2", "preproj_a2"])
def test_strip_matches_the_smallest_unit_rescan(name):
    alg = read_algebra(name + ".alg")
    rng = random.Random(15)
    cancelled = 0
    for _ in range(150):
        low, mid, high, d_low, d_high = random_chain(alg, rng)
        ch = tt.Chain3(alg, low, mid, high, d_low, d_high).strip()
        want = reference_strip(alg, low, mid, high, d_low, d_high)
        assert (ch.low, ch.mid, ch.high, ch.d_low, ch.d_high) == want
        cancelled += len(mid) - len(ch.mid)
    assert cancelled > 100  # the chains do exercise the elimination


def _euler(alg, ch):
    """[high] - [mid] + [low] in the projective basis."""
    return tuple(h - m + lo for h, m, lo in zip(
        *(tt.multiplicities(alg, verts)
          for verts in (ch.high, ch.mid, ch.low))))


@pytest.mark.parametrize("name, max_nodes", [
    ("a4", 10 ** 6), ("preproj_a3", 10 ** 6), ("loop2", 10 ** 6),
    ("three_paths", 60), ("kronecker", 12)])
def test_every_edge_cone_strips_to_a_unit_free_chain(name, max_nodes):
    # each edge's down cone from its source and up cocone from its target
    alg = read_algebra(name + ".alg")
    graph = st.enumerate_sttilt(alg, max_nodes=max_nodes)
    for s, d, i in graph.edges:
        src, dst = graph.nodes[s], graph.nodes[d]
        new, = set(dst.summands) - set(src.summands)
        for pair, index, left in ((src, i, True),
                                  (dst, dst.summands.index(new), False)):
            X = pair.summands[index]
            rest = [c for k, c in enumerate(pair.summands) if k != index]
            if left:
                f = tt.assemble_left_approximation(
                    X, rest, tt.minimal_left_approximation_summands(X, rest))
            else:
                f = tt.assemble_right_approximation(
                    X, rest, tt.minimal_right_approximation_summands(X, rest))
            ch = tt.mapping_cone_chain(f)
            euler = _euler(alg, ch)
            ch.strip()
            assert _euler(alg, ch) == euler
            assert not _units(alg, ch.d_low, ch.mid, ch.low)
            assert not _units(alg, ch.d_high, ch.high, ch.mid)
            assert not (ch.low if left else ch.high)


def test_a_cone_of_a_non_chain_map_is_refused(a2):
    # X = (P -> Q) presents a non-projective simple; the identity of Q in
    # degree 0 alone is no chain map X -> Q, since it leaves d_X behind
    X = next(T for T in (tt.presentation_complex(
        mr.standard_module(a2, v, "simple")) for v in range(a2.n)) if T.p1)
    Y = tt.stalk_complex(a2, X.p0)
    f = tt.ChainMap(X, Y, tt.AlgMatrix(a2, (), X.p1),
                    identity_map(a2, X.p0))
    assert f.f0.matmul(X.d).entries != Y.d.matmul(f.f1).entries
    with pytest.raises(AssertionError, match="d_high . d_low"):
        tt.mapping_cone_chain(f).strip()
