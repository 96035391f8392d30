"""Inputs and engine-independent references for the tau-tilt benchmark.

The algebras are written in the engine's algebra-file format.  The
expected answers never come from the engine under test:

* linear A_n has Catalan(n+1) support tau-tilting pairs and its Hasse
  quiver is n-regular (Adachi-Iyama-Reiten, "tau-tilting theory", 2014);
  the node and edge set itself is the GF(2) brute-force oracle's, stored
  in ``reference/`` for A6 because the oracle needs about half a minute;
* the preprojective algebra of A_n has (n+1)! pairs (Mizuno, 2014), and
  its poset is taken from the oracle at set-up;
* the Kronecker quiver enumerated from the top reaches the top pair, the
  two pairs containing P_1[1] and the preprojective chain, in closed form.

The oracle lives in ``tautilt.oracle`` but shares no code with the
engine beyond the algebra presentation.
"""

import itertools
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


# -- algebras ------------------------------------------------------------

def _header(n):
    names = ", ".join(f'"{v}"' for v in range(1, n + 1))
    return ['field = "Q"', f"vertices = [{names}]"]


def _arrow(name, source, target):
    return f'arrow = {{ name = "{name}", source = "{source}", target = "{target}" }}'


def linear_text(n):
    """Path algebra of the linearly oriented A_n quiver 1 -> 2 -> ... -> n."""
    lines = _header(n)
    lines += [_arrow(f"a{i}", i, i + 1) for i in range(1, n)]
    return "\n".join(lines) + "\n"


KRONECKER_TEXT = "\n".join(
    _header(2) + [_arrow("a", 1, 2), _arrow("b", 1, 2)]) + "\n"


def preprojective_text(n):
    """Preprojective algebra of A_n: arrows a_i: i -> i+1, b_i: i+1 -> i,
    with the mesh relation at every vertex."""
    lines = _header(n)
    for i in range(1, n):
        lines += [_arrow(f"a{i}", i, i + 1), _arrow(f"b{i}", i + 1, i)]
    rels = []
    for v in range(1, n + 1):
        terms = []
        if v < n:
            terms.append(f"a{v}*b{v}")
        if v > 1:
            terms.append(f"b{v - 1}*a{v - 1}")
        rels.append(" - ".join(terms))
    lines.append("relations = [" + ", ".join(f'"{r}"' for r in rels) + "]")
    return "\n".join(lines) + "\n"


# -- closed forms ----------------------------------------------------------

def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def kronecker_keys(nodes):
    """Keys the top-down enumeration of the Kronecker quiver reaches first.

    Column-sorted g-matrices: the top pair, the two pairs containing
    P_1[1], and the chain of preprojective pairs ((k, 1-k), (k+1, -k)).
    """
    keys = {((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((-1, 0), (0, -1))}
    keys |= {((k, 1 - k), (k + 1, -k)) for k in range(1, nodes - 2)}
    return keys


# -- Hasse quivers as comparable sets ------------------------------------------

def graph_sets(doc):
    """(node keys, {(source key, target key, index)}) of a graph in the
    JSON schema shared by ``enumerate --format json`` and the oracle."""
    keys = [tuple(sorted(tuple(c) for c in node["g_matrix"]))
            for node in doc["nodes"]]
    edges = {(keys[e["src"]], keys[e["dst"]], e["index"]) for e in doc["edges"]}
    return set(keys), edges


def reference_path(n):
    return os.path.join(REFERENCE_DIR, f"a{n}_hasse.json")


def write_reference(doc, path):
    """Store an oracle graph as its node keys and indexed edges."""
    keys = sorted(tuple(sorted(tuple(c) for c in node["g_matrix"]))
                  for node in doc["nodes"])
    pos = {k: i for i, k in enumerate(keys)}
    _, edges = graph_sets(doc)
    rows = sorted((pos[s], pos[d], i) for s, d, i in edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"nodes": [\n')
        fh.write(",\n".join(json.dumps([list(c) for c in k]) for k in keys))
        fh.write('\n],\n"edges": [\n')
        fh.write(",\n".join(json.dumps(list(r)) for r in rows))
        fh.write("\n]}\n")


def read_reference(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    keys = [tuple(tuple(c) for c in k) for k in doc["nodes"]]
    return set(keys), {(keys[s], keys[d], i) for s, d, i in doc["edges"]}


def linear_reference(orc, alg, n):
    """Node and edge set of A_n: stored for A6, from the oracle otherwise."""
    path = reference_path(n)
    if os.path.exists(path):
        return read_reference(path)
    return graph_sets(orc.oracle_graph_json(alg, orc.OracleConfig((1,) * n)))


# -- preprojective pairs from the oracle -------------------------------------

def _relation_holds(alg, dims, mats, rel):
    """Sum of coefficient * path product is zero, in exact integers."""
    acc = None
    for path, coeff in rel.items():
        src = alg.arrows[path[0]].source
        prod = [[int(i == j) for j in range(dims[src])] for i in range(dims[src])]
        for ai in path:
            m = mats[ai]
            inner = len(m)
            width = dims[alg.arrows[ai].target]
            prod = [[sum(row[t] * m[t][j] for t in range(inner))
                     for j in range(width)] for row in prod]
        term = [[coeff * x for x in row] for row in prod]
        acc = term if acc is None else [
            [x + y for x, y in zip(r, s)] for r, s in zip(acc, term)]
    return not any(x for row in acc for x in row)


def lift_to_integers(alg, module):
    """A {0, 1, -1} lift of a GF(2) oracle module satisfying the relations
    over Q, found by trying every sign pattern on its nonzero entries."""
    spots = [(ai, i, j) for ai, mat in enumerate(module.mats)
             for i, row in enumerate(mat) for j, v in enumerate(row) if v]
    for signs in itertools.product((1, -1), repeat=len(spots)):
        mats = [[list(row) for row in mat] for mat in module.mats]
        for (ai, i, j), s in zip(spots, signs):
            mats[ai][i][j] = s
        if all(_relation_holds(alg, module.dims, mats, rel)
               for rel in alg.spec.relations):
            return module.dims, mats
    raise ValueError(f"no integer lift of the oracle module {module.dims}")


class PairCase:
    """One tau-rigid pair with the completions the oracle predicts.

    ``modules`` holds integer module data (dims, matrices) of the module
    summands, ``proj`` the projective multiplicities, ``key`` the
    column-sorted g-matrix of the pair itself.
    """

    def __init__(self, kind, key, modules, proj, bongartz, minimal):
        self.kind = kind
        self.key = key
        self.modules = modules
        self.proj = proj
        self.bongartz = bongartz
        self.minimal = minimal


def preprojective_cases(orc, alg, bound):
    """Every singleton and almost complete tau-rigid pair of the algebra,
    with the expected Bongartz and minimal completions, from the oracle.

    Returns (cases, number of oracle pairs, number of oracle edges).
    """
    n = alg.n
    pairs, keys, edges = orc.oracle_hasse(alg, orc.OracleConfig(bound, p=2))
    summand = {}  # g-column -> ("module", lift) or ("proj", vertex)
    for pr in pairs:
        for m in pr.modules:
            col = orc.OraclePair([m], (0,) * n).g_columns(2)[0]
            if col not in summand:
                summand[col] = ("module", lift_to_integers(alg, m))
        for v, mult in enumerate(pr.support):
            if mult:
                summand[tuple(-int(u == v) for u in range(n))] = ("proj", v)
    children = {}
    for s, d in edges:  # edges run from the larger pair to the smaller
        children.setdefault(s, []).append(d)
    below = {}

    def reach(i):
        if i not in below:
            seen = {i}
            for d in children.get(i, ()):
                seen |= reach(d)
            below[i] = seen
        return below[i]

    for i in range(len(pairs)):
        reach(i)

    def case(kind, cols, hi, lo):
        modules = [summand[c][1] for c in cols if summand[c][0] == "module"]
        proj = [0] * n
        for c in cols:
            if summand[c][0] == "proj":
                proj[summand[c][1]] = 1
        return PairCase(kind, tuple(sorted(cols)), modules, tuple(proj),
                        keys[hi], keys[lo])

    cases = []
    for col in sorted(summand):
        holders = [i for i in range(len(pairs)) if col in keys[i]]
        top = [i for i in holders if all(j in below[i] for j in holders)]
        bottom = [i for i in holders if all(i in below[j] for j in holders)]
        cases.append(case("singleton", [col], top[0], bottom[0]))
    for s, d in edges:
        common = [c for c in keys[s] if c in keys[d]]
        cases.append(case("almost-complete", common, s, d))
    return cases, len(pairs), len(edges)


def flip_orbits(cases):
    """Group cases under the automorphism reversing the vertex order of a
    preprojective algebra of type A (it reverses every g-vector)."""
    by_key = {c.key: c for c in cases}
    orbits, seen = [], set()
    for c in cases:
        if c.key in seen:
            continue
        mirror = tuple(sorted(tuple(reversed(col)) for col in c.key))
        members = [c] if mirror == c.key else [c, by_key[mirror]]
        seen.update(m.key for m in members)
        orbits.append(members)
    return orbits
