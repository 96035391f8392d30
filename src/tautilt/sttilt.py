"""Support tau-tilting pairs: rigidity, completions, mutation, Hasse quiver.

A pair is stored as its two-term silting-side avatar: a list of stripped
indecomposable complexes, each either a shifted projective Q[1] (empty
degree 0) or the minimal presentation of an indecomposable module.  The
module-side data (H^0 summands, projective part) is derived on demand.

Every summand the engine produces is interned in the algebra's summand
registry (`intern_summand`): one canonical complex per g-vector, which
is sound because a tau-rigid pair is determined by its g-vectors
(Adachi-Iyama-Reiten, "tau-tilting theory", 2014, Thm 5.5).  Pairs with
equal keys therefore carry identical summand tuples, and the Hom spaces
memoized on the algebra are built once per summand pair.  The theorem
holds for decomposable objects too: any object the engine splits is
split once, its summands recorded under its g-vector (`_summands`).

Mutation runs on the complex side.  With G holding one g-vector per row,
the c-vectors are the columns of G^-1; they are sign-coherent, and the
mutation at summand i goes down exactly when c_i >= 0 (Fu, "c-vectors
via tau-tilting theory", J. Algebra 473, 2017; Treffinger, "On
sign-coherence of c-vectors", JPAA 223, 2019).  A mutation and a
Bongartz or minimal completion are the same operation, the (co)cone of
a minimal approximation (AIR 2014, Thm 2.10), and the engine runs both
through one exchange step (`_exchange`): count the multiplicities m_j
of the target summands in the minimal approximation of X, on the left
going down and on the right going up, off walls the algebra memoizes,
predict the (co)cone's g-vector sum_j m_j g(R_j) - g(X), and answer it
from the registry.  Maps are chosen only on a miss: only a g-vector the
registry does not hold builds, checks and splits a (co)cone.  A mutation
exchanges one summand of a pair against the rest; a completion
exchanges each summand P_v of A, or P_v[1] of A[1], against the whole
pair.  An enumeration edge whose lower end is already a node takes no
step: the almost complete pair it exchanges lies in exactly two pairs
(AIR 2014, Thm 2.18), so the edge is read off the node below.

An exchange changes one row of G, so the c-vectors of the result follow
from those of the pair by an exact rank-one update, which also certifies
that the new g-vectors are a Z-basis; the update carries the c-vectors'
signs along and certifies sign-coherence only for the c-vectors it
changes.  Only a pair that no exchange led to (the top of an
enumeration, the input of `mutate`, a completion) is inverted by
Gauss-Jordan over Z and has its signs read by `_mutation_directions`;
every pair a mutation returns, and every node an enumeration keeps, has
its c-vectors certified.

Enumeration is a BFS through down mutations from the pair (A, 0); in the
tau-tilting finite case a finite connected component is the whole poset,
and every node is reachable downward from the maximum, so termination
with an exhausted frontier certifies completeness.  An edge to a new node
forms its target's summand set before any pair is built, so a pair is
built once per node.  The run names nodes and almost complete pairs by
bitsets of their interned summands, one bit per canonical summand, which
is again sound by the g-vector theorem; the g-matrices serve the
c-vector algebra, the output order and the error texts.
"""

from bisect import bisect_left
from collections import deque
from operator import mul

from .algebra import AlgebraError
from .jsontext import Fragment
from .linalg import RowSpace
from . import modrep as mr
from . import twoterm as tt


class NotTauRigidError(AlgebraError):
    pass


class InvariantViolation(RuntimeError):
    """A certified internal invariant failed; enumeration aborts."""


def intern_summand(T):
    """The canonical object of the algebra's summand registry for the
    indecomposable presilting complex T.

    The first complex seen with a g-vector becomes canonical.  Each other
    serialization of that g-vector (named by its form id) is checked
    against it once with `twoterm.indecomposables_isomorphic` and then
    recorded as an alias; a failed check contradicts the g-vector theorem
    and raises InvariantViolation, and so does a g-vector registered as
    a split (`_summands`).
    """
    alg = T.alg
    forms = alg.summand_forms
    fid = T.form_id()
    canon = forms.get(fid)
    if canon is not None:
        return canon
    g = tt.g_vector(T)
    canon = alg.summands.get(g)
    if canon is None:
        if g in alg.summand_splits:
            raise InvariantViolation(
                f"the summand with g-vector {g} is registered as the sum "
                f"of {list(alg.summand_splits[g])}")
        canon = alg.summands[g] = T
    elif not tt.indecomposables_isomorphic(canon, T):
        raise InvariantViolation(
            f"summands with g-vector {g} are not isomorphic: "
            f"P^-1 {tt.multiplicities(alg, canon.p1)} -> "
            f"P^0 {tt.multiplicities(alg, canon.p0)} and "
            f"P^-1 {tt.multiplicities(alg, T.p1)} -> "
            f"P^0 {tt.multiplicities(alg, T.p0)}")
    forms[fid] = canon
    return canon


def _summands(alg, g, split):
    """The distinct canonical summands of the presilting object with
    g-vector g, which determines it (AIR 2014, Thm 5.5): () for g = 0,
    the registry's indecomposable, or the split recorded under g in
    alg.summand_splits.  On a miss, split() gives the summands; they are
    interned and recorded under g unless it is indecomposable."""
    if not any(g):
        return ()
    known = alg.summands.get(g)
    if known is not None:
        return (known,)
    known = alg.summand_splits.get(g)
    if known is None:
        known = tuple(dict.fromkeys(intern_summand(c) for c in split()))
        if g not in alg.summands:
            alg.summand_splits[g] = known
    return known


def _projective(alg, v, shift):
    """P_v, or P_v[1] for shift 1, read from the summand registry by its
    g-vector +-e_v; the stalk is interned on first use."""
    g = [0] * alg.n
    g[v] = -1 if shift else 1
    canon = alg.summands.get(tuple(g))
    if canon is None:
        canon = intern_summand(tt.stalk_complex(alg, (v,), shift))
    return canon


# -- pairs ----------------------------------------------------------------

class TauRigidPair:
    """Basic tau-rigid pair, carried by indecomposable complex summands."""

    __slots__ = ("alg", "summands", "_gmat")

    def __init__(self, alg, summands):
        self.alg = alg
        summands = list(summands)
        gs = [tt.g_vector(c) for c in summands]
        order = sorted(range(len(summands)), key=gs.__getitem__)
        if len(set(gs)) < len(gs):  # equal g-vectors: the data decides
            order.sort(key=lambda i: (gs[i], summands[i].serialize()))
        self.summands = tuple(summands[i] for i in order)
        self._gmat = tuple(gs[i] for i in order)

    @classmethod
    def _keyed(cls, alg, summands, key):
        """The pair of summands already in key order, with key as its
        g-matrix."""
        pair = cls.__new__(cls)
        pair.alg, pair.summands, pair._gmat = alg, summands, key
        return pair

    @property
    def size(self):
        return len(self.summands)

    def g_matrix(self):
        """Columns are the summand g-vectors, in summand order."""
        return self._gmat

    def key(self):
        """Canonical dedup key: the g-matrix, whose columns are sorted."""
        return self._gmat

    def module_summands(self):
        """H^0 of the non-shift summands (each indecomposable), in summand
        order.  A new list on each call; `twoterm.complex_h0` keeps each
        module on its complex."""
        return [tt.complex_h0(c) for c in self.summands if c.p0]

    def projective_part(self):
        """Multiplicity vector of the shifted summands Q[1], computed on
        each call."""
        return tt.multiplicities(
            self.alg, [v for c in self.summands if not c.p0 for v in c.p1])

    def module(self):
        return mr.direct_sum(self.alg, self.module_summands())

    def whole_complex(self):
        if not self.summands:
            return tt.TwoTermComplex(self.alg, (), ())
        return tt.direct_sum_complex(self.summands)

    def __repr__(self):
        return f"TauRigidPair({list(self.summands)!r})"


def pair_from_module_data(alg, M, proj_mults):
    """Build a basic pair from a module and projective multiplicities.

    Decomposes M, drops duplicate summands (basic closure).  The pair is
    refused unless C = P_M (+) P[1] has Hom_K(C, C[1]) = 0 (AIR 2014,
    Prop. 3.6); then M is decomposed only when g(C) is new, and its
    summands are registered (`_summands`).
    """
    def split():
        summands = [tt.presentation_complex(group[0])
                    for group in mr.group_by_iso(mr.decompose(M))]
        summands.extend(tt.stalk_complex(alg, (v,), shift=1)
                        for v in range(alg.n) if proj_mults[v] >= 1)
        return summands

    C = tt.pair_to_complex(M, proj_mults)
    if tt.hom_homotopy(C, C, 1).dim:
        raise NotTauRigidError("pair is not tau-rigid")
    return TauRigidPair(alg, _summands(alg, tt.g_vector(C), split))


def is_tau_rigid_pair(M, proj_mults):
    """Hom(M, tau M) = 0 and Hom(P, M) = 0 for P = (+) P_v^{mults}."""
    alg = M.alg
    tm = mr.tau(M)
    if mr.hom_space(M, tm):
        return False
    # Hom(P_v, M) = M e_v, so the projective part only needs support checks
    for v in range(alg.n):
        if proj_mults[v] > 0 and M.dims[v] != 0:
            return False
    return True


def pairs_isomorphic(p, q):
    """Isomorphism of pairs: equal projective parts, matched module summands."""
    return (p.alg is q.alg and p.size == q.size
            and p.projective_part() == q.projective_part()
            and mr.summands_match(p.module_summands(), q.module_summands()))


# -- completions ------------------------------------------------------------

def _completion(pair, left):
    """The completion of pair by the (co)cone of the minimal left
    add(pair)-approximation of A, or the right one of A[1], one P_v at
    a time: every wall map keeps the grading Hom(A, R) = (+) Hom(P_v, R),
    so that (co)cone is the direct sum of the pieces for the P_v.  Each
    piece is one exchange step (`_exchange`) from P_v or P_v[1] as the
    summand registry holds it (`_projective`), split by
    `twoterm.decompose_complex`: a piece is presilting, so its predicted
    g-vector determines it (AIR 2014, Thm 5.5), and only a new one is
    built, split and registered.  A repeated completion is lookups only:
    it builds no complex, cone or composite and serializes nothing.
    The result is certified as `mutate` certifies its own: n summands
    whose g-vectors are a Z-basis with sign-coherent c-vectors.
    """
    alg = pair.alg
    _require_tau_rigid(pair)
    targets = list(dict.fromkeys(intern_summand(c) for c in pair.summands))
    summands = dict.fromkeys(targets)  # ordered, repeats removed by identity
    for v in range(alg.n):
        X = _projective(alg, v, 0 if left else 1)
        _, piece = _exchange(pair, ("vertex", alg.vertex_labels[v]), X,
                             targets, left, tt.decompose_complex)
        summands.update(dict.fromkeys(piece))
    done = TauRigidPair(alg, summands)
    if done.size != alg.n:
        raise InvariantViolation(
            f"pair {pair.key()}: the completion {done.key()} has "
            f"{done.size} summands, not {alg.n}")
    _mutation_directions(done.key(), _root_c_vectors(done))
    return done


def bongartz_completion(pair):
    """Maximum completion: the cocones of the minimal right
    approximations of the P_v[1] (`_completion`)."""
    return _completion(pair, False)


def minimal_completion(pair):
    """Minimum completion: the cones of the minimal left approximations
    of the P_v (`_completion`)."""
    return _completion(pair, True)


def _require_tau_rigid(pair):
    """Refuse a pair that is not tau-rigid, on the silting side: (M, P)
    is tau-rigid exactly when P_M (+) P[1] is presilting (AIR 2014,
    Prop. 3.6), and the summands are minimal presentations, so the test
    is Hom_K(S, T[1]) = 0 for all summands S, T, on memoized Hom spaces.
    """
    for S in pair.summands:
        for T in pair.summands:
            if tt.hom_homotopy(S, T, 1).dim:
                raise NotTauRigidError("input pair is not tau-rigid")


# -- mutation ----------------------------------------------------------------

def _unimodular_inverse(g):
    """G^-1 for a square integer matrix G with det G = +-1, else None.

    Gauss-Jordan over Z on [G | I]: each column is cleared below its
    pivot by Euclid's algorithm on the rows (repeated floor-division
    steps with the smallest live entry as pivot), so every step is an
    integer row operation and no Fraction arises; a column holding a
    unit takes it as pivot with no Euclid step.  The pivots multiply to
    +-det G, so det G = +-1 exactly when each is +-1.
    """
    n = len(g)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    for c in range(n):
        for r in range(c, n):
            if a[r][c] in (1, -1):
                a[c], a[r] = a[r], a[c]
                break
        else:
            while True:
                live = [r for r in range(c, n) if a[r][c]]
                if not live:
                    return None
                p = min(live, key=lambda r: abs(a[r][c]))
                a[c], a[p] = a[p], a[c]
                if len(live) == 1:
                    break
                for r in range(c + 1, n):
                    q = a[r][c] // a[c][c]
                    if q:
                        a[r] = [x - q * y for x, y in zip(a[r], a[c])]
        if a[c][c] not in (1, -1):
            return None
        if a[c][c] == -1:
            a[c] = [-x for x in a[c]]
        for r in range(n):
            q = a[r][c]
            if r != c and q:
                a[r] = [x - q * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _root_c_vectors(pair):
    """The c-vectors of pair, one per summand: the columns of G^-1 for G
    with one g-vector per row.  G^-1 comes from `_unimodular_inverse`,
    an integer Gauss-Jordan, which also certifies that G is invertible
    over Z.  Only a pair that no exchange led to needs this; an
    exchange carries the c-vectors over (`_exchanged_c_vectors`)."""
    inv = _unimodular_inverse(pair.g_matrix())
    if inv is None:
        raise InvariantViolation(
            f"pair {pair.key()}: the g-vectors are not a Z-basis")
    return list(zip(*inv))


def _goes_down(key, i, c):
    """True when the mutation at summand i (0-based) of the pair `key`,
    with c-vector c, goes down: c >= 0.  c is first certified
    sign-coherent."""
    lo, hi = min(c), max(c)
    if lo < 0 < hi or lo == hi == 0:
        raise InvariantViolation(
            f"pair {key}, summand {i + 1}: c-vector is not sign-coherent")
    return hi > 0


def _mutation_directions(key, cs):
    """`_goes_down` of every summand of the pair `key` with c-vectors cs;
    only a pair that no exchange led to needs it, since an exchange
    carries the signs over (`_exchanged_c_vectors`)."""
    return [_goes_down(key, i, c) for i, c in enumerate(cs)]


def _exchanged_key(gmat, index, g):
    """The key of the pair with g-vectors gmat (in key order) after its
    summand index (0-based) is exchanged for one with g-vector g, and
    the position of g in that key."""
    rest = gmat[:index] + gmat[index + 1:]
    pos = bisect_left(rest, g)
    return rest[:pos] + (g,) + rest[pos:], pos


def _exchanged_c_vectors(pair, cs, downs, index, key, pos):
    """The c-vectors and their signs (`_goes_down`), in key order, of the
    pair `key` that pair, with c-vectors cs and signs downs, becomes when
    its summand index (0-based) is exchanged for the g-vector key[pos].

    The exchange changes one row of G by u = g' - g_i, a rank-one
    change, so with d = g' . c_i the matrix determinant lemma gives
    det G' = d det G, and G' is a Z-basis exactly when d = +-1.  Then
    the inverse changes by the rank-one matrix c_i (u G^-1) d
    (Sherman-Morrison): c'_i = d c_i and c'_j = c_j - d (g' . c_j) c_i,
    exactly over Z.  A c-vector the update leaves alone keeps its sign,
    c'_i has the sign of c_i times d, and only a changed c'_j (g' . c_j
    != 0) is certified sign-coherent again.
    """
    g = key[pos]
    ci = cs[index]
    d = sum(map(mul, g, ci))
    if d not in (1, -1):
        raise InvariantViolation(
            f"pair {key}: the g-vectors are not a Z-basis: exchanging "
            f"summand {index + 1} of pair {pair.key()} for g-vector {g} "
            f"multiplies det G by {d}")
    out, signs = [], []
    for j, c in enumerate(cs):
        if j != index:
            t = d * sum(map(mul, g, c))
            if t:
                c = tuple(a - t * b for a, b in zip(c, ci))
                k = len(out)
                signs.append(_goes_down(key, k + (k >= pos), c))
            else:
                signs.append(downs[j])
            out.append(c)
    out.insert(pos, tuple(d * x for x in ci))
    signs.insert(pos, downs[index] == (d == 1))
    return out, signs


def _predicted_g_vector(pair, where, X, targets, left):
    """g of the (co)cone over the minimal left add(targets)-approximation
    of X, or the minimal right one: sum_j m_j g(R_j) - g(X), since g is
    additive on the triangle (AIR 2014, Sec. 2-3), with each m_j counted
    off the memoized walls (`twoterm.approximation_counts`).  A count
    that is not a whole number of End(R_j)/rad orbits raises
    InvariantViolation naming pair and where."""
    pred = [-x for x in tt.g_vector(X)]
    for j, free, orbit in tt.approximation_counts(X, targets, left):
        m, rest = divmod(free, orbit)
        if rest:
            raise InvariantViolation(
                f"pair {pair.key()}, {where[0]} {where[1]}: the maps into "
                f"the target {tt.g_vector(targets[j])} have dimension {free}"
                f" over its wall, not a multiple of dim End/rad = {orbit}")
        pred = [a + m * b for a, b in zip(pred, tt.g_vector(targets[j]))]
    return tuple(pred)


def _exchange(pair, where, X, targets, left, split):
    """One exchange step: the g-vector g and the distinct canonical
    summands (`_summands`) of the cone over the minimal left
    add(targets)-approximation of X (left), or of the cocone over the
    minimal right one.

    A mutation and a completion piece are both such a (co)cone (AIR
    2014, Thm 2.10), and g is predicted from the counted multiplicities
    (`_predicted_g_vector`), so a registry hit costs lookups only.  Maps
    are chosen only on a miss: a g the registry does not hold builds
    the stripped (co)cone, which must stay two-term, be nonzero and have
    g-vector g, or InvariantViolation names pair and where, a (word,
    label) tuple; split(cone) then gives its summands.
    """
    g = _predicted_g_vector(pair, where, X, targets, left)

    def build():  # looked up here, so that tracers see each call
        choose, assemble = (
            (tt.minimal_left_approximation_summands,
             tt.assemble_left_approximation) if left else
            (tt.minimal_right_approximation_summands,
             tt.assemble_right_approximation))
        new = tt._two_term_cone(assemble(X, targets, choose(X, targets)),
                                left)
        if new is None:
            what = "the cone did not stay two-term"
        elif new.is_zero():
            what = "the cone is zero"
        elif tt.g_vector(new) != g:
            what = (f"the cone has g-vector {tt.g_vector(new)}, not the "
                    f"predicted {g}")
        else:
            return split(new)
        raise InvariantViolation(
            f"pair {pair.key()}, {where[0]} {where[1]}: {what}")

    return g, _summands(pair.alg, g, build)


def _mutation(pair, index, down):
    """The summand that replaces summand index (0-based) of pair: the
    cone over its minimal left add(rest)-approximation (down), or the
    cocone over its minimal right one (up), as interned.

    This is one exchange step (`_exchange`) whose (co)cone is not split.
    A g-vector determines the presilting object (AIR 2014, Thm 5.5), so
    the answer must be the indecomposable registered under the predicted
    g-vector; a split or a zero object there is an InvariantViolation.
    A registry hit builds no cone, so the caller certifies the exchange
    by the returned summand's own g-vector (`_exchanged_c_vectors`).
    """
    rest = [c for k, c in enumerate(pair.summands) if k != index]
    g, known = _exchange(pair, ("summand", index + 1), pair.summands[index],
                         rest, down, lambda cone: (cone,))
    if known != (pair.alg.summands.get(g),):
        raise InvariantViolation(
            f"pair {pair.key()}, summand {index + 1}: the predicted g-vector "
            f"{g} is registered as the sum of {list(known)}")
    return known[0]


def _exchanged_pair(pair, index, new, key, pos):
    """pair with summand index (0-based) replaced by new, whose g-vector
    is key[pos] in the exchanged key (`_exchanged_key`): the rest keep
    their order, and new goes in at pos, so nothing is sorted again."""
    rest = pair.summands[:index] + pair.summands[index + 1:]
    return TauRigidPair._keyed(
        pair.alg, rest[:pos] + (new,) + rest[pos:], key)


def mutate(pair, index):
    """Replace summand `index` (1-based) by the other completion.

    Returns (pair, direction), direction "down" when the result is
    smaller in the order.  Both the input and the result have their
    c-vectors certified.
    """
    if not 1 <= index <= pair.size:
        raise AlgebraError(f"summand index {index} out of range")
    if pair.size != pair.alg.n:
        raise NotTauRigidError("mutation needs a tau-tilting pair")
    i = index - 1
    cs = _root_c_vectors(pair)
    downs = _mutation_directions(pair.key(), cs)
    new = _mutation(pair, i, downs[i])
    # a registry hit built no cone to check, so certify the result
    key, pos = _exchanged_key(pair.g_matrix(), i, tt.g_vector(new))
    _exchanged_c_vectors(pair, cs, downs, i, key, pos)
    return (_exchanged_pair(pair, i, new, key, pos),
            "down" if downs[i] else "up")


# -- order -------------------------------------------------------------------

def leq(U, T):
    """U <= T in the support tau-tilting order: Fac(M_U) inside Fac(M_T)."""
    MT = T.module()
    for s in U.module_summands():
        if not mr.in_fac(s, MT):
            return False
    return True


def silting_leq(U, T):
    """U <= T on the silting side: Hom(T, U[1]) = 0."""
    return tt.hom_homotopy(T.whole_complex(), U.whole_complex(), 1).dim == 0


# -- Hasse quiver -------------------------------------------------------------

class HasseGraph:
    """Nodes, labeled edges and flags of the enumerated mutation quiver.

    `write_json` streams the graph's JSON text to a writer one edge or
    node at a time, and `write_dot` its Graphviz text one line at a
    time, so the CLI never holds the whole text; `to_json` and `to_dot`
    are the joins of what they write."""

    def __init__(self, alg, pairs, edges, complete):
        self.alg = alg
        keys = [p.key() for p in pairs]
        order = sorted(range(len(pairs)), key=keys.__getitem__)
        relabel = {old: new for new, old in enumerate(order)}
        self.nodes = [pairs[i] for i in order]
        self.edges = sorted(
            (relabel[s], relabel[d], i) for (s, d, i) in edges)
        self.complete = complete

    def node_count(self):
        return len(self.nodes)

    def write_json(self, write):
        """Send the graph's JSON text, in the `jsontext` layout, to write,
        one edge or node at a time.  Each summand's g-vector and module
        text, and each projective part's, is written once per call as a
        jsontext `Fragment` at its depth and spliced into every node
        holding it; the edges and the nodes around them are filled into
        literal templates (`_EDGE`, `_NODE`)."""
        summands = {}  # summand -> (g-vector text, module text or None)
        parts = {}  # projective part -> its text
        write('{\n  "edges": ')
        sep = "["
        for (s, d, i) in self.edges:
            write(_EDGE % (sep, d, i + 1, s))
            sep = ","
        write('%s,\n  "flags": {\n    "complete": %s\n  },\n  "nodes": ' % (
            "\n  ]" if self.edges else "[]",
            "true" if self.complete else "false"))
        sep = "["
        for n, p in enumerate(self.nodes):
            gs, ms = [], []
            for c in p.summands:
                texts = summands.get(c)
                if texts is None:
                    texts = summands[c] = (
                        Fragment(tt.g_vector(c)).at(_ITEM),
                        Fragment(module_to_json(tt.complex_h0(c))).at(_ITEM)
                        if c.p0 else None)
                gs.append(texts[0])
                if texts[1] is not None:
                    ms.append(texts[1])
            proj = p.projective_part()
            part = parts.get(proj)
            if part is None:
                part = parts[proj] = Fragment(proj).at(_FIELD)
            write(_NODE % (sep, _list(gs), n, _list(ms), part))
            sep = ","
        write("\n  ]\n}")  # an enumeration keeps at least its top pair

    def to_json(self):
        """The graph as JSON text: the join of `write_json`."""
        out = []
        self.write_json(out.append)
        return "".join(out)

    def write_dot(self, write):
        """Send the graph's Graphviz text to write, one line at a time:
        a node per g-matrix, then an edge per mutation, labeled by its
        1-based summand index."""
        write("digraph sttilt {\n")
        for i, p in enumerate(self.nodes):
            label = ";".join(
                ",".join(str(x) for x in col) for col in p.g_matrix())
            write(f'  n{i} [label="[{label}]"];\n')
        for (s, d, i) in self.edges:
            write(f'  n{s} -> n{d} [label="{i + 1}"];\n')
        write("}\n")

    def to_dot(self):
        """The graph as Graphviz text: the join of `write_dot`."""
        out = []
        self.write_dot(out.append)
        return "".join(out)


# the skeleton of the graph's JSON text (`HasseGraph.write_json`): each
# edge or node begins with its separator in its list, "[" or ","; a
# node's fields start at _FIELD and the items of its lists at _ITEM
_FIELD, _ITEM = "\n      ", "\n        "
_EDGE = ('%s\n    {\n      "dst": %d,\n      "index": %d,\n      "src": %d'
         '\n    }')
_NODE = ('%s\n    {\n      "g_matrix": %s,\n      "id": %d,\n'
         '      "module_summands": %s,\n      "projective_part": %s\n    }')


def _list(texts):
    """A node's field holding the list of item texts written at _ITEM."""
    if not texts:
        return "[]"
    return "[" + _ITEM + ("," + _ITEM).join(texts) + _FIELD + "]"


def module_to_json(M):
    """JSON form of a module: its dimension vector and each arrow's matrix."""
    F = M.alg.field
    arrows = {}
    for ai, arrow in enumerate(M.alg.arrows):
        mat = M.maps[ai]
        arrows[arrow.name] = [
            [F.to_string(mat.entry(i, j)) for j in range(mat.ncols)]
            for i in range(mat.nrows)]
    return {"dim_vector": list(M.dims), "arrows": arrows}


def enumerate_sttilt(alg, max_nodes=10 ** 6):
    """BFS of the Hasse quiver by down mutations from the pair (A, 0).

    A node is mutated only at the summands whose c-vector is >= 0, which
    are its down exchanges (Fu 2017; Treffinger 2019).  An almost
    complete pair is a summand of exactly two support tau-tilting pairs,
    one above the other (AIR 2014, Thm 2.18), so a down edge whose lower
    end is already a node is read off that node: each node, when it is
    made, enters every almost complete pair under which it is the lower
    end, and the node above takes its edge from there, certified by
    g' . c_i = -1 for the one column g' of the lower key not in the
    almost complete key.  Only an edge to a new node counts an
    approximation, and chooses maps and builds a cone only when its
    predicted g-vector is new to the registry; so a complete enumeration
    counts nodes - 1 approximations.

    Every summand is interned, so a set of summands is a set of
    g-vectors (AIR 2014, Thm 5.5), and pairs with equal keys carry the
    same summand tuple.  The run numbers each canonical summand it meets
    by one bit, and identifies nodes and almost complete pairs by the
    bitsets of their summands; a new node's set is its parent's with one
    bit replaced.  The column-sorted g-matrices stay for the c-vector
    algebra, the output order and the error texts.  Only the top pair's
    c-vectors come from a Gauss-Jordan inverse and only its signs from
    `_mutation_directions`; each new node gets both from its parent's by
    the exchange update (`_exchanged_c_vectors`), which certifies a
    Z-basis and the sign-coherence of every c-vector it changes.  The
    registry checks isomorphism once per new serialization of a g-vector
    and aborts the run on a collision of non-isomorphic summands.  If
    the frontier exhausts within max_nodes, the graph is the complete
    Hasse quiver.  max_nodes must be at least 1 (the top pair is always
    a node).
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, not {max_nodes}")
    top = TauRigidPair(alg, [_projective(alg, v, 0) for v in range(alg.n)])
    bits = {}  # canonical summand -> its bit in this run's summand sets
    top_set = 0
    for c in top.summands:
        top_set |= bits.setdefault(c, 1 << len(bits))
    pairs = [top]
    made = {top_set}  # only to refuse an approximated node twice
    # almost complete summand set -> (id, column) of the node that is its
    # lower end and waits for the node above; an entry goes once it has
    # served
    below = {}
    edges = []
    # a queued node carries its summand set, c-vectors and their signs
    # until it is expanded
    cs = _root_c_vectors(top)
    queue = deque([(0, top_set, cs, _mutation_directions(top.key(), cs))])
    complete = True
    while queue:
        node_id, node_set, cs, downs = queue.popleft()
        pair = pairs[node_id]
        gmat = pair.g_matrix()
        for i, down in enumerate(downs):
            if not down:
                continue  # the up edge is discovered from the other end
            rest = node_set ^ bits[pair.summands[i]]
            held = below.pop(rest, None)
            if held is not None:
                lower, j = held
                g = pairs[lower].g_matrix()[j]
                d = sum(map(mul, g, cs[i]))
                if d != -1:
                    raise InvariantViolation(
                        f"pair {gmat}, summand {i + 1}: the pair "
                        f"{pairs[lower].key()} below it has g-vector {g} "
                        f"with g . c = {d}, not -1")
                edges.append((node_id, lower, i))
                continue
            if len(pairs) >= max_nodes:
                complete = False
                continue
            new = _mutation(pair, i, True)
            child_set = rest | bits.setdefault(new, 1 << len(bits))
            key, pos = _exchanged_key(gmat, i, tt.g_vector(new))
            if child_set in made:
                raise InvariantViolation(
                    f"pair {gmat}, summand {i + 1}: the exchange {key} is "
                    f"already a node but not the lower end of "
                    f"{gmat[:i] + gmat[i + 1:]}")
            child_cs, child_downs = _exchanged_c_vectors(
                pair, cs, downs, i, key, pos)
            made.add(child_set)
            child = len(pairs)
            pairs.append(_exchanged_pair(pair, i, new, key, pos))
            # the edge just made covers the almost complete pair at pos;
            # the child is the lower end of those it goes up from
            for j, down_j in enumerate(child_downs):
                if j != pos and not down_j:
                    rest_j = child_set ^ bits[pairs[child].summands[j]]
                    if rest_j in below:
                        raise InvariantViolation(
                            f"pairs {pairs[below[rest_j][0]].key()} and "
                            f"{key} are both below {key[:j] + key[j + 1:]}")
                    below[rest_j] = child, j
            queue.append((child, child_set, child_cs, child_downs))
            edges.append((node_id, child, i))
    below.clear()  # free its table before the graph is laid out
    return HasseGraph(alg, pairs, edges, complete)


class FinitenessResult:
    def __init__(self, kind, count=None, graph=None):
        self.kind = kind  # "finite" | "unknown"
        self.count = count
        self.graph = graph

    def __repr__(self):
        if self.kind == "finite":
            return f"Finite({self.count})"
        return "Unknown(bound exceeded)"


def is_tau_tilting_finite(alg, max_nodes=10 ** 6):
    """Finite(count) when the enumeration completes, Unknown otherwise."""
    graph = enumerate_sttilt(alg, max_nodes=max_nodes)
    if graph.complete:
        return FinitenessResult("finite", graph.node_count(), graph)
    return FinitenessResult("unknown", graph=graph)


# -- classical tilting ---------------------------------------------------------

def annihilator_dim(M):
    """Dimension of the annihilator of M in A: dim A minus the rank of the
    action of the basis paths, each flattened to its matrix entries."""
    alg = M.alg
    coords = {}  # (source, target, i, j) -> column
    rows = []
    for b in range(alg.dim):
        s, t = alg.basis_source[b], alg.basis_target[b]
        rows.append({coords.setdefault((s, t, i, j), len(coords)): v
                     for i, r in enumerate(M.path_matrix(b).rows)
                     for j, v in r.items()})
    return alg.dim - RowSpace(alg.field, len(coords), rows).dim


def is_classical_tilting(M):
    """Faithful tau-tilting module test."""
    alg = M.alg
    if M.total_dim == 0:
        return alg.n == 0
    if annihilator_dim(M) != 0:
        return False
    if not is_tau_rigid_pair(M, (0,) * alg.n):
        return False
    groups = mr.group_by_iso(mr.decompose(M))
    return len(groups) == alg.n
