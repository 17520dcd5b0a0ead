"""Brute-force exact computation of random-cluster and forest quantities.

Every engine here is a fold over one depth-first walk of the include/exclude
tree of edge subsets (``_walk``): subsets with a common prefix share its
component merges and its weight product.  Edge weights are rationals, and the
folds walk each one num/d as a pair of integers over one shared denominator,
the product of the d: the random-cluster fold (``_rc_fold``) as (d - num, num),
the forest fold (``forest_table``) as (d, num).  Leaves are summed under their
raw component labels, and each distinct label tuple is canonicalised once.
Both measures land in one table class: a ``BoundaryTable`` maps (partition of
the marked vertices, component count kappa) to an integer over the shared
denominator.  ``rc_boundary_table`` and ``forest_table`` fill it through one
entry builder, and ``bunkbed.glue.factor_from_graph`` reads the random-cluster
fold too.  ``BoundaryTable.event`` sums the entries of an event into a dense
kappa-list, ``restrict`` regroups them by the induced partition of fewer
marked vertices, so one table over all vertices serves every marked set, and
``rc_connection_prob`` and the arboreal-gas ``probability`` read two such lists
through ``exactnum._eval_scaled``.  The forest engines walk with ``acyclic=True``,
which drops a branch as soon as its step joins two vertices already in one
component: every subset below it holds that cycle, so only forests reach the
leaves.  ``rc_profile`` counts subsets by (marked partition, |S|, kappa), and
``bunkbed_case_profiles`` regroups one such count for every query triple.
``MultiPoly`` appears only as the read-only view that
``hypergraph_rc_difference`` returns.  The enumeration guard is 2^28 subsets;
larger instances belong to the factor-contraction engine in ``bunkbed.glue``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .exactnum import MultiPoly, Rational, _eval_scaled, format_rational, rat
from .graph import Graph, Hypergraph, hypergraph_bunkbed
from .partition import SetPartition, canonical_rgs

__all__ = [
    "EnumerationGuardError",
    "ParameterError",
    "check_parameters",
    "BoundaryTable",
    "rc_boundary_table",
    "rc_profile",
    "rc_connection_prob",
    "forest_table",
    "forest_masks",
    "alt_colouring_counts",
    "hypergraph_rc_difference",
    "bunkbed_case_profiles",
]

_SUBSET_GUARD = 28
_ALT_GUARD = 24
_HYPER_GUARD = 16


class EnumerationGuardError(ValueError):
    pass


class ParameterError(ValueError):
    """A model parameter outside its range."""


def check_parameters(p=(), q=(), lam=()) -> None:
    """Raise ParameterError unless every p is in [0, 1], every q > 0 and every lambda >= 0."""
    for name, values, ok, rule in (
        ("edge weight p", p, lambda x: 0 <= x <= 1, "lie in [0, 1]"),
        ("cluster weight q", q, lambda x: x > 0, "be positive"),
        ("forest activity lambda", lam, lambda x: x >= 0, "be non-negative"),
    ):
        for x in values:
            if not ok(x):
                raise ParameterError(f"{name} must {rule}; got {format_rational(x)}")


def _guard_edges(m: int, limit: int = _SUBSET_GUARD) -> None:
    if m > limit:
        raise EnumerationGuardError(
            f"enumeration would visit 2^{m} = {2 ** m} edge subsets "
            f"(guard is 2^{limit}); use the factor contraction engine "
            f"in bunkbed.glue for instances this large"
        )


def _walk(n: int, steps, weights=None, acyclic=False):
    """Every subset of `steps` as (mask, comp, kappa, weight), depth first.

    Step i is a pair (vertex pairs opened when bit i of the mask is clear,
    pairs opened when it is set).  comp labels each of the n vertices by its
    component and kappa counts the components; weight is the product over the
    steps of weights[i][bit], or 1 without weights.  Subsets with a common
    prefix share that prefix's merges and weight product.  With `acyclic`, a
    branch whose step opens a pair already in one component is not taken, so
    only the subsets whose every opened pair merged two components are
    yielded.  The last step is decided first and the clear branch before the
    set one, so masks come out in increasing order.  comp is shared between
    subsets: read it, never change it.
    """
    stack = [(len(steps), 0, list(range(n)), n, 1)]
    while stack:
        i, mask, comp, kappa, w = stack.pop()
        if not i:
            yield mask, comp, kappa, w
            continue
        i -= 1
        for bit in (1, 0):
            c, k = comp, kappa
            for u, v in steps[i][bit]:
                a, b = c[u], c[v]
                if a != b:
                    c = [a if x == b else x for x in c]
                    k -= 1
                elif acyclic:
                    break
            else:
                wb = w if weights is None else w * weights[i][bit]
                stack.append((i, mask | bit << i, c, k, wb))


def _edge_steps(g: Graph) -> list:
    """One walk step per edge: nothing opens when it is absent, its ends when present."""
    return [((), ((u, v),)) for u, v, _ in g.edges]


def _integer_weights(g: Graph) -> tuple[list, int]:
    """Each edge weight num/d as the integers (num, d), and den, the product of the d."""
    pairs = [(int(w.numerator), int(w.denominator)) for _, _, w in g.edges]
    return pairs, math.prod(d for _, d in pairs)


def _canonical(acc: dict) -> dict:
    """Sums keyed (raw labels, *rest) merged into sums keyed (RGS, *rest).

    canonical_rgs runs once per distinct label tuple, not once per leaf.  A
    canonical key comes first where its earliest raw key does, so the result
    is ordered as a per-leaf canonicalisation would order it.
    """
    rgs_of: dict = {}
    out: dict = {}
    for (labels, *rest), w in acc.items():
        rgs = rgs_of.get(labels)
        if rgs is None:
            rgs = rgs_of[labels] = canonical_rgs(labels)
        key = (rgs, *rest)
        out[key] = out.get(key, 0) + w
    return out


def _marked_sums(g: Graph, marked: tuple, weights, acyclic=False) -> dict:
    """Leaf weights of the edge walk summed by (marked RGS, kappa)."""
    pick = _picker(marked)
    acc: dict = {}
    for _, comp, kappa, w in _walk(g.n, _edge_steps(g), weights, acyclic):
        key = (pick(comp), kappa)
        acc[key] = acc.get(key, 0) + w
    return _canonical(acc)


def _picker(positions):
    """The map from a sequence to the tuple of its entries at `positions`."""
    if len(positions) == 1:
        (i,) = positions
        return lambda seq: (seq[i],)
    return itemgetter(*positions) if positions else lambda seq: ()


def _rc_fold(g: Graph, marked: tuple) -> tuple[dict, int]:
    """Integer random-cluster weights keyed (marked RGS, kappa), over one denominator.

    Each edge weight num/d walks as the integers (d - num, num), so a leaf
    carries its subset's weight times the shared denominator den, the product
    of the d.  Returns ({(rgs, kappa): int}, den); a key that only zero-weight
    subsets reach stays, with value 0.
    """
    _guard_edges(g.m)
    pairs, den = _integer_weights(g)
    return _marked_sums(g, marked, [(d - num, num) for num, d in pairs]), den


@dataclass
class BoundaryTable:
    """Edge-subset weights keyed by (marked partition, component count).

    Entries are integers over one positive denominator den, the product of
    the edge weights' denominators: entry (pi, kappa) is den times the summed
    weight of the subsets with kappa components that induce pi.  A random-
    cluster table weighs every subset (kappa is then the power of q), a forest
    table only the spanning forests; on integer weights a forest table's den
    is 1 and its entries are weighted forest counts.  A key that only
    zero-weight subsets reach stays, with value 0.
    """

    marked: tuple
    n: int
    entries: dict
    den: int

    def event(self, predicate=None) -> list:
        """Summed entries of the partitions satisfying `predicate`, as a dense q-list.

        Coefficient kappa sums the entries with kappa components; without a
        predicate every partition counts.  Every sum has length n + 1, so the
        ratio of two sums at one q is read off in integers.
        """
        total = [0] * (self.n + 1)
        for (part, kappa), w in self.entries.items():
            if predicate is None or predicate(part):
                total[kappa] += w
        return total

    def bracket(self, pattern: SetPartition | None = None, extra: int = 0):
        """Weight of a separation pattern at its minimal components + extra.

        The pattern's ground must be the marked tuple.  ``pattern=None``
        places no restriction on the marked vertices (the all-trees bracket
        and its relaxations).  The result is an int when den is 1, otherwise
        the exact rational.
        """
        if extra < 0:
            raise ValueError("extra component count must be non-negative")
        if pattern is not None and pattern.ground != self.marked:
            raise ValueError(
                f"pattern ground {pattern.ground} is not the marked tuple {self.marked}"
            )
        if pattern is None:
            kappa = 1 + extra
            w = sum(w for (_, k), w in self.entries.items() if k == kappa)
        else:
            w = self.entries.get((pattern, pattern.block_count + extra), 0)
        return w if self.den == 1 else Rational(w, self.den)

    def restrict(self, marked) -> "BoundaryTable":
        """The same subsets keyed by the induced partition of fewer marked vertices.

        `marked` lists distinct vertices of this table's marked tuple, in any
        order; the result equals the table built over them directly.
        """
        marked = tuple(marked)
        index = {x: i for i, x in enumerate(self.marked)}
        pick = _picker([index[x] for x in marked])
        acc: dict = {}
        for (part, kappa), w in self.entries.items():
            key = (pick(part.rgs), kappa)
            acc[key] = acc.get(key, 0) + w
        return BoundaryTable(marked, self.n, _entries(marked, _canonical(acc)), self.den)

    def probability(self, predicate, lam) -> Rational:
        """Arboreal-gas probability of an event on the marked partition.

        The ratio of the event's and Z's ``event`` lists read at lambda; the
        common factors b^n and den cancel.
        """
        return Rational(_at_activity(self.event(predicate), lam), _at_activity(self.event(), lam))


def _at_activity(c: list, lam) -> int:
    """b^n times the sum of c[kappa] lambda^(n-kappa) at lambda = a/b, for a dense kappa-list c.

    That is c read homogeneously at (b, a), so lambda = 0 keeps only c[n].
    """
    return _eval_scaled(c, int(lam.denominator), int(lam.numerator))


def _entries(marked: tuple, sums: dict) -> dict:
    """Sums keyed (RGS, kappa) as table entries keyed (SetPartition, kappa)."""
    parts: dict = {}
    entries: dict = {}
    for (rgs, kappa), w in sums.items():
        part = parts.get(rgs)
        if part is None:
            part = parts[rgs] = SetPartition(marked, rgs)
        entries[part, kappa] = w
    return entries


def rc_boundary_table(g: Graph, marked) -> BoundaryTable:
    """Exact random-cluster table over the connectivity patterns of `marked`.

    Edge weights come from the graph; the component count kappa is the power
    of q, so entry (pi, kappa) is the integer fold's (pi, kappa) weight, over
    the fold's denominator, and ``event()`` is den times the partition
    function as a dense q-list.
    """
    marked = tuple(marked)
    sums, den = _rc_fold(g, marked)
    return BoundaryTable(marked, g.n, _entries(marked, sums), den)


def rc_profile(g: Graph, marked) -> dict:
    """Subset counts keyed (marked partition RGS, |S|, kappa); weights ignored.

    This is the uniform-p fast path: one enumeration serves every (p, q)
    evaluation afterwards.
    """
    _guard_edges(g.m)
    marked = tuple(marked)
    pick = _picker(marked)
    counts: dict = {}
    for mask, comp, kappa, _ in _walk(g.n, _edge_steps(g)):
        key = (pick(comp), mask.bit_count(), kappa)
        counts[key] = counts.get(key, 0) + 1
    return _canonical(counts)


def rc_connection_prob(g: Graph, q, u: int, v: int) -> Rational:
    """P[u connected to v] under the random-cluster measure with graph weights."""
    q = rat(q)
    check_parameters(p=[w for _, _, w in g.edges], q=(q,))
    if u == v:
        return rat(1)
    table = rc_boundary_table(g, (u, v))
    a, b = int(q.numerator), int(q.denominator)
    num = _eval_scaled(table.event(lambda part: part.together(u, v)), a, b)
    return Rational(num, _eval_scaled(table.event(), a, b))


def forest_table(g: Graph, marked) -> BoundaryTable:
    """Enumerate spanning forests (acyclic edge subsets) of the graph.

    Each edge weight num/d walks as the integers (d, num), so every entry is
    den times a sum of forest weights, with den the product of the d.  On
    unit weights den is 1 and the entries count forests.
    """
    _guard_edges(g.m)
    marked = tuple(marked)
    pairs, den = _integer_weights(g)
    sums = _marked_sums(g, marked, [(d, num) for num, d in pairs], acyclic=True)
    return BoundaryTable(marked, g.n, _entries(marked, sums), den)


def forest_masks(g: Graph):
    """All spanning forests as (edge mask, kappa) pairs."""
    _guard_edges(g.m)
    return [(mask, kappa) for mask, _, kappa, _ in _walk(g.n, _edge_steps(g), acyclic=True)]


def alt_colouring_counts(g: Graph, posts, u: int, v: int):
    """Red-blue colouring counts for the two-layer model via the bunkbed bijection.

    A colouring picks, for every base edge, its copy in layer 1 (red) or layer
    2 (blue) of the posts-contracted bunkbed.  Admissible colourings are the
    acyclic ones; among them N_RR counts u1 connected to v1 and N_RB counts u1
    connected to v2.  Returns (N_RR, N_RB, N_total).
    """
    from .graph import POSTS_CONTRACTED, BunkbedSpec, bunkbed, bunkbed_copies

    posts = frozenset(posts)
    if u in posts or v in posts:
        raise ValueError("endpoints of the colouring query must not be posts")
    _guard_edges(g.m, _ALT_GUARD)
    bb = bunkbed(BunkbedSpec(g, posts, POSTS_CONTRACTED))
    u1, _ = bunkbed_copies(bb, u)
    v1, v2 = bunkbed_copies(bb, v)
    pairs = [(a, b) for a, b, _ in bb.edges]
    m = g.m
    # Bit i of a colouring set picks the layer-1 copy of base edge i, clear the layer-2 one.
    steps = [((pairs[m + i],), (pairs[i],)) for i in range(m)]
    n_rr = n_rb = n_total = 0
    for _, comp, kappa, _ in _walk(bb.n, steps, acyclic=True):
        n_total += 1
        n_rr += comp[u1] == comp[v1]
        n_rb += comp[u1] == comp[v2]
    return n_rr, n_rb, n_total


def hypergraph_rc_difference(h: Hypergraph, u: int, v: int) -> MultiPoly:
    """Unnormalized numerator of P[u1 <-> v1] - P[u1 <-> v2] on the hypergraph bunkbed.

    Hyperedges are doubled and the posts contracted.  A present hyperedge
    merges its three vertices and weighs g, an absent one weighs h, and every
    configuration carries q**kappa.  The normalizing partition function is
    positive for q, g, h > 0, so the sign of the difference is the sign of
    this polynomial.
    """
    vertices, doubled = hypergraph_bunkbed(h)
    k = len(doubled)
    if k > _HYPER_GUARD:
        raise EnumerationGuardError(
            f"hypergraph bunkbed has {k} hyperedges; enumeration guard is 2^{_HYPER_GUARD}"
        )
    index = {x: i for i, x in enumerate(vertices)}
    u1 = index[u]
    v1 = index[v]
    v2 = index[v if v in h.posts else v + h.n]
    steps = [((), ((index[a], index[b]), (index[a], index[c]))) for a, b, c in doubled]
    terms: dict = {}
    for mask, comp, kappa, _ in _walk(len(vertices), steps):
        diff = (comp[u1] == comp[v1]) - (comp[u1] == comp[v2])
        if diff == 0:
            continue
        present = mask.bit_count()
        exp = (kappa, 0, present, k - present)
        terms[exp] = terms.get(exp, 0) + diff
    return MultiPoly({exp: rat(c) for exp, c in terms.items() if c})


# ---------------------------------------------------------------------------
# Bunkbed scan fast path
# ---------------------------------------------------------------------------


def bunkbed_case_profiles(bb: Graph, triples):
    """One enumeration of a bunkbed graph serving many (u1, v1, v2) queries.

    For each triple the result maps (case, |S|, kappa) -> count, where case is
    bit 0 = u1 connected to v1, bit 1 = u1 connected to v2.  The counts are
    one ``rc_profile`` over every vertex the triples name, regrouped per
    triple by the case its marked partition decides.
    """
    marked = tuple(dict.fromkeys(x for triple in triples for x in triple))
    index = {x: i for i, x in enumerate(marked)}
    slots = [tuple(index[x] for x in triple) for triple in triples]
    profiles = [dict() for _ in triples]
    for (rgs, s, kappa), count in rc_profile(bb, marked).items():
        for prof, (a, b, c) in zip(profiles, slots):
            key = ((rgs[a] == rgs[b]) + 2 * (rgs[a] == rgs[c]), s, kappa)
            prof[key] = prof.get(key, 0) + count
    return profiles
