"""Brute-force exact computation of random-cluster and forest quantities.

Every engine here is a fold over one depth-first walk of the include/exclude
tree of edge subsets (``_walk``): subsets with a common prefix share its
component merges and its weight product.  Edge weights are rationals; the
random-cluster fold (``_rc_fold``) walks each as a pair of integers over one
shared denominator, and both ``rc_boundary_table`` and
``bunkbed.glue.factor_from_graph`` read their tables from it.  The forest
engines walk with ``acyclic=True``, which drops a branch as soon as its step
joins two vertices already in one component: every subset below it holds
that cycle, so only forests reach the leaves.  One forest
table over all vertices serves every marked set: ``ForestTable.restrict``
regroups its entries by the induced partition of fewer marked vertices, and
``ForestTable.probability`` sums the weights per component count before it
applies the activity.  The enumeration guard is 2^28 subsets; larger instances
belong to the factor-contraction engine in ``bunkbed.glue``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .exactnum import MultiPoly, Rational, format_rational, rat
from .graph import Graph, Hypergraph, hypergraph_bunkbed
from .partition import SetPartition, canonical_rgs

__all__ = [
    "EnumerationGuardError",
    "ParameterError",
    "check_parameters",
    "BoundaryTable",
    "BracketQuery",
    "ForestTable",
    "rc_boundary_table",
    "rc_profile",
    "rc_connection_prob",
    "forest_table",
    "forest_masks",
    "alt_colouring_counts",
    "hypergraph_rc_difference",
    "bunkbed_case_profiles",
    "case_difference",
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
    override = os.environ.get("BUNKBED_SUBSET_GUARD")
    if override:
        limit = max(limit, int(override))
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


@dataclass
class BoundaryTable:
    """Random-cluster event weights resolved by the partition of marked vertices.

    entry(pi) carries the full weight including q**kappa for every component,
    so the entries sum to the partition function.
    """

    marked: tuple
    entries: dict

    def z(self) -> MultiPoly:
        total = MultiPoly.zero()
        for p in self.entries.values():
            total += p
        return total

    def event(self, predicate) -> MultiPoly:
        """Total weight of partitions satisfying a predicate."""
        total = MultiPoly.zero()
        for part, poly in self.entries.items():
            if predicate(part):
                total += poly
        return total

    def connection_numerator(self, u, v) -> MultiPoly:
        return self.event(lambda part: part.together(u, v))


def _rc_fold(g: Graph, marked: tuple) -> tuple[dict, int]:
    """Integer random-cluster weights keyed (marked RGS, kappa), over one denominator.

    Each edge weight num/d walks as the integers (d - num, num), so a leaf
    carries its subset's weight times the shared denominator den, the product
    of the d.  Returns ({(rgs, kappa): int}, den); a key that only zero-weight
    subsets reach stays, with value 0.
    """
    _guard_edges(g.m)
    den = 1
    weights = []
    for _, _, w in g.edges:
        num, d = int(w.numerator), int(w.denominator)
        weights.append((d - num, num))
        den *= d
    acc: dict = {}
    for _, comp, kappa, w in _walk(g.n, _edge_steps(g), weights):
        key = (canonical_rgs(comp[x] for x in marked), kappa)
        acc[key] = acc.get(key, 0) + w
    return acc, den


def rc_boundary_table(g: Graph, marked) -> BoundaryTable:
    """Exact random-cluster table over the connectivity patterns of `marked`.

    Edge weights come from the graph; the component count enters through the
    symbolic variable q, so entry(pi) is the sum of c/den * q**kappa over the
    integer fold's (pi, kappa) weights c.
    """
    marked = tuple(marked)
    acc, den = _rc_fold(g, marked)
    terms: dict = {}
    for (rgs, kappa), c in acc.items():
        terms.setdefault(rgs, {})[(kappa, 0, 0, 0)] = Rational(c, den)
    entries = {SetPartition(marked, rgs): MultiPoly(t) for rgs, t in terms.items()}
    return BoundaryTable(marked, entries)


def rc_profile(g: Graph, marked) -> dict:
    """Subset counts keyed (marked partition RGS, |S|, kappa); weights ignored.

    This is the uniform-p fast path: one enumeration serves every (p, q)
    evaluation afterwards.
    """
    _guard_edges(g.m)
    marked = tuple(marked)
    counts: dict = {}
    for mask, comp, kappa, _ in _walk(g.n, _edge_steps(g)):
        key = (canonical_rgs(comp[x] for x in marked), mask.bit_count(), kappa)
        counts[key] = counts.get(key, 0) + 1
    return counts


def rc_connection_prob(g: Graph, q, u: int, v: int) -> Rational:
    """P[u connected to v] under the random-cluster measure with graph weights."""
    q = rat(q)
    check_parameters(p=[w for _, _, w in g.edges], q=(q,))
    if u == v:
        return rat(1)
    table = rc_boundary_table(g, (u, v))
    num = table.connection_numerator(u, v).eval({"q": q})
    z = table.z().eval({"q": q})
    return num / z


@dataclass(frozen=True)
class BracketQuery:
    """Separation pattern of marked vertices plus allowed extra components.

    extra = 0 asks for the minimal component count realizing the pattern,
    extra = 1 for one more, and so on; pattern None places no restriction.
    """

    marked: tuple
    pattern: SetPartition | None = None
    extra: int = 0

    def __post_init__(self):
        if self.extra < 0:
            raise ValueError("extra component count must be non-negative")
        if self.pattern is not None and tuple(self.pattern.ground) != tuple(self.marked):
            raise ValueError("pattern ground must equal the marked vertices")


@dataclass
class ForestTable:
    """Spanning-forest weights keyed by (marked partition, component count)."""

    marked: tuple
    n: int
    entries: dict

    def query(self, q: BracketQuery):
        if tuple(q.marked) != tuple(self.marked):
            raise ValueError("query marked vertices do not match the table")
        return self.bracket(q.pattern, q.extra)

    def bracket(self, pattern: SetPartition | None = None, extra: int = 0):
        """Forest count for a separation pattern at minimal components + extra.

        ``pattern=None`` places no restriction on the marked vertices (the
        all-trees bracket and its relaxations).
        """
        if extra < 0:
            raise ValueError("extra component count must be non-negative")
        if pattern is None:
            kappa = 1 + extra
            return sum(
                (w for (p, k), w in self.entries.items() if k == kappa),
                start=0,
            )
        kappa = pattern.block_count + extra
        return self.entries.get((pattern, kappa), 0)

    def restrict(self, marked) -> "ForestTable":
        """The same forests keyed by the induced partition of fewer marked vertices.

        `marked` lists distinct vertices of this table's marked tuple, in any
        order; the result equals ``forest_table`` over them.
        """
        marked = tuple(marked)
        index = {x: i for i, x in enumerate(self.marked)}
        pos = [index[x] for x in marked]
        parts: dict = {}
        entries: dict = {}
        for (part, kappa), w in self.entries.items():
            rgs = canonical_rgs(part.rgs[i] for i in pos)
            sub = parts.get(rgs)
            if sub is None:
                sub = parts[rgs] = SetPartition(marked, rgs)
            prev = entries.get((sub, kappa))
            entries[sub, kappa] = w if prev is None else prev + w
        return ForestTable(marked, self.n, entries)

    def probability(self, predicate, lam) -> Rational:
        """Arboreal-gas probability of an event on the marked partition."""
        lam = rat(lam)
        num: dict = {}
        den: dict = {}
        for (part, kappa), w in self.entries.items():
            den[kappa] = den.get(kappa, 0) + w
            if predicate(part):
                num[kappa] = num.get(kappa, 0) + w

        def activity(sums):
            return sum(w * lam ** (self.n - kappa) for kappa, w in sums.items())

        return activity(num) / activity(den)


def forest_table(g: Graph, marked) -> ForestTable:
    """Enumerate spanning forests (acyclic edge subsets) of the graph.

    Values are integers when every edge weight is 1, otherwise exact products
    of the included edges' weights.
    """
    _guard_edges(g.m)
    marked = tuple(marked)
    n = g.n
    weights = None
    if any(w != 1 for _, _, w in g.edges):
        weights = [(rat(1), w) for _, _, w in g.edges]
    entries: dict = {}
    for _, comp, kappa, w in _walk(n, _edge_steps(g), weights, acyclic=True):
        key = (SetPartition(marked, canonical_rgs(comp[x] for x in marked)), kappa)
        prev = entries.get(key)
        entries[key] = w if prev is None else prev + w
    return ForestTable(marked, n, entries)


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
    bit 0 = u1 connected to v1, bit 1 = u1 connected to v2.
    """
    _guard_edges(bb.m)
    profiles = [dict() for _ in triples]
    for mask, comp, kappa, _ in _walk(bb.n, _edge_steps(bb)):
        s = mask.bit_count()
        for prof, (a, b, c) in zip(profiles, triples):
            case = (comp[a] == comp[b]) + 2 * (comp[a] == comp[c])
            key = (case, s, kappa)
            prof[key] = prof.get(key, 0) + 1
    return profiles


@lru_cache(maxsize=256)
def _profile_weights(m: int, p: Rational, q: Rational, kappa_max: int):
    """Integer weights of a (|S|, kappa) profile key over one common denominator.

    With p = a/b and q = c/d, entry s of the first tuple is a^s (b-a)^(m-s),
    entry kappa of the second is c^kappa d^(kappa_max-kappa), and their
    product over the returned b^m d^kappa_max is p^s (1-p)^(m-s) q^kappa.
    A scan calls this once per (p, q) for every pair, so it is cached.
    """
    a, b = int(p.numerator), int(p.denominator)
    c, d = int(q.numerator), int(q.denominator)
    pw = tuple(a**s * (b - a) ** (m - s) for s in range(m + 1))
    qw = tuple(c**k * d ** (kappa_max - k) for k in range(kappa_max + 1))
    return pw, qw, b**m * d**kappa_max


def case_difference(profile: dict, m: int, p, q) -> Rational:
    """Exact numerator of P[case bit0] - P[case bit1] at uniform edge weight p."""
    kappa_max = max((kappa for _, _, kappa in profile), default=0)
    pw, qw, den = _profile_weights(m, rat(p), rat(q), kappa_max)
    total = 0
    for (case, s, kappa), count in profile.items():
        sgn = (case & 1) - (case >> 1 & 1)
        if sgn:
            total += sgn * count * pw[s] * qw[kappa]
    return Rational(total, den)
