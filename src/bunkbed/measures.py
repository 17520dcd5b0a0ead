"""Exact random-cluster and forest quantities, summed by one state fold.

``_fold`` sums the edge subsets step by step, keyed by the label string of
the partition they induce on the live vertices, and forgets each vertex no
caller reads after its last step; the work grows with the label strings, not
with the 2^m subsets.  Each string carries one integer that packs its subsets'
weights by (closed components, |S|) in fixed-width slots (Kronecker
substitution), closed counted from the string's own least closed count, so a
branch is one multiply and one shift.
Edge weights num/d are folded as integers over one denominator, the product
of the d (``_integer_fold``, which ``bunkbed.glue.factor_from_graph`` also
reads): (d - num, num) for the random-cluster measure and (d, num) for
forests, whose folds drop a branch as soon as it closes a cycle.  A
``BoundaryTable`` maps (RGS over the marked tuple, component count kappa) to
them, where the RGS gives the marked vertex at position i the number of its
block, blocks numbered by first appearance; ``event`` sums an event's entries
into a dense kappa-list, which callers read at q or lambda through
``exactnum._eval_scaled``, ``restrict`` regroups by fewer marked vertices,
and ``strata`` keeps only the component counts a caller reads.
``rc_profile`` counts subsets by (marked RGS, |S|, kappa), once per query
triple in ``bunkbed_case_profiles``.  ``forest_masks``, which lists every
forest by a depth-first walk over the same sweep, is the forest oracle that
tests and the perfbench tracer read; no computation here calls it.
The only guard is 2^29 bytes in one level of the fold, reckoning each label
string at 512 bytes plus its packed int and checked as each string is
branched: 2^20 strings while the ints are small, fewer once a string's int
spans many closed counts and sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .exactnum import MultiPoly, Rational, _eval_scaled, format_rational, rat
from .graph import Graph, Hypergraph
from .graph import bunkbed, bunkbed_copies, hypergraph_bunkbed, hypergraph_copies
from .partition import canonical_rgs

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

# One level of the fold may hold 2^_LEVEL_GUARD bytes, reckoning each label
# string at _STRING_BYTES (its key, its tuple and dict slot) plus its packed int.
_LEVEL_GUARD = 29
_STRING_BYTES = 512


class EnumerationGuardError(ValueError):
    pass


class ParameterError(ValueError):
    """A model parameter outside its range."""


def check_parameters(p=(), q=(), lam=(), w=()) -> None:
    """Raise ParameterError unless every p is in [0, 1], every q > 0 and every lambda and w >= 0."""
    for name, values, ok, rule in (
        ("edge weight p", p, lambda x: 0 <= x <= 1, "lie in [0, 1]"),
        ("cluster weight q", q, lambda x: x > 0, "be positive"),
        ("forest activity lambda", lam, lambda x: x >= 0, "be non-negative"),
        ("forest edge weight", w, lambda x: x >= 0, "be non-negative"),
    ):
        for x in values:
            if not ok(x):
                raise ParameterError(f"{name} must {rule}; got {format_rational(x)}")


def _sweep(n: int, steps, keep) -> tuple:
    """(order, gone, start): the fold's breadth-first sweep over `steps`.

    `order` runs the steps by the sweep position of their last vertex,
    gone[j] lists the vertices outside `keep` whose last step is order[j],
    and `start` labels vertex x chr(x + 1) if a step or `keep` reads it,
    _GONE otherwise.
    """
    verts = [set(sum(step[0] + step[1], ())) for step in steps]
    adj: dict = {}
    for vs in verts:
        for x in vs:
            adj.setdefault(x, []).extend(vs)
    pos: dict = {}
    for root in range(n):
        queue = [root]
        for x in queue:
            if x not in pos:
                pos[x] = len(pos)
                queue += adj.get(x, ())
    rank = [max(map(pos.get, vs), default=-1) for vs in verts]
    order = sorted(range(len(steps)), key=rank.__getitem__)
    last: dict = {}
    for j, i in enumerate(order):
        last.update(dict.fromkeys(verts[i], j))
    gone: dict = {}
    for x, j in last.items():
        if x not in keep:
            gone.setdefault(j, []).append(x)
    start = "".join(chr(x + 1) if x in last or x in keep else _GONE for x in range(n))
    return order, gone, start


def _fold(n: int, steps, weights=None, sizes=False, acyclic=False, keep=()) -> dict:
    """Weights of every subset of `steps` summed by (RGS of `keep`, |S| or 0, kappa).

    Step i is a pair (vertex pairs opened when bit i is clear, when set); a
    subset weighs the product of the integers weights[i][bit], all
    non-negative, and |S| counts its set bits when `sizes` is on.  The steps
    run in ``_sweep``'s order.  A level keys each label string: labels[x] is
    chr(y + 1) for y the least live vertex in x's component, and a vertex not
    in `keep` turns _GONE after its last step.  It holds (base, packed): base
    is the least count of closed components, those with no live vertex left,
    among the subsets that reach the string, and packed carries their weights
    at slot (closed - base) * (m + 1) + |S|, or closed - base without sizes,
    of `width` = bits(prod(w0 + w1)) + 1 bits each (Kronecker substitution);
    the callers pass no negative weight (``_integer_fold`` checks), so no
    slot overflows.  A branch multiplies by its weight and shifts by its |S|
    step; merging two ints shifts the one with the larger base.  `acyclic`
    drops a branch that closes a cycle.  A key that only zero-weight subsets
    reach keeps its zero entry: a unit-weight fold lists the keys then.
    """
    weights = weights or [(1, 1)] * len(steps)
    sums = _packed_fold(n, steps, weights, sizes, acyclic, keep)
    if all(all(pair) for pair in weights):
        return sums
    unit = _packed_fold(n, steps, [(1, 1)] * len(steps), sizes, acyclic, keep)
    return {key: sums.get(key, 0) for key in unit}


def _packed_fold(n: int, steps, weights, sizes: bool, acyclic: bool, keep) -> dict:
    order, gone, start = _sweep(n, steps, keep)
    total = 1
    for pair in weights:
        total *= sum(pair)
    width = total.bit_length() + 1
    slots = len(steps) + 1 if sizes else 1
    stride = width * slots
    level = {start: (start.count(_GONE), 1)}
    # The level's size in bits: each label string's charge plus its packed int.
    limit, charge = 8 << _LEVEL_GUARD, 8 * _STRING_BYTES
    for j, i in enumerate(order):
        moves = list(zip(steps[i], weights[i], (0, width if sizes else 0)))
        drop = gone.get(j, ())
        states, level, size = level, {}, 0
        for labels, (base, packed) in states.items():
            for new, shut, w, shift in _branches(labels, moves, acyclic, drop):
                value = (packed if w == 1 else packed * w) << shift
                closed = base + shut
                old = level.get(new)
                if old is None:
                    size += charge
                else:
                    low, had = old
                    size -= had.bit_length()
                    if low < closed:
                        value = had + (value << stride * (closed - low))
                        closed = low
                    else:
                        value += had << stride * (low - closed)
                size += value.bit_length()
                level[new] = (closed, value)
            if size > limit:
                raise EnumerationGuardError(
                    f"fold passed {size >> 3} bytes in {len(level)} label strings at step {j + 1} "
                    f"of {len(steps)} with marked set {tuple(keep)} (guard is 2^{_LEVEL_GUARD} bytes)"
                )
    mask = (1 << width) - 1
    sums: dict = {}
    for labels, (base, packed) in level.items():
        live = "".join(map(labels.__getitem__, keep))
        kappa = base + len(set(live))
        index = 0
        while packed:
            w = packed & mask
            if w:
                closed, size = divmod(index, slots)
                key = (live, size, kappa + closed)
                sums[key] = sums.get(key, 0) + w
            packed >>= width
            index += 1
    return _canonical(sums)


_GONE = chr(0)


def _branches(labels: str, moves, acyclic: bool, gone) -> list:
    """(labels, components closed, weight, tag) of each move (pairs, weight, tag).

    A move opens its pairs, then `gone` is forgotten; with `acyclic` a move
    that opens a pair already in one component is dropped.
    """
    out = []
    for pairs, w, tag in moves:
        new = labels
        for u, v in pairs:
            a, b = new[u], new[v]
            if a == b:
                if acyclic:
                    break
            else:
                new = new.replace(a, b) if a > b else new.replace(b, a)
        else:
            closed = 0
            for x in gone:
                label = new[x]
                new = new[:x] + _GONE + new[x + 1 :]
                if label == chr(x + 1):
                    heir = new.find(label)
                    if heir < 0:
                        closed += 1
                    else:
                        new = new.replace(label, chr(heir + 1))
            out.append((new, closed, w, tag))
    return out


def _edge_steps(g: Graph) -> list:
    """One step per edge, opening its ends when present."""
    return [((), ((u, v),)) for u, v, _ in g.edges]


def _canonical(acc: dict, rgs_of=None) -> dict:
    """Sums keyed (labels, *rest) merged by (RGS, *rest), one canonical_rgs per labels.

    `rgs_of` memoizes canonical_rgs across calls that share it.
    """
    rgs_of = {} if rgs_of is None else rgs_of
    out: dict = {}
    for (labels, *rest), w in acc.items():
        rgs = rgs_of.get(labels)
        if rgs is None:
            rgs = rgs_of[labels] = canonical_rgs(labels)
        key = (rgs, *rest)
        out[key] = out.get(key, 0) + w
    return out


def _picker(positions):
    """The map from a sequence to the tuple of its entries at `positions`."""
    if len(positions) == 1:
        (i,) = positions
        return lambda seq: (seq[i],)
    return itemgetter(*positions) if positions else lambda seq: ()


def _check_marked(g: Graph, marked) -> tuple:
    """`marked` as a tuple; ValueError unless it lists distinct vertices of g."""
    marked = tuple(marked)
    if len(set(marked)) != len(marked) or not all(0 <= x < g.n for x in marked):
        raise ValueError(f"marked vertices {marked} must be distinct vertices of 0..{g.n - 1}")
    return marked


def _integer_fold(g: Graph, marked, acyclic=False) -> tuple[dict, int]:
    """({(marked RGS, kappa): int}, den): subset weights times den, the product of the d.

    Each edge weight num/d folds as the integers (d - num, num), or as (d, num)
    for the forests that `acyclic` keeps; ParameterError unless both are
    non-negative, that is unless each weight lies in [0, 1], or is
    non-negative for forests.
    """
    marked = _check_marked(g, marked)
    edge_weights = [w for _, _, w in g.edges]
    if acyclic:
        check_parameters(w=edge_weights)
    else:
        check_parameters(p=edge_weights)
    weights, den = [], 1
    for w in edge_weights:
        num, d = int(w.numerator), int(w.denominator)
        weights.append((d if acyclic else d - num, num))
        den *= d
    sums = _fold(g.n, _edge_steps(g), weights, False, acyclic, marked)
    return {(rgs, kappa): w for (rgs, _, kappa), w in sums.items()}, den


def _table(g: Graph, marked, acyclic: bool) -> "BoundaryTable":
    marked = tuple(marked)
    return BoundaryTable(marked, g.n, *_integer_fold(g, marked, acyclic))


@dataclass
class BoundaryTable:
    """Edge-subset weights keyed by (RGS over `marked`, component count).

    Entry (rgs, kappa) is den times the summed weight of the subsets with
    kappa components that join marked[i] and marked[j] exactly when
    rgs[i] == rgs[j], den the product of the edge weights' denominators.  A
    random-cluster table weighs every subset (kappa is the power of q), a
    forest table only the forests.  A key that only zero-weight subsets reach
    stays, with value 0.  `_rgs_of` memoizes canonical_rgs for this table and
    the tables `restrict` and `strata` derive from it.
    """

    marked: tuple
    n: int
    entries: dict
    den: int
    _rgs_of: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def event(self, predicate=None) -> list:
        """Summed entries whose RGS satisfies `predicate`, as a dense kappa-list.

        The predicate reads positions in the marked tuple, e.g.
        ``lambda rgs: rgs[0] == rgs[1]`` for marked[0] joined to marked[1].
        Entry kappa of the length-(n + 1) list sums the entries with kappa
        components; None takes all.
        """
        total = [0] * (self.n + 1)
        for (rgs, kappa), w in self.entries.items():
            if predicate is None or predicate(rgs):
                total[kappa] += w
        return total

    def bracket(self, pattern: tuple | None = None, extra: int = 0):
        """Weight of a separation pattern at its minimal components + extra.

        The pattern is an RGS tuple over the marked tuple; ValueError when its
        length differs from `marked` or it is not in restricted-growth form.
        ``pattern=None`` places no restriction on the marked vertices (the
        all-trees bracket and its relaxations).  The result is an int when den
        is 1, otherwise the exact rational.
        """
        if extra < 0:
            raise ValueError("extra component count must be non-negative")
        if pattern is None:
            kappa = 1 + extra
            w = sum(w for (_, k), w in self.entries.items() if k == kappa)
        else:
            pattern = tuple(pattern)
            rgs = self._rgs_of.get(pattern)
            if rgs is None:
                rgs = self._rgs_of[pattern] = canonical_rgs(pattern)
            if len(pattern) != len(self.marked) or rgs != pattern:
                raise ValueError(f"pattern {pattern} is not an RGS over the marked tuple {self.marked}")
            w = self.entries.get((pattern, max(pattern, default=-1) + 1 + extra), 0)
        return w if self.den == 1 else Rational(w, self.den)

    def restrict(self, marked) -> "BoundaryTable":
        """The same subsets keyed by the RGS over fewer marked vertices.

        `marked` lists distinct vertices of this table's marked tuple, in any
        order; the result equals the table built over them directly.
        """
        marked = tuple(marked)
        index = {x: i for i, x in enumerate(self.marked)}
        pick = _picker([index[x] for x in marked])
        acc: dict = {}
        for (rgs, kappa), w in self.entries.items():
            key = (pick(rgs), kappa)
            acc[key] = acc.get(key, 0) + w
        return self._derive(marked, _canonical(acc, self._rgs_of))

    def strata(self, kappas) -> "BoundaryTable":
        """The entries whose component count lies in `kappas`.

        A bracket or event that reads only those counts gives what it gives on
        this table, and `restrict` then regroups fewer entries.
        """
        kappas = frozenset(kappas)
        entries = {key: w for key, w in self.entries.items() if key[1] in kappas}
        return self._derive(self.marked, entries)

    def _derive(self, marked, entries) -> "BoundaryTable":
        """A table over the same subsets that shares this table's canonical_rgs memo."""
        table = BoundaryTable(marked, self.n, entries, self.den)
        table._rgs_of = self._rgs_of
        return table


def _at_activity(c: list, lam) -> int:
    """b^n times the sum of c[kappa] lambda^(n-kappa) at lambda = a/b, for a dense kappa-list c.

    That is c read homogeneously at (b, a), so lambda = 0 keeps only c[n].
    """
    return _eval_scaled(c, int(lam.denominator), int(lam.numerator))


def rc_boundary_table(g: Graph, marked) -> BoundaryTable:
    """Exact random-cluster table over the connectivity patterns of `marked`.

    ``event()`` is den times the partition function as a dense q-list.
    """
    return _table(g, marked, False)


def rc_profile(g: Graph, marked) -> dict:
    """Subset counts keyed (marked partition RGS, |S|, kappa); weights ignored."""
    marked = _check_marked(g, marked)
    return _fold(g.n, _edge_steps(g), None, True, False, marked)


def rc_connection_prob(g: Graph, q, u: int, v: int) -> Rational:
    """P[u connected to v] under the random-cluster measure with graph weights."""
    q = rat(q)
    check_parameters(p=[w for _, _, w in g.edges], q=(q,))
    if u == v:
        _check_marked(g, (u,))
        return rat(1)
    table = rc_boundary_table(g, (u, v))
    a, b = int(q.numerator), int(q.denominator)
    num = _eval_scaled(table.event(lambda rgs: rgs[0] == rgs[1]), a, b)
    return Rational(num, _eval_scaled(table.event(), a, b))


def forest_table(g: Graph, marked) -> BoundaryTable:
    """Spanning-forest table: on unit weights den is 1 and entries count forests."""
    return _table(g, marked, True)


def forest_masks(g: Graph):
    """All spanning forests as (edge mask, kappa) pairs, in increasing mask order.

    The forest oracle: tests check forest tables against it and the perfbench
    tracer wraps it by name; no computation in the package calls it.  A
    depth-first walk over the fold's sweep lists each forest once, and the
    branches of a label string at a step are computed once.  No two forests
    share a mask, so nothing would merge, and packing masks into the fold's
    slots would take 2^m slots per label string.
    """
    steps = _edge_steps(g)
    order, gone, start = _sweep(g.n, steps, ())
    ends: list = [{} for _ in order]
    out = []
    stack = [(0, start, start.count(_GONE), 0)]
    while stack:
        j, labels, closed, mask = stack.pop()
        if j == len(order):
            out.append((mask, closed))
            continue
        end = ends[j].get(labels)
        if end is None:
            i = order[j]
            moves = zip(steps[i], (1, 1), (0, 1 << i))
            end = ends[j][labels] = _branches(labels, moves, True, gone.get(j, ()))
        for new, shut, _, bit in end:
            stack.append((j + 1, new, closed + shut, mask | bit))
    return sorted(out)


def alt_colouring_counts(g: Graph, posts, u: int, v: int):
    """Red-blue colouring counts for the two-layer model via the bunkbed bijection.

    A colouring picks, for every base edge, its copy in layer 1 (red) or layer
    2 (blue) of the posts-contracted bunkbed.  Admissible colourings are the
    acyclic ones; among them N_RR counts u1 connected to v1 and N_RB counts u1
    connected to v2.  Returns (N_RR, N_RB, N_total).
    """
    posts = frozenset(posts)
    if u in posts or v in posts:
        raise ValueError("endpoints of the colouring query must not be posts")
    if u == v:
        raise ValueError(f"endpoints of the colouring query must differ; got u = v = {u}")
    n = bunkbed(g, posts).n
    triple = (bunkbed_copies(g, posts, u)[0], *bunkbed_copies(g, posts, v))
    top, bottom = zip(*(bunkbed_copies(g, posts, x) for x in range(g.n)))
    # Bit i of a colouring set picks the layer-1 copy of base edge i, clear the layer-2 one.
    steps = [(((bottom[a], bottom[b]),), ((top[a], top[b]),)) for a, b, _ in g.edges]
    counts = [0] * 4
    for (case, _, _), count in _cases(n, steps, False, True, triple).items():
        counts[case] += count
    return counts[1] + counts[3], counts[2] + counts[3], sum(counts)


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
    index = vertices.index
    triple = tuple(map(index, (hypergraph_copies(h, u)[0], *hypergraph_copies(h, v))))
    steps = [((), ((index(a), index(b)), (index(a), index(c)))) for a, b, c in doubled]
    terms: dict = {}
    cases = _cases(len(vertices), steps, True, False, triple)
    for (case, present, kappa), count in cases.items():
        exp = (kappa, 0, present, k - present)
        terms[exp] = terms.get(exp, 0) + ((case & 1) - (case >> 1)) * count
    return MultiPoly({exp: rat(c) for exp, c in terms.items() if c})


def _cases(n: int, steps, sizes: bool, acyclic: bool, triple) -> dict:
    """Counts keyed (case, |S| or 0, kappa) of a triple (x, y, z): bit 0 is x<->y, bit 1 x<->z."""
    out: dict = {}
    for ((a, b, c), size, kappa), count in _fold(n, steps, None, sizes, acyclic, triple).items():
        key = ((a == b) + 2 * (a == c), size, kappa)
        out[key] = out.get(key, 0) + count
    return out


def bunkbed_case_profiles(bb: Graph, triples):
    """Per (u1, v1, v2) triple, subset counts keyed (case, |S|, kappa), one fold each.

    Bit 0 of case is u1 connected to v1, bit 1 is u1 connected to v2.
    """
    steps = _edge_steps(bb)
    return [_cases(bb.n, steps, True, False, t) for t in triples]
