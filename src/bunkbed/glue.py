"""Boundary-partition factor contraction.

A Factor assigns to each connectivity pattern of its boundary vertices the
total weight of internal configurations inducing that pattern, with one power
of q per fully internal component.  Components that still touch the boundary
accrue their q only when the caller reads probabilities off the final table.
Multiplying factors glues edge-disjoint subgraphs along shared boundary
vertices; eliminating a set of vertices projects them out, and every block
made only of eliminated vertices closes a component (one more q).

A Factor stores each entry as a dense list of integer q-coefficients over a
shared positive denominator, and all arithmetic acts on those integers.
``table``, ``total`` and ``counterexample_polynomial`` hand the results out as
``MultiPoly``, the read-only view that reports print, compare and evaluate.
Contraction works on values instead.  No entry of a network can exceed
degree D = (vertices eliminated) + (sum of the input entry degrees), since
products add degrees and each eliminated vertex closes at most one component.
So every input entry is evaluated once at q = 0, ..., D, products and
eliminations act point by point (c closed components multiply by q**c), and
``contract_network`` recovers each final entry by one exact integer
interpolation.  ``counterexample_polynomial`` reads the table2 row off the
final values instead: N is one interpolation of the point-wise difference of
the two query entries, and Z(1) is the sum of every entry's value at point 1
(q = 1).

One kernel, ``_glue``, multiplies two value-form tables and cuts a set of
vertices in the same pass.  It joins partitions in the label convention of
``measures._fold``: each entry of the larger table becomes, once, a string
over the union of the boundaries in which every vertex carries
chr(least position of its block + 1); each entry of the smaller table
becomes, once, its merge pairs (consecutive union positions of a block); and
a pair of entries joins by replacing the greater label of each merge pair
with the lesser.  The joined string is canonical, so a per-call cache reads
the reduced partition and the closed count off it once through
``partition.project_rgs``.  For each entry of the smaller table the kernel
first sums the other table's values that land on the same reduced
partition, and then multiplies once per reduced partition, so there are at
most (smaller table) x (result entries) big-integer products, not one per
pair.
``contract_network`` cuts, at every step, the chosen vertex and every other
pending vertex that no remaining factor touches, so a table is never built
over vertices that the next step would only project out.

``factor_from_graph`` is the brute-force factor of a small graph.  It reads
the integer random-cluster fold of ``bunkbed.measures``, the same fold behind
``rc_boundary_table``, and shifts each entry's q-exponent down by the
boundary's block count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import add, mul, sub
from typing import NamedTuple

from .exactnum import MultiPoly, Rational, _trim, rat
from .graph import Graph, hollom_instance, hypergraph_bunkbed, hypergraph_copies
from .measures import EnumerationGuardError, _integer_fold
from .partition import SetPartition, bell_number, canonical_rgs, project_rgs

__all__ = [
    "Factor",
    "FactorNetwork",
    "factor_from_graph",
    "edge_factor",
    "gadget_factor",
    "multiply",
    "eliminate",
    "contract_network",
    "counterexample_polynomial",
    "hollom_network",
]

_BOUNDARY_GUARD = 12


def _add_into(target: list, source: list) -> list:
    if len(source) > len(target):
        target.extend([0] * (len(source) - len(target)))
    for i, c in enumerate(source):
        target[i] += c
    return target


def _values(coeffs: list, count: int) -> list:
    """Values of the integer polynomial `coeffs` at q = 0, 1, ..., count - 1."""
    out = []
    for x in range(count):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append(acc)
    return out


def _interpolate(values: list) -> list:
    """Trimmed integer q-coefficients of the polynomial taking `values` at q = 0, 1, ...

    Forward differences give the falling-factorial coefficients
    a_k = (Delta^k y)(0) / k!, which are integers for an integer polynomial,
    so every division is exact; Horner's rule through the factors (q - k)
    then returns to monomials.
    """
    diffs = list(values)
    newton = []
    fact = 1
    for k in range(len(diffs)):
        fact *= k or 1
        a, r = divmod(diffs[0], fact)
        if r:
            raise ArithmeticError("values do not come from an integer polynomial")
        newton.append(a)
        diffs = list(map(sub, diffs[1:], diffs[:-1]))
    coeffs: list = []
    for k in reversed(range(len(_trim(newton)))):
        coeffs = list(map(sub, [newton[k]] + coeffs, [k * c for c in coeffs] + [0]))
    return coeffs


@dataclass(frozen=True)
class Factor:
    """Boundary vertex tuple (sorted global ids) with a partition-keyed table.

    entries maps each boundary partition's RGS tuple to a dense list of
    integer q-coefficients; every entry shares the positive denominator den.
    """

    boundary: tuple[int, ...]
    entries: dict
    den: int = 1

    def __post_init__(self):
        if tuple(sorted(self.boundary)) != self.boundary:
            raise ValueError("factor boundary must be sorted")
        if self.den <= 0:
            raise ValueError("denominator must be positive")

    def table(self) -> dict:
        """Public view: SetPartition of the boundary -> MultiPoly in q."""
        out = {}
        for rgs, coeffs in self.entries.items():
            part = SetPartition(self.boundary, rgs)
            out[part] = MultiPoly(
                {(k, 0, 0, 0): Rational(c, self.den) for k, c in enumerate(coeffs) if c}
            )
        return out

    def total(self) -> MultiPoly:
        """Sum of all entries with q**blocks restored: the partition function."""
        total: list = []
        for rgs, coeffs in self.entries.items():
            _add_into(total, [0] * (max(rgs, default=-1) + 1) + coeffs)
        return MultiPoly({(k, 0, 0, 0): Rational(c, self.den) for k, c in enumerate(total) if c})

    def relabel(self, mapping: dict) -> "Factor":
        """Rename boundary vertices through an injective mapping."""
        new = [mapping.get(v, v) for v in self.boundary]
        if len(set(new)) != len(new):
            raise ValueError("relabel mapping must stay injective on the boundary")
        order = sorted(range(len(new)), key=lambda i: new[i])
        boundary = tuple(new[i] for i in order)
        entries = {}
        for rgs, coeffs in self.entries.items():
            permuted = canonical_rgs(rgs[i] for i in order)
            entries[permuted] = list(coeffs)
        return Factor(boundary, entries, self.den)

    def to_json(self) -> dict:
        return {
            "boundary": list(self.boundary),
            "entries": {
                part.to_string(): poly.to_string() for part, poly in self.table().items()
            },
        }


def edge_factor(u: int, v: int, weight) -> Factor:
    """Single-edge factor: present with its weight, absent with the complement."""
    w = rat(weight)
    den = int(w.denominator)
    num = int(w.numerator)
    if u == v:
        raise ValueError("self-loops are not allowed")
    a, b = (u, v) if u < v else (v, u)
    return Factor((a, b), {(0, 0): [num], (0, 1): [den - num]}, den)


def factor_from_graph(g: Graph, boundary, labels=None) -> Factor:
    """Brute-force factor of a graph over a boundary set, read from the integer fold.

    The fold keeps only the boundary vertices; internal components are
    absorbed as powers of q, and boundary-touching components contribute no q
    here.  `labels` optionally maps local vertex ids to global ids.
    """
    boundary_local = tuple(boundary)
    acc, den = _integer_fold(g, boundary_local)
    mapping = labels or {}
    glob = [mapping.get(v, v) for v in boundary_local]
    if len(set(glob)) != len(glob):
        raise ValueError("labels must stay injective on the boundary")
    order = sorted(range(len(glob)), key=lambda i: glob[i])
    entries: dict = {}
    for (rgs, kappa), c in acc.items():
        coeffs = entries.setdefault(canonical_rgs(rgs[i] for i in order), [])
        internal = kappa - (max(rgs) + 1 if rgs else 0)
        _add_into(coeffs, [0] * internal + [c])
    return Factor(tuple(glob[i] for i in order), {k: _trim(c) for k, c in entries.items()}, den)


class _ValueForm(NamedTuple):
    """A factor in value form: boundary and entries as values at q = 0..D."""

    boundary: tuple
    entries: dict


def _degree(f: Factor) -> int:
    return max([len(c) - 1 for c in f.entries.values()] + [0])


def _evaluate(f: Factor, count: int, cache: dict) -> _ValueForm:
    """Value form of f at `count` points; equal coefficient lists share one evaluation."""
    entries = {}
    for rgs, coeffs in f.entries.items():
        key = tuple(coeffs)
        if key not in cache:
            cache[key] = _values(coeffs, count)
        entries[rgs] = cache[key]
    return _ValueForm(f.boundary, entries)


def _interpolated(t: _ValueForm, den: int) -> Factor:
    return Factor(t.boundary, {rgs: _interpolate(v) for rgs, v in t.entries.items()}, den)


def _labels(idx: list, k: int, rgs: tuple) -> str:
    """A partition as a label string over a k-vertex union; unseen vertices stay singletons.

    Each vertex carries chr(first position of its block + 1): with `idx`
    increasing, as a sorted boundary's positions are, that is the least one.
    """
    chars = [chr(i + 1) for i in range(k)]
    first: dict = {}
    for i, block in zip(idx, rgs):
        chars[i] = first.setdefault(block, chars[i])
    return "".join(chars)


def _merges(idx: list, rgs: tuple) -> list:
    """Consecutive union positions (x, y) of each block: opening them all joins the partition."""
    last: dict = {}
    pairs = []
    for i, block in zip(idx, rgs):
        if block in last:
            pairs.append((last[block], i))
        last[block] = i
    return pairs


def _glue(t1: _ValueForm, t2: _ValueForm, points: range, cut=()) -> _ValueForm:
    """Pointwise product of two value-form factors, projecting out the vertices in `cut`.

    The larger table's entries become label strings (``_labels``) and the
    smaller one's merge pairs (``_merges``), once each; a pair of entries
    joins by ``str.replace``, keeping the lesser of two labels.  A per-call
    cache maps each joined string to (reduced partition, closed)
    from ``project_rgs``, where closed counts the blocks made only of cut
    vertices, each earning one q.  The loop runs over the smaller table's
    entries; for each it first sums the other table's values by reduced
    partition, each scaled by q**closed (cached per entry and power), and
    then multiplies once per reduced partition.  So neither the unreduced
    product table nor one product per entry pair is built.
    """
    if len(t2.entries) < len(t1.entries):
        t1, t2 = t2, t1
    union = tuple(sorted(set(t1.boundary) | set(t2.boundary)))
    pos = {v: i for i, v in enumerate(union)}
    k = len(union)
    idx1 = [pos[v] for v in t1.boundary]
    idx2 = [pos[v] for v in t2.boundary]
    inner = [(_labels(idx2, k, rgs), vals) for rgs, vals in t2.entries.items()]
    keep = [i for i, v in enumerate(union) if v not in cut]
    slots: dict = {}
    scaled: dict = {}
    acc: dict = {}
    for rgs1, vals1 in t1.entries.items():
        merges = _merges(idx1, rgs1)
        sums: dict = {}
        for j, (labels, vals2) in enumerate(inner):
            for x, y in merges:
                a, b = labels[x], labels[y]
                labels = labels.replace(b, a) if a < b else labels.replace(a, b)
            slot = slots.get(labels)
            if slot is None:
                slot = slots[labels] = project_rgs(labels, keep)
            key, closed = slot
            if closed:
                vals = scaled.get((j, closed))
                if vals is None:
                    vals = scaled[j, closed] = [y * x**closed for y, x in zip(vals2, points)]
            else:
                vals = vals2
            prev = sums.get(key)
            sums[key] = vals if prev is None else list(map(add, prev, vals))
        for key, vals in sums.items():
            product = map(mul, vals1, vals)
            prev = acc.get(key)
            acc[key] = list(product) if prev is None else list(map(add, prev, product))
    return _ValueForm(tuple(union[i] for i in keep), acc)


def _unit(count: int) -> _ValueForm:
    return _ValueForm((), {(): [1] * count})


def multiply(f1: Factor, f2: Factor) -> Factor:
    """Glue two factors of edge-disjoint subgraphs along shared boundary vertices."""
    count = _degree(f1) + _degree(f2) + 1
    cache: dict = {}
    t1, t2 = (_evaluate(f, count, cache) for f in (f1, f2))
    return _interpolated(_glue(t1, t2, range(count)), f1.den * f2.den)


def eliminate(f: Factor, vertex: int) -> Factor:
    """Project a boundary vertex out; singleton blocks close and earn one q."""
    if vertex not in f.boundary:
        raise ValueError(f"vertex {vertex} is not on the factor boundary")
    count = _degree(f) + 2
    t = _glue(_evaluate(f, count, {}), _unit(count), range(count), {vertex})
    return _interpolated(t, f.den)


@dataclass(frozen=True)
class FactorNetwork:
    """Factors over global vertex ids plus query vertices kept to the end."""

    factors: tuple
    queries: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "queries", tuple(sorted(set(self.queries))))
        covered = set()
        for f in self.factors:
            covered.update(f.boundary)
        missing = [v for v in self.queries if v not in covered]
        if missing:
            raise ValueError(f"query vertices {missing} appear in no factor boundary")


def contract_network(net: FactorNetwork, order=None) -> Factor:
    """Multiply factors and eliminate all non-query vertices.

    Each step picks a vertex v, multiplies the factors that touch it, and in
    the same glue cuts v together with every other pending vertex of the
    merged boundary that lies in no remaining factor.  v defaults to a
    greedy minimum-new-boundary choice; an explicit `order` names the vertex
    that starts each step and skips vertices already cut.  The result is
    order-invariant.  Entries are carried as their values at q = 0..D and
    interpolated once at the end.  Raises when any merged boundary would
    exceed the Bell-number guard, reporting every vertex cut so far and the
    point count D + 1.
    """
    return _interpolated(*_contract_values(net, order))


def _contract_values(net: FactorNetwork, order=None) -> tuple[_ValueForm, int]:
    """The contraction of ``contract_network``: final value form and network denominator."""
    if not net.queries:
        raise ValueError("network needs at least one query vertex")
    queries = set(net.queries)
    active = list(net.factors)
    pending = set()
    for f in active:
        pending.update(f.boundary)
    pending -= queries
    if order is not None:
        order = list(order)
        if set(order) != pending:
            raise ValueError("explicit order must cover exactly the non-query vertices")
        order = iter(order)
    count = len(pending) + sum(_degree(f) for f in active) + 1
    points = range(count)
    cache: dict = {}
    active = [_evaluate(f, count, cache) for f in active]
    done_order = []
    while pending:
        if order is not None:
            v = next(u for u in order if u in pending)
        else:
            best = None
            for v_cand in pending:
                new_boundary = set()
                for f in active:
                    if v_cand in f.boundary:
                        new_boundary.update(f.boundary)
                size = len(new_boundary) - 1
                key = (size, v_cand)
                if best is None or key < best[0]:
                    best = (key, v_cand)
            v = best[1]
        group = [f for f in active if v in f.boundary]
        rest = [f for f in active if v not in f.boundary]
        merged_boundary = set()
        for f in group:
            merged_boundary.update(f.boundary)
        if len(merged_boundary) > _BOUNDARY_GUARD:
            raise EnumerationGuardError(
                f"eliminating vertex {v} needs a boundary of {len(merged_boundary)} "
                f"vertices (Bell({len(merged_boundary)}) = "
                f"{bell_number(len(merged_boundary))} partitions exceeds the "
                f"Bell({_BOUNDARY_GUARD}) guard); order so far: {done_order}; "
                f"each entry holds D + 1 = {count} point values"
            )
        outside = {u for f in rest for u in f.boundary}
        cut = (merged_boundary & pending) - outside
        *head, last = sorted(group, key=lambda f: len(f.entries))
        merged = reduce(lambda x, y: _glue(x, y, points), head) if head else _unit(count)
        active = rest + [_glue(merged, last, points, cut)]
        pending -= cut
        done_order += [v] + sorted(cut - {v})
    active.sort(key=lambda f: len(f.entries))
    result = reduce(lambda x, y: _glue(x, y, points), active)
    return result, prod(f.den for f in net.factors)


def gadget_factor(n: int, p) -> Factor:
    """Factor of the apex gadget over its three boundary vertices a, b, c.

    Contracts its 2n + 3 edge factors, eliminating the bottom path left to
    right, so no intermediate boundary has more than four vertices; the
    result equals factor_from_graph(gadget(n, p), boundary) exactly.
    Boundary ids: a=0, b=1, c=n+2 as in graph.gadget.
    """
    if n < 1:
        raise ValueError("gadget needs n >= 1")
    p = rat(p)
    a, b, c = 0, 1, n + 2
    spoke = 1 - p
    edges = [edge_factor(a, b, spoke)]
    for x in range(b + 1, c + 1):
        edges += [edge_factor(x - 1, x, p), edge_factor(a, x, spoke)]
    return contract_network(FactorNetwork(tuple(edges), (a, b, c)), order=range(b + 1, c))


def hollom_network(n: int, p) -> FactorNetwork:
    """Twelve gadget factors on the skeleton of the doubled counterexample.

    Each hyperedge of the 10-vertex instance, in both layers with the posts
    contracted, is replaced by a gadget factor whose apex sits on the post.
    Queries are 1 and the two copies of 10 from `hypergraph_copies`: 10
    (same layer) and 20 (the other layer).
    """
    h = hollom_instance()
    _, doubled = hypergraph_bunkbed(h)
    base = gadget_factor(n, p)
    a, b, c = 0, 1, n + 2
    factors = []
    for he in doubled:
        post = [v for v in he if v in h.posts]
        others = [v for v in he if v not in h.posts]
        if len(post) != 1:
            raise ValueError("every hyperedge must contain exactly one post")
        factors.append(base.relabel({a: post[0], b: others[0], c: others[1]}))
    return FactorNetwork(tuple(factors), (1, *hypergraph_copies(h, 10)))


def counterexample_polynomial(n: int, p):
    """Numerator of the doubled-instance connection gap and the total mass Z(1).

    Returns (N, Z(1)).  N is the unnormalized numerator of
    P[1 <-> 10] - P[1 <-> 20] as an exact polynomial in q (positive
    denominators cancel), so sign P_n(q) = sign N(q) for q > 0.  Z(1) is the
    partition function at q = 1, an exact rational (1, as the edge weights
    are probabilities).  Both are read off the contraction's value form: N
    by one interpolation of the two query entries' point-wise difference,
    Z(1) as the sum of every entry's value at point 1, where q**blocks = 1.
    """
    final, den = _contract_values(hollom_network(n, p))
    same_10 = final.entries[0, 0, 1]  # {1,10}{20}
    same_20 = final.entries[0, 1, 0]  # {1,20}{10}
    # Both query partitions have two blocks: restore q**2.
    diff = [0, 0] + _interpolate(list(map(sub, same_10, same_20)))
    numerator = MultiPoly({(e, 0, 0, 0): Rational(c, den) for e, c in enumerate(diff) if c})
    z_at_1 = Rational(sum(vals[1] for vals in final.entries.values()), den)
    return numerator, z_at_1
