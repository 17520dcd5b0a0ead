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
``table`` and ``total`` hand the results out as ``MultiPoly``, the read-only
view that reports print, compare and evaluate; ``counterexample_numerator``
hands a table2 row's numerator out as the integers themselves, for the root
isolation that reads its windows.
Contraction works on an entry encoding, which ``_encoding`` picks from the
input factors; each encoding supplies encode and decode, add, sub, multiply
and the q**closed scaling.

* ``_Packed`` (every input entry a constant: edge networks, the engine
  trials, the gadget's build from ``graph.gadget``'s edges) holds an entry
  as one int with coefficient k at bit k * width, in signed slots
  (Kronecker substitution).  It encodes straight from the coefficient lists
  and decodes by base-2**width digit extraction, so there is no evaluation,
  no interpolation and no degree bound; a sum is one ``+``, q**closed one
  ``<<``, and a product by an edge weight one multiply by a small int.  The
  width is bits(prod over factors of the sum of |coefficient|) + 2: every
  intermediate entry is a sum of q-shifted products of one entry per
  factor, and L1 norms are submultiplicative, so every coefficient's
  magnitude stays below 2**(width - 2).
* ``_Points`` (otherwise: the hollom layer, whose gadget entries have degree
  n) holds an entry as its values at the D + 1 integer nodes -m, ..., D - m,
  m = floor(D / 2): centred at 0, the largest |q| is half of D, which
  shortens every value by about its degree in bits, and 0 and 1 stay nodes
  (``at_one`` reads q = 1).  No entry of a network can exceed degree
  D = (vertices eliminated) + (sum of the input entry degrees), since
  products add degrees and each eliminated vertex closes at most one
  component.  Products and eliminations act point by point (c closed
  components multiply by a cached row of x**c), and each final entry is
  recovered by one exact integer interpolation, whose differences stop at
  the entry's own degree.  Packing these entries would be slower: CPython
  multiplies big ints by Karatsuba alone, so one product of two long
  packed entries loses to the pointwise products.

``counterexample_numerator`` reads a table2 row off one layer.  The doubled
network is two copies of a six-factor layer that share only the posts, so it
contracts layer 1 alone (queries 1, 10 and the posts) in the encoding of the
whole doubled network.  Layer 2's table is that table with 1 projected out
and 10 renamed 20.  The last glue joins the two and cuts the posts through a
signed readout: it keeps only {1,10}{20} minus {1,20}{10}, one product per
entry of the smaller table.  N times den**2 is one decode of that
difference, a single integer list that goes on to root isolation as it is,
and Z(1) times den**2 the product of the two tables' sums at q = 1.

One kernel, ``_glue``, multiplies two encoded tables and cuts a set of
vertices in the same pass.  It joins partitions in the label convention of
``measures._fold``: each entry of the larger table becomes, once, a string
over the union of the boundaries in which every vertex carries
chr(least position of its block + 1); each entry of the smaller table
becomes, once, its merge pairs (consecutive union positions of a block); and
a pair of entries joins by replacing the greater label of each merge pair
with the lesser.  The joined string is canonical, so the reduced partition
and the closed count are read off it through ``partition.project_rgs`` once
per kept-position tuple.  Those projections and the lifted label strings
live in a ``_Memo`` that one contraction passes to all of its glues, since
a column sweep meets the same strings at every step.  Its entries depend
only on their keys, so a caller may also pass one memo to many
contractions: the engine check shares one across all of its trials, whose
tiny networks meet the same keys again and again.  Every other contraction
makes its own, and a glue called on its own (``multiply``, ``eliminate``,
the table2 readout) starts from an empty memo; the module keeps none between
calls, so a memo lives as long as its owner.  For each entry of the smaller
table the kernel first sums the other table's entries that land on the same
reduced partition, and then multiplies once per reduced partition, so there
are at most (smaller table) x (result entries) products, not one per pair.

``contract_network`` plans its steps before it encodes any entry.  The plan
(``_plan``) replays an order on the factor boundaries alone, with no values,
through a vertex -> live-factor index, and records for each step the vertex
that starts it, the factors it glues, the vertices it cuts and the size of
its merged boundary.  With no explicit order it plans two candidates: the
greedy order (least merged boundary, ties to the lower id) and connected
growth, which starts from a vertex of least degree and then always
eliminates a pending vertex of the table it just built.  Growth is kept only
when its (largest merged boundary, sum of Bell(merged)) is strictly smaller,
so it sweeps a grid column by column while ``hollom_network`` keeps the
greedy order.  An explicit order goes through the same replay.  The
Bell-number guard reads the plan, so it trips before any entry is
encoded.  Every step cuts the chosen vertex and every other pending vertex
that no remaining factor touches, so a table is never built over vertices
that the next step would only project out.

``factor_from_graph`` is the brute-force factor of a small graph.  It reads
the integer random-cluster fold of ``bunkbed.measures``, the same fold behind
``rc_boundary_table``, and shifts each entry's q-exponent down by the
boundary's block count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import prod
from operator import add, mul, sub
from typing import NamedTuple

from .exactnum import MultiPoly, Rational, _pack, _trim, _unpack, rat
from .graph import Graph, gadget, hollom_instance, hypergraph_copies
from .measures import EnumerationGuardError, _integer_fold
from .partition import bell_number, block_string, canonical_rgs, project_rgs

__all__ = [
    "Factor",
    "FactorNetwork",
    "factor_from_graph",
    "edge_factor",
    "gadget_factor",
    "multiply",
    "eliminate",
    "contract_network",
    "counterexample_numerator",
    "hollom_network",
]

_BOUNDARY_GUARD = 12


def _add_into(target: list, source: list) -> list:
    if len(source) > len(target):
        target.extend([0] * (len(source) - len(target)))
    for i, c in enumerate(source):
        target[i] += c
    return target


def _nodes(count: int) -> range:
    """-m, ..., count - 1 - m for m = (count - 1) // 2: 0 and 1 are nodes once count >= 2."""
    return range(-((count - 1) // 2), count - (count - 1) // 2)


def _values(coeffs: list, count: int) -> list:
    """Values of the integer polynomial `coeffs` at the nodes ``_nodes(count)``."""
    out = []
    for x in _nodes(count):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append(acc)
    return out


def _interpolate(values: list) -> list:
    """Trimmed integer q-coefficients of the polynomial taking `values` at ``_nodes(len(values))``.

    Forward differences from the first node x0 give the falling-factorial
    coefficients a_k = (Delta^k y)(x0) / k! of the polynomial in q - x0,
    which are integers for an integer polynomial, so every division is
    exact; they stop at the first difference row that is all zero, past
    the degree.  Horner's rule through the factors (q - x0 - k) then
    returns to monomials.
    """
    x0 = _nodes(len(values)).start
    diffs = list(values)
    newton = []
    fact = 1
    while any(diffs):
        k = len(newton)
        fact *= k or 1
        a, r = divmod(diffs[0], fact)
        if r:
            raise ArithmeticError("values do not come from an integer polynomial")
        newton.append(a)
        diffs = list(map(sub, diffs[1:], diffs[:-1]))
    coeffs: list = []
    for k in reversed(range(len(newton))):
        coeffs = list(map(sub, [newton[k]] + coeffs, [(x0 + k) * c for c in coeffs] + [0]))
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
        """Public view: RGS over the boundary -> MultiPoly in q."""
        return {rgs: _q_poly(coeffs, self.den) for rgs, coeffs in self.entries.items()}

    def same_table(self, other: "Factor") -> bool:
        """Whether both factors have one boundary and equal ``table()``, compared in integers.

        Entries a over den_a and b over den_b agree when a * den_b equals
        b * den_a coefficient by coefficient; an all-zero entry still counts as
        a key, so the key sets must match.
        """
        if self.boundary != other.boundary or self.entries.keys() != other.entries.keys():
            return False
        return all(
            _trim([c * other.den for c in coeffs]) == _trim([c * self.den for c in other.entries[rgs]])
            for rgs, coeffs in self.entries.items()
        )

    def total(self) -> MultiPoly:
        """Sum of all entries with q**blocks restored: the partition function."""
        total: list = []
        for rgs, coeffs in self.entries.items():
            _add_into(total, [0] * (max(rgs, default=-1) + 1) + coeffs)
        return _q_poly(total, self.den)

    def relabel(self, mapping: dict) -> "Factor":
        """Rename boundary vertices through an injective mapping."""
        return _sorted_factor([mapping.get(v, v) for v in self.boundary], self.entries, self.den)

    def to_json(self) -> dict:
        return {
            "boundary": list(self.boundary),
            "entries": {
                block_string(self.boundary, rgs): poly.to_string() for rgs, poly in self.table().items()
            },
        }


def _q_poly(coeffs: list, den: int) -> MultiPoly:
    """The view of the integer q-coefficients `coeffs` over `den`."""
    return MultiPoly({(k, 0, 0, 0): Rational(c, den) for k, c in enumerate(coeffs) if c})


def _sorted_factor(boundary: list, entries: dict, den: int) -> Factor:
    """The factor on `boundary` sorted, each entry's RGS permuted to match."""
    if len(set(boundary)) != len(boundary):
        raise ValueError("boundary labels must be distinct")
    order = sorted(range(len(boundary)), key=boundary.__getitem__)
    return Factor(
        tuple(boundary[i] for i in order),
        {canonical_rgs(rgs[i] for i in order): list(coeffs) for rgs, coeffs in entries.items()},
        den,
    )


def edge_factor(u: int, v: int, weight) -> Factor:
    """Single-edge factor: present with its weight, absent with the complement."""
    w = rat(weight)
    den = int(w.denominator)
    num = int(w.numerator)
    if u == v:
        raise ValueError("self-loops are not allowed")
    a, b = (u, v) if u < v else (v, u)
    return Factor((a, b), {(0, 0): [num], (0, 1): [den - num]}, den)


def factor_from_graph(g: Graph, boundary) -> Factor:
    """Brute-force factor of a graph over a boundary set, read from the integer fold.

    The fold keeps only the boundary vertices; internal components are
    absorbed as powers of q, and boundary-touching components contribute no q
    here.  ``relabel`` moves the result to other vertex ids.
    """
    boundary = list(boundary)
    acc, den = _integer_fold(g, tuple(boundary))
    entries: dict = {}
    for (rgs, kappa), c in acc.items():
        internal = kappa - (max(rgs) + 1 if rgs else 0)
        _add_into(entries.setdefault(rgs, []), [0] * internal + [c])
    return _sorted_factor(boundary, {rgs: _trim(c) for rgs, c in entries.items()}, den)


class _Points:
    """Entries as their values at ``_nodes(count)``, recovered by ``_interpolate``.

    Equal coefficient lists share one evaluation, and q**closed scales by a
    cached row of x**closed per closed count.
    """

    def __init__(self, count: int):
        self.count = count
        self.one = [1] * count
        self.zero = [0] * count
        self._memo: dict = {}
        self._rows: dict = {}

    def __str__(self) -> str:
        return "point values"

    def encode(self, coeffs: list) -> list:
        key = tuple(coeffs)
        vals = self._memo.get(key)
        if vals is None:
            vals = self._memo[key] = _values(coeffs, self.count)
        return vals

    decode = staticmethod(_interpolate)

    @staticmethod
    def add(a: list, b: list) -> list:
        return list(map(add, a, b))

    @staticmethod
    def sub(a: list, b: list) -> list:
        return list(map(sub, a, b))

    @staticmethod
    def mul(a: list, b: list) -> list:
        return list(map(mul, a, b))

    def scale(self, vals: list, closed: int) -> list:
        row = self._rows.get(closed)
        if row is None:
            row = self._rows[closed] = [x**closed for x in _nodes(self.count)]
        return list(map(mul, vals, row))

    def at_one(self, vals: list) -> int:
        return vals[1 - _nodes(self.count).start]


class _Packed:
    """Entries as one int each: coefficient k of q at bit k * width (Kronecker substitution).

    Slots are signed: decoding takes each base-2**width digit in
    [-2**(width-1), 2**(width-1)), so it is exact while every coefficient's
    magnitude stays below 2**(width-1) (``_packed_width``).  Sums and
    products are single int operations and q**closed is a shift; there is
    no evaluation, no interpolation and no degree bound.
    """

    one = 1
    zero = 0
    add = staticmethod(add)
    sub = staticmethod(sub)
    mul = staticmethod(mul)

    def __init__(self, width: int):
        if width < 2:
            raise ValueError(f"packed slots need at least 2 bits, got {width}")  # 1 bit holds no sign
        self.width = width

    def __str__(self) -> str:
        return f"coefficients packed in {self.width}-bit slots"

    def encode(self, coeffs: list) -> int:
        if len(coeffs) <= 1:
            return coeffs[0] if coeffs else 0
        return _pack(coeffs, self.width)

    def decode(self, packed: int) -> list:
        """Trimmed coefficients: the signed base-2**width digits."""
        return _unpack(packed, self.width)

    def scale(self, packed: int, closed: int) -> int:
        return packed << (closed * self.width)

    def at_one(self, packed: int) -> int:
        return sum(self.decode(packed))


def _packed_width(factors) -> int:
    """Slot width for ``_Packed``: bits(prod over factors of the sum of |coefficient|) + 2.

    Every entry of every table a contraction of `factors` builds is a sum of
    q-shifted products of one entry per factor (or, in the signed readout,
    the difference of two such entries), and L1 norms are submultiplicative,
    so no coefficient's magnitude reaches that product, which is below
    2**(width - 2).
    """
    l1 = prod(sum(abs(c) for coeffs in f.entries.values() for c in coeffs) for f in factors)
    return l1.bit_length() + 2


def _degree(f: Factor) -> int:
    return max([len(c) - 1 for c in f.entries.values()] + [0])


def _encoding(net: FactorNetwork):
    """The entry encoding for contracting `net`.

    Packed when every input entry is a constant (edge networks, the gadget's
    build from its edges); points at ``_point_count(net)`` nodes centred at
    q = 0 otherwise (the hollom layer, whose gadget entries have degree n:
    there one product of two long packed ints costs more than the pointwise
    products, as CPython multiplies big ints by Karatsuba).
    """
    if all(len(coeffs) <= 1 for f in net.factors for coeffs in f.entries.values()):
        return _Packed(_packed_width(net.factors))
    return _Points(_point_count(net))


class _Encoded(NamedTuple):
    """A factor's boundary with its entries in one encoding (``_Points`` or ``_Packed``)."""

    boundary: tuple
    entries: dict


def _encoded(f: Factor, enc) -> _Encoded:
    return _Encoded(f.boundary, {rgs: enc.encode(coeffs) for rgs, coeffs in f.entries.items()})


def _decoded(t: _Encoded, den: int, enc) -> Factor:
    return Factor(t.boundary, {rgs: enc.decode(v) for rgs, v in t.entries.items()}, den)


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


class _Memo:
    """Partition bookkeeping that the glues of one or more contractions share.

    Both maps hold pure functions of their keys, so any glue may read what
    an earlier one stored, whichever network it came from: `projections`
    maps a kept-position tuple to {joined label string: (reduced RGS,
    closed)}, and `lifts` maps (union size, *positions of the larger table's
    boundary) to {RGS: label string}.  Its owner bounds its size: a
    contraction makes one for itself unless its caller passes one, and no
    memo is kept between calls of this module.
    """

    __slots__ = ("projections", "lifts")

    def __init__(self):
        self.projections: dict = {}
        self.lifts: dict = {}


def _glue(t1: _Encoded, t2: _Encoded, enc, cut=(), signed=(), memo=None) -> _Encoded:
    """Product of two factors in the encoding `enc`, projecting out the vertices in `cut`.

    The larger table's entries become label strings (``_labels``) and the
    smaller one's merge pairs (``_merges``), once each; a pair of entries
    joins by ``str.replace``, keeping the lesser of two labels.  The
    ``_Memo`` `memo` (a fresh one when None) lifts each RGS to its label
    string once and maps each joined string to (reduced partition, closed)
    from ``project_rgs`` once per kept-position tuple, where closed counts
    the blocks made only of cut vertices, each earning one q.  The loop runs
    over the smaller table's entries; for each it first sums the other
    table's entries by reduced partition, each scaled by q**closed (cached
    per entry and power), and then multiplies once per reduced partition.
    So neither the unreduced product table nor one product per entry pair
    is built.

    `signed`, a pair (plus, minus) of reduced partitions, reads only their
    difference: pairs that land elsewhere are skipped, each entry of the
    smaller table multiplies once by plus - minus of its sums, and the result
    has the empty boundary and at most the one entry ().
    """
    if memo is None:
        memo = _Memo()
    if len(t2.entries) < len(t1.entries):
        t1, t2 = t2, t1
    union = tuple(sorted(set(t1.boundary) | set(t2.boundary)))
    pos = {v: i for i, v in enumerate(union)}
    k = len(union)
    idx1 = [pos[v] for v in t1.boundary]
    idx2 = [pos[v] for v in t2.boundary]
    lifts = memo.lifts.setdefault((k, *idx2), {})
    inner = []
    for rgs, vals in t2.entries.items():
        labels = lifts.get(rgs)
        if labels is None:
            labels = lifts[rgs] = _labels(idx2, k, rgs)
        inner.append((labels, vals))
    keep = tuple(i for i, v in enumerate(union) if v not in cut)
    add, mul, scale = enc.add, enc.mul, enc.scale
    slots = memo.projections.setdefault(keep, {})
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
            if signed and key not in signed:
                continue
            if closed:
                vals = scaled.get((j, closed))
                if vals is None:
                    vals = scaled[j, closed] = scale(vals2, closed)
            else:
                vals = vals2
            prev = sums.get(key)
            sums[key] = vals if prev is None else add(prev, vals)
        if signed and sums:
            plus, minus = (sums.get(key, enc.zero) for key in signed)
            sums = {(): enc.sub(plus, minus)}
        for key, vals in sums.items():
            product = mul(vals1, vals)
            prev = acc.get(key)
            acc[key] = product if prev is None else add(prev, product)
    return _Encoded(() if signed else tuple(union[i] for i in keep), acc)


def _unit(enc) -> _Encoded:
    return _Encoded((), {(): enc.one})


def multiply(f1: Factor, f2: Factor) -> Factor:
    """Glue two factors of edge-disjoint subgraphs along shared boundary vertices."""
    enc = _encoding(FactorNetwork((f1, f2), f1.boundary + f2.boundary))
    return _decoded(_glue(_encoded(f1, enc), _encoded(f2, enc), enc), f1.den * f2.den, enc)


def eliminate(f: Factor, vertex: int) -> Factor:
    """Project a boundary vertex out; singleton blocks close and earn one q."""
    if vertex not in f.boundary:
        raise ValueError(f"vertex {vertex} is not on the factor boundary")
    enc = _encoding(FactorNetwork((f,), set(f.boundary) - {vertex}))
    return _decoded(_glue(_encoded(f, enc), _unit(enc), enc, {vertex}), f.den, enc)


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


def contract_network(net: FactorNetwork, order=None, *, memo=None) -> Factor:
    """Multiply factors and eliminate all non-query vertices, following a plan.

    Each step picks a vertex v, multiplies the factors that touch it, and in
    the same glue cuts v together with every other pending vertex of the
    merged boundary that lies in no remaining factor.  The steps are planned
    first on the factor boundaries alone (``_plan``): with `order` None the
    plan keeps the cheaper of the greedy order and connected growth, and an
    explicit `order` names the vertex that starts each step and skips
    vertices already cut.  The result is order-invariant.  Entries are
    carried in the encoding ``_encoding`` picks from the factors, glued
    through one ``_Memo`` and decoded once at the end.  That memo is `memo`
    when given, so a caller that contracts many small networks (the engine
    check) can pass one to all of them; None gives this contraction a fresh
    one.  Raises before any entry is encoded when a planned merged boundary
    exceeds the Bell-number guard, reporting every vertex cut before that
    step, the plan's largest boundary, the degree bound's coefficient count
    D + 1 and the encoding.
    """
    enc = _encoding(net)
    return _decoded(*_contract_encoded(net, enc, order, memo), enc)


def _point_count(net: FactorNetwork) -> int:
    """D + 1: (vertices eliminated) + (sum of the factor degrees) + 1 points."""
    pending = {v for f in net.factors for v in f.boundary} - set(net.queries)
    return len(pending) + sum(_degree(f) for f in net.factors) + 1


@cache
def _bell(k: int) -> int:
    return bell_number(k)


class _Replay:
    """A contraction replayed on factor boundaries alone, with no values.

    Factors are numbered in creation order: the network's inputs first, then
    the table each step builds.  For each vertex, `union` is the set of
    vertices that share a live factor with it (its merged boundary were it
    eliminated now) and `touch` the set of its live factors.  A step reads
    its union, group and cut off these and updates them only on the new
    table's boundary: there union becomes (union - cut) | boundary, and touch
    drops the group and gains the new factor.  Each step is recorded as
    (vertex, group, cut, merged), where merged is the size of its union of
    boundaries, the largest boundary its glues build.  `top` and `bells` are
    the largest merged size so far and the sum of Bell(merged).
    """

    __slots__ = ("union", "touch", "pending", "factors", "last", "steps", "top", "bells")

    def __init__(self, boundaries: list, pending: set):
        union: dict = {}
        touch: dict = {}
        for f, b in enumerate(boundaries):
            for v in b:
                if v in union:
                    union[v].update(b)
                    touch[v].add(f)
                else:
                    union[v] = set(b)
                    touch[v] = {f}
        self.union, self.touch = union, touch
        self.pending = set(pending)
        self.factors = len(boundaries)
        self.last: set = set()  # boundary of the table the last step built
        self.steps: list = []
        self.top = self.bells = 0

    def cut(self, v) -> set:
        """Pending vertices of v's union that lie in no live factor outside v's group."""
        touch, group = self.touch, self.touch[v]
        return {u for u in self.union[v] & self.pending if touch[u] <= group}

    def eliminate(self, v) -> None:
        union, touch = self.union, self.touch
        merged, group, cut = union[v], touch[v], self.cut(v)
        kept = merged - cut
        new = self.factors
        self.factors += 1
        for u in kept:
            s = union[u]
            s -= cut
            s |= kept
            t = touch[u]
            t -= group
            t.add(new)
        self.pending -= cut
        self.last = kept
        size = len(merged)
        self.steps.append((v, group, cut, size))
        if size > self.top:
            self.top = size
        self.bells += _bell(size)

    def grown(self):
        """Connected growth's next vertex.

        Growth eliminates a pending vertex on the boundary of the table it just
        built, ranked by (union size, size after the cut, id).  It starts, and
        starts again whenever that boundary holds no pending vertex, from a
        pending vertex of least degree (least union, then least id): there it
        chooses as greedy does.
        """
        union, front = self.union, self.last & self.pending
        if not front:
            return min(self.pending, key=lambda u: (len(union[u]), u))
        least = min(len(union[u]) for u in front)
        ties = [u for u in front if len(union[u]) == least]
        return ties[0] if len(ties) == 1 else min(ties, key=lambda u: (-len(self.cut(u)), u))


def _plan(boundaries: list, pending: set, order=None) -> _Replay:
    """The replay whose steps a contraction follows, planned on the boundaries alone.

    An explicit order is replayed as given, each entry starting a step unless
    an earlier step cut it.  With `order` None, two candidates are planned:
    the greedy order (least union, ties to the lower id) and connected growth
    (``_Replay.grown``).  Growth is kept only when its (largest merged
    boundary, sum of Bell(merged)) is strictly smaller, so a network on
    which the greedy order wins keeps it.  Growth shares greedy's steps up to
    the first one where it would choose another vertex, and is replayed from
    there only if that step alone does not already cost it the comparison;
    it stops as soon as it cannot win.
    """
    r = _Replay(boundaries, pending)
    if order is not None:
        for v in order:
            if v in r.pending:
                r.eliminate(v)
        return r
    union, left = r.union, r.pending
    keys = {v: (len(union[v]), v) for v in left}
    # Each pending vertex is cut in a step whose union holds it, and
    # Bell(k) >= k, so a replay's (top, bells + pending count) bounds its end.
    shared = None  # greedy's steps before growth would first choose otherwise
    while left:
        v = min(left, key=keys.__getitem__)
        # With no other pending vertex on the last table, growth also takes v.
        if shared is None and (r.last & left) - {v} and (w := r.grown()) != v:
            shared, parted, size = len(r.steps), w, len(union[w])
            reach = max(r.top, size), r.bells + _bell(size) + len(left) - len(r.cut(w))
        r.eliminate(v)
        for u in r.last & left:
            keys[u] = (len(union[u]), u)
    bound = r.top, r.bells
    if shared is None or reach >= bound:
        return r
    growth = _Replay(boundaries, pending)
    for v, *_ in r.steps[:shared]:
        growth.eliminate(v)
    growth.eliminate(parted)
    while growth.pending:
        if (growth.top, growth.bells + len(growth.pending)) >= bound:
            return r
        growth.eliminate(growth.grown())
    return growth if (growth.top, growth.bells) < bound else r


def _check_guard(plan: _Replay, net: FactorNetwork, enc) -> None:
    """Raise EnumerationGuardError at the first planned step whose union exceeds the guard.

    The message names D + 1: the points' count, or for packed entries that
    of `net`, computed only here.
    """
    if plan.top <= _BOUNDARY_GUARD:
        return
    count = enc.count if isinstance(enc, _Points) else _point_count(net)
    done: list = []
    for v, _, cut, size in plan.steps:
        if size > _BOUNDARY_GUARD:
            raise EnumerationGuardError(
                f"eliminating vertex {v} needs a boundary of {size} "
                f"vertices (Bell({size}) = {bell_number(size)} partitions exceeds the "
                f"Bell({_BOUNDARY_GUARD}) guard); order so far: {done}; the plan's "
                f"largest boundary has {plan.top} vertices; "
                f"each entry holds D + 1 = {count} {enc}"
            )
        done += [v] + sorted(cut - {v})


def _contract_encoded(net: FactorNetwork, enc, order=None, memo=None) -> tuple[_Encoded, int]:
    """The contraction of ``contract_network`` in the encoding `enc`: final table and denominator."""
    if not net.queries:
        raise ValueError("network needs at least one query vertex")
    boundaries = [f.boundary for f in net.factors]
    pending = {v for b in boundaries for v in b} - set(net.queries)
    if order is not None:
        order = list(order)
        if set(order) != pending:
            raise ValueError("explicit order must cover exactly the non-query vertices")
    plan = _plan(boundaries, pending, order)
    _check_guard(plan, net, enc)
    tables = [_encoded(f, enc) for f in net.factors]
    unit = _unit(enc)
    if memo is None:
        memo = _Memo()

    def join(x: _Encoded, y: _Encoded) -> _Encoded:
        return _glue(x, y, enc, memo=memo)

    for _, group, cut, _ in plan.steps:
        *head, last = sorted([tables[i] for i in sorted(group)], key=lambda t: len(t.entries))
        for i in group:
            tables[i] = None
        merged = reduce(join, head) if head else unit
        tables.append(_glue(merged, last, enc, cut, memo=memo))
    rest = sorted((t for t in tables if t is not None), key=lambda t: len(t.entries))
    return reduce(join, rest), prod(f.den for f in net.factors)


def gadget_factor(n: int, p) -> Factor:
    """Factor of the apex gadget over its three boundary vertices a, b, c.

    Contracts an edge factor per edge of ``graph.gadget(n, p)``, eliminating
    the bottom path left to right, so no intermediate boundary has more than
    four vertices; the result equals factor_from_graph(gadget(n, p), boundary)
    exactly.  Boundary ids: a=0, b=1, c=n+2 as in graph.gadget, which raises
    ValueError unless n >= 1 and 0 < p < 1.
    """
    edges = tuple(edge_factor(u, v, w) for u, v, w in gadget(n, p).edges)
    return contract_network(FactorNetwork(edges, (0, 1, n + 2)), order=range(2, n + 2))


def hollom_network(n: int, p) -> FactorNetwork:
    """Twelve gadget factors on the skeleton of the doubled counterexample.

    Each hyperedge of the 10-vertex instance is replaced by a gadget factor
    whose apex sits on its post: layer 1's six in hyperedge order, then the
    same six moved to layer 2 by `hypergraph_copies`, which keeps the posts.
    Queries are 1 and the two copies of 10: 10 (same layer) and 20 (the
    other layer).
    """
    h = hollom_instance()
    base = gadget_factor(n, p)
    layer = []
    for he in h.hyperedges:
        post = [v for v in he if v in h.posts]
        others = [v for v in he if v not in h.posts]
        if len(post) != 1:
            raise ValueError("every hyperedge must contain exactly one post")
        layer.append(base.relabel(dict(zip(base.boundary, post + others))))
    mirror = {v: hypergraph_copies(h, v)[1] for v in range(1, h.n + 1)}
    factors = layer + [f.relabel(mirror) for f in layer]
    return FactorNetwork(tuple(factors), (1, *hypergraph_copies(h, 10)))


def counterexample_numerator(n: int, p) -> tuple[list, int, int]:
    """The doubled-instance connection gap's numerator and Z(1), in integers.

    Returns (coeffs, scale, mass): coeffs are the trimmed integer
    q-coefficients of N * scale, where N is the unnormalized numerator of
    P[1 <-> 10] - P[1 <-> 20] (positive denominators cancel), so
    sign P_n(q) = sign N(q) for q > 0; scale is den**2 for the layer's
    denominator den; and mass is Z(1) * scale, Z(1) being the partition
    function at q = 1 (1, as the edge weights are probabilities).  Only layer 1
    of ``hollom_network`` is contracted, keeping 1, 10 and the posts, at the
    doubled network's point count; layer 2's table is that one with 1
    projected out and 10 renamed 20.  Their glue cuts the posts and reads
    {1,10}{20} minus {1,20}{10}, which one decode turns into coeffs; mass is
    the product of the two tables' sums at q = 1, where q**blocks = 1.  The
    encoding is the doubled network's: its gadget entries have degree n, so
    that is points at its point count.
    """
    h = hollom_instance()
    net = hollom_network(n, p)
    one, same, other = net.queries
    posts = tuple(sorted(h.posts))
    enc = _encoding(net)
    layer = FactorNetwork(net.factors[: len(h.hyperedges)], (one, same, *posts))
    top, den = _contract_encoded(layer, enc)
    projected = _glue(top, _unit(enc), enc, {one})
    # 10 and 20 both follow every post, so renaming keeps the boundary sorted.
    bottom = _Encoded(tuple(other if v == same else v for v in projected.boundary), projected.entries)
    readout = _glue(top, bottom, enc, posts, ((0, 0, 1), (0, 1, 0)))  # {1,10}{20}, {1,20}{10}
    # Both query partitions have two blocks: restore q**2.
    coeffs = _trim([0, 0] + enc.decode(readout.entries.get((), enc.zero)))
    mass = prod(sum(map(enc.at_one, t.entries.values())) for t in (top, bottom))
    return coeffs, den * den, mass
