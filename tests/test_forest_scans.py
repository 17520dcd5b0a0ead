"""The four forest scans of ``scan_conjectures`` against a per-subset oracle.

The oracle weighs every spanning forest F from scratch, as lambda^|F| times
its edge weights, and compares rational probabilities in each scan's own loop
order, so the first witness it finds must be the scan's.  Negative lambda lies
outside the arboreal gas, but the partition function does not vanish there on
these graphs, and it makes every scan find a witness.
"""

import math
from itertools import combinations

import pytest
from subset_oracle import roots_and_kappa

from bunkbed.catalog import connected_graphs, named_graph
from bunkbed.exactnum import format_rational, rat
from bunkbed.graph import Graph
from bunkbed.verify import (
    _edge_negative_correlation,
    _forest_harris,
    _forest_product_inequality,
    _four_point_forest,
)

LAMS = (rat(-1, 3), rat(-2), rat(-5, 2), rat(1, 2))
WEIGHTS = (rat(1, 2), rat(3), rat(2, 5), rat(4, 3), rat(5), rat(1, 7))
K4_WEIGHTED = Graph(4, tuple((u, v, w) for (u, v, _), w in zip(named_graph("K4").edges, WEIGHTS)))
GRAPHS = connected_graphs(4, min_n=3) + [("K4-weighted", K4_WEIGHTED)]


def _forests(g: Graph, lam):
    """(mask, roots, weight) per spanning forest, weight lambda^|F| times its edge weights."""
    pairs = [(u, v) for u, v, _ in g.edges]
    out = []
    for mask in range(1 << g.m):
        roots, kappa = roots_and_kappa(g.n, pairs, mask)
        if mask.bit_count() + kappa == g.n:
            present = (w for i, (_, _, w) in enumerate(g.edges) if mask >> i & 1)
            out.append((mask, roots, math.prod(present, start=rat(1)) * lam ** mask.bit_count()))
    return out


def _measure(g: Graph, lam):
    """P[event] at lambda, for an event on (mask, roots)."""
    forests = _forests(g, lam)
    z = sum(w for _, _, w in forests)
    assert z != 0
    return lambda event: sum(w for mask, roots, w in forests if event(mask, roots)) / z


def _joined(*xs):
    return lambda mask, roots: len({roots[x] for x in xs}) == 1


def _oracle_product(g, lams):
    prob = {lam: _measure(g, lam) for lam in lams}
    for u, v, w in combinations(range(g.n), 3):
        for x, y, t in ((u, v, w), (u, w, v), (v, w, u)):
            for lam in lams:
                left = prob[lam](_joined(x, y))
                right = prob[lam](_joined(x, t)) * prob[lam](_joined(t, y))
                if left < right:
                    return {"u": x, "v": y, "t": t, "lambda": format_rational(lam),
                            "lhs": format_rational(left), "rhs": format_rational(right)}
    return None


def _oracle_harris(g, lams):
    prob = {lam: _measure(g, lam) for lam in lams}
    for u, w, v in combinations(range(g.n), 3):
        for lam in lams:
            if prob[lam](_joined(u, w, v)) < prob[lam](_joined(u, w)) * prob[lam](_joined(w, v)):
                return {"u": u, "w": w, "v": v, "lambda": format_rational(lam)}
    return None


def _oracle_edges(g, lams):
    prob = {lam: _measure(g, lam) for lam in lams}

    def holding(edges):
        return lambda mask, roots: mask & edges == edges

    for e, f in combinations(range(g.m), 2):
        for lam in lams:
            p = prob[lam]
            if p(holding(1 << e)) * p(holding(1 << f)) < p(holding(1 << e | 1 << f)):
                return {"e": e, "f": f, "lambda": format_rational(lam)}
    return None


def _oracle_four_point(g, lams):
    prob = {lam: _measure(g, lam) for lam in lams}
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad

        def blocks(mask, roots):
            return len({roots[x] for x in quad})

        def apart(x, y):
            return lambda mask, roots: roots[x] != roots[y]

        def pairing(x, y, z, w):
            # Exactly the two blocks {x, y} and {z, w}.
            return lambda mask, roots: roots[x] == roots[y] != roots[z] == roots[w]

        def three(mask, roots):
            # Three blocks, neither {a, b} nor {c, d} among them.
            return blocks(mask, roots) == 3 and roots[a] != roots[b] and roots[c] != roots[d]

        for lam in lams:
            p = prob[lam]
            lhs = p(apart(a, b)) * p(apart(c, d))
            cross = p(pairing(a, c, b, d)) - p(pairing(a, d, b, c))
            if lhs < p(three) * p(_joined(a, b, c, d)) + cross**2:
                return {"quad": list(quad), "lambda": format_rational(lam)}
    return None


SCANS = (
    (_forest_product_inequality, _oracle_product),
    (_forest_harris, _oracle_harris),
    (_edge_negative_correlation, _oracle_edges),
    (_four_point_forest, _oracle_four_point),
)


@pytest.mark.parametrize("scan, oracle", SCANS, ids=[s.__name__ for s, _ in SCANS])
def test_forest_scans_match_the_subset_oracle(scan, oracle):
    found = 0
    for name, g in GRAPHS:
        witness = scan(g, LAMS)
        assert witness == oracle(g, LAMS), name
        found += witness is not None
    assert found
