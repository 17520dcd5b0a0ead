"""Pair orbits by every vertex permutation: the reference for ``graph.pair_orbits``.

``pair_orbits_by_permutations`` tries all n! permutations, keeps those that
map the weighted edge multiset and the post set onto themselves, and marks
each pair's orbit, so it is usable up to about seven vertices.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations


def automorphisms(g, posts=None) -> list:
    """Every permutation of g's vertices that preserves its weighted edges and its posts."""
    posts = frozenset(posts or ())
    edges = Counter((frozenset((u, v)), w) for u, v, w in g.edges)
    out = []
    for perm in permutations(range(g.n)):
        if {perm[t] for t in posts} != posts:
            continue
        if Counter((frozenset((perm[u], perm[v])), w) for u, v, w in g.edges) == edges:
            out.append(perm)
    return out


def pair_orbits_by_permutations(g, posts=None) -> list:
    """The first pair, in `combinations` order, of each orbit of unordered non-post pairs."""
    posts = frozenset(posts or ())
    group = automorphisms(g, posts)
    seen: set = set()
    reps = []
    for u, v in combinations(sorted(set(range(g.n)) - posts), 2):
        if frozenset((u, v)) in seen:
            continue
        reps.append((u, v))
        seen.update(frozenset((perm[u], perm[v])) for perm in group)
    return reps
