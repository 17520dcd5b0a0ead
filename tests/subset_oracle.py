"""Per-subset union-find: the independent oracle for the enumeration engines.

The engines in ``bunkbed.measures`` sum the subsets by state in one fold;
these helpers recompute every subset from scratch, so tests can check the
fold against a second, deliberately naive computation.
"""

from __future__ import annotations


def roots_and_kappa(n: int, pairs, mask: int):
    """Union-find pass for one subset of `pairs`; returns (root per vertex, kappa)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
    roots = [find(v) for v in range(n)]
    return roots, sum(1 for v in range(n) if roots[v] == v)
