"""Definitional tree-pair orientation counts: the oracle for ``verify.bsst_counts``.

``bsst_counts`` reads (X+, X-) off the forest table of g - {e, f}; this
module recomputes them from the definition, walking the unique cycle of
every connected n-edge subgraph among all C(m, n) edge subsets.
"""

from __future__ import annotations

from itertools import combinations


def bsst_counts_by_cycles(g, e: int, f: int) -> tuple[int, int]:
    """(X+, X-): n-edge connected subgraphs whose cycle runs e and f alike / oppositely."""
    x_plus = x_minus = 0
    for subset in combinations(range(g.m), g.n):
        cycle = unique_cycle(g, subset)
        if cycle is None:
            continue
        signs = {}
        for edge_id, tail, head in cycle:
            u0, v0, _ = g.edges[edge_id]
            signs[edge_id] = 1 if (tail, head) == (u0, v0) else -1
        if e in signs and f in signs:
            if signs[e] * signs[f] > 0:
                x_plus += 1
            else:
                x_minus += 1
    return x_plus, x_minus


def unique_cycle(g, subset):
    """Cycle of a connected n-edge spanning subgraph as (edge, tail, head) steps.

    Returns None when the subgraph is disconnected.
    """
    n = g.n
    deg = [0] * n
    incident = [[] for _ in range(n)]
    for i in subset:
        u, v, _ = g.edges[i]
        deg[u] += 1
        deg[v] += 1
        incident[u].append((v, i))
        incident[v].append((u, i))
    # Connectivity first.
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y, _ in incident[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    if count != n:
        return None
    # Peel leaves; what remains is the unique cycle.
    alive = set(subset)
    queue = [v for v in range(n) if deg[v] == 1]
    while queue:
        v = queue.pop()
        if deg[v] != 1:
            continue
        for y, i in incident[v]:
            if i in alive:
                alive.discard(i)
                deg[v] -= 1
                deg[y] -= 1
                if deg[y] == 1:
                    queue.append(y)
                break
    # Walk the cycle.
    start = next(v for v in range(n) if deg[v] > 0)
    walk = []
    prev_edge = None
    x = start
    while True:
        y, i = next((y, i) for y, i in incident[x] if i in alive and i != prev_edge)
        walk.append((i, x, y))
        prev_edge = i
        x = y
        if x == start:
            break
    return walk
