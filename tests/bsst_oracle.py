"""Per-pair tree-pair orientation counts: the references for ``verify._tree_pair_counts``.

``bsst_counts`` reads (X+, X-) of one edge pair off the forest table of
g - {e, f}; ``bsst_counts_by_cycles`` recomputes them from the definition,
walking the unique cycle of every connected n-edge subgraph among all C(m, n)
edge subsets.
"""

from __future__ import annotations

from itertools import combinations

from bunkbed.graph import minor
from bunkbed.measures import forest_table


def bsst_counts(g, e: int, f: int) -> tuple[int, int]:
    """Orientation-split counts over connected spanning subgraphs with n edges.

    Each such subgraph has a unique cycle; X_plus counts those whose cycle
    uses both chosen edges in the same direction, X_minus the opposite ones.
    Edge orientation is the stored (u, v) order.

    A subgraph F + e + f has its cycle through e and f exactly when F is a
    two-tree spanning forest of g - {e, f} that both e and f cross, so the
    counts are read off the unit-weight forest table of that minor.  The
    cycle u_e -> v_e -> ... crosses f from v_e's tree into u_e's, so it runs
    f in its stored direction exactly when u_f lies in v_e's tree.  This is
    a per-pair reference for ``verify._tree_pair_counts``, which reads every
    pair from one table.
    """
    if e == f:
        raise ValueError("the two edges must be distinct")
    if not g.is_connected():
        raise ValueError("graph must be connected")
    rest = minor(g, deletions={e, f}).with_weights(1)
    u_e, v_e, _ = g.edges[e]
    u_f, v_f, _ = g.edges[f]
    marked = tuple(dict.fromkeys((u_e, v_e, u_f, v_f)))
    ue, ve, uf, vf = map(marked.index, (u_e, v_e, u_f, v_f))
    x_plus = x_minus = 0
    for (rgs, kappa), count in forest_table(rest, marked).entries.items():
        if kappa != 2 or rgs[ue] == rgs[ve] or rgs[uf] == rgs[vf]:
            continue
        if rgs[uf] == rgs[ve]:
            x_plus += count
        else:
            x_minus += count
    return x_plus, x_minus


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
