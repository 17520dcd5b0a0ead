"""Hard-coded instance catalog.

The connected graphs on up to five vertices (one representative per
isomorphism class) are frozen here so that every verification run sees the
same instances in the same order.  A regeneration test keeps the list honest.
Named instances cover the small endpoint graphs that the verification suites
exercise directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import rat
from .graph import Graph, gadget

__all__ = [
    "CONNECTED_UPTO_5",
    "connected_graphs",
    "NamedInstance",
    "named_instance",
    "named_graph",
    "OUTERPLANAR_NAMES",
    "outerplanar_catalog",
    "identity_catalog",
    "instance_names",
]

# One representative per isomorphism class, sorted by edge count; counts per
# order are 1, 1, 2, 6, 21.
CONNECTED_UPTO_5: dict[int, tuple] = {
    1: ((),),
    2: (((0, 1),),),
    3: (
        ((0, 1), (0, 2)),
        ((0, 1), (0, 2), (1, 2)),
    ),
    4: (
        ((0, 1), (0, 2), (0, 3)),
        ((0, 1), (0, 2), (1, 3)),
        ((0, 1), (0, 2), (0, 3), (1, 2)),
        ((0, 1), (0, 2), (1, 3), (2, 3)),
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    ),
    5: (
        ((0, 1), (0, 2), (0, 3), (0, 4)),
        ((0, 1), (0, 2), (0, 3), (1, 4)),
        ((0, 1), (0, 2), (1, 3), (2, 4)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2)),
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4)),
        ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4)),
        ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4)),
        ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)),
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)),
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)),
        ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)),
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
    ),
}


def connected_graphs(max_n: int = 5, min_n: int = 1) -> list[tuple[str, Graph]]:
    """Catalog of connected graphs with unit weights, as (name, graph) pairs."""
    if max_n > 5:
        raise ValueError("catalog holds connected graphs up to 5 vertices")
    out = []
    for n in range(min_n, max_n + 1):
        for i, edges in enumerate(CONNECTED_UPTO_5[n]):
            g = Graph(n, tuple((u, v, rat(1)) for u, v in edges))
            out.append((f"conn{n}-{i}", g))
    return out


@dataclass(frozen=True)
class NamedInstance:
    name: str
    graph: Graph
    posts: frozenset = frozenset()
    u: int | None = None
    v: int | None = None


def _cycle(n):
    return tuple((i, (i + 1) % n) for i in range(n))


def _path(n):
    return tuple((i, i + 1) for i in range(n - 1))


def _complete(n):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _complete_bipartite(s, t):
    return tuple((i, s + j) for i in range(s) for j in range(t))


def _fig5(variant: str, n: int):
    """Two 4-cycles with posts a, b joined by top and bottom paths of n edges.

    Vertices: u=0, a=1, e=2, f=3, x=4, y=5, v=6, b=7; path internals follow.
    In variant G the endpoint v sits diagonally opposite u (right cycle
    v-b-y-x); in variant H it sits on the same side (right cycle v-y-x-b).
    """
    if n < 1:
        raise ValueError("path length must be at least 1")
    u, a, e, f, x, y, v, b = range(8)
    edges = [(u, a), (a, e), (e, f), (f, u)]
    if variant == "G":
        edges += [(v, b), (b, y), (y, x), (x, v)]
    elif variant == "H":
        edges += [(v, y), (y, x), (x, b), (b, v)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    nxt = 8
    for start, end in ((e, x), (f, y)):
        prev = start
        for _ in range(n - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, end))
    g = Graph(nxt, tuple((p, q, rat(1)) for p, q in edges))
    return NamedInstance(f"fig5-{variant}-{n}", g, frozenset({a, b}), u, v)


_PLAIN = {
    "K2": (2, _complete(2)),
    "K3": (3, _complete(3)),
    "K4": (4, _complete(4)),
    "K5": (5, _complete(5)),
    "K22": (4, _complete_bipartite(2, 2)),
    "K23": (5, _complete_bipartite(2, 3)),
    "C4": (4, _cycle(4)),
    "C5": (5, _cycle(5)),
    "P2": (2, _path(2)),
    "P3": (3, _path(3)),
    "P4": (4, _path(4)),
    "diamond": (4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),
    "house": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))),
    "bowtie": (5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2))),
    "fan5": (5, ((0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3))),
}


def named_instance(name: str) -> NamedInstance:
    """Built-in instance by name; fig5-G-n / fig5-H-n take the path length."""
    if name in _PLAIN:
        n, edges = _PLAIN[name]
        g = Graph(n, tuple((u, v, rat(1)) for u, v in edges))
        return NamedInstance(name, g, frozenset(), 0, n - 1)
    if name == "fig4-left":
        g = Graph(4, tuple((u, v, rat(1)) for u, v in _cycle(4)))
        return NamedInstance(name, g, frozenset({1}), 0, 2)
    if name == "fig4-right":
        g = Graph(4, tuple((u, v, rat(1)) for u, v in _cycle(4)))
        return NamedInstance(name, g, frozenset({1}), 0, 3)
    if name.startswith("fig5-"):
        try:
            _, variant, n = name.split("-")
            return _fig5(variant, int(n))
        except ValueError:
            raise ValueError(f"bad fig5 instance name {name!r}") from None
    if name.startswith("gadget-"):
        n = int(name.split("-", 1)[1])
        return NamedInstance(name, gadget(n, rat(1, 2)), frozenset(), 1, n + 2)
    raise ValueError(f"unknown instance {name!r}")


def named_graph(name: str) -> Graph:
    return named_instance(name).graph


# Verified by inspection: each can be drawn with every vertex on the outer face.
OUTERPLANAR_NAMES = (
    "P2",
    "P3",
    "P4",
    "K3",
    "C4",
    "C5",
    "diamond",
    "house",
    "bowtie",
    "fan5",
)


def outerplanar_catalog() -> list[NamedInstance]:
    return [named_instance(name) for name in OUTERPLANAR_NAMES]


def identity_catalog() -> list[tuple[str, Graph]]:
    """Graphs for the exact identity suites: connected <=5 plus named ones."""
    out = connected_graphs(5, min_n=2)
    for name in ("K4", "K23", "C4", "fig4-left", "fig5-G-1", "fig5-H-1"):
        out.append((name, named_instance(name).graph))
    for n in (1, 2, 3):
        out.append((f"gadget-{n}", gadget(n, rat(1, 2)).with_weights(rat(1))))
    return out


def instance_names() -> list[str]:
    return sorted(_PLAIN) + ["fig4-left", "fig4-right", "fig5-G-<n>", "fig5-H-<n>", "gadget-<n>", "hollom"]
