"""Finite weighted multigraphs, bunkbed constructions and named instances.

Vertices of a Graph are 0..n-1 and every edge weight is an exact rational.
Parallel edges are kept (their weights multiply independently under every
measure here); self-loops are discarded by contraction.  The JSON form writes
each weight as a rational string such as "1/3"; reading any other weight
string raises ValueError.  A bunkbed is a plain Graph that carries no record
of its base: `bunkbed_copies` computes a base vertex's two copies from the base
graph and the post set, and `bunkbed` numbers its vertices through it;
`hypergraph_copies` and `hypergraph_bunkbed` do the same for hypergraphs.
Hypergraph vertices follow the source numbering 1..n because the one instance
that matters is traditionally drawn that way.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .exactnum import format_rational, parse_rational, rat
from .partition import join_rgs

__all__ = [
    "Graph",
    "Hypergraph",
    "bunkbed",
    "bunkbed_copies",
    "minor",
    "components_of",
    "pair_orbits",
    "gadget",
    "hollom_instance",
    "hypergraph_bunkbed",
    "hypergraph_copies",
    "graph_to_json",
    "graph_from_json",
]

@dataclass(frozen=True)
class Graph:
    """Finite multigraph on vertices 0..n-1 with rational edge weights."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        norm = []
        for e in self.edges:
            u, v, w = (e[0], e[1], e[2]) if len(e) == 3 else (e[0], e[1], rat(1))
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: {e}")
            if u == v:
                raise ValueError(f"self-loop not allowed: {e}")
            norm.append((u, v, rat(w)))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def with_weights(self, weight) -> "Graph":
        """Same topology with every edge reweighted."""
        w = rat(weight)
        return Graph(self.n, tuple((u, v, w) for u, v, _ in self.edges))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        _, kappa = components_of(self, range(self.m))
        return kappa == 1


@dataclass(frozen=True)
class Hypergraph:
    """3-uniform hypergraph on vertices 1..n with a set of posts."""

    n: int
    hyperedges: tuple = ()
    posts: frozenset = frozenset()

    def __post_init__(self):
        norm = []
        for he in self.hyperedges:
            members = tuple(sorted(he))
            if len(set(members)) != 3:
                raise ValueError(f"hyperedge must have 3 distinct members: {he}")
            if not all(1 <= v <= self.n for v in members):
                raise ValueError(f"hyperedge member out of range: {he}")
            norm.append(members)
        object.__setattr__(self, "hyperedges", tuple(norm))
        object.__setattr__(self, "posts", frozenset(self.posts))
        if not all(1 <= t <= self.n for t in self.posts):
            raise ValueError("post outside the vertex range")


def bunkbed(g: Graph, posts=None, vertical_weight=None) -> Graph:
    """Two copies of g, numbered by `bunkbed_copies`.

    With posts=None every vertex gets a vertical edge of weight
    `vertical_weight` (default 1/2).  With a post set the two copies of each
    post are merged into one vertex, which is exactly conditioning the post's
    vertical edge to be open, and no vertex gets a vertical edge; the empty
    post set gives two disjoint copies.  Edges run layer 1 in base order, then
    layer 2 in base order, then the verticals in vertex order.
    """
    if posts is not None and not all(0 <= t < g.n for t in posts):
        raise ValueError("post outside the base vertex range")
    copies = [bunkbed_copies(g, posts, v) for v in range(g.n)]
    edges = [(copies[u][0], copies[v][0], w) for u, v, w in g.edges]
    edges += [(copies[u][1], copies[v][1], w) for u, v, w in g.edges]
    if posts is None:
        vw = rat(1, 2) if vertical_weight is None else rat(vertical_weight)
        edges += [(a, b, vw) for a, b in copies]
    n = 1 + max((b for _, b in copies), default=-1)
    return Graph(n, tuple(edges))


def bunkbed_copies(g: Graph, posts, v: int) -> tuple[int, int]:
    """Vertex ids of the two copies of base vertex v in `bunkbed(g, posts)`.

    The layer-1 copy of v is v.  With posts=None the layer-2 copy is v + n;
    otherwise a post's two copies coincide, and the non-posts take the
    layer-2 ids n, n + 1, ... in increasing order.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside the base graph on {g.n} vertices")
    if posts is None:
        return v, v + g.n
    if v in posts:
        return v, v
    return v, g.n + v - len({t for t in posts if t < v})


def minor(g: Graph, deletions=(), contractions=()) -> Graph:
    """Delete and contract edges by index; loops vanish, parallels persist.

    The merged vertex inherits the smaller index (the RGS of the contracted
    components numbers blocks by their smallest vertex).
    """
    deletions = set(deletions)
    contractions = set(contractions)
    if deletions & contractions:
        raise ValueError("an edge cannot be deleted and contracted")
    for i in deletions | contractions:
        if not (0 <= i < g.m):
            raise ValueError(f"edge index out of range: {i}")
    new_id, kappa = components_of(g, contractions)
    edges = []
    for i, (u, v, w) in enumerate(g.edges):
        if i in deletions or i in contractions:
            continue
        a, b = new_id[u], new_id[v]
        if a != b:
            edges.append((a, b, w))
    return Graph(kappa, tuple(edges))


def components_of(g: Graph, open_edges) -> tuple[tuple[int, ...], int]:
    """(RGS over vertices 0..n-1, component count) under a subset of open edges.

    Vertices u and v are joined exactly when rgs[u] == rgs[v].  One join of
    two labellings over n vertex slots and two slots per open edge: the first
    labels every slot by its vertex, the second labels each vertex slot by
    itself and both slots of the j-th open edge by n + j, so the join puts an
    edge's two ends in one block.  Its first n entries are the vertex RGS.
    """
    n = g.n
    a = list(range(n))
    b = list(range(n))
    for j, i in enumerate(open_edges):
        u, v, _ = g.edges[i]
        a += (u, v)
        b += (n + j, n + j)
    rgs = join_rgs(a, b)[:n]
    return rgs, max(rgs, default=-1) + 1


def pair_orbits(g: Graph, posts=None) -> list[tuple[int, int]]:
    """The first pair of each automorphism orbit of unordered non-post pairs.

    Pairs run in `combinations` order over the sorted non-post vertices.  The
    automorphisms are the vertex permutations that map the edge multiset, with
    its weights, onto itself and the post set (None: no posts) onto itself.
    A pair joins an earlier orbit only when ``_automorphism`` finds a
    permutation that maps the orbit's first pair onto it, in either order.
    Each ordered pair is individualized and its colours refined canonically
    (individualization-refinement, McKay & Piperno 2014).  The search prunes
    no branch by automorphisms found, so when refinement cannot tell two
    pairs apart, proving them inequivalent can take exponential time.
    """
    posts = frozenset(posts or ())
    if not all(0 <= t < g.n for t in posts):
        raise ValueError("post outside the base vertex range")
    adj: list = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    base = [3 if x in posts else 2 for x in range(g.n)]
    firsts: dict = {}  # invariant -> the refined colourings of earlier orbits' first pairs
    reps = []
    for pair in combinations(sorted(set(range(g.n)) - posts), 2):
        ordered = []
        for a, b in (pair, pair[::-1]):
            colours = _refine(adj, [0 if x == a else 1 if x == b else c for x, c in enumerate(base)])
            ordered.append((_invariant(g, colours), colours))
        if not any(
            _automorphism(g, adj, first, colours) is not None
            for key, colours in ordered
            for first in firsts.get(key, ())
        ):
            reps.append(pair)
            key, colours = ordered[0]
            firsts.setdefault(key, []).append(colours)
    return reps


def _refine(adj, colours) -> list:
    """The coarsest equitable refinement of `colours`, its cells named canonically.

    A round renames each vertex by the rank of (its colour, the sorted
    (neighbour colour, weight) of its edges).  Ranking by colour first keeps
    the order of the cells, so the names depend on the graph and the colours
    alone, never on the vertex numbering.
    """
    cells = len(set(colours))
    while True:
        sigs = [(c, tuple(sorted((colours[y], w) for y, w in adj[x]))) for x, c in enumerate(colours)]
        names = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colours = [names[sig] for sig in sigs]
        if len(names) == cells:
            return colours
        cells = len(names)


def _invariant(g: Graph, colours) -> tuple:
    """The cell sizes and the edge multiset relabelled by colour.

    For a discrete colouring this is a canonical form, so two discrete
    colourings with equal invariants differ by an automorphism.
    """
    edges = sorted((min(colours[u], colours[v]), max(colours[u], colours[v]), w) for u, v, w in g.edges)
    return tuple(sorted(colours)), tuple(edges)


def _automorphism(g: Graph, adj, c1, c2):
    """A permutation of g taking colouring c1 onto c2, or None if there is none.

    Both colourings are refined and have equal invariants.  Once they are
    discrete the permutation sends the vertex of each colour in c1 to the
    vertex of that colour in c2; before that, one vertex of c1's first cell
    with more than one vertex is individualized against each vertex of that
    cell in c2 in turn, and a branch whose invariants differ is dropped.
    """
    sizes = Counter(c1)
    if len(sizes) == g.n:
        where = {c: y for y, c in enumerate(c2)}
        return [where[c] for c in c1]
    cell = min(c for c, k in sizes.items() if k > 1)
    left = _refine(adj, _individualize(c1, c1.index(cell)))
    key = _invariant(g, left)
    for y, c in enumerate(c2):
        if c == cell:
            right = _refine(adj, _individualize(c2, y))
            if _invariant(g, right) == key:
                perm = _automorphism(g, adj, left, right)
                if perm is not None:
                    return perm
    return None


def _individualize(colours, x: int) -> list:
    """`colours` with x alone in a new cell just before the rest of its cell."""
    return [2 * c + (y != x) for y, c in enumerate(colours)]


def gadget(n: int, p) -> Graph:
    """Apex-over-path gadget with boundary a, b, c.

    Vertices: apex a=0, then the bottom row b=1, x_1..x_n = 2..n+1, c = n+2.
    The n+1 bottom-path edges carry weight p, the n+2 apex spokes weight 1-p.
    """
    if n < 1:
        raise ValueError("gadget needs n >= 1")
    p = rat(p)
    if not (0 < p < 1):
        raise ValueError("gadget weight must satisfy 0 < p < 1")
    a, b, c = 0, 1, n + 2
    bottom = [b] + [1 + i for i in range(1, n + 1)] + [c]
    edges = [(u, v, p) for u, v in zip(bottom, bottom[1:])]
    edges += [(a, v, 1 - p) for v in bottom]
    return Graph(n + 3, tuple(edges))


def hollom_instance() -> Hypergraph:
    """The 10-vertex, 6-hyperedge counterexample hypergraph; posts 3, 5, 8."""
    return Hypergraph(
        10,
        ((1, 2, 3), (2, 4, 5), (3, 6, 7), (4, 6, 8), (7, 8, 9), (5, 9, 10)),
        frozenset({3, 5, 8}),
    )


def hypergraph_bunkbed(h: Hypergraph):
    """Doubled hyperedges with posts contracted, numbered by `hypergraph_copies`.

    Returns (vertex ids, hyperedge id-triples), layer 1 then layer 2 in
    hyperedge order; the skeleton has 2n labels but fewer distinct vertices
    when posts exist.
    """
    hyperedges = []
    for layer in (0, 1):
        for he in h.hyperedges:
            hyperedges.append(tuple(sorted(hypergraph_copies(h, v)[layer] for v in he)))
    vertices = sorted({v for he in hyperedges for v in he})
    return vertices, tuple(hyperedges)


def hypergraph_copies(h: Hypergraph, v: int) -> tuple[int, int]:
    """Vertex ids of the two copies of v in `hypergraph_bunkbed(h)`.

    The layer-1 copy of v is v and the layer-2 copy is v + n, except that a
    post's two copies coincide.
    """
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} outside the hypergraph on vertices 1..{h.n}")
    return (v, v) if v in h.posts else (v, v + h.n)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph, posts=None) -> dict:
    doc = {
        "n": g.n,
        "edges": [[u, v, format_rational(w)] for u, v, w in g.edges],
    }
    if posts is not None:
        doc["posts"] = sorted(posts)
    return doc


def graph_from_json(doc: dict):
    """Returns (graph, posts) where posts may be None; other keys are ignored.

    Vertex ids, in edges and posts alike, are integers (not booleans); posts
    are distinct vertices of the graph.
    """
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"graph 'n' must be an integer >= 1; got {n!r}")
    edges = []
    for u, v, w in doc["edges"]:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r}, {v!r}) endpoints must be integer vertex ids")
        if not isinstance(w, str):
            raise ValueError(f'edge ({u}, {v}) weight {w!r} must be a string such as "3/4"')
        try:
            edges.append((u, v, parse_rational(w)))
        except ValueError:
            raise ValueError(f"edge ({u}, {v}) weight {w!r} is not a rational like 3/4") from None
    g = Graph(n, tuple(edges))
    if "posts" not in doc:
        return g, None
    posts = doc["posts"]
    if (
        type(posts) is not list
        or any(type(t) is not int or not 0 <= t < n for t in posts)
        or len(set(posts)) != len(posts)
    ):
        raise ValueError(
            f"graph 'posts' must be a list of distinct vertices in 0..{n - 1}; got {posts!r}"
        )
    return g, frozenset(posts)


def load_graph(path) -> tuple[Graph, frozenset | None]:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
