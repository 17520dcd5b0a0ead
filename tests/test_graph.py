import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st
from orbit_oracle import pair_orbits_by_permutations

from bunkbed.catalog import (
    CONNECTED_UPTO_5,
    connected_graphs,
    identity_catalog,
    named_graph,
    named_instance,
)
from bunkbed.exactnum import MultiPoly, rat
from bunkbed.glue import hollom_network
from bunkbed import graph
from bunkbed.graph import (
    Graph,
    bunkbed,
    bunkbed_copies,
    components_of,
    gadget,
    graph_from_json,
    graph_to_json,
    hollom_instance,
    hypergraph_bunkbed,
    hypergraph_copies,
    minor,
    pair_orbits,
)
from bunkbed.measures import hypergraph_rc_difference


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 2, rat(1)),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 0, rat(1)),))
    g = Graph(3, ((0, 1), (0, 1), (1, 2)))
    assert g.m == 3  # parallel edges preserved


def test_float_weights_are_refused():
    # 0.1 would silently become 3602879701896397/36028797018963968.
    with pytest.raises(TypeError):
        Graph(2, ((0, 1, 0.1),))
    with pytest.raises(TypeError):
        Graph(2, ((0, 1, rat(1)),)).with_weights(0.5)


def test_bunkbed_all_verticals_k2_is_four_cycle():
    bb = bunkbed(named_graph("K2"))
    assert bb.n == 4 and bb.m == 4
    _, kappa = components_of(bb, range(bb.m))
    assert kappa == 1


def test_bunkbed_path_examples():
    path = named_graph("P3")  # a - t - b with t = 1
    bb = bunkbed(path)
    assert bb.n == 6 and bb.m == 2 * 2 + 3
    posts = bunkbed(path, {1})
    assert posts.n == 5 and posts.m == 4
    t1, t2 = bunkbed_copies(path, {1}, 1)
    assert t1 == t2


def test_bunkbed_edge_count_formula():
    for name, g in connected_graphs(4):
        bb = bunkbed(g)
        assert bb.n == 2 * g.n
        assert bb.m == 2 * g.m + g.n


def test_layer_swap_is_an_automorphism():
    for name, g in connected_graphs(4, min_n=2):
        bb = bunkbed(g)
        swap = {}
        for v in range(g.n):
            a, b = bunkbed_copies(g, None, v)
            swap[a], swap[b] = b, a
        original = sorted(
            (min(u, v), max(u, v), w.numerator, w.denominator) for u, v, w in bb.edges
        )
        mapped = sorted(
            (min(swap[u], swap[v]), max(swap[u], swap[v]), w.numerator, w.denominator)
            for u, v, w in bb.edges
        )
        assert original == mapped


def _bunkbed_by_rule(g, posts, vertical_weight):
    """(n, edges, copies) of the bunkbed, written out from the numbering rule."""
    n = g.n
    if posts is None:
        second = [v + n for v in range(n)]
    else:
        non_posts = [v for v in range(n) if v not in posts]
        second = list(range(n))
        for i, v in enumerate(non_posts):
            second[v] = n + i
    edges = list(g.edges)
    edges += [(second[u], second[v], w) for u, v, w in g.edges]
    if posts is None:
        vw = rat(1, 2) if vertical_weight is None else vertical_weight
        edges += [(v, second[v], vw) for v in range(n)]
    order = 2 * n if posts is None else n + len(non_posts)
    return order, tuple(edges), [(v, second[v]) for v in range(n)]


def test_bunkbed_numbers_the_copies_by_the_rule():
    for name, g in identity_catalog():
        post_sets = [None, frozenset(), frozenset(range(g.n))]
        post_sets += [frozenset({v}) for v in range(g.n)]
        for posts in post_sets:
            for vw in (None, rat(3)):
                n, edges, copies = _bunkbed_by_rule(g, posts, vw)
                bb = bunkbed(g, posts, vertical_weight=vw)
                assert (bb.n, bb.edges) == (n, edges), (name, posts, vw)
                assert [bunkbed_copies(g, posts, v) for v in range(g.n)] == copies, (name, posts)
    p3 = named_graph("P3")
    for posts in ({3}, {-1}, {0, 3}):
        with pytest.raises(ValueError):
            bunkbed(p3, posts)
    for posts in (None, frozenset(), {1}):
        for v in (-1, 3):
            with pytest.raises(ValueError):
                bunkbed_copies(p3, posts, v)


def test_minor_examples():
    tri = named_graph("K3")
    assert minor(tri, deletions=[0]).m == 2
    contracted = minor(tri, contractions=[0])
    assert contracted.n == 2 and contracted.m == 2  # two parallel edges survive
    p3 = named_graph("P3")
    collapsed = minor(p3, contractions=[0, 1])
    assert collapsed.n == 1 and collapsed.m == 0
    with pytest.raises(ValueError):
        minor(tri, deletions=[0], contractions=[0])
    with pytest.raises(ValueError):
        minor(tri, deletions=[5])


def test_components_examples():
    tri = named_graph("K3")  # edges (0,1), (0,2), (1,2)
    rgs, kappa = components_of(tri, [0])
    assert (rgs, kappa) == ((0, 0, 1), 2)
    assert rgs[0] == rgs[1] and rgs[0] != rgs[2]
    _, kappa = components_of(tri, [])
    assert kappa == 3
    _, kappa = components_of(tri, [0, 2])
    assert kappa == 1


def _dfs_components(g, open_edges):
    adj = [[] for _ in range(g.n)]
    for i in open_edges:
        u, v, _ = g.edges[i]
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * g.n
    c = 0
    for s in range(g.n):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = c
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if comp[y] == -1:
                    comp[y] = c
                    stack.append(y)
        c += 1
    return comp, c


def test_components_match_dfs_oracle():
    # Connected graphs, then seeded multigraphs with parallel edges, isolated
    # vertices and several components, and the graphs on 0 and 1 vertices.
    rng = random.Random(23)
    graphs = [g for _, g in connected_graphs(5, min_n=3)]
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        edges += edges[:1]  # a parallel edge
        graphs.append(Graph(n, tuple(edges)))
    graphs += [Graph(0), Graph(1)]
    for g in graphs:
        for _ in range(5):
            sub = [i for i in range(g.m) if rng.random() < 0.5]
            rgs, kappa = components_of(g, sub)
            comp, c = _dfs_components(g, sub)
            assert kappa == c
            # The DFS numbers components from the least unvisited vertex up: the RGS.
            assert rgs == tuple(comp)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert (rgs[u] == rgs[v]) == (comp[u] == comp[v])


def test_gadget_structure():
    g = gadget(5, rat(1, 100))
    assert g.n == 8 and g.m == 13
    g1 = gadget(1, rat(1, 2))
    assert g1.n == 4 and g1.m == 5
    for n in range(1, 51):
        assert gadget(n, rat(1, 100)).m == 2 * n + 3
    weights = {w for _, _, w in gadget(4, rat(1, 100)).edges}
    assert weights == {rat(1, 100), rat(99, 100)}
    with pytest.raises(ValueError):
        gadget(0, rat(1, 2))


def test_hollom_instance_facts():
    h = hollom_instance()
    assert len(h.hyperedges) == 6
    assert h.posts == frozenset({3, 5, 8})
    for he in h.hyperedges:
        assert len(set(he) & h.posts) == 1
    vertices, doubled = hypergraph_bunkbed(h)
    assert len(doubled) == 12
    labels = {v for he in doubled for v in he}
    assert 20 in labels and 1 in labels
    assert len(vertices) == 17  # 2*10 labels, three pairs merged at the posts
    assert max(vertices) == 20


def test_hypergraph_copies_rule_is_shared_on_the_hollom_instance():
    h = hollom_instance()
    copies = {v: hypergraph_copies(h, v) for v in range(1, h.n + 1)}
    assert all(copies[t] == (t, t) for t in h.posts)
    assert all(copies[v] == (v, v + h.n) for v in copies if v not in h.posts)
    for v in (0, h.n + 1, -1):
        with pytest.raises(ValueError, match="outside the hypergraph"):
            hypergraph_copies(h, v)
    # hypergraph_bunkbed lifts each hyperedge to layer 1, then layer 2, by the rule.
    _, doubled = hypergraph_bunkbed(h)
    k = len(h.hyperedges)
    for layer in (0, 1):
        for he, lifted in zip(h.hyperedges, doubled[layer * k : (layer + 1) * k]):
            assert lifted == tuple(sorted(copies[v][layer] for v in he))
    # glue.hollom_network queries 1 and both copies of 10.
    assert hollom_network(1, rat(1, 100)).queries == (1, *copies[10])
    # hypergraph_rc_difference reads v1, v2 by the rule: a per-subset count of
    # [1 <-> v1] - [1 <-> v2] with the copies taken from `copies`, for every v.
    labels = sorted({x for he in doubled for x in he})
    terms = {v: {} for v in copies}
    for mask in range(1 << len(doubled)):
        parent = {x: x for x in labels}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, he in enumerate(doubled):
            if mask >> i & 1:
                for x in he[1:]:
                    parent[find(x)] = find(he[0])
        roots = {x: find(x) for x in labels}
        kappa = len(set(roots.values()))
        present = mask.bit_count()
        exp = (kappa, 0, present, len(doubled) - present)
        for v, (v1, v2) in copies.items():
            sign = (roots[1] == roots[v1]) - (roots[1] == roots[v2])
            terms[v][exp] = terms[v].get(exp, 0) + sign
    for v, by_exp in terms.items():
        expected = MultiPoly({exp: rat(c) for exp, c in by_exp.items() if c})
        assert hypergraph_rc_difference(h, 1, v) == expected


def test_graph_json_round_trip(tmp_path):
    g = named_graph("K3").with_weights(rat(1, 3))
    g2 = Graph(3, ((0, 1, rat(1, 7)), (1, 2, rat(2, 5))))
    for graph in (g, g2):
        doc = graph_to_json(graph, posts={1})
        back, posts = graph_from_json(doc)
        assert back.n == graph.n
        assert posts == frozenset({1})
        assert [(u, v) for u, v, _ in back.edges] == [(u, v) for u, v, _ in graph.edges]
        assert all(wa == wb for (_, _, wa), (_, _, wb) in zip(back.edges, graph.edges))
    # Edge weights are rationals only: a polynomial weight is rejected.
    poly_weight = MultiPoly({(1, 1, 0, 0): 1})  # l q
    with pytest.raises(TypeError):
        Graph(3, ((0, 1, poly_weight), (1, 2, rat(2, 5))))
    doc = {"n": 3, "edges": [[0, 1, poly_weight.to_string()], [1, 2, "2/5"]]}
    with pytest.raises(ValueError):
        graph_from_json(doc)


@pytest.mark.parametrize(
    "edges, posts",
    [
        ([[0, True, "1/2"]], [1]),
        ([[0, 1, "1/2"]], [-1]),
        ([[0, 1, "1/2"]], [1, 1]),
        ([[0, 1, "1/2"]], [True]),
        ([[0, 1, "1/2"]], None),
    ],
)
def test_graph_json_rejects_bad_vertex_ids(edges, posts):
    with pytest.raises(ValueError):
        graph_from_json({"n": 3, "edges": edges, "posts": posts})


def test_graph_json_ignores_labels():
    doc = graph_to_json(bunkbed(named_graph("P3"), {1}), posts={1})
    assert set(doc) == {"n", "edges", "posts"}
    labelled = {**doc, "labels": {"0": [1, 0], "1": [0, 1], "2": "c"}}
    assert graph_from_json(labelled) == graph_from_json(doc)


def _canonical(n, edges):
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def test_catalog_matches_fresh_enumeration():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, tuple(edges))
            if not g.is_connected():
                continue
            seen.add(_canonical(n, edges))
        frozen = {_canonical(n, e) for e in CONNECTED_UPTO_5[n]}
        assert frozen == seen
        assert len(CONNECTED_UPTO_5[n]) == len(seen)


def test_named_instances():
    assert named_graph("K4").m == 6
    assert named_graph("K23").m == 6
    fig4 = named_instance("fig4-left")
    assert fig4.graph.m == 4 and fig4.posts == frozenset({1})
    fig5 = named_instance("fig5-G-3")
    assert fig5.graph.m == 8 + 2 * 3
    assert fig5.graph.n == 8 + 2 * 2
    with pytest.raises(ValueError):
        named_instance("nope")


# -- pair orbits against every permutation

ORBIT_POSTS = (None, frozenset(), frozenset({0}), frozenset({0, 1}))


@pytest.mark.parametrize("posts", ORBIT_POSTS, ids=["verticals", "none", "0", "01"])
def test_pair_orbits_of_the_catalog_match_the_permutation_oracle(posts):
    for name, g in connected_graphs(5):
        if all(t < g.n for t in posts or ()):
            assert pair_orbits(g, posts) == pair_orbits_by_permutations(g, posts), name


@st.composite
def symmetric_multigraphs(draw):
    """Multigraphs on 6 or 7 vertices with unequal weights, often with automorphisms.

    With `mirror` on, every edge also gets its image under a drawn involution,
    at the same weight, so the involution is an automorphism; parallel edges
    and edges fixed by it stay in.
    """
    n = draw(st.integers(6, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    weight = st.sampled_from([rat(1, 3), rat(1, 2), rat(2, 3), rat(1)])
    edges = draw(st.lists(st.tuples(pair, weight), max_size=10))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        swap = list(range(n))
        for a, b in zip(perm[::2], perm[1::2][: draw(st.integers(1, n // 2))]):
            swap[a], swap[b] = b, a
        edges += [((swap[u], swap[v]), w) for (u, v), w in edges if {swap[u], swap[v]} != {u, v}]
    return Graph(n, tuple((u, v, w) for (u, v), w in edges))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(g=symmetric_multigraphs(), posts=st.sampled_from(ORBIT_POSTS[1:]))
def test_pair_orbits_of_random_multigraphs_match_the_permutation_oracle(g, posts):
    assert pair_orbits(g, posts) == pair_orbits_by_permutations(g, posts)


def test_pair_orbits_past_the_oracle_reach():
    # K10 is one orbit; the Petersen graph has two, adjacent and not.
    k10 = Graph(10, tuple(combinations(range(10), 2)))
    assert pair_orbits(k10) == [(0, 1)]
    outer = [(i, (i + 1) % 5) for i in range(5)]
    petersen = Graph(10, tuple(outer + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))
    assert pair_orbits(petersen) == [(0, 1), (0, 2)]
    # The 4x4 grid's automorphisms are the 8 symmetries of the square.
    cell = [(r, c) for r in range(4) for c in range(4)]
    grid = Graph(16, tuple((4 * r + c, 4 * r + c + 1) for r, c in cell if c < 3)
                 + tuple((4 * r + c, 4 * r + c + 4) for r, c in cell if r < 3))
    squares = [lambda r, c: (r, c), lambda r, c: (c, 3 - r), lambda r, c: (3 - r, 3 - c),
               lambda r, c: (3 - c, r)]
    symmetries = [f for s in squares for f in (s, lambda r, c, s=s: s(c, r))]
    seen, reps = set(), []
    for a, b in combinations(range(16), 2):
        if frozenset((a, b)) not in seen:
            reps.append((a, b))
            for f in symmetries:
                seen.add(frozenset(4 * x + y for x, y in (f(*divmod(a, 4)), f(*divmod(b, 4)))))
    assert pair_orbits(grid) == reps
    # A wheel over a 6-cycle (hub 0), a hub over two triangles (hub 7) and a lone
    # vertex 14: refinement cannot tell a C6 rim from a 2C3 rim, so (0, 14) and
    # (7, 14) get equal invariants, and only the search keeps them apart.
    rims = ((1, 2, 3, 4, 5, 6), (8, 9, 10), (11, 12, 13))
    edges = [(h, x) for h, rim in zip((0, 7, 7), rims) for x in rim]
    edges += [(x, rim[(i + 1) % len(rim)]) for rim in rims for i, x in enumerate(rim)]
    reps = pair_orbits(Graph(15, tuple(edges)))
    assert (0, 14) in reps and (7, 14) in reps
    # A weighted path keeps its flip only while the weights read the same from
    # both ends, and a post at one end breaks it.
    path = Graph(4, ((0, 1, rat(1, 2)), (1, 2, rat(1)), (2, 3, rat(1, 2))))
    assert pair_orbits(path) == [(0, 1), (0, 2), (0, 3), (1, 2)]
    lopsided = Graph(4, ((0, 1, rat(1, 2)), (1, 2, rat(1)), (2, 3, rat(1, 3))))
    assert pair_orbits(lopsided) == list(combinations(range(4), 2))
    assert pair_orbits(path, {0}) == [(1, 2), (1, 3), (2, 3)]
    with pytest.raises(ValueError):
        pair_orbits(path, {4})


def test_orbit_search_backtracks_past_a_branch_refinement_cannot_reject():
    # Two units, each a top vertex (0, 15) over a wheel hub on a C6 rim and a hub
    # on a 2C3 rim, numbered wheel-first in unit 1 and wheel-last in unit 2; 30 is
    # lone.  Mapping (0, 30) onto (15, 30) sends hub 1 to hub 23, but hub 16 comes
    # first and refinement cannot tell its 2C3 rim from a C6, so the search must
    # leave that branch when the rims differ further down.
    rims = ((2, 3, 4, 5, 6, 7), (9, 10, 11), (12, 13, 14), (17, 18, 19), (20, 21, 22), (24, 25, 26, 27, 28, 29))
    edges = [(0, 1), (0, 8), (15, 16), (15, 23)]
    edges += [(h, x) for h, rim in zip((1, 8, 8, 16, 16, 23), rims) for x in rim]
    edges += [(x, rim[(i + 1) % len(rim)]) for rim in rims for i, x in enumerate(rim)]
    g = Graph(31, tuple(edges))
    adj = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    c1, c2 = (graph._refine(adj, [0 if x == a else 1 if x == 30 else 2 for x in range(31)]) for a in (0, 15))
    assert graph._invariant(g, c1) == graph._invariant(g, c2)
    perm = graph._automorphism(g, adj, c1, c2)
    assert perm is not None and (perm[0], perm[30], perm[1]) == (15, 30, 23)
    moved = sorted(tuple(sorted((perm[u], perm[v]))) for u, v, _ in g.edges)
    assert moved == sorted(tuple(sorted((u, v))) for u, v, _ in g.edges)
