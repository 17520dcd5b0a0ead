import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from invert_oracle import invert_by_back_substitution

from bunkbed import treealg
from bunkbed.catalog import connected_graphs, identity_catalog, named_graph
from bunkbed.exactnum import RationalMatrix, bareiss_det, psd_certificate, rat
from bunkbed.graph import Graph, bunkbed, bunkbed_copies, minor
from bunkbed.measures import forest_table
from bunkbed.treealg import (
    LaplacianBundle,
    PostsBundle,
    all_minors_count,
    bunkbed_pseudoinverse,
    laplacian,
    pseudoinverse,
)

# RGS patterns over a marked pair.
TOGETHER, APART = (0, 0), (0, 1)


def test_laplacian_examples():
    assert laplacian(named_graph("K2")) == RationalMatrix([[1, -1], [-1, 1]])
    k3 = laplacian(named_graph("K3"))
    assert k3 == RationalMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    doubled = Graph(2, ((0, 1, rat(1)), (0, 1, rat(1))))
    assert laplacian(doubled) == RationalMatrix([[2, -2], [-2, 2]])


def test_all_minors_examples():
    k3 = named_graph("K3")
    assert all_minors_count(k3, {0}, {0}) == 3
    assert all_minors_count(k3, {0, 1}, {0, 1}) == 2
    p3 = named_graph("P3")
    assert all_minors_count(p3, {0, 2}, {0, 2}) == 2
    with pytest.raises(ValueError):
        all_minors_count(k3, {0}, {0, 1})
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        all_minors_count(k3, {0, 5}, {0, 1})


def test_minors_count_equals_direct_bareiss_det():
    rng = random.Random(45)
    for _, g in connected_graphs(5, min_n=2):
        bundle = LaplacianBundle(g)
        lap = laplacian(g)
        verts = list(range(g.n))
        for size in range(g.n + 1):
            s_set = set(rng.sample(verts, size))
            t_set = set(rng.sample(verts, size))
            rows = [i for i in verts if i not in s_set]
            cols = [j for j in verts if j not in t_set]
            direct = abs(bareiss_det(lap.submatrix(rows, cols)))
            assert bundle.minors_count(s_set, t_set) == direct
            assert all_minors_count(g, s_set, t_set) == direct


def test_all_minors_matches_forest_oracle():
    for _, g in connected_graphs(5, min_n=2):
        ft = forest_table(g, (0, g.n - 1))
        pair = all_minors_count(g, {0, g.n - 1}, {0, g.n - 1})
        assert pair == ft.bracket(APART)
        trees = all_minors_count(g, {0}, {0})
        assert trees == ft.bracket(TOGETHER)


def _j_over_n(n):
    """J/n: the n x n matrix with every entry 1/n."""
    return RationalMatrix.from_integers([[1] * n for _ in range(n)], n)


def test_pseudoinverse_closed_forms_and_penrose():
    k2 = pseudoinverse(laplacian(named_graph("K2")))
    assert k2 == RationalMatrix([[rat(1, 4), rat(-1, 4)], [rat(-1, 4), rat(1, 4)]])
    k3 = pseudoinverse(laplacian(named_graph("K3")))
    expected = (RationalMatrix.identity(3) - _j_over_n(3)) * rat(1, 3)
    assert k3 == expected
    for name in ("K2", "K3", "C4", "K4", "P4"):
        lap = laplacian(named_graph(name))
        pinv = pseudoinverse(lap)
        n = lap.rows
        assert lap * pinv * lap == lap
        assert pinv * lap * pinv == pinv
        prod = lap * pinv
        assert prod.transpose() == prod
        assert prod == RationalMatrix.identity(n) - _j_over_n(n)


def test_pseudoinverse_rejects_disconnected():
    g = Graph(4, ((0, 1, rat(1)), (2, 3, rat(1))))
    with pytest.raises(ValueError, match="disconnected"):
        pseudoinverse(laplacian(g))
    # The empty graph has no vertex 0 to ground at.
    with pytest.raises(ValueError, match="at least one vertex"):
        pseudoinverse(laplacian(Graph(0)))
    with pytest.raises(ValueError, match="at least one vertex"):
        LaplacianBundle(Graph(0)).grounded


def test_resistance_examples():
    assert LaplacianBundle(named_graph("K2")).resistance(0, 1) == 1
    assert LaplacianBundle(named_graph("K3")).resistance(0, 1) == rat(2, 3)
    c4 = LaplacianBundle(named_graph("C4"))
    assert c4.resistance(0, 2) == 1
    assert c4.resistance(0, 1) == rat(3, 4)


def test_resistance_equals_bracket_ratio():
    for _, g in connected_graphs(5, min_n=2):
        bundle = LaplacianBundle(g)
        ft = forest_table(g, tuple(range(g.n)))
        trees = ft.bracket((0,) * g.n)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                split = all_minors_count(g, {u, v}, {u, v})
                assert bundle.resistance(u, v) == split / trees


def test_cross_inner_examples():
    p4 = LaplacianBundle(named_graph("P4"))
    assert p4.cross_inner(0, 1, 0, 1) == p4.resistance(0, 1)
    assert p4.cross_inner(0, 1, 2, 2) == 0


def test_cross_inner_bracket_formula():
    for _, g in connected_graphs(5, min_n=4):
        bundle = LaplacianBundle(g)
        ft = forest_table(g, tuple(range(g.n)))
        trees = ft.bracket((0,) * g.n)
        verts = list(range(g.n))
        rng = random.Random(g.m)
        for _ in range(6):
            a, b, c, d = rng.sample(verts, 4)
            rest = [x for x in verts if x not in (a, b, c, d)]
            # [ac|bd] style brackets on four marked vertices.
            ft4 = forest_table(g, (a, b, c, d))
            ac_bd = ft4.bracket((0, 1, 0, 1))
            ad_bc = ft4.bracket((0, 1, 1, 0))
            assert bundle.cross_inner(a, b, c, d) == rat(ac_bd - ad_bc) / trees


def test_cross_inner_path_vanishes():
    assert LaplacianBundle(named_graph("P4")).cross_inner(0, 1, 2, 3) == 0


def test_resistance_matrix_identities():
    for name in ("K3", "C4", "K4", "P4", "house"):
        bundle = LaplacianBundle(named_graph(name))
        lap, pinv = bundle.lap, bundle.pinv
        r = bundle.resistance_matrix()
        assert pinv == pseudoinverse(lap)
        assert lap * r * lap == lap * rat(-2)
        assert pinv * r * pinv == pinv * pinv * pinv * rat(-2)


def test_psd_of_pseudoinverse_difference():
    g = named_graph("K3")
    h = minor(g, deletions=[2])  # one triangle edge removed, still connected
    diff = pseudoinverse(laplacian(h)) - pseudoinverse(laplacian(g))
    ok, _ = psd_certificate(diff)
    assert ok


def test_bunkbed_pseudoinverse_k2_values():
    mat = bunkbed_pseudoinverse(named_graph("K2"))
    assert mat[0, 0] == rat(5, 16)
    assert mat[0, 1] == rat(-1, 16)
    assert mat[0, 2] == rat(-1, 16)
    assert mat[0, 3] == rat(-3, 16)
    # Effective resistances on the resulting 4-cycle.
    r11 = mat[0, 0] + mat[2, 2] - 2 * mat[0, 2]
    r12 = mat[0, 0] + mat[3, 3] - 2 * mat[0, 3]
    assert r11 == rat(3, 4)
    assert r12 == 1


def test_bunkbed_pseudoinverse_block_formula_on_catalog():
    for _, g in connected_graphs(5, min_n=2):
        bunkbed_pseudoinverse(g)  # raises on any mismatch


def test_posts_entry_examples():
    p3 = named_graph("P3")
    assert PostsBundle(p3, {1}).entry(0, 2) == 0
    k3 = named_graph("K3")
    assert PostsBundle(k3, {2}).entry(0, 1) == rat(1, 3)
    with pytest.raises(ValueError):
        PostsBundle(k3, set()).entry(0, 1)
    with pytest.raises(ValueError):
        PostsBundle(k3, {0}).entry(0, 1)


def test_posts_entry_equals_contracted_bunkbed_gap():
    rng = random.Random(44)
    for _, g in connected_graphs(4, min_n=3):
        verts = list(range(g.n))
        for _ in range(3):
            t = frozenset(rng.sample(verts, rng.randint(1, g.n - 2)))
            non_posts = [x for x in verts if x not in t]
            if len(non_posts) < 2:
                continue
            u, v = rng.sample(non_posts, 2)
            tables = PostsBundle(g, t)
            assert tables.entry(u, v) == tables.gap(u, v)
            assert tables.entry(u, v) >= 0


def _oracle_pseudoinverse(lap):
    """(L + J/n)^{-1} - J/n through the back-substitution oracle."""
    j_over_n = _j_over_n(lap.rows)
    return invert_by_back_substitution(lap + j_over_n) - j_over_n


def test_posts_tables_match_per_pair_functions_and_oracle():
    # Every non-post pair of the identity catalog, on the post sets of the
    # tree-stratum suite: one PostsBundle per post set gives what a fresh
    # bundle per pair gives, and what a per-pair recomputation through the
    # back-substitution oracle gives.
    for _, g in identity_catalog():
        post_sets = [frozenset({0})] + ([frozenset({0, 1})] if g.n >= 4 else [])
        for posts in post_sets:
            tables = PostsBundle(g, posts)
            others = [x for x in range(g.n) if x not in posts]
            lss_inv = invert_by_back_substitution(laplacian(g).submatrix(others, others))
            pinv = _oracle_pseudoinverse(laplacian(bunkbed(g, posts)))
            for u, v in combinations(others, 2):
                entry, gap = tables.entry(u, v), tables.gap(u, v)
                fresh = PostsBundle(g, posts)
                assert (entry, gap) == (fresh.entry(u, v), fresh.gap(u, v))
                assert entry == lss_inv[others.index(u), others.index(v)]
                u1, _ = bunkbed_copies(g, posts, u)
                v1, v2 = bunkbed_copies(g, posts, v)
                assert gap == pinv[u1, v1] - pinv[u1, v2]


def test_rayleigh_monotonicity_over_edge_deletions():
    for _, g in connected_graphs(5, min_n=2):
        ft = forest_table(g, (0, g.n - 1))
        marked = (0, g.n - 1)
        trees = ft.bracket(TOGETHER)
        split = ft.bracket(APART)
        for f in range(g.m):
            smaller = minor(g, deletions=[f])
            if not smaller.is_connected():
                continue
            ft2 = forest_table(smaller, marked)
            trees2 = ft2.bracket(TOGETHER)
            split2 = ft2.bracket(APART)
            assert rat(split) / trees <= rat(split2) / trees2


def test_bunkbed_resistance_ordering_via_blocks():
    # In the doubled graph the same-layer resistance never exceeds the
    # cross-layer one, and the pseudoinverse gap is the shifted inverse entry.
    from bunkbed.exactnum import invert

    for _, g in connected_graphs(4, min_n=2):
        n = g.n
        mat = bunkbed_pseudoinverse(g)
        resolvent = invert(laplacian(g) + RationalMatrix.identity(n) * rat(2))
        for u in range(n):
            for v in range(n):
                u1, _ = bunkbed_copies(g, None, u)
                v1, v2 = bunkbed_copies(g, None, v)
                gap = mat[u1, v1] - mat[u1, v2]
                assert gap == resolvent[u, v]
                assert gap >= 0


def test_resistance_and_cross_inner_check_vertices():
    p4 = LaplacianBundle(named_graph("P4"))
    for bad in (-1, 4):
        message = f"vertex {bad} out of range for a graph on 4 vertices"
        with pytest.raises(ValueError, match=message):
            p4.resistance(0, bad)
        with pytest.raises(ValueError, match=message):
            p4.resistance(bad, 0)
        with pytest.raises(ValueError, match=message):
            p4.cross_inner(0, 1, bad, 2)
        with pytest.raises(ValueError, match=message):
            p4.minors_count({bad}, {0})
    assert p4.resistance(0, 3) == 3
    assert p4.resistance(2, 2) == 0


def test_posts_gap_shares_entry_guards():
    k4 = named_graph("K4")
    for method in ("entry", "gap"):
        with pytest.raises(ValueError, match="post set must be nonempty"):
            getattr(PostsBundle(k4, set()), method)(0, 1)
        with pytest.raises(ValueError, match="must not be posts"):
            getattr(PostsBundle(k4, {0}), method)(0, 1)
        with pytest.raises(ValueError, match="vertex 4 out of range for a graph on 4 vertices"):
            getattr(PostsBundle(k4, {0}), method)(1, 4)
        # A post out of range is refused once, for both methods alike.
        for posts in ({0, 7}, {7}):
            with pytest.raises(ValueError, match="vertex 7 out of range for a graph on 4 vertices"):
                getattr(PostsBundle(k4, posts), method)(1, 2)
    assert PostsBundle(k4, {0}).gap(1, 2) == PostsBundle(k4, {0}).entry(1, 2) == rat(1, 4)


@st.composite
def connected_multigraphs(draw):
    """Connected multigraphs on 1..7 vertices with positive rational weights.

    A random spanning tree, then up to five more edges, parallel ones among
    them, each stored either way round.
    """
    n = draw(st.integers(1, 7))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n >= 2:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        pairs += draw(st.lists(st.one_of(st.sampled_from(pairs), extra), max_size=5))
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in draw(st.permutations(pairs))]
    weight = st.builds(rat, st.integers(1, 9), st.integers(1, 6))
    return Graph(n, tuple((u, v, draw(weight)) for u, v in pairs))


@settings(deadline=None, max_examples=60)
@given(g=connected_multigraphs())
def test_pair_count_equals_minors_count(g):
    bundle = LaplacianBundle(g)
    tau, _ = bundle.grounded
    assert tau == bundle.minors_count({0}, {0}) > 0
    for u, v in combinations(range(g.n), 2):
        expected = bundle.minors_count({u, v}, {u, v})
        assert bundle.pair_count(u, v) == bundle.pair_count(v, u) == expected, (u, v)


def test_pair_count_rejects_disconnected_graphs_and_bad_pairs():
    for g in (Graph(4, ((0, 1, rat(1)), (2, 3, rat(1, 2)))), Graph(3, ((1, 2, rat(1)),))):
        with pytest.raises(ValueError, match="disconnected"):
            LaplacianBundle(g).pair_count(1, 2)
    k3 = LaplacianBundle(named_graph("K3"))
    with pytest.raises(ValueError, match="two distinct vertices"):
        k3.pair_count(1, 1)
    with pytest.raises(ValueError, match="vertex 3 out of range"):
        k3.pair_count(0, 3)
    assert [k3.pair_count(u, v) for u, v in combinations(range(3), 2)] == [2, 2, 2]


def test_a_bundle_makes_one_grounded_inverse(monkeypatch):
    # Every pair count, pseudoinverse entry, resistance and inner product reads
    # the one grounded inverse: a per-query determinant or a second inverse
    # coming back would show in these counters.
    calls = {"invert": 0, "bareiss_det": 0}
    for name in calls:
        def counted(m, fn=getattr(treealg, name), name=name):
            calls[name] += 1
            return fn(m)
        monkeypatch.setattr(treealg, name, counted)
    bundle = LaplacianBundle(named_graph("K4"))
    for u, v in combinations(range(4), 2):
        bundle.pair_count(u, v)
        bundle.pair_count(v, u)
        bundle.resistance(u, v)
        bundle.cross_inner(u, v, v, u)
    assert bundle.pinv[0, 0] == rat(3, 16)
    bundle.resistance_matrix()
    assert calls == {"invert": 1, "bareiss_det": 1}


@settings(deadline=None, max_examples=60, derandomize=True)
@given(g=connected_multigraphs())
def test_centred_grounded_inverse_equals_oracle(g):
    # The pseudoinverse is the grounded inverse centred; resistances and inner
    # products read the grounded inverse uncentred.  Both must give exactly
    # what (L + J/n)^{-1} - J/n gives.
    bundle = LaplacianBundle(g)
    oracle = _oracle_pseudoinverse(laplacian(g))
    assert pseudoinverse(laplacian(g)) == bundle.pinv == oracle
    n = g.n
    expected = [[oracle[u, u] + oracle[v, v] - 2 * oracle[u, v] for v in range(n)] for u in range(n)]
    assert bundle.resistance_matrix() == RationalMatrix(expected)
    for u, v in combinations(range(n), 2):
        assert bundle.resistance(u, v) == expected[u][v]
    for a, b, c, d in combinations(range(n), 4):
        for x, y, z, w in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
            gap = oracle[x, z] - oracle[x, w] - oracle[y, z] + oracle[y, w]
            assert bundle.cross_inner(x, y, z, w) == gap, (x, y, z, w)
