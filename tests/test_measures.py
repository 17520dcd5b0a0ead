import hashlib
import math
import random
from itertools import combinations, product

import pytest
from dense_poly import at
from fold_oracle import fold_by_states
from hypothesis import given, settings, strategies as st
from subset_oracle import roots_and_kappa

from bunkbed.catalog import connected_graphs, named_graph, named_instance
from bunkbed.exactnum import MultiPoly, Rational, bareiss_det, rat, RationalMatrix
from bunkbed.graph import (
    Graph,
    Hypergraph,
    bunkbed,
    bunkbed_copies,
    components_of,
    hollom_instance,
    hypergraph_bunkbed,
    hypergraph_copies,
)
from bunkbed.measures import (
    EnumerationGuardError,
    ParameterError,
    _at_activity,
    alt_colouring_counts,
    bunkbed_case_profiles,
    forest_masks,
    forest_table,
    hypergraph_rc_difference,
    rc_boundary_table,
    rc_connection_prob,
    rc_profile,
)
from bunkbed import measures
from bunkbed.glue import factor_from_graph
from bunkbed.partition import canonical_rgs
from bunkbed.verify import _case_rows, _rc_differences

# RGS patterns over a marked pair.
TOGETHER, APART = (0, 0), (0, 1)


# -- random-cluster boundary tables


def test_rc_table_single_edge():
    p = rat(1, 3)
    g = Graph(2, ((0, 1, p),))
    table = rc_boundary_table(g, (0, 1))
    # Integer q-coefficients over den = 3: p q and (1 - p) q^2.
    assert table.den == 3
    assert table.entries == {(TOGETHER, 1): 1, (APART, 2): 2}
    assert table.event(lambda rgs: rgs == TOGETHER) == [0, 1, 0]
    assert table.event(lambda rgs: rgs == APART) == [0, 0, 2]
    # A partition only zero-weight subsets reach keeps its (zero) entry.
    certain = Graph(2, ((0, 1, rat(1)),))
    assert rc_boundary_table(certain, (0, 1)).entries[APART, 2] == 0
    assert factor_from_graph(certain, (0, 1)).entries == {(0, 0): [1], (0, 1): []}


def test_rc_table_empty_marked_is_partition_function():
    p = rat(2, 7)
    g = Graph(2, ((0, 1, p),))
    table = rc_boundary_table(g, ())
    assert (table.event(), table.den) == ([0, 2, 5], 7)  # (2q + 5q^2) / 7
    assert table.entries == {((), 1): 2, ((), 2): 5}


def test_rc_table_triangle_matches_hand_enumeration():
    half = rat(1, 2)
    g = named_graph("K3").with_weights(half)
    table = rc_boundary_table(g, (0, 1))
    # Every subset of three half-weight edges has mass 1/8, so den = 8.
    # Hand expansion over the 8 subsets of K3's edges (0,1),(0,2),(1,2):
    # {}: q^3 apart | {01}: q^2 join | {02}: q^2 apart | {12}: q^2 apart
    # {01,02}: q join | {01,12}: q join | {02,12}: q join | all: q join
    assert table.den == 8
    assert table.event(lambda rgs: rgs == TOGETHER) == [0, 4, 1, 0]
    assert table.event(lambda rgs: rgs == APART) == [0, 0, 2, 1]
    assert table.event() == [0, 4, 3, 1]
    assert table.event(lambda rgs: rgs[0] == rgs[1]) == [0, 4, 1, 0]


def test_rc_table_entries_sum_to_partition_function_on_random_graphs():
    rng = random.Random(97)
    for _, g in random.Random(5).sample(connected_graphs(4, min_n=2), 4):
        weighted = Graph(
            g.n,
            tuple((u, v, rat(rng.randint(1, 5), rng.randint(6, 9))) for u, v, _ in g.edges),
        )
        marked = tuple(range(min(2, g.n)))
        table = rc_boundary_table(weighted, marked)
        z = rc_boundary_table(weighted, ())
        assert (table.event(), table.den) == (z.event(), z.den)


def test_rc_table_at_q1_is_bernoulli():
    rng = random.Random(3)
    g = named_graph("C4")
    weighted = Graph(
        g.n, tuple((u, v, rat(rng.randint(1, 4), 5)) for u, v, _ in g.edges)
    )
    table = rc_boundary_table(weighted, (0, 2))
    assert sum(table.event()) == table.den
    # Direct Bernoulli computation of P[0 <-> 2].
    total = rat(0)
    for mask in range(1 << weighted.m):
        w = rat(1)
        for i, (_, _, wt) in enumerate(weighted.edges):
            w *= wt if mask >> i & 1 else 1 - wt
        rgs, _ = components_of(weighted, [i for i in range(weighted.m) if mask >> i & 1])
        if rgs[0] == rgs[2]:
            total += w
    assert at(table.event(lambda rgs: rgs[0] == rgs[1]), rat(1)) / table.den == total


def test_marked_vertices_must_be_distinct_vertices_of_the_graph():
    # A marked -1 once wrapped to the last vertex and gave kappa = 4 on 3 vertices.
    g = Graph(3, ((0, 1), (1, 2)))
    for marked in ((0, -1), (0, 5), (1, 1), (2, 0, 2)):
        for engine in (forest_table, rc_boundary_table, rc_profile, factor_from_graph):
            with pytest.raises(ValueError, match="must be distinct vertices of 0..2"):
                engine(g, marked)
    for u, v in ((0, 7), (7, 7)):
        with pytest.raises(ValueError, match="must be distinct vertices of 0..2"):
            rc_connection_prob(g, rat(2), u, v)
    # As combinations does, subsets refuses a negative size at the call.
    with pytest.raises(ValueError):
        forest_table(named_graph("K4"), range(4)).subsets(-1)


def test_rc_connection_prob_examples():
    g = Graph(2, ((0, 1, rat(1, 2)),))
    assert rc_connection_prob(g, rat(2), 0, 1) == rat(1, 3)
    p = rat(3, 7)
    gp = Graph(2, ((0, 1, p),))
    assert rc_connection_prob(gp, rat(1), 0, 1) == p
    assert rc_connection_prob(gp, rat(2), 0, 0) == 1


def test_bunkbed_k2_difference_nonnegative_at_q2():
    k2 = named_graph("K2").with_weights(rat(1, 2))
    bb = bunkbed(k2, vertical_weight=rat(1, 2))
    u1, u2 = bunkbed_copies(k2, None, 0)
    v1, v2 = bunkbed_copies(k2, None, 1)
    p11 = rc_connection_prob(bb, rat(2), u1, v1)
    p12 = rc_connection_prob(bb, rat(2), u1, v2)
    assert p11 >= p12


def test_enumeration_guard():
    # 2^29 subsets, but the fold of a path holds a few states per level, so
    # it runs at once.  A subset of s edges at p = 1/2 weighs 1 over
    # den = 2^29 and leaves 30 - s components; only the full path joins the
    # two ends.
    g = Graph(30, tuple((i, i + 1, rat(1, 2)) for i in range(29)))
    table = rc_boundary_table(g, (0, 29))
    assert table.den == 2**29
    expected = {(APART, 30 - s): math.comb(29, s) for s in range(29)}
    assert table.entries == {**expected, (TOGETHER, 1): 1}


def test_enumeration_guard_has_no_environment_override(monkeypatch):
    # The level guard is a constant: no environment variable raises or lowers it.
    monkeypatch.setattr(measures, "_LEVEL_GUARD", 12)
    path = Graph(6, tuple((i, i + 1, rat(1)) for i in range(5)))
    for name in ("BUNKBED_STATE_GUARD", "BUNKBED_SUBSET_GUARD"):
        monkeypatch.setenv(name, "40")
    tail = r"guard is 2\^12 bytes\); 4 vertices live at this step, the sweep's peak is 6 at step 5$"
    with pytest.raises(EnumerationGuardError, match=tail):
        forest_table(path, range(6))
    for name in ("BUNKBED_STATE_GUARD", "BUNKBED_SUBSET_GUARD"):
        monkeypatch.setenv(name, "0")
    assert forest_table(path, (0, 5)).event() == [0, 1, 5, 10, 10, 5, 1]


def test_state_guard_names_step_states_and_marked_set(monkeypatch):
    # With every vertex kept, no two edge subsets of a path share a label
    # string: step j takes the fold to 2^j strings of 512 bytes each plus
    # their packed ints, so step 3 passes 2^12 bytes at its fourth input
    # string.  Keeping only the two ends, it stays within the guard.  No
    # vertex is forgotten, so step j leaves j + 1 live and step 5 all six.
    monkeypatch.setattr(measures, "_LEVEL_GUARD", 12)
    path = Graph(6, tuple((i, i + 1, rat(1)) for i in range(5)))
    message = (
        r"passed 4097 bytes in 8 label strings at step 3 of 5 with marked set \(0, 1, 2, 3, 4, 5\) "
        r"\(guard is 2\^12 bytes\); 4 vertices live at this step, the sweep's peak is 6 at step 5$"
    )
    with pytest.raises(EnumerationGuardError, match=message):
        forest_table(path, range(6))
    ends = forest_table(path, (0, 5))
    assert ends.event() == [0, 1, 5, 10, 10, 5, 1]


def test_level_guard_counts_the_packed_ints(monkeypatch):
    # On a bunkbed a label string's int spans several closed counts of m + 1
    # slots each, so the 3x3 grid's fold passes 2^20 bytes while it holds
    # 1 230 label strings: at 512 bytes each they come to 615 KiB, and the
    # packed ints carry the rest.
    monkeypatch.setattr(measures, "_LEVEL_GUARD", 20)
    g = _grid(3, 3)
    triple = (bunkbed_copies(g, None, 0)[0], *bunkbed_copies(g, None, 8))
    message = r"^fold passed \d+ bytes in 1230 label strings at step 18 of 33 "
    with pytest.raises(EnumerationGuardError, match=message):
        bunkbed_case_profiles(bunkbed(g), [triple])
    monkeypatch.setattr(measures, "_LEVEL_GUARD", 21)
    (profile,) = bunkbed_case_profiles(bunkbed(g), [triple])
    assert sum(profile.values()) == 2**33


def test_fold_engines_reject_weights_outside_their_measure():
    # The packed fold reads every edge as two non-negative integers: a
    # negative forest weight or a random-cluster weight above 1 is refused
    # rather than folded.
    negative = Graph(3, ((0, 1, rat(1, 2)), (1, 2, rat(-1, 2)), (0, 2, rat(1, 3))))
    heavy = Graph(3, ((0, 1, rat(1, 2)), (1, 2, rat(3, 2)), (0, 2, rat(1, 3))))
    with pytest.raises(ParameterError, match="^forest edge weight must be non-negative; got -1/2$"):
        forest_table(negative, (0, 2))
    for engine in (rc_boundary_table, factor_from_graph):
        with pytest.raises(ParameterError, match=r"^edge weight p must lie in \[0, 1\]; got 3/2$"):
            engine(heavy, (0, 2))
    # A forest weight above 1 stays allowed: 1/2 * 3/2 + 1/2 * 1/3 + 3/2 * 1/3 trees.
    assert forest_table(heavy, (0, 2)).bracket((0, 0)) == rat(17, 12)


# -- forests and brackets


def test_forest_brackets_on_k3():
    ft = forest_table(named_graph("K3"), (0, 1))
    assert ft.bracket(TOGETHER) == 3  # spanning trees
    assert ft.bracket(APART) == 2
    assert ft.bracket(APART, extra=1) == 1
    ft3 = forest_table(named_graph("K3"), (0, 1, 2))
    assert ft3.bracket((0, 1, 2)) == 1  # empty forest


def test_forest_bracket_k4_trees():
    ft = forest_table(named_graph("K4"), (0, 1))
    assert ft.bracket(TOGETHER) == 16


def test_forest_unrestricted_bracket():
    ft = forest_table(named_graph("K3"), (0, 1))
    assert ft.bracket(None) == 3
    assert ft.bracket(None, extra=1) == 3  # one edge kept: three choices
    assert ft.bracket(None, extra=2) == 1  # empty forest


def test_forest_masks_count():
    masks = forest_masks(named_graph("K3"))
    assert len(masks) == 7  # 1 empty + 3 single + 3 double


def _grid(rows, cols):
    at_ = lambda i, j: i * cols + j
    edges = [(at_(i, j), at_(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(at_(i, j), at_(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, tuple(edges))


def test_forest_masks_on_the_3x4_grid():
    # 85 818 forests, 2 415 of them spanning trees; the digest pins the whole
    # list as the fold keyed by (labels, closed, mask) returned it.
    masks = forest_masks(_grid(3, 4))
    assert len(masks) == 85818
    assert sum(kappa == 1 for _, kappa in masks) == 2415
    assert hashlib.sha256(repr(masks).encode()).hexdigest()[:20] == "222927a8e3b79a5661c3"


def test_weighted_forest_table():
    g = Graph(3, ((0, 1, rat(2)), (1, 2, rat(3)), (0, 2, rat(5))))
    ft = forest_table(g, (0, 2))
    # Spanning trees: {01,12} weight 6, {01,02} weight 10, {12,02} weight 15.
    assert ft.bracket(TOGETHER) == 31


def test_arboreal_probability_normalizes():
    ft = forest_table(named_graph("K3"), (0, 1))
    z = ft.event()
    conn = ft.event(lambda rgs: rgs[0] == rgs[1])
    split = ft.event(lambda rgs: rgs[0] != rgs[1])
    lam = rat(2)
    assert _at_activity(conn, lam) + _at_activity(split, lam) == _at_activity(z, lam)
    # lambda = 1: uniform over the 7 forests, 4 of which connect 0 and 1.
    assert rat(_at_activity(conn, rat(1)), _at_activity(z, rat(1))) == rat(4, 7)


# -- weak limits


def _lowest_q_slice(counts, rgs):
    """Lowest q-degree of an rc_profile entry at edge weight l*q, and its coefficient.

    A subset weighs (lq)^s (1 - lq)^(m - s) q^kappa, whose lowest term is
    l^s q^(s + kappa); every such term has a positive coefficient.
    """
    keys = [(s, kappa, c) for (r, s, kappa), c in counts.items() if r == rgs]
    k = min(s + kappa for s, kappa, _ in keys)
    slice_: dict = {}
    for s, kappa, c in keys:
        if s + kappa == k:
            _add(slice_, s, c)
    return k, slice_


def test_weak_limit_lambda_q_reproduces_forests():
    for name in ("K3", "P3", "C4"):
        g = named_graph(name)
        counts = rc_profile(g, (0, g.n - 1))
        ft = forest_table(g, (0, g.n - 1))
        for rgs in {r for r, _, _ in counts}:
            k, slice_ = _lowest_q_slice(counts, rgs)
            assert k == g.n
            expected: dict = {}  # l-power -> coefficient
            for (r, kappa), count in ft.entries.items():
                if r == rgs:
                    _add(expected, g.n - kappa, count)
            assert slice_ == expected


def test_weak_limit_tree_stratum_matches_matrix_tree():
    for name in ("K3", "C4", "K4"):
        g = named_graph(name)
        counts = rc_profile(g, (0, 1))
        n = g.n
        lap = [[rat(0)] * n for _ in range(n)]
        for u, v, _ in g.edges:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
        reduced = RationalMatrix([row[1:] for row in lap[1:]])
        trees = bareiss_det(reduced)
        for rgs in {r for r, _, _ in counts}:
            # Only the spanning trees, (s, kappa) = (n - 1, 1), reach l^(n-1) q^n.
            top = counts.get((rgs, n - 1, 1), 0)
            if len(set(rgs)) == 1:
                assert top == trees
            else:
                assert top == 0


# -- alternate two-colour model


def test_alt_counts_single_edge():
    g = named_graph("K2")
    assert alt_colouring_counts(g, frozenset(), 0, 1) == (1, 0, 2)


def test_alt_counts_fig4():
    left = named_instance("fig4-left")
    assert alt_colouring_counts(left.graph, left.posts, left.u, left.v) == (6, 4, 14)
    right = named_instance("fig4-right")
    assert alt_colouring_counts(right.graph, right.posts, right.u, right.v) == (8, 2, 14)


def test_alt_counts_rejects_post_endpoints():
    left = named_instance("fig4-left")
    with pytest.raises(ValueError):
        alt_colouring_counts(left.graph, left.posts, 1, 2)


def test_alt_counts_rejects_equal_endpoints():
    # u1 is joined to u1 in every colouring, so (u, u) counts nothing.
    with pytest.raises(ValueError, match="must differ"):
        alt_colouring_counts(named_graph("C4"), {1}, 0, 0)


# -- hypergraph bunkbed


def test_hypergraph_difference_factorizes():
    diff = hypergraph_rc_difference(hollom_instance(), 1, 10)
    cubic = [-7, 10, -5, 1]
    # All surviving terms sit in the g^6 h^6 layer with a q^5 factor.
    for exp, coeff in diff.terms.items():
        assert exp[2] == 6 and exp[3] == 6 and exp[0] >= 5
    # Exact divisibility by the cubic with a constant quotient.
    c = diff.terms[(8, 0, 6, 6)]
    assert c > 0
    assert diff == MultiPoly({(k + 5, 0, 6, 6): c * x for k, x in enumerate(cubic)})
    # Negative at q = 1 (1 - 5 + 10 - 7 < 0).
    assert diff.eval({"q": rat(1), "g": rat(1), "h": rat(1)}) < 0


def test_hypergraph_difference_single_hyperedge():
    h = Hypergraph(3, ((1, 2, 3),), frozenset())
    diff = hypergraph_rc_difference(h, 1, 2)
    # Layers never touch: the u1<->v2 side vanishes and only positive terms remain.
    assert all(c > 0 for c in diff.terms.values())
    assert diff == MultiPoly({(2, 0, 2, 0): 1, (4, 0, 1, 1): 1})


# -- correlation inequalities at exact grid points


def _profile_probability(profile, m, p, q, predicate):
    """Probability of an event on the marked RGS, from rc_profile counts."""
    num = den = 0
    for (rgs, s, kappa), count in profile.items():
        w = count * p**s * (1 - p) ** (m - s) * q**kappa
        den += w
        if predicate(rgs):
            num += w
    return num / den


def test_harris_product_inequality_at_q1():
    for _, g in connected_graphs(5, min_n=3):
        prof = rc_profile(g, (0, 1, g.n - 1))
        for p in (rat(1, 4), rat(1, 2), rat(3, 4)):
            joint = _profile_probability(
                prof, g.m, p, rat(1), lambda r: r[0] == r[1] == r[2]
            )
            a = _profile_probability(prof, g.m, p, rat(1), lambda r: r[0] == r[1])
            b = _profile_probability(prof, g.m, p, rat(1), lambda r: r[1] == r[2])
            assert joint >= a * b


def test_three_point_symmetric_inequality():
    rng = random.Random(12)
    graphs = random.Random(1).sample(connected_graphs(5, min_n=3), 5)
    for _, g in graphs:
        prof = rc_profile(g, (0, 1, 2))
        p = rat(rng.randint(1, 9), 10)
        for q in (rat(1), rat(3, 2), rat(2)):
            mu = lambda pred: _profile_probability(prof, g.m, p, q, pred)
            abc = mu(lambda r: r[0] == r[1] == r[2])
            split = mu(lambda r: r[0] != r[1] and r[1] != r[2] and r[0] != r[2])
            ab_c = mu(lambda r: r[0] == r[1] != r[2])
            ac_b = mu(lambda r: r[0] == r[2] != r[1])
            bc_a = mu(lambda r: r[1] == r[2] != r[0])
            e2 = ab_c * ac_b + ab_c * bc_a + ac_b * bc_a
            assert abc * split >= e2


def _rc_point_mass(g, mask, p, q):
    _, kappa = components_of(g, [i for i in range(g.m) if mask >> i & 1])
    s = bin(mask).count("1")
    return p**s * (1 - p) ** (g.m - s) * q**kappa


def test_projection_comparison_bound():
    # Overlapping pair sharing exactly the edge (1,2); shared support = {1,2}.
    n = 5
    g_edges = ((0, 1), (1, 2))
    h_edges = ((1, 2), (2, 3), (3, 4))
    union_edges = ((0, 1), (1, 2), (2, 3), (3, 4))
    g = Graph(n, tuple((u, v, rat(1)) for u, v in g_edges))
    union = Graph(n, tuple((u, v, rat(1)) for u, v in union_edges))
    m_shared = 1
    p = rat(1, 3)
    for q in (rat(1, 2), rat(2), rat(3)):
        r = max(q, 1 / q)
        z_g = sum(_rc_point_mass(g, mask, p, q) for mask in range(1 << g.m))
        z_u = sum(_rc_point_mass(union, mask, p, q) for mask in range(1 << union.m))
        for a_mask in range(1 << g.m):
            mu_g = _rc_point_mass(g, a_mask, p, q) / z_g
            # Cylinder probability in the union graph: first two edges match A.
            cyl = rat(0)
            for b_mask in range(1 << union.m):
                if b_mask & 0b11 == a_mask:
                    cyl += _rc_point_mass(union, b_mask, p, q)
            cyl /= z_u
            assert r**-m_shared * mu_g <= cyl <= r**m_shared * mu_g


def test_percolation_sandwich():
    g = named_graph("C4")
    rng = random.Random(8)
    masks = list(range(1 << g.m))
    p = rat(2, 5)
    n = g.n
    for q in (rat(1, 2), rat(2)):
        z_rc = sum(_rc_point_mass(g, m_, p, q) for m_ in masks)
        z_perc = sum(_rc_point_mass(g, m_, p, rat(1)) for m_ in masks)
        for _ in range(10):
            event = rng.sample(masks, rng.randint(1, len(masks)))
            p_rc = sum(_rc_point_mass(g, m_, p, q) for m_ in event) / z_rc
            p_perc = sum(_rc_point_mass(g, m_, p, rat(1)) for m_ in event) / z_perc
            if q > 1:
                assert q**-n * p_perc <= p_rc <= q**n * p_perc
            else:
                assert q**n * p_perc <= p_rc <= q**-n * p_perc


def test_case_profile_matches_direct_probabilities():
    base = named_graph("P3")
    bb = bunkbed(base)
    u1, _ = bunkbed_copies(base, None, 0)
    v1, v2 = bunkbed_copies(base, None, 2)
    (profile,) = bunkbed_case_profiles(bb, [(u1, v1, v2)])
    (rows,) = _case_rows(bb, [(u1, v1, v2)])
    # The rows are read once per p; the differences come out p outermost.
    p_grid = (rat(1, 3), rat(0), rat(1), rat(5, 7))
    q_grid = (rat(2), rat(3, 2), rat(1, 2), rat(7, 3))
    diffs = _rc_differences(rows, p_grid, q_grid)
    assert len(diffs) == len(p_grid) * len(q_grid)
    for (p, q), diff in zip(product(p_grid, q_grid), diffs):
        weighted = bb.with_weights(p)
        expected = rc_connection_prob(weighted, q, u1, v1) - rc_connection_prob(
            weighted, q, u1, v2
        )
        z = sum(
            count * p**s * (1 - p) ** (bb.m - s) * q**kappa
            for (case, s, kappa), count in profile.items()
        )
        assert diff / z == expected


def test_bracket_pattern_and_extra():
    ft = forest_table(named_graph("K3"), (0, 1))
    assert ft.bracket(APART, extra=0) == 2
    assert ft.bracket(None, extra=1) == 3
    with pytest.raises(ValueError):
        ft.bracket(APART, extra=-1)
    # A pattern of another length, or one not in restricted-growth form.
    for pattern in ((0,), (0, 0, 0), (1, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="not an RGS over the marked tuple"):
            ft.bracket(pattern)


# -- every engine against folds over the per-subset union-find oracle


@st.composite
def multigraphs(draw):
    """Small multigraphs with parallel edges; weights k/d or all exactly 1.

    Up to seven vertices and nine edges, so some vertices are isolated.  Also
    draws a reordering of the edges, and a post set with two non-post
    vertices for the two-colour model.
    """
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(pair, max_size=9))
    if draw(st.booleans()):
        weights = [rat(1)] * len(pairs)
    else:
        weight = st.integers(1, 7).flatmap(lambda d: st.builds(rat, st.integers(0, d), st.just(d)))
        weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    marked = tuple(draw(st.permutations(range(n)))[: draw(st.integers(0, n))])
    triples = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=3))
    g = Graph(n, tuple((u, v, w) for (u, v), w in zip(pairs, weights)))
    order = draw(st.permutations(range(len(pairs))))
    posts = draw(st.sets(st.integers(0, n - 1), max_size=n - 2))
    others = [x for x in range(n) if x not in posts]
    u, v = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
    return g, marked, triples, order, (frozenset(posts), u, v)


def _oracle_subsets(g):
    """(mask, roots, kappa, size, rc weight, forest weight) for every edge subset.

    The rc weight multiplies w over present and 1 - w over absent edges, the
    forest weight only w over present ones.
    """
    pairs = [(u, v) for u, v, _ in g.edges]
    for mask in range(1 << g.m):
        roots, kappa = roots_and_kappa(g.n, pairs, mask)
        w = present = rat(1)
        for i, (_, _, wt) in enumerate(g.edges):
            w *= wt if mask >> i & 1 else 1 - wt
            present *= wt if mask >> i & 1 else 1
        yield mask, roots, kappa, mask.bit_count(), w, present


def _add(acc, key, value):
    acc[key] = acc.get(key, 0) + value


@settings(deadline=None, max_examples=40)
@given(multigraphs())
def test_engines_match_per_subset_oracle(case):
    g, marked, triples, order, colour_query = case
    subsets = list(_oracle_subsets(g))

    rc, profile, forests, weighted, masks = {}, {}, {}, {}, set()
    profiles = [{} for _ in triples]
    for mask, roots, kappa, size, w, present in subsets:
        rgs = canonical_rgs(roots[x] for x in marked)
        _add(rc, (rgs, kappa), w)
        _add(profile, (rgs, size, kappa), 1)
        for prof, t in zip(profiles, triples):
            _add(prof, (canonical_rgs(roots[x] for x in t), size, kappa), 1)
        if size + kappa == g.n:
            masks.add((mask, kappa))
            _add(forests, (rgs, kappa), 1)
            _add(weighted, (rgs, kappa), present)

    table = rc_boundary_table(g, marked)
    assert all(type(c) is int for c in table.entries.values())
    assert {key: Rational(c, table.den) for key, c in table.entries.items()} == rc
    assert rc_profile(g, marked) == profile
    assert bunkbed_case_profiles(g, triples) == profiles
    assert set(forest_masks(g)) == masks

    plain = forest_table(g.with_weights(1), marked).entries
    assert plain == forests
    assert all(type(c) is int for c in plain.values())
    den = 1
    for _, _, wt in g.edges:
        den *= wt.denominator
    ft = forest_table(g, marked)
    assert ft.den == den
    assert all(type(c) is int for c in ft.entries.values())
    assert {key: Rational(c, ft.den) for key, c in ft.entries.items()} == weighted

    boundary = tuple(sorted(marked))
    factor = {}
    for _, roots, kappa, _, w, _ in subsets:
        broots = [roots[x] for x in boundary]
        coeffs = factor.setdefault(canonical_rgs(broots), [])
        internal = kappa - len(set(broots))
        coeffs.extend([0] * (internal + 1 - len(coeffs)))
        coeffs[internal] += int(w * den)
    for coeffs in factor.values():
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    f = factor_from_graph(g, boundary)
    assert (f.boundary, f.entries, f.den) == (boundary, factor, den)

    # The fold sweeps the vertices in its own order, so the edge order never
    # changes a sum: bit j of a shuffled mask is bit order[j] of the original.
    shuffled = Graph(g.n, tuple(g.edges[i] for i in order))
    assert rc_boundary_table(shuffled, marked) == table
    assert forest_table(shuffled, marked) == ft
    assert rc_profile(shuffled, marked) == profile
    assert bunkbed_case_profiles(shuffled, triples) == profiles
    unshuffled = {
        (sum(1 << i for j, i in enumerate(order) if mask >> j & 1), kappa)
        for mask, kappa in forest_masks(shuffled)
    }
    assert unshuffled == masks
    f = factor_from_graph(shuffled, boundary)
    assert (f.boundary, f.entries, f.den) == (boundary, factor, den)

    # Two-colour model: one union-find pass per colouring of the base edges.
    posts, u, v = colour_query
    bb = bunkbed(g, posts)
    (u1, _), (v1, v2) = bunkbed_copies(g, posts, u), bunkbed_copies(g, posts, v)
    n_rr = n_rb = n_total = 0
    for colouring in range(1 << g.m):
        # Bit i set takes base edge i's copy in layer 1, clear its copy in layer 2.
        layer = [0 if colouring >> i & 1 else 1 for i in range(g.m)]
        pairs = [
            (bunkbed_copies(g, posts, a)[side], bunkbed_copies(g, posts, b)[side])
            for (a, b, _), side in zip(g.edges, layer)
        ]
        roots, kappa = roots_and_kappa(bb.n, pairs, (1 << g.m) - 1)
        if g.m + kappa == bb.n:
            n_total += 1
            n_rr += roots[u1] == roots[v1]
            n_rb += roots[u1] == roots[v2]
    assert alt_colouring_counts(g, posts, u, v) == (n_rr, n_rb, n_total)

    # Hypergraph bunkbed: the triples of distinct vertices and one through u
    # and v as hyperedges on 1..n, with the same posts and query; one
    # union-find pass per subset of the doubled hyperedges.
    if g.n >= 3:
        hyperedges = [t for t in triples if len(set(t)) == 3] + [(u, v, min({0, 1, 2} - {u, v}))]
        h = Hypergraph(g.n, tuple(tuple(x + 1 for x in t) for t in hyperedges), frozenset(x + 1 for x in posts))
        vertices, doubled = hypergraph_bunkbed(h)
        (u1, _), (v1, v2) = hypergraph_copies(h, u + 1), hypergraph_copies(h, v + 1)
        index = vertices.index
        pairs = [(index(a), index(x)) for a, b, c in doubled for x in (b, c)]
        terms: dict = {}
        for mask in range(1 << len(doubled)):
            pair_mask = sum(3 << 2 * i for i in range(len(doubled)) if mask >> i & 1)
            roots, kappa = roots_and_kappa(len(vertices), pairs, pair_mask)
            one = roots[index(u1)]
            present = mask.bit_count()
            sign = (one == roots[index(v1)]) - (one == roots[index(v2)])
            _add(terms, (kappa, 0, present, len(doubled) - present), sign)
        expected = MultiPoly({exp: rat(c) for exp, c in terms.items() if c})
        assert hypergraph_rc_difference(h, u + 1, v + 1) == expected


@settings(deadline=None, max_examples=40)
@given(multigraphs())
def test_forest_table_subsets_and_probability_match_oracle(case):
    g, marked, _, _, _ = case
    forests = [
        (mask, roots, kappa, present)
        for mask, roots, kappa, size, _, present in _oracle_subsets(g)
        if size + kappa == g.n
    ]
    assert forest_masks(g) == sorted((mask, kappa) for mask, _, kappa, _ in forests)

    # Every table over a subset equals the one folded over it directly.
    everyone = tuple(range(g.n))
    plain = g.with_weights(1)
    for h in (g, plain):
        for t in forest_table(h, everyone).subsets(len(marked)):
            assert t == forest_table(h, t.marked)
            assert h is g or all(type(c) is int for c in t.entries.values())
    for t in rc_boundary_table(g, everyone).subsets(len(marked)):
        assert t == rc_boundary_table(g, t.marked)

    def event(rgs):
        return sum(rgs) % 2 == 0

    sums: dict = {}
    for _, roots, kappa, present in forests:
        _add(sums, (canonical_rgs(roots[x] for x in marked), kappa), present)
    ft = forest_table(g, marked)
    unit = forest_table(plain, marked)
    for (rgs, kappa), w in sums.items():
        blocks = max(rgs, default=-1) + 1
        assert ft.bracket(rgs, kappa - blocks) == w
        assert type(unit.bracket(rgs, kappa - blocks)) is int
    for extra in range(g.n):
        assert ft.bracket(None, extra) == sum(w for (_, k), w in sums.items() if k == 1 + extra)
        assert type(unit.bracket(None, extra)) is int

    hits, z = ft.event(event), ft.event()
    for lam in (rat(0), rat(1, 3), rat(1), rat(5, 2)):
        num = den = 0
        for _, roots, kappa, present in forests:
            w = present * lam ** (g.n - kappa)
            den += w
            if event(canonical_rgs(roots[x] for x in marked)):
                num += w
        assert rat(_at_activity(hits, lam), _at_activity(z, lam)) == num / den


@settings(deadline=None, max_examples=150, derandomize=True)
@given(multigraphs(), st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_packed_fold_matches_the_fold_by_states(case, sizes, acyclic, sided, forest):
    # Weights include 0/d and d/d, so some keys are reached by zero-weight
    # subsets only; the packed fold must keep them with value 0.
    g, marked, _, _, _ = case
    weights = []
    for _, _, w in g.edges:
        num, d = int(w.numerator), int(w.denominator)
        weights.append((d if forest else d - num, num))
    if sided:
        # Both bits open a pair, as in the two-colour model's steps.
        steps = [(((u, v),), ((u, (v + 1) % g.n),)) for u, v, _ in g.edges]
    else:
        steps = measures._edge_steps(g)
    tags = [(0, 1)] * g.m if sizes else None
    expected = fold_by_states(g.n, steps, weights, tags, acyclic, marked)
    unit = fold_by_states(g.n, steps, None, tags, acyclic, marked)
    if not sizes:
        # Without sizes the fold keys (RGS, kappa), where the oracle's tag is 0.
        expected, unit = ({(rgs, kappa): w for (rgs, _, kappa), w in d.items()} for d in (expected, unit))
    assert measures._fold(g.n, steps, weights, sizes, acyclic, marked) == expected
    assert measures._fold(g.n, steps, None, sizes, acyclic, marked) == unit


def test_fold_renumbers_each_marked_label_tuple_once(monkeypatch):
    # Only marked vertices are live at the fold's last level, so each label
    # string there has its own marked labels, and the readout renumbers each
    # tuple of them into its RGS once.
    seen = []

    def spy(labels):
        seen.append(tuple(labels))
        return canonical_rgs(labels)

    monkeypatch.setattr(measures, "canonical_rgs", spy)
    g = named_instance("fig5-G-1").graph
    assert len(forest_table(g, range(8)).entries) == 456
    assert len(seen) == len(set(seen)) == 456
    seen.clear()
    profile = rc_profile(g, (0, 3, 5))
    assert len(seen) == len(set(seen)) == len({rgs for rgs, _, _ in profile}) == 5


def _rgs_tuples(length):
    return sorted({canonical_rgs(t) for t in product(range(length), repeat=length)})


@settings(deadline=None, max_examples=40, derandomize=True)
@given(multigraphs())
def test_subsets_keep_every_bracket_their_counts_cover(case):
    g, marked, _, _, _ = case
    ft = forest_table(g, marked[:5])
    size = min(len(ft.marked), 4)
    full = list(ft.subsets(size))
    patterns = _rgs_tuples(size)
    for k in range(g.n + 1):
        for low, whole in zip(ft.subsets(size, range(k + 1)), full, strict=True):
            for pattern in patterns:
                blocks = max(pattern, default=-1) + 1
                for extra in range(k - blocks + 1):
                    assert low.bracket(pattern, extra) == whole.bracket(pattern, extra)
            for extra in range(k):
                assert low.bracket(None, extra) == whole.bracket(None, extra)
    # The counts the cross-inner (kappa = 2) and choe (kappa = 2, 3) suites keep.
    for kappas in ((2,), (2, 3)):
        for low, whole in zip(ft.subsets(size, kappas), full, strict=True):
            for pattern in patterns:
                blocks = max(pattern, default=-1) + 1
                for kappa in kappas:
                    if kappa >= blocks:
                        assert low.bracket(pattern, kappa - blocks) == whole.bracket(pattern, kappa - blocks)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(multigraphs(), st.sampled_from((None, (2,), (2, 3), range(1, 5))))
def test_subsets_match_direct_folds_in_combinations_order(case, kappas):
    # Weights include 0/d and d/d, so some keys are reached by zero-weight
    # subsets only; they stay, with value 0, as the direct fold keeps them.
    g, marked, _, _, _ = case
    for h in (g, g.with_weights(1)):
        for build in (forest_table, rc_boundary_table):
            table = build(h, marked)
            for size in range(5):
                got = list(table.subsets(size, kappas))
                subsets = list(combinations(marked, size))
                assert [t.marked for t in got] == subsets
                for t, subset in zip(got, subsets):
                    direct = build(h, subset)
                    want = {key: w for key, w in direct.entries.items() if kappas is None or key[1] in kappas}
                    assert t.entries == want
                    assert (t.n, t.den) == (direct.n, direct.den)


def test_marked_tuples_of_length_zero_and_one():
    g = named_graph("house")
    everyone = tuple(range(g.n))
    for size in (0, 1):
        for build in (forest_table, rc_boundary_table):
            for t in build(g, everyone).subsets(size):
                assert t == build(g, t.marked)
    for marked in ((), (3,)):
        profile = rc_profile(g, marked)
        assert all(len(rgs) == len(marked) for rgs, _, _ in profile)
        assert sum(profile.values()) == 2**g.m
