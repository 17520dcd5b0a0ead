import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from bsst_oracle import bsst_counts, bsst_counts_by_cycles
from hypothesis import given, settings, strategies as st
from subset_oracle import roots_and_kappa

from bunkbed.catalog import connected_graphs, identity_catalog, named_graph, named_instance
from bunkbed.exactnum import format_rational, rat
from bunkbed.graph import Graph, bunkbed, bunkbed_copies, minor
from bunkbed import measures, partition, treealg, verify
from bunkbed.measures import (
    ParameterError,
    _at_activity,
    alt_colouring_counts,
    bunkbed_case_profiles,
    forest_masks,
    forest_table,
)
from bunkbed.treealg import LaplacianBundle, all_minors_count, laplacian
from bunkbed.verify import (
    FAILS,
    HOLDS,
    OPEN_OK,
    SKIPPED,
    IDENTITY_SUITES,
    check_bunkbed,
    check_engine_consistency,
    check_hypergraph_factorization,
    check_p_threshold,
    hollom_cubic,
    run_identity_suite,
    scan_conjectures,
)
from bunkbed.verify import (
    _PAIRINGS,
    _arboreal_differences,
    _case_rows,
    _forest_lists,
    _rc_differences,
    _tree_pair_counts,
)

SMALL_P = (rat(1, 4), rat(1, 2), rat(3, 4))


def test_check_bunkbed_k3_at_q2():
    rep = check_bunkbed(named_graph("K3"), p_grid=SMALL_P, q_grid=(rat(2),))
    assert rep.verdict == HOLDS
    assert rep.ok


def test_check_bunkbed_percolation_and_posts():
    rep = check_bunkbed(named_graph("P3"), measure="percolation", p_grid=SMALL_P)
    assert rep.verdict == HOLDS
    rep = check_bunkbed(
        named_graph("P3"), posts={1}, p_grid=SMALL_P, q_grid=(rat(1, 2), rat(2))
    )
    assert rep.verdict == HOLDS


def test_check_bunkbed_arboreal_small():
    rep = check_bunkbed(
        named_graph("K3"),
        measure="arboreal",
        lam_grid=(rat(1, 2), rat(1), rat(2)),
        open_conjecture=True,
    )
    assert rep.verdict == OPEN_OK


def test_check_bunkbed_arboreal_post_pair_matches_full_table():
    g, posts = named_graph("K4"), {1}
    lams = (rat(1, 2), rat(1), rat(2))
    bb = bunkbed(g, posts)
    table = forest_table(bb, tuple(range(bb.n)))
    z = table.event()
    for pair in ((0, 2), None):
        best = None
        for a, b in [pair] if pair else combinations((0, 2, 3), 2):
            a1, _ = bunkbed_copies(g, posts, a)
            b1, b2 = bunkbed_copies(g, posts, b)
            # The table marks every vertex, so position x is vertex x.
            same = table.event(lambda rgs: rgs[a1] == rgs[b1])
            cross = table.event(lambda rgs: rgs[a1] == rgs[b2])
            for lam in lams:
                diff = rat(_at_activity(same, lam) - _at_activity(cross, lam), _at_activity(z, lam))
                if best is None or diff < best[0]:
                    best = (diff, a, b)
        u, v = pair or (None, None)
        rep = check_bunkbed(g, posts=posts, measure="arboreal", u=u, v=v, lam_grid=lams)
        assert rep.quantities["min_difference"] == format_rational(best[0])
        assert rep.quantities["at_pair"] == f"({best[1]},{best[2]})"
    assert bunkbed_copies(g, posts, 1)[0] == bunkbed_copies(g, posts, 1)[1]


def test_check_bunkbed_skips_post_pairs():
    # Vertex 1 is a post, so the pair (0, 1) would report a difference of 0.
    inst = named_instance("fig4-left")
    rep = check_bunkbed(inst.graph, posts=inst.posts)
    assert rep.quantities["min_difference"] == "1595619/3200000000"
    assert rep.quantities["at_pair"] == "(0,2)"
    # (0, 0) would test nothing, since u1 <-> u1 always holds.
    for u, v in ((0, 1), (1, 2), (0, 0), (0, None), (None, 2)):
        for measure in ("random-cluster", "arboreal"):
            with pytest.raises(ParameterError):
                check_bunkbed(inst.graph, posts=inst.posts, measure=measure, u=u, v=v)
    # With no non-post pair left the check tests nothing, and says so.
    for measure in ("random-cluster", "arboreal"):
        rep = check_bunkbed(named_graph("P3"), posts={0, 1}, measure=measure)
        assert (rep.verdict, rep.quantities) == (SKIPPED, {"note": "no non-post pair to test"})
    rep = check_p_threshold(named_graph("P3"), {0, 1}, 2)
    assert (rep.verdict, rep.quantities) == (SKIPPED, {"note": "no non-post pair to test"})
    assert not rep.ok


def test_check_bunkbed_single_pair():
    rep = check_bunkbed(
        named_graph("C4"), u=0, v=2, p_grid=(rat(1, 2),), q_grid=(rat(2),)
    )
    assert rep.verdict == HOLDS
    assert rep.quantities["at_pair"] == "(0,2)"


def test_check_bunkbed_rejects_empty_grids_it_reads():
    k3 = named_graph("K3")
    for measure, grid in (
        ("random-cluster", "p_grid"),
        ("random-cluster", "q_grid"),
        ("percolation", "p_grid"),
        ("arboreal", "lam_grid"),
    ):
        with pytest.raises(ParameterError, match=f"^{grid} is empty"):
            check_bunkbed(k3, measure=measure, **{grid: ()})
    # A grid the measure does not read may be empty.
    assert check_bunkbed(k3, measure="percolation", q_grid=(), p_grid=SMALL_P).ok
    assert check_bunkbed(k3, measure="arboreal", p_grid=(), q_grid=()).ok


def test_check_bunkbed_on_a_32_edge_bunkbed():
    # fig5-G-4's posts-contracted bunkbed has 32 edges: 2^32 subsets, but few
    # enough fold states that one pair takes a fraction of a second.
    inst = named_instance("fig5-G-4")
    assert bunkbed(inst.graph, inst.posts).m == 32
    rep = check_bunkbed(inst.graph, inst.posts, u=inst.u, v=inst.v, instance=inst.name)
    assert rep.verdict == HOLDS
    assert rep.quantities["at_pair"] == f"({inst.u},{inst.v})"


def test_p_threshold_examples():
    p3 = named_graph("P3")
    # The contracted order is 5 and the doubled one 6, with |E| = 2: t is
    # (1/2)^6 / 4 at q = 1/2 and 2^5 / 4 at q = 2, the smaller of the two readings.
    for q, threshold in ((rat(1, 2), "4981/5000"), (rat(2), "139/1250")):
        rep = check_p_threshold(p3, {1}, q)
        assert rep.verdict == HOLDS
        assert rep.quantities["threshold"] == threshold
    # At p = 1 the difference vanishes identically.
    bb = bunkbed(p3, {1})
    u1, _ = bunkbed_copies(p3, {1}, 0)
    v1, v2 = bunkbed_copies(p3, {1}, 2)
    (rows,) = _case_rows(bb, [(u1, v1, v2)])
    assert _rc_differences(rows, [rat(1)], [rat(2)]) == [0]


def test_bsst_counts_k3():
    k3 = named_graph("K3")
    for e, f in ((0, 1), (0, 2), (1, 2)):
        xp, xm = bsst_counts(k3, e, f)
        assert (xp - xm) ** 2 == 1  # [e][f] - [.][e,f] = 2*2 - 3*1
    with pytest.raises(ValueError):
        bsst_counts(k3, 0, 0)


def test_bsst_counts_c4_opposite():
    c4 = named_graph("C4")
    xp, xm = bsst_counts(c4, 0, 2)
    # The lone 4-edge connected subgraph is the cycle itself.
    assert xp + xm == 1
    # [e][f] - [.][e,f]: trees with e: 3, with f: 3, total 4, with both: 2.
    assert (xp - xm) ** 2 == 3 * 3 - 4 * 2


def _random_multigraph(rng, n, m):
    """Connected: a random spanning tree, then parallel and random edges, each stored either way."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs.append(pairs[rng.randrange(len(pairs))])
    while len(pairs) < m:
        pairs.append(tuple(rng.sample(range(n), 2)))
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs:
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, rat(rng.randint(1, 3), rng.randint(2, 4))))
    return Graph(n, tuple(edges))


def test_bsst_counts_match_cycle_oracle():
    graphs = [g for _, g in identity_catalog()]
    rng = random.Random(31)
    graphs += [_random_multigraph(rng, rng.randint(3, 5), rng.randint(5, 8)) for _ in range(12)]
    for g in graphs:
        for e, f in combinations(range(g.m), 2):
            for a, b in ((e, f), (f, e)):
                assert bsst_counts(g, a, b) == bsst_counts_by_cycles(g, a, b), (g, a, b)
    with pytest.raises(ValueError):
        bsst_counts(Graph(4, ((0, 1), (2, 3))), 0, 1)


def test_tree_pair_counts_match_the_per_pair_references():
    # The one-table counts against the spanning trees of forest_masks, the
    # all-minors tree count, bsst_counts on the minor and the cycle oracle.
    graphs = [g for _, g in identity_catalog()]
    rng = random.Random(57)
    graphs += [_random_multigraph(rng, rng.randint(3, 5), rng.randint(5, 8)) for _ in range(12)]
    for g in graphs:
        trees, through, pairs = _tree_pair_counts(g)
        tree_masks = [mask for mask, kappa in forest_masks(g) if kappa == 1]
        assert trees == len(tree_masks) == all_minors_count(g.with_weights(1), {0}, {0})
        assert through == [sum(mask >> e & 1 for mask in tree_masks) for e in range(g.m)]
        assert list(pairs) == list(combinations(range(g.m), 2))
        for (e, f), (both, xp, xm) in pairs.items():
            assert both == sum(mask >> e & mask >> f & 1 for mask in tree_masks), (g, e, f)
            assert (xp, xm) == bsst_counts(g, e, f) == bsst_counts_by_cycles(g, e, f), (g, e, f)


def _count_calls(monkeypatch, module, names, calls: Counter) -> None:
    for name in names:
        def counted(*args, fn=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def _count_everywhere(monkeypatch, fn, calls: Counter) -> None:
    """Count the calls of `fn` under every name a bunkbed module binds it to."""
    def counted(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bunkbed":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def test_identity_suites_make_one_engine_call_per_graph(monkeypatch):
    # Pins the per-graph shape: bsst reads one forest table, and each Laplacian
    # is inverted once (its grounded inverse) whatever the number of edge or
    # vertex pairs, with one Bareiss determinant where a pair count needs tau.
    calls = Counter()
    _count_calls(monkeypatch, verify, ("forest_table", "all_minors_count"), calls)
    _count_calls(monkeypatch, treealg, ("bareiss_det", "invert"), calls)
    _count_calls(monkeypatch, measures.BoundaryTable, ("bracket",), calls)
    for _, g in identity_catalog():
        calls.clear()
        assert verify._suite_bsst(g)
        assert calls == {"forest_table": 1}
        # The quadruple suites fold one forest table and read its subsets'
        # entries directly, through no bracket call.
        for suite in ("cross-inner", "choe", "four-point-leading"):
            calls.clear()
            assert IDENTITY_SUITES[suite](g)
            assert (calls["forest_table"], calls["bracket"]) == (int(g.n >= 4), 0)
        calls.clear()
        assert IDENTITY_SUITES["resistance-bracket"](g)
        assert (calls["bareiss_det"], calls["invert"]) == (1, 1)
        # The doubled bunkbed, the base graph and L + 2I, then L^SS and the
        # posts-contracted bunkbed of each post set that leaves a vertex pair.
        calls.clear()
        assert IDENTITY_SUITES["bunkbed-tree-stratum"](g)
        post_sets = (g.n >= 3) + (g.n >= 4)
        assert (calls["bareiss_det"], calls["invert"]) == (1, 3 + 2 * post_sets)
        # Rayleigh compares M_uu + M_vv - 2 M_uv crosswise, so it needs no tau.
        calls.clear()
        assert IDENTITY_SUITES["rayleigh"](g)
        bundles = sum(minor(g, deletions={f}).is_connected() for f in range(g.m))
        assert (calls["bareiss_det"], calls["invert"]) == (0, 1 + bundles if bundles else 0)
    # The forest oracle and the union-find are test oracles: no suite, scan or
    # arboreal bunkbed check calls either.
    oracles = Counter()
    _count_everywhere(monkeypatch, measures.forest_masks, oracles)
    _count_everywhere(monkeypatch, partition.join_rgs, oracles)
    for suite in IDENTITY_SUITES:
        assert run_identity_suite(suite).verdict == HOLDS
    scan_conjectures()
    check_bunkbed(named_graph("K4"), measure="arboreal")
    assert oracles == {}


# Two components: a triangle and an edge.
TWO_PIECES = Graph(5, ((0, 1, rat(1)), (1, 2, rat(1)), (0, 2, rat(1)), (3, 4, rat(1))))
FOREST_SUITES = ("choe", "four-point-leading", "weak-limit")


def test_identity_suites_skip_disconnected_graphs_they_cannot_read():
    for suite in sorted(IDENTITY_SUITES):
        rep = run_identity_suite(suite, [("pieces", TWO_PIECES), ("K3", named_graph("K3"))])
        assert rep.verdict == HOLDS, (suite, rep.witness)
        alone = run_identity_suite(suite, [("pieces", TWO_PIECES)])
        if suite in FOREST_SUITES:
            assert rep.quantities == {"instances_checked": "2"}
            assert alone.verdict == HOLDS
        else:
            assert rep.quantities == {
                "instances_checked": "1",
                "skipped": "1",
                "skip_reasons": f"pieces: {suite} needs a connected graph",
            }
            assert alone.verdict == SKIPPED


def test_identity_suites_on_small_instances():
    instances = [
        ("K3", named_graph("K3")),
        ("P4", named_graph("P4")),
        ("C4", named_graph("C4")),
        ("K4", named_graph("K4")),
    ]
    for suite in IDENTITY_SUITES:
        rep = run_identity_suite(suite, instances)
        assert rep.verdict == HOLDS, (suite, rep.witness)


# A house-like multigraph with non-unit rational weights, so that its
# Laplacian and pseudoinverses have denominators above 1; the catalog graphs
# are all unit-weight.
WEIGHTED = Graph(5, (
    (0, 1, rat(1, 2)), (1, 2, rat(2, 3)), (2, 3, rat(3)), (3, 4, rat(5, 7)),
    (4, 0, rat(1, 3)), (0, 2, rat(4, 9)), (1, 3, rat(7, 4)), (1, 3, rat(1, 6)),
))


def test_identity_suites_on_rational_weights():
    assert laplacian(WEIGHTED).den > 1
    assert LaplacianBundle(WEIGHTED).pinv.den > 1
    for suite in sorted(IDENTITY_SUITES):
        rep = run_identity_suite(suite, [("weighted", WEIGHTED)])
        # bsst and weak-limit count edge subsets without their weights: they are
        # identities of unit-weight graphs only, so a weighted graph is skipped,
        # and a suite that checked no instance says so instead of holding.
        if suite in ("bsst", "weak-limit"):
            assert rep.verdict == SKIPPED
            assert rep.quantities == {
                "instances_checked": "0",
                "skipped": "1",
                "skip_reasons": f"weighted: {suite} holds for unit edge weights only",
            }
        else:
            assert rep.verdict == HOLDS, (suite, rep.witness)
            assert rep.quantities == {"instances_checked": "1"}


def test_pairings_are_the_three_pairings_of_four_positions():
    # choe and cross-inner still report holds when a pairing is repeated in
    # place of another, so the tuple they read is checked here.
    pairings = {frozenset({frozenset(p[:2]), frozenset(p[2:])}) for p in _PAIRINGS}
    assert all(sorted(p) == [0, 1, 2, 3] for p in _PAIRINGS)
    assert len(_PAIRINGS) == len(pairings) == 3


def _pairing(x, y, z, w):
    return frozenset({frozenset({x, y}), frozenset({z, w})})


def test_quadruple_suites_check_all_three_pairings(monkeypatch):
    # Spies pass every call through, so the suites' verdicts are unchanged;
    # they record which pairings xy|zw each suite checks.
    g = named_graph("K5")
    seen = []
    real_cross = LaplacianBundle.cross_inner

    def cross_spy(self, a, b, c, d):
        seen.append((a, b, c, d))
        return real_cross(self, a, b, c, d)

    monkeypatch.setattr(LaplacianBundle, "cross_inner", cross_spy)
    assert IDENTITY_SUITES["cross-inner"](g)
    by_quad: dict = {}
    for a, b, c, d in seen:
        by_quad.setdefault(frozenset({a, b, c, d}), set()).add(_pairing(a, b, c, d))
    assert len(by_quad) == math.comb(g.n, 4)
    assert all(len(pairings) == 3 for pairings in by_quad.values())

    # Choe reads its pattern keys off a module constant, one entry per
    # pairing.  The one two-block pattern that separates neither x from y nor
    # z from w is [xy|zw] itself, so it names the entry's pairing.
    two_blocks = {partition.canonical_rgs(t) for t in product(range(2), repeat=4)} - {(0,) * 4}
    pairings = set()
    for xy, zw, _ in verify._CHOE_KEYS:
        (rest,) = two_blocks - {t for t, _ in xy + zw}
        pairings.add(_pairing(*sorted(range(4), key=rest.__getitem__)))
    assert len(pairings) == 3


def test_rayleigh_suite_fails_when_a_subgraph_conducts_better(monkeypatch):
    # Handing the suite a supergraph in place of each edge-deleted subgraph
    # lowers some resistance, so the crosswise integer comparison must fail;
    # the rational weights give the two bundles different denominators.
    g = Graph(4, ((0, 1, rat(2, 3)), (1, 2, rat(5, 7)), (2, 3, rat(1, 2)), (3, 0, rat(3, 4))))
    assert IDENTITY_SUITES["rayleigh"](g)
    extra = Graph(4, g.edges + ((0, 2, rat(1, 5)),))
    monkeypatch.setattr(verify, "_connected_spanning_subgraph", lambda graph, f: extra)
    assert not IDENTITY_SUITES["rayleigh"](g)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_identity_suite("nonsense")


def test_identity_suite_collects_guard_skips(monkeypatch):
    # A small level guard trips on the path and not on K3.
    monkeypatch.setattr(measures, "_LEVEL_GUARD", 15)
    big = Graph(31, tuple((i, i + 1, rat(1)) for i in range(30)))
    rep = run_identity_suite(
        "resistance-bracket", [("big", big), ("K3", named_graph("K3"))]
    )
    assert rep.verdict == HOLDS
    assert rep.quantities.get("skipped") == "1"
    reason = rep.quantities["skip_reasons"]
    assert reason.startswith("big: fold passed 32776 bytes in 64 label strings at step 6 of 30 ")
    assert reason.endswith("(guard is 2^15 bytes); 7 vertices live at this step, the sweep's peak is 31 at step 30")


def test_hypergraph_factorization_report():
    rep = check_hypergraph_factorization()
    assert rep.verdict == HOLDS
    assert rat(rep.quantities["constant"]) > 0
    assert rat(rep.quantities["value_at_q1"]) < 0


@pytest.mark.parametrize("cubic", [[-7, 10, -5, 2], [-7, 10, -4, 1], [-7, 10, -5, 1, 0, 1], [-7, 10, -5]])
def test_hypergraph_factorization_compares_every_cubic_coefficient(cubic, monkeypatch):
    assert hollom_cubic() == [-7, 10, -5, 1]
    monkeypatch.setattr(verify, "hollom_cubic", lambda: cubic)
    rep = check_hypergraph_factorization()
    assert rep.verdict == FAILS and rep.witness


def test_engine_consistency_quick():
    rep = check_engine_consistency(trials=8, seed=11)
    assert rep.verdict == HOLDS


@pytest.mark.parametrize("trials", [0, -3])
def test_engine_check_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ParameterError, match=f"^trials must be at least 1; got {trials}$"):
        check_engine_consistency(trials=trials)


def test_scan_conjectures_small():
    reports = scan_conjectures(
        lam_grid=(rat(1, 2), rat(1), rat(2)),
        seed=7,
        weightings=2,
    )
    by_claim = {r.claim: r for r in reports}
    assert by_claim["bunkbed-forest-conjecture"].verdict == OPEN_OK
    assert by_claim["alt-model-counts"].verdict == HOLDS
    assert by_claim["outerplanar-triple-product"].verdict == HOLDS
    assert by_claim["forest-harris-conjecture"].verdict == OPEN_OK
    assert by_claim["edge-negative-correlation"].verdict == OPEN_OK
    assert by_claim["identity-four-point-leading"].verdict == HOLDS
    assert by_claim["four-point-forest-conjecture"].verdict == OPEN_OK
    # Reports are JSON-serializable.
    import json

    json.dumps([r.to_json() for r in reports])


def test_four_point_scan_reports_its_first_witness(monkeypatch):
    # A fake scan that fails on K5's second weighting: the scan stops there, and
    # the witness gives the quadruple and lambda, then the instance, the trial
    # and that draw's weights, in that order.
    seen = []

    def fake(weighted, lam_grid):
        seen.append(weighted)
        if len(seen) == 4:
            return {"quad": [0, 1, 2, 4], "lambda": format_rational(lam_grid[1])}
        return None

    monkeypatch.setattr(verify, "_four_point_forest", fake)
    rep = scan_conjectures(lam_grid=(rat(1, 2), rat(2)), seed=7, weightings=3)[-1]
    # The weights are drawn trial by trial, K4 before K5, two draws per edge.
    rng = random.Random(7)
    draws = [
        [rat(rng.randint(1, 12), rng.randint(1, 12)) for _ in named_graph(name).edges]
        for _ in range(2)
        for name in ("K4", "K5")
    ]
    assert [[w for _, _, w in g.edges] for g in seen] == draws
    assert (rep.claim, rep.verdict) == ("four-point-forest-conjecture", FAILS)
    assert list(rep.witness) == ["quad", "lambda", "instance", "trial", "weights"]
    assert rep.witness == {
        "quad": [0, 1, 2, 4],
        "lambda": "2",
        "instance": "K5",
        "trial": 1,
        "weights": [format_rational(w) for w in draws[3]],
    }


def _fig5_bracket_counts(variant, n_path):
    """Exact counts of the two-sided connection patterns in the fig5 family.

    Returns (separate_rr_bb, separate_crossing): colourings where both layers
    connect their endpoints in two distinct components, and where the two
    crossing connections hold in distinct components.
    """
    inst = named_instance(f"fig5-{variant}-{n_path}")
    g, posts = inst.graph, inst.posts
    n = bunkbed(g, posts).n
    u1, u2 = bunkbed_copies(g, posts, inst.u)
    v1, v2 = bunkbed_copies(g, posts, inst.v)
    copies = [bunkbed_copies(g, posts, x) for x in range(g.n)]
    # The copies of each base edge in layer 1 and in layer 2.
    layers = [[(copies[a][side], copies[b][side]) for a, b, _ in g.edges] for side in (0, 1)]
    m = g.m
    both = crossing = 0
    for colouring in range(1 << m):
        # Bit i picks the layer-1 copy of base edge i, clear the layer-2 one.
        pairs = [layers[1 - (colouring >> i & 1)][i] for i in range(m)]
        roots, kappa = roots_and_kappa(n, pairs, (1 << m) - 1)
        if m + kappa != n:
            continue
        if roots[u1] == roots[v1] and roots[u2] == roots[v2] and roots[u1] != roots[u2]:
            both += 1
        if roots[u1] == roots[v2] and roots[u2] == roots[v1] and roots[u1] != roots[u2]:
            crossing += 1
    return both, crossing


def test_fig5_exact_count_structure():
    # Exact enumerated counts: the crossing pattern has exactly 2 colourings
    # in the diagonal family and none in the same-side family, so the pattern
    # difference is non-negative; the two-sided count is 8 throughout.
    for n_path in (1, 2, 3):
        both, crossing = _fig5_bracket_counts("G", n_path)
        assert crossing == 2
        assert both == 8
        assert both - crossing >= 0
        both_h, crossing_h = _fig5_bracket_counts("H", n_path)
        assert crossing_h == 0
        assert both_h >= crossing_h


def test_scan_reports_are_deterministic():
    import json

    kwargs = dict(lam_grid=(rat(1, 2), rat(2)), seed=99, weightings=2)
    first = [r.to_json() for r in scan_conjectures(**kwargs)]
    second = [r.to_json() for r in scan_conjectures(**kwargs)]
    assert json.dumps(first) == json.dumps(second)


def test_failure_verdict_plumbing():
    from bunkbed.verify import VerificationReport

    rep = VerificationReport(
        claim="demo", instance="demo", verdict=FAILS, witness={"u": 0}
    )
    assert not rep.ok
    assert rep.to_json()["witness"] == {"u": 0}

    IDENTITY_SUITES["always-off"] = lambda g: False
    try:
        out = run_identity_suite("always-off", [("K3", named_graph("K3"))])
        assert out.verdict == FAILS
        assert out.witness == {"failing_instances": ["K3"]}
    finally:
        del IDENTITY_SUITES["always-off"]


def _every_pair_its_own_orbit(g, posts):
    return list(combinations(sorted(set(range(g.n)) - set(posts or ())), 2))


def test_bunkbed_scans_report_first_minimum(monkeypatch):
    # Difference rows become pair indices, and the difference is -1/7 at a few points.
    # Any loop order other than pair -> p -> q would pick another point.  K3 is one
    # pair orbit, so every pair is made its own orbit to give the pairs different rows.
    monkeypatch.setattr("bunkbed.verify.pair_orbits", _every_pair_its_own_orbit)
    monkeypatch.setattr("bunkbed.verify._case_rows", lambda bb, triples: range(len(triples)))
    negative = {(1, rat(1, 2), rat(2)), (1, rat(3, 4), rat(1)), (2, rat(1, 4), rat(1))}
    monkeypatch.setattr(
        "bunkbed.verify._rc_differences",
        lambda rows, ps, qs: [rat(-1, 7) if (rows, p, q) in negative else rat(1) for p in ps for q in qs],
    )
    g = named_graph("K3")  # pairs (0,1), (0,2), (1,2)
    rep = check_bunkbed(g, p_grid=SMALL_P, q_grid=(rat(1), rat(2)))
    assert rep.verdict == FAILS
    assert list(rep.witness) == ["u", "v", "p", "q", "difference"]
    assert rep.witness == {"u": 0, "v": 2, "p": "1/2", "q": "2", "difference": "-1/7"}
    assert rep.quantities["at_pair"] == "(0,2)"

    # The threshold grid does not depend on the differences.
    p_values = [rat(x) for x in check_p_threshold(g, frozenset(), 1).grid["p"]]
    negative = {(1, p_values[1], rat(1)), (2, p_values[0], rat(1))}
    rep = check_p_threshold(g, frozenset(), 1)
    assert rep.verdict == FAILS
    assert list(rep.witness) == ["u", "v", "p", "q"]
    assert rep.witness == {"u": 0, "v": 2, "p": format_rational(p_values[1]), "q": "1"}
    assert rep.quantities["at_pair"] == "(0,2)"
    assert rep.quantities["min_difference"] == "-1/7"

    # The arboreal measure runs the same scan, pair -> lambda.
    monkeypatch.setattr("bunkbed.verify._forest_lists", lambda bb, triples: range(len(triples)))
    negative = {(1, rat(2)), (2, rat(1, 2))}
    monkeypatch.setattr(
        "bunkbed.verify._arboreal_differences",
        lambda lists, lams: [rat(-1, 5) if (lists, lam) in negative else rat(1) for lam in lams],
    )
    rep = check_bunkbed(g, measure="arboreal", lam_grid=(rat(1, 2), rat(2)))
    assert rep.witness == {"u": 0, "v": 2, "lambda": "2", "difference": "-1/5"}


def _scan_reports():
    reports = []
    for name, g in connected_graphs(4):
        # Unequal weights break some symmetries; only the arboreal check reads them.
        weighted = Graph(g.n, tuple((u, v, rat(1 + i % 2, 3)) for i, (u, v, _) in enumerate(g.edges)))
        for posts in [None] + [frozenset(c) for k in range(3) for c in combinations(range(g.n), k)]:
            for measure in ("random-cluster", "percolation", "arboreal"):
                reports.append(check_bunkbed(g, posts, measure, instance=name).to_json())
            reports.append(check_bunkbed(weighted, posts, "arboreal", instance=name).to_json())
            if posts is not None:
                for q in (rat(1, 2), rat(2)):
                    reports.append(check_p_threshold(g, posts, q, instance=name).to_json())
    return reports


def test_orbit_scans_report_what_every_pair_scans_report(monkeypatch):
    # One pair per orbit must leave every report bit-identical: the minimum, its
    # pair and point, and the witness.
    got = _scan_reports()
    monkeypatch.setattr("bunkbed.verify.pair_orbits", _every_pair_its_own_orbit)
    assert got == _scan_reports()


def test_k4_scans_fold_one_triple_per_orbit(monkeypatch):
    folded = []
    monkeypatch.setattr(
        "bunkbed.verify.bunkbed_case_profiles",
        lambda bb, triples: folded.append(len(triples)) or bunkbed_case_profiles(bb, triples),
    )
    monkeypatch.setattr(
        "bunkbed.verify.forest_table", lambda bb, marked: folded.append(1) or forest_table(bb, marked)
    )
    k4 = named_graph("K4")
    for measure in ("random-cluster", "percolation", "arboreal"):
        folded.clear()
        check_bunkbed(k4, measure=measure)
        assert folded == [1], measure
    folded.clear()
    check_p_threshold(k4, frozenset(), 2)
    assert folded == [1]
    # With a post, the three pairs that avoid it are still one orbit.
    folded.clear()
    check_bunkbed(k4, {0})
    assert folded == [1]
    monkeypatch.setattr("bunkbed.verify.pair_orbits", _every_pair_its_own_orbit)
    folded.clear()
    check_bunkbed(k4)
    assert folded == [6]


# All-verticals and posts-contracted bunkbeds of at most 9 edges.
DIFFERENCE_CASES = (("P3", None), ("P3", {1}), ("K3", None), ("K3", {2}))


@settings(deadline=None, max_examples=30)
@given(
    case=st.sampled_from(DIFFERENCE_CASES),
    p=st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), st.fractions(0, 1, max_denominator=12)),
    q=st.fractions(Fraction(1, 12), 6, max_denominator=12),
    lam=st.one_of(st.just(Fraction(0)), st.fractions(0, 6, max_denominator=12)),
)
def test_difference_polynomials_match_the_subset_oracle(case, p, q, lam):
    name, posts = case
    g = named_graph(name)
    bb = bunkbed(g, posts)
    triples = []
    for a, b in combinations(range(g.n), 2):
        a1, _ = bunkbed_copies(g, posts, a)
        triples.append((a1, *bunkbed_copies(g, posts, b)))
    pairs = [(u, v) for u, v, _ in bb.edges]
    subsets = []
    for mask in range(1 << bb.m):
        # The random-cluster rows ignore the edge weights; the forest weights keep them.
        weight = math.prod(w for i, (_, _, w) in enumerate(bb.edges) if mask >> i & 1)
        subsets.append((*roots_and_kappa(bb.n, pairs, mask), mask.bit_count(), weight))
    # Forest tables take distinct marked vertices: the arboreal lists skip a post v
    # (v1 == v2, difference identically 0), as check_bunkbed skips post pairs.
    arboreal = [t for t in triples if t[1] != t[2]]
    lists_of = dict(zip(arboreal, _forest_lists(bb, arboreal)))
    for (a1, b1, b2), rows in zip(triples, _case_rows(bb, triples)):
        rc = forest_diff = forest_z = 0
        for roots, kappa, s, weight in subsets:
            sign = (roots[a1] == roots[b1]) - (roots[a1] == roots[b2])
            rc += sign * p**s * (1 - p) ** (bb.m - s) * q**kappa
            if s + kappa == bb.n:  # a spanning forest F, of weight lambda^|F| times its edge weights
                forest_z += weight * lam**s
                forest_diff += sign * weight * lam**s
        # Z (P[u1<->v1] - P[u1<->v2]), and the arboreal probability difference.
        assert _rc_differences(rows, [rat(p)], [rat(q)]) == [rc]
        if b1 != b2:
            lists = lists_of[a1, b1, b2]
            assert _arboreal_differences(lists, [rat(lam)]) == [forest_diff / forest_z]
        else:
            assert forest_diff == 0


def test_strong_rayleigh_psd_certificate_implies_every_gram_inequality():
    # strong-rayleigh certifies D = pinv(h) - pinv(g) positive semidefinite.
    # That implies each Cauchy-Schwarz inequality <Dx, y>**2 <= <Dx, x><Dy, y>
    # for x = e_a - e_b and y = e_c - e_d; check them all wherever it passes.
    from bunkbed.exactnum import psd_certificate

    checked = 0
    for name, g in identity_catalog():
        if g.n < 2:
            continue
        bundle_g = LaplacianBundle(g)
        for f in range(g.m):
            h = verify._connected_spanning_subgraph(g, f)
            if h is None:
                continue
            diff = LaplacianBundle(h).pinv - bundle_g.pinv
            if not psd_certificate(diff)[0]:
                continue
            num = diff.num

            def inner(a, b, c, d):
                return num[a][c] - num[a][d] - num[b][c] + num[b][d]

            for a, b, c, d in combinations(range(g.n), 4):
                assert inner(a, b, c, d) ** 2 <= inner(a, b, a, b) * inner(c, d, c, d), (name, f)
                checked += 1
        assert IDENTITY_SUITES["strong-rayleigh"](g), name
    assert checked
