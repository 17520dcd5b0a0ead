import hashlib
import json
import random
from itertools import product

import pytest
from dense_poly import qpoly
from glue_oracle import glue_by_join
from hypothesis import given, settings, strategies as st
from readout_oracle import counterexample_by_entries

from bunkbed import glue
from bunkbed.catalog import named_graph, named_instance
from bunkbed.exactnum import Rational, integer_negative_region, rat
from bunkbed.glue import (
    _contract_encoded,
    _decoded,
    _encoded,
    _glue,
    _interpolate,
    _Packed,
    _packed_width,
    _point_count,
    _Points,
    _unit,
    _values,
    Factor,
    FactorNetwork,
    contract_network,
    counterexample_numerator,
    edge_factor,
    eliminate,
    factor_from_graph,
    gadget_factor,
    hollom_network,
    multiply,
)
from bunkbed.graph import (
    Graph,
    bunkbed,
    bunkbed_copies,
    gadget,
    hollom_instance,
    hypergraph_bunkbed,
    hypergraph_copies,
)
from bunkbed.measures import EnumerationGuardError, rc_boundary_table
from bunkbed.partition import canonical_rgs, canonicalize
from bunkbed.verify import HOLDS, check_engine_consistency


def _pattern(marked, *groups):
    return canonicalize(tuple(marked), groups)


def test_single_edge_factor_table():
    p = rat(1, 3)
    f = factor_from_graph(Graph(2, ((0, 1, p),)), (0, 1))
    table = f.table()
    assert table[_pattern((0, 1), (0, 1))] == qpoly([p])
    assert table[_pattern((0, 1), (0,), (1,))] == qpoly([1 - p])
    assert f.table() == edge_factor(0, 1, p).table()


def test_scalar_factor_is_partition_function():
    p = rat(1, 3)
    g = Graph(2, ((0, 1, p),))
    f = factor_from_graph(g, ())
    table = rc_boundary_table(g, ())
    assert f.total() == qpoly(table.event(), table.den)
    # With an empty boundary the single entry already carries all q powers.
    assert f.table()[canonicalize((), [])] == qpoly([0, p, 1 - p])


def test_factor_vs_rc_table_relation():
    # rc table entries equal factor entries times q**blocks.
    rng = random.Random(2)
    g = named_graph("C4")
    weighted = Graph(g.n, tuple((u, v, rat(rng.randint(1, 4), 5)) for u, v, _ in g.edges))
    for marked in ((0,), (0, 2), (0, 1, 2)):
        f = factor_from_graph(weighted, marked)
        table = rc_boundary_table(weighted, marked)
        assert f.boundary == table.marked
        for part, poly in f.table().items():
            shifted = [0] * (max(part) + 1) + poly.dense_in("q")
            assert qpoly(shifted) == qpoly(table.event(lambda rgs: rgs == part), table.den)
        assert f.total() == qpoly(table.event(), table.den)


def test_gadget_factor_matches_brute_force():
    for n in (1, 2, 3, 4):
        p = rat(1, 100)
        swept = gadget_factor(n, p)
        brute = factor_from_graph(gadget(n, p), (0, 1, n + 2))
        assert swept.boundary == brute.boundary == (0, 1, n + 2)
        assert swept.table() == brute.table()


def test_gadget_factor_refuses_weights_outside_the_open_unit_interval():
    # graph.gadget builds the edge list and refuses p outside (0, 1).
    for n, p in product((1, 3), (rat(0), rat(1), rat(3, 2), rat(-1, 2))):
        with pytest.raises(ValueError, match="0 < p < 1"):
            gadget_factor(n, p)


def test_gadget_factor_mass_at_q1():
    for n in (1, 3, 7):
        f = gadget_factor(n, rat(1, 100))
        assert sum(poly.eval({"q": rat(1)}) for poly in f.table().values()) == 1


def test_multiply_identity_and_disjoint():
    p = rat(2, 5)
    f = edge_factor(0, 1, p)
    one = Factor((), {(): [1]})
    assert multiply(f, one).table() == f.table()
    g = edge_factor(2, 3, rat(1, 3))
    prod = multiply(f, g)
    # Disjoint boundaries: entries are products over concatenated partitions.
    both = _pattern((0, 1, 2, 3), (0, 1), (2, 3))
    assert prod.table()[both] == qpoly([p * rat(1, 3)])


def test_path_network_matches_direct_enumeration():
    # P3 from two single-edge factors, eliminating the middle vertex.
    w1, w2 = rat(1, 2), rat(1, 3)
    f = multiply(edge_factor(0, 1, w1), edge_factor(1, 2, w2))
    f = eliminate(f, 1)
    g = Graph(3, ((0, 1, w1), (1, 2, w2)))
    expected = factor_from_graph(g, (0, 2))
    assert f.table() == expected.table()


def test_eliminate_singleton_adds_one_q_power():
    f = edge_factor(0, 1, rat(1, 2))
    reduced = eliminate(f, 1)
    table = reduced.table()
    only = canonicalize((0,), [(0,)])
    # Present edge keeps vertex 1 attached to 0 (no new q); absent closes it.
    assert table[only] == qpoly([rat(1, 2), rat(1, 2)])


def test_eliminate_then_evaluate_at_q1_is_marginalization():
    rng = random.Random(9)
    g = named_graph("diamond")
    weighted = Graph(g.n, tuple((u, v, rat(rng.randint(1, 3), 4)) for u, v, _ in g.edges))
    f = factor_from_graph(weighted, (0, 1, 2))
    g2 = eliminate(f, 1)
    one = {"q": rat(1)}
    for part, poly in g2.table().items():
        merged = sum(
            poly3.eval(one) for part3, poly3 in f.table().items() if canonical_rgs(part3[::2]) == part
        )
        assert poly.eval(one) == merged


def _random_connected_graph(rng, n, extra):
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
    seen = set(edges)
    while extra and len(seen) < n * (n - 1) // 2:
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if e not in seen:
            seen.add(e)
            edges.append(e)
            extra -= 1
    return edges


def test_split_merge_agrees_with_whole_graph_factor():
    rng = random.Random(31)
    for trial in range(12):
        n = rng.randint(4, 7)
        edges = _random_connected_graph(rng, n, rng.randint(0, 4))
        weights = [rat(rng.randint(1, 4), 5) for _ in edges]
        g = Graph(n, tuple((u, v, w) for (u, v), w in zip(edges, weights)))
        queries = sorted(rng.sample(range(n), 2))
        # Random split into two edge-disjoint parts.
        split = [rng.randrange(2) for _ in edges]
        if len(set(split)) == 1:
            split[0] ^= 1
        parts = []
        for side in (0, 1):
            part_edges = [i for i, s in enumerate(split) if s == side]
            if not part_edges:
                continue
            support = sorted({x for i in part_edges for x in edges[i]})
            other_support = {
                x for i, s in enumerate(split) if s != side for x in edges[i]
            }
            boundary = sorted(
                (set(queries) | other_support) & set(support)
            )
            local = {x: k for k, x in enumerate(support)}
            sub = Graph(
                len(support),
                tuple((local[edges[i][0]], local[edges[i][1]], weights[i]) for i in part_edges),
            )
            parts.append(
                factor_from_graph(sub, [local[x] for x in boundary]).relabel(
                    {local[x]: x for x in support}
                )
            )
        merged = parts[0]
        for f in parts[1:]:
            merged = multiply(merged, f)
        for v in sorted(set(merged.boundary) - set(queries)):
            merged = eliminate(merged, v)
        whole = factor_from_graph(g, queries)
        assert merged.table() == whole.table(), f"trial {trial}"


def test_contract_network_matches_brute_force_and_order():
    rng = random.Random(77)
    for trial in range(10):
        n = rng.randint(4, 7)
        edges = _random_connected_graph(rng, n, rng.randint(0, 3))
        weights = [rat(rng.randint(1, 4), 5) for _ in edges]
        g = Graph(n, tuple((u, v, w) for (u, v), w in zip(edges, weights)))
        queries = tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))
        factors = tuple(edge_factor(min(u, v), max(u, v), w) if u != v else None
                        for (u, v), w in zip(edges, weights))
        net = FactorNetwork(factors, queries)
        result = contract_network(net)
        expected = factor_from_graph(g, queries)
        assert result.table() == expected.table()
        # Order invariance over random explicit orders.
        non_query = [v for v in range(n) if v not in queries]
        for _ in range(3):
            rng.shuffle(non_query)
            other = contract_network(net, order=list(non_query))
            assert other.table() == result.table()


def test_fold_factor_of_a_32_edge_bunkbed_matches_contraction():
    # fig5-G-4's posts-contracted bunkbed has 32 edges: the fold's factor
    # over (u1, v1, v2) must equal the contraction of its edge factors.
    inst = named_instance("fig5-G-4")
    bb = bunkbed(inst.graph.with_weights(rat(1, 3)), inst.posts)
    assert bb.m == 32
    queries = (bunkbed_copies(inst.graph, inst.posts, inst.u)[0],
               *bunkbed_copies(inst.graph, inst.posts, inst.v))
    net = FactorNetwork(tuple(edge_factor(u, v, w) for u, v, w in bb.edges), tuple(sorted(queries)))
    assert factor_from_graph(bb, queries).table() == contract_network(net).table()


def test_contract_network_requires_query_coverage():
    with pytest.raises(ValueError):
        FactorNetwork((edge_factor(0, 1, rat(1, 2)),), (5,))


def test_contract_network_boundary_guard():
    # A star of 13 leaves all kept as queries forces a 13-vertex boundary...
    center = 0
    factors = tuple(edge_factor(center, i, rat(1, 2)) for i in range(1, 15))
    net = FactorNetwork(factors, tuple(range(1, 15)))
    with pytest.raises(EnumerationGuardError, match="Bell"):
        contract_network(net)
    # ...and the message reports the order so far and the point count: the
    # path 20-21-22 eliminates fine, the centre of a 13-leaf star does not.
    star = [edge_factor(0, i, rat(1, 2)) for i in range(1, 14)]
    path = [edge_factor(20, 21, rat(1, 3)), edge_factor(21, 22, rat(1, 3))]
    net = FactorNetwork(tuple(star + path), tuple(range(1, 14)) + (20, 22))
    # Two eliminated vertices and degree-0 inputs: D = 2, so 3 points.
    with pytest.raises(EnumerationGuardError, match=r"order so far: \[21\].*D \+ 1 = 3 "):
        contract_network(net, order=[21, 0])


def test_guard_message_lists_every_fused_cut():
    # Vertex 21 starts a step that also cuts 22, which no other factor
    # touches, so the guard at the star centre already lists 22.
    w = rat(1, 3)
    path = multiply(multiply(edge_factor(20, 21, w), edge_factor(21, 22, w)), edge_factor(22, 23, w))
    star = [edge_factor(0, i, rat(1, 2)) for i in range(1, 14)]
    net = FactorNetwork(tuple(star) + (path,), tuple(range(1, 14)) + (20, 23))
    with pytest.raises(EnumerationGuardError, match=r"order so far: \[21, 22\].*D \+ 1 = 4 "):
        contract_network(net, order=[21, 0, 22])


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.integers(-(2**300), 2**300), min_size=1, max_size=30),
    st.integers(0, 4),
    st.integers(0, 6),
)
def test_interpolate_inverts_values(coeffs, zeros, extra):
    coeffs = coeffs + [0] * zeros
    count = len(coeffs) + extra + 1
    expected = list(coeffs)
    while expected and expected[-1] == 0:
        expected.pop()
    assert _interpolate(_values(coeffs, count)) == expected


def test_interpolate_rejects_non_integer_polynomial():
    # q(q - 1)/2 takes integer values but has a half-integer coefficient.
    with pytest.raises(ArithmeticError):
        _interpolate([0, 0, 1])


@pytest.mark.parametrize("count", [2, 3, 4, 267])
def test_point_nodes_hold_zero_and_one(count):
    # The values of q are the nodes themselves: consecutive integers with 0
    # and 1 among them, so at_one reads q = 1.
    enc = _Points(count)
    nodes = enc.encode([0, 1])
    assert nodes == list(range(nodes[0], nodes[0] + count))
    assert 0 in nodes and 1 in nodes
    for coeffs in ([7], [3, -2], [1, 1, 1], [-5, 0, 4, 9], [2**70, -(3**40), 11]):
        assert enc.at_one(enc.encode(coeffs)) == sum(coeffs)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.lists(st.integers(-(2**200), 2**200), max_size=4), st.integers(20, 300))
def test_interpolate_of_a_low_degree_stops_at_its_degree(coeffs, count):
    expected = list(coeffs)
    while expected and expected[-1] == 0:
        expected.pop()
    subtractions = []

    def counted(a, b):
        subtractions.append(None)
        return a - b

    values = _values(coeffs, count)
    real = glue.sub
    glue.sub = counted
    try:
        assert _interpolate(values) == expected
    finally:
        glue.sub = real
    # Difference rows 1..deg + 1 (the last is all zero), then Horner:
    # without the early stop there would be count (count - 1) / 2.
    degree = len(expected) - 1
    assert len(subtractions) <= (degree + 2) * count
    assert _interpolate(_values([], count)) == _interpolate(_values([0, 0, 0], count)) == []


@pytest.mark.parametrize("count", [3, 8, 20])
def test_interpolate_rejects_a_half_integer_polynomial_at_every_count(count):
    # q(q + 1)/2 is integer-valued on every node but not an integer polynomial.
    nodes = _Points(count).encode([0, 1])
    with pytest.raises(ArithmeticError):
        _interpolate([x * (x + 1) // 2 for x in nodes])


def test_path_entry_reaches_the_degree_bound():
    # Query 0 at the end of a path with every edge absent leaves each of the
    # m other vertices as a closed component: degree m = D exactly.
    m = 9
    weights = [rat(k, 11) for k in range(1, m + 1)]
    factors = tuple(edge_factor(i, i + 1, w) for i, w in enumerate(weights))
    net = FactorNetwork(factors, (0,))
    g = Graph(m + 1, tuple((i, i + 1, w) for i, w in enumerate(weights)))
    expected = factor_from_graph(g, (0,))
    for order in (None, list(range(m, 0, -1)), [5, 1, 9, 2, 8, 3, 7, 4, 6]):
        result = contract_network(net, order=order)
        assert max(len(c) for c in result.entries.values()) == m + 1
        assert result.table() == expected.table()


def test_p4_network_example():
    w = rat(1, 2)
    factors = tuple(edge_factor(i, i + 1, w) for i in range(3))
    net = FactorNetwork(factors, (0, 3))
    result = contract_network(net)
    g = Graph(4, tuple((i, i + 1, w) for i in range(3)))
    table = rc_boundary_table(g, (0, 3))
    assert result.boundary == table.marked
    for part, poly in result.table().items():
        shifted = [0] * (max(part) + 1) + poly.dense_in("q")
        assert qpoly(shifted) == qpoly(table.event(lambda rgs: rgs == part), table.den)


def test_hollom_network_shape():
    net = hollom_network(1, rat(1, 100))
    assert len(net.factors) == 12
    assert net.queries == (1, 10, 20)
    covered = set()
    for f in net.factors:
        covered.update(f.boundary)
    assert covered == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 17, 19, 20}


def test_counterexample_polynomial_small():
    coeffs, scale, mass = counterexample_numerator(1, rat(1, 100))
    # Total mass at q = 1 is 1: the weights are Bernoulli probabilities.
    assert mass == scale
    assert any(coeffs)
    # The q = 2 value is non-negative for every n (the failure window is
    # strictly inside (0, 2)).
    assert sum(c << k for k, c in enumerate(coeffs)) >= 0


@pytest.mark.parametrize(
    ("n", "p"),
    [pytest.param(n, p, id=f"{n}-p{i}") for n in (1, 2, 3, 4) for i, p in enumerate((rat(1, 100), rat(1, 5)))]
    # table2's own rows
    + [pytest.param(n, rat(1, 100), id=f"{n}-p0") for n in (5, 6)],
)
def test_counterexample_polynomial_matches_the_entrywise_readout(n, p):
    coeffs, scale, mass = counterexample_numerator(n, p)
    expected_numerator, expected_z_at_1 = counterexample_by_entries(n, p)
    assert [Rational(c, scale) for c in coeffs] == expected_numerator.dense_in("q")
    assert Rational(mass, scale) == expected_z_at_1


@pytest.mark.parametrize("p", [rat(1, 100), rat(1, 7), rat(2, 5)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 11])
def test_counterexample_polynomial_is_the_view_of_the_integer_core(n, p):
    coeffs, scale, mass = counterexample_numerator(n, p)
    assert all(type(c) is int for c in coeffs) and coeffs[:2] == [0, 0] and coeffs[-1]
    assert type(scale) is int and scale > 0 and type(mass) is int


def test_hollom_network_layer_2_is_layer_1_under_the_copy_map():
    h = hollom_instance()
    mirror = {v: hypergraph_copies(h, v)[1] for v in range(1, h.n + 1)}
    for n, p in ((1, rat(1, 100)), (3, rat(1, 5))):
        factors = hollom_network(n, p).factors
        assert len(factors) == 12
        for f1, f2 in zip(factors[:6], factors[6:]):
            assert f2 == f1.relabel(mirror)
            assert set(f1.boundary) & set(f2.boundary) <= h.posts


@pytest.mark.parametrize("p", [rat(1, 100), rat(1, 5)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_layer_2_table_is_layer_1_projected_and_renamed(n, p):
    factors = hollom_network(n, p).factors
    layer1 = contract_network(FactorNetwork(factors[:6], (1, 10, 3, 5, 8)))
    layer2 = contract_network(FactorNetwork(factors[6:], (3, 5, 8, 20)))
    assert layer1.boundary == (1, 3, 5, 8, 10)
    assert eliminate(layer1, 1).relabel({10: 20}).same_table(layer2)


# sha256 of json.dumps([coeffs, scale, mass]) for counterexample_numerator(n, p),
# recorded when the layer was contracted on the points q = 0, ..., D: the
# decode must return the same integers on any node set.
NUMERATOR_DIGESTS = {
    (1, "1/100"): "31bb6a9f41e65a440e4017eff26efdad4e5e52b88cb8e9df088c68a3542f2570",
    (1, "1/7"): "798ae7dbfa45f0f8b924d9372bd4c704396f6b0a6f281a87f2f4483336303b65",
    (1, "2/5"): "d3d2c4fe5b238dab7c79a91f6f06c557de3285c6ba524323f006832748216a01",
    (2, "1/100"): "e05b14d2c83861dec36ddac92fc438e12feb71aef1c1588c735fd230d9f9ee7a",
    (2, "1/7"): "d433d03c9575afb05431ac0371d2042ef672c2f641c3590b51dda2bcc27da07f",
    (2, "2/5"): "fb79448aaf4050c70a29cdedea3c9ddc80ceb960a617aaa76e5be9373cf3b16e",
    (3, "1/100"): "858b3db583b90515e82fe19ee4baec06141fdc87f3e05975d956f0f9f8f2ca30",
    (3, "1/7"): "c17943724899df32276f5781a8508b7ef1762b78e03926dac90c80ee24753643",
    (3, "2/5"): "b85ed60c8a74436a47fc02b4a67f98aa515a47e5ac6e03bba97ec00d802284c8",
    (5, "1/100"): "17526de42e77e6f1a808ef757fc6c07b8d2caa9db1f22566d9b79c1191378c95",
    (5, "1/7"): "756d7e141b69a772027a4d46ad2a9f2cb135024bbb3d0fd49829cdf35c695fca",
    (5, "2/5"): "d1f4536e21175d3b3d25450993f1ef7dd0fc0f9e80c0fa9b67a343c8689e6d45",
    (11, "1/100"): "07778648e56115e743fc622ac2ff85b460f465bd9ce370a4e8b079a34e0118cc",
    (11, "1/7"): "9e51836275768826a3771dc1b4663be8b48d3b2ba60747ba68e17e8b4663735b",
    (11, "2/5"): "f29b8a3833dd0de69fc4cc219bea2901ccbf3d07b5875350c31cebe1f7e4d999",
}


@pytest.mark.parametrize(("n", "p"), sorted(NUMERATOR_DIGESTS))
def test_counterexample_numerator_integers_are_pinned(n, p):
    coeffs, scale, mass = counterexample_numerator(n, rat(p))
    blob = json.dumps([coeffs, scale, mass]).encode()
    assert hashlib.sha256(blob).hexdigest() == NUMERATOR_DIGESTS[n, p]


def test_table2_numerator_is_a_positive_multiple_of_the_fold_difference():
    # The doubled network at n = 1 as a plain graph: each hyperedge becomes the
    # edges of gadget(1, p), apex on the post, with a fresh interior vertex.
    # n = 2 and n = 3 trip the fold's level guard under its BFS edge order
    # (after about 5 s each, at steps 68 of 84 and 81 of 108); they wait for
    # the fold on a chosen elimination order (ROADMAP item 2).
    n, p = 1, rat(1, 100)
    h = hollom_instance()
    skeleton, doubled = hypergraph_bunkbed(h)
    index = {v: i for i, v in enumerate(skeleton)}
    pattern = gadget(n, p)
    edges, size = [], len(skeleton)
    for he in doubled:
        (post,) = [v for v in he if v in h.posts]
        b, c = [index[v] for v in he if v not in h.posts]
        ids = [index[post], b, *range(size, size + n), c]
        size += n
        edges += [(ids[u], ids[v], w) for u, v, w in pattern.edges]
    g = Graph(size, tuple(edges))
    assert (g.n, g.m) == (29, 60)
    table = rc_boundary_table(g, [index[1], *(index[v] for v in hypergraph_copies(h, 10))])
    plus = table.event(lambda rgs: rgs == (0, 0, 1))  # {1,10}{20}
    minus = table.event(lambda rgs: rgs == (0, 1, 0))  # {1,20}{10}
    fold = [rat(a - b, table.den) for a, b in zip(plus, minus)]
    coeffs, _, _ = counterexample_numerator(n, p)
    coeffs += [0] * (len(fold) - len(coeffs))
    k = next(i for i, c in enumerate(coeffs) if c)
    scale = fold[k] / coeffs[k]
    assert scale > 0
    assert fold == [scale * c for c in coeffs]


def test_counterexample_polynomial_order_invariant():
    net = hollom_network(2, rat(1, 100))
    default = contract_network(net)
    # Two structured alternatives: sweep one layer then the other, and the
    # reverse interleaving; both keep boundaries small but differ from greedy.
    layer_sweep = [2, 4, 6, 7, 9, 12, 14, 16, 17, 19, 11, 3, 5, 8]
    mirrored = [19, 17, 16, 14, 12, 9, 7, 6, 4, 2, 11, 8, 5, 3]
    for order in (layer_sweep, mirrored):
        final = contract_network(net, order=order)
        assert final.table() == default.table()


def test_fused_cut_of_two_interior_vertices(monkeypatch):
    # Vertices 1 and 2 are pending and touch only the triangle factor on
    # (0, 1, 2) and the path factor on (1, 2, 3), so one glue cuts both.  With
    # every edge to 0 and 3 absent, {1, 2} closes as one block (edge 1-2
    # present, one q) or as two singletons (edge 1-2 absent, q**2).
    rng = random.Random(13)
    w = {e: rat(rng.randint(1, 6), 7) for e in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3))}
    edge = {e: edge_factor(*e, x) for e, x in w.items()}
    triangle = multiply(multiply(edge[0, 1], edge[0, 2]), edge[1, 2])
    path = multiply(edge[1, 3], edge[2, 3])
    chord = edge[0, 3]
    net = FactorNetwork((triangle, path, chord), (0, 3))
    cuts = []
    real_glue = glue._glue

    def spy(t1, t2, enc, cut=(), memo=None):
        cuts.append(set(cut))
        return real_glue(t1, t2, enc, cut, memo=memo)

    monkeypatch.setattr(glue, "_glue", spy)
    fused = contract_network(net)
    monkeypatch.setattr(glue, "_glue", real_glue)
    assert {1, 2} in cuts
    whole = factor_from_graph(Graph(4, tuple((u, v, x) for (u, v), x in w.items())), (0, 3))
    one_at_a_time = eliminate(eliminate(multiply(multiply(triangle, path), chord), 1), 2)
    assert fused.table() == whole.table() == one_at_a_time.table()
    for order in ([1, 2], [2, 1]):
        assert contract_network(net, order=order).table() == whole.table()


def test_hollom_contraction_never_builds_the_full_bell5_table(monkeypatch):
    net = hollom_network(2, rat(1, 100))
    sizes = []
    real_glue = glue._glue

    def spy(*args, **kwargs):
        out = real_glue(*args, **kwargs)
        sizes.append(len(out.entries))
        return out

    monkeypatch.setattr(glue, "_glue", spy)
    default = contract_network(net)
    assert sizes and max(sizes) <= 41
    monkeypatch.setattr(glue, "_glue", real_glue)
    order = [2, 4, 6, 7, 9, 12, 14, 16, 17, 19, 11, 3, 5, 8]
    assert contract_network(net, order=order).table() == default.table()


def test_gadget_factor_linear_sweep_budget():
    import time

    t0 = time.monotonic()
    f = gadget_factor(31, rat(1, 100))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert len(f.entries) == 5  # one entry per partition of the 3-vertex boundary
    assert max(len(c) for c in f.entries.values()) <= 32


def test_small_counterexample_window_on_wide_domain():
    from bunkbed.cli import _ceil_2dp, _floor_2dp

    coeffs, _, _ = counterexample_numerator(3, rat(1, 100))
    roots, negative = integer_negative_region(coeffs, (rat(0), rat(10)), rat(1, 100000))
    assert len(negative) == 1
    lo, hi = negative[0]
    # Inner two-decimal truncation of the certified window.
    assert _ceil_2dp(lo) == rat(70, 100)
    assert _floor_2dp(hi) == rat(108, 100)


def test_touching_brackets_keep_the_negative_gap_between_them():
    # At width 1 the two roots of N_3 get the brackets (1/2, 1) and (1, 3/2).
    # Their shared endpoint q = 1 is no root, and N_3 is negative there.
    coeffs, _, _ = counterexample_numerator(3, rat(1, 100))
    roots, negative = integer_negative_region(coeffs, (rat(0), rat(2)), rat(1))
    assert [(iv.low, iv.high) for iv in roots] == [(rat(1, 2), rat(1)), (rat(1), rat(3, 2))]
    assert sum(coeffs) < 0
    assert negative == [(rat(1, 2), rat(3, 2))]


def test_factor_json_view():
    # Block notation joins one-character labels and comma-separates wider
    # ones; the empty boundary keys its one entry by the empty string.
    edge = edge_factor(0, 1, rat(1, 3))
    assert json.dumps(edge.to_json()) == (
        '{"boundary": [0, 1], "entries": {'
        '"01": "1/3*q^0*l^0*g^0*h^0", "0|1": "2/3*q^0*l^0*g^0*h^0"}}'
    )
    wide = Factor((1, 10, 20), {(0, 0, 1): [1, 2], (0, 1, 0): [0, 3], (0, 1, 2): [5]}, 4)
    assert json.dumps(wide.to_json()) == (
        '{"boundary": [1, 10, 20], "entries": {'
        '"1,10|20": "1/4*q^0*l^0*g^0*h^0 + 1/2*q^1*l^0*g^0*h^0", '
        '"1,20|10": "3/4*q^1*l^0*g^0*h^0", '
        '"1|10|20": "5/4*q^0*l^0*g^0*h^0"}}'
    )
    empty = factor_from_graph(Graph(2, ((0, 1, rat(1, 3)),)), ())
    assert json.dumps(empty.to_json()) == (
        '{"boundary": [], "entries": {"": "1/3*q^1*l^0*g^0*h^0 + 2/3*q^2*l^0*g^0*h^0"}}'
    )


def test_small_counterexample_nonnegative_at_q2():
    coeffs, _, _ = counterexample_numerator(3, rat(1, 100))
    assert sum(c << k for k, c in enumerate(coeffs)) >= 0


def test_gadget_factor_symmetric_in_b_and_c():
    f = gadget_factor(3, rat(1, 100))
    a, b, c = 0, 1, 5
    swapped = f.relabel({b: c, c: b})
    assert swapped.table() == f.table()


def test_mini_hyperedge_pipeline_matches_enumeration():
    # One hyperedge {1,2,3} with post 3, doubled to {1,2,3} and {3,11,12},
    # each slot filled by gadget(1, p) with the apex on the post.  The
    # assembled 7-vertex graph is small enough to enumerate directly.
    p = rat(1, 5)
    base = gadget_factor(1, p)
    a, b, c = 0, 1, 3
    f_down = base.relabel({a: 3, b: 1, c: 2})
    f_up = base.relabel({a: 3, b: 11, c: 12})
    net = FactorNetwork((f_down, f_up), (1, 2, 12))
    contracted = contract_network(net)

    # Assembled graph: skeleton ids 1,2,3,11,12 plus one internal per gadget.
    ids = {1: 0, 2: 1, 3: 2, 11: 3, 12: 4, "x_down": 5, "x_up": 6}
    spoke = 1 - p
    edges = [
        # gadget on {1,2,3}: bottom path 1 - x - 2, spokes from 3
        (ids[1], ids["x_down"], p),
        (ids["x_down"], ids[2], p),
        (ids[3], ids[1], spoke),
        (ids[3], ids["x_down"], spoke),
        (ids[3], ids[2], spoke),
        # gadget on {3,11,12}
        (ids[11], ids["x_up"], p),
        (ids["x_up"], ids[12], p),
        (ids[3], ids[11], spoke),
        (ids[3], ids["x_up"], spoke),
        (ids[3], ids[12], spoke),
    ]
    assembled = Graph(7, tuple(edges))
    expected = factor_from_graph(assembled, (ids[1], ids[2], ids[12])).relabel(
        {ids[1]: 1, ids[2]: 2, ids[12]: 12}
    )
    assert contracted.table() == expected.table()


@st.composite
def coefficient_factors(draw, boundary, count):
    """A factor over `boundary`: distinct RGS keys, each with 1 to `count` integer q-coefficients."""
    k = len(boundary)
    labels = st.lists(st.integers(0, max(k - 1, 0)), min_size=k, max_size=k)
    keys = dict.fromkeys(canonical_rgs(x) for x in draw(st.lists(labels, min_size=1, max_size=12)))
    coeffs = st.lists(st.integers(-50, 50), min_size=1, max_size=count)
    return Factor(tuple(boundary), {key: draw(coeffs) for key in keys})


def _either_encoding(data, count, factors):
    """Points at `count` values, or packed at the width the factors' contraction needs."""
    return data.draw(st.sampled_from([_Points(count), _Packed(_packed_width(factors))]))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.data())
def test_glue_matches_the_join_oracle(data):
    count = data.draw(st.integers(1, 4))
    vertices = st.lists(st.integers(0, 9), max_size=7, unique=True)
    b1 = sorted(data.draw(vertices))
    b2 = sorted(data.draw(vertices))
    if data.draw(st.booleans()):
        b2 = [v + 10 for v in b2]  # disjoint boundaries
    f1 = data.draw(coefficient_factors(b1, count))
    unit = Factor((), {(): [1]})
    f2 = unit if data.draw(st.booleans()) and not b2 else data.draw(coefficient_factors(b2, count))
    enc = _either_encoding(data, count, (f1, f2))
    t1, t2 = _encoded(f1, enc), _encoded(f2, enc)
    union = sorted(set(b1) | set(b2))
    cut = data.draw(
        st.sampled_from([(), tuple(union)]) | st.sets(st.sampled_from(union)) if union else st.just(())
    )
    got, want = _glue(t1, t2, enc, cut), glue_by_join(t1, t2, enc, cut)
    assert got.boundary == want.boundary
    assert list(got.entries.items()) == list(want.entries.items())


def test_glue_of_empty_boundary_tables():
    for enc in (_Points(4), _Packed(8)):
        unit = _unit(enc)
        assert _glue(unit, unit, enc) == glue_by_join(unit, unit, enc) == unit
        table = _encoded(Factor((4, 7), {(0, 0): [1, 1], (0, 1): [5, -3]}), enc)
        for cut in ((), (4,), (4, 7)):
            got = _glue(table, unit, enc, cut)
            assert got == glue_by_join(table, unit, enc, cut)
        # Cutting both vertices: {4, 7} closes one block, {4}{7} two, so
        # (1 + q) q + (5 - 3q) q**2.
        assert got.boundary == () and enc.decode(got.entries[()]) == [0, 1, 6, -3]


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.data())
def test_signed_readout_is_the_difference_of_two_glued_entries(data):
    count = data.draw(st.integers(2, 4))
    vertices = st.lists(st.integers(0, 7), max_size=5, unique=True)
    b1, b2 = sorted(data.draw(vertices)), sorted(data.draw(vertices))
    f1, f2 = data.draw(coefficient_factors(b1, count)), data.draw(coefficient_factors(b2, count))
    enc = _either_encoding(data, count, (f1, f2))
    t1, t2 = _encoded(f1, enc), _encoded(f2, enc)
    union = sorted(set(b1) | set(b2))
    cut = data.draw(st.sets(st.sampled_from(union))) if union else set()
    kept = len(union) - len(cut)
    rgs = st.lists(st.integers(0, max(kept - 1, 0)), min_size=kept, max_size=kept).map(canonical_rgs)
    plus, minus = data.draw(rgs), data.draw(rgs)
    full = _glue(t1, t2, enc, cut)
    readout = _glue(t1, t2, enc, cut, (plus, minus))
    assert readout.boundary == ()
    assert readout.entries.keys() <= {()}
    want = enc.sub(full.entries.get(plus, enc.zero), full.entries.get(minus, enc.zero))
    assert readout.entries.get((), enc.zero) == want
    t1_mass, t2_mass, full_mass = (sum(map(enc.at_one, t.entries.values())) for t in (t1, t2, full))
    assert t1_mass * t2_mass == full_mass


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.data())
def test_glue_chain_through_one_shared_memo_matches_the_oracle(data):
    # Boundaries drawn from six vertices make later glues meet the label
    # strings and kept positions of earlier ones, under other cuts and unions.
    count = data.draw(st.integers(1, 3))
    boundary = st.lists(st.integers(0, 5), max_size=5, unique=True).map(sorted)
    length = data.draw(st.integers(2, 6))
    factors = [data.draw(coefficient_factors(data.draw(boundary), count)) for _ in range(length)]
    enc = _either_encoding(data, count, factors)
    memo = glue._Memo()
    acc, *rest = [_encoded(f, enc) for f in factors]
    for table in rest:
        union = sorted(set(acc.boundary) | set(table.boundary))
        cut = data.draw(st.sets(st.sampled_from(union))) if union else set()
        full = glue_by_join(acc, table, enc, cut)
        signed = ()
        if full.entries and data.draw(st.booleans()):
            signed = tuple(data.draw(st.sampled_from(sorted(full.entries))) for _ in range(2))
        got = _glue(acc, table, enc, cut, signed, memo=memo)
        fresh = _glue(acc, table, enc, cut, signed)
        assert got.boundary == fresh.boundary
        assert list(got.entries.items()) == list(fresh.entries.items())
        if signed:
            plus, minus = (full.entries[key] for key in signed)
            assert got.boundary == () and got.entries == {(): enc.sub(plus, minus)}
        else:
            assert got.boundary == full.boundary
            assert list(got.entries.items()) == list(full.entries.items())
            acc = got


def _contract_as(net, enc):
    """contract_network(net) with its entries forced into the encoding `enc`."""
    return _decoded(*_contract_encoded(net, enc), enc)


def _both_encodings(net):
    """The contraction of `net` packed and on points, each at the size the selection would give it."""
    packed = _contract_as(net, _Packed(_packed_width(net.factors)))
    return packed, _contract_as(net, _Points(_point_count(net)))


@st.composite
def edge_networks(draw, weights):
    """A random connected graph's edge factors with weights drawn from `weights`, one or two queries."""
    n = draw(st.integers(3, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted).map(tuple)
    edges |= set(draw(st.lists(pair, max_size=4)))
    factors = tuple(edge_factor(u, v, draw(weights)) for u, v in sorted(edges))
    queries = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    return FactorNetwork(factors, tuple(queries))


_UNIT_WEIGHTS = st.fractions(0, 1, max_denominator=9)
# Weights outside [0, 1] give signed coefficients: 3/2 -> (3, -1) over 2, -1/2 -> (-1, 3) over 2.
_OUTSIDE_WEIGHTS = st.sampled_from([rat(3, 2), rat(-1, 2), rat(-2), rat(7, 4), rat(-5, 3)])


@pytest.mark.parametrize(
    "weights",
    [_UNIT_WEIGHTS, _OUTSIDE_WEIGHTS, _UNIT_WEIGHTS | _OUTSIDE_WEIGHTS],
    ids=["in-unit", "outside", "mixed"],
)
@settings(deadline=None, max_examples=60, derandomize=True)
@given(data=st.data())
def test_packed_and_points_give_the_same_table_on_edge_networks(weights, data):
    net = data.draw(edge_networks(weights))
    packed, points = _both_encodings(net)
    assert packed.same_table(points)
    assert packed.same_table(contract_network(net))


@st.composite
def gadget_networks(draw):
    """One to three copies of a gadget factor on slots among six vertices, one to three queries.

    The gadget contracts one edge factor per edge of graph.gadget, each with a
    drawn weight; a weight outside [0, 1] gives signed entries.
    """
    n = draw(st.integers(1, 3))
    weight = st.fractions(0, 1, max_denominator=20) | st.sampled_from([rat(3, 2), rat(-1, 2)])
    edges = tuple(edge_factor(u, v, draw(weight)) for u, v, _ in gadget(n, rat(1, 2)).edges)
    base = contract_network(FactorNetwork(edges, (0, 1, n + 2)), order=range(2, n + 2))
    slot = st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True)
    slots = draw(st.lists(slot, min_size=1, max_size=3))
    factors = tuple(base.relabel({0: a, 1: b, n + 2: c}) for a, b, c in slots)
    vertices = sorted({v for f in factors for v in f.boundary})
    queries = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True))
    return FactorNetwork(factors, tuple(queries))


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.data())
def test_packed_and_points_give_the_same_table_on_gadget_networks(data):
    # Gadget entries have degree up to n, so the selection puts these on
    # points; forcing packed checks the width bound on polynomial inputs.
    net = data.draw(gadget_networks())
    packed, points = _both_encodings(net)
    assert packed.same_table(points)
    assert points.same_table(contract_network(net))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.data())
def test_contractions_through_one_shared_memo_match_fresh_ones(data):
    # Edge networks contract packed and gadget networks on points; one memo
    # serves the whole sequence, in planned and explicit orders, as the
    # engine check shares one across its trials.
    networks = edge_networks(_UNIT_WEIGHTS | _OUTSIDE_WEIGHTS) | gadget_networks()
    memo = glue._Memo()
    for net in data.draw(st.lists(networks, min_size=2, max_size=6)):
        pending = sorted({v for f in net.factors for v in f.boundary} - set(net.queries))
        order = data.draw(st.none() | st.permutations(pending))
        shared = contract_network(net, order, memo=memo)
        fresh = contract_network(net, order)
        assert (shared.boundary, shared.den) == (fresh.boundary, fresh.den)
        assert list(shared.entries.items()) == list(fresh.entries.items())


def test_encoding_is_packed_for_constant_entries_and_points_for_the_hollom_layer(monkeypatch):
    grid = _grid_network(3, 4, random.Random(1))
    enc = glue._encoding(grid)
    # 17 edge factors with weights k/7: each entry list sums to 7 in L1.
    assert isinstance(enc, _Packed) and enc.width == (7**17).bit_length() + 2
    net = hollom_network(2, rat(1, 100))
    chosen = []
    real = glue._encoding

    def spy(*args):
        chosen.append(real(*args))
        return chosen[-1]

    monkeypatch.setattr(glue, "_encoding", spy)
    gadget_factor(3, rat(1, 100))
    assert [type(e) for e in chosen] == [_Packed]
    chosen.clear()
    counterexample_numerator(2, rat(1, 100))
    # gadget_factor's build, then the doubled network at its point count.
    assert [type(e) for e in chosen] == [_Packed, _Points]
    assert chosen[1].count == _point_count(net)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.integers(2, 40), st.data())
def test_packed_decode_inverts_encode_on_signed_slots(width, data):
    half = 1 << (width - 1)
    slot = st.integers(-half, half - 1) | st.sampled_from([-half, half - 1, -1])
    coeffs = data.draw(st.lists(slot, max_size=12))
    enc = _Packed(width)
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert enc.decode(enc.encode(coeffs)) == trimmed
    assert enc.at_one(enc.encode(coeffs)) == sum(coeffs)


@pytest.mark.parametrize(
    ("extra", "pattern"),
    [
        ([], r"D \+ 1 = 3 coefficients packed in 19-bit slots$"),
        ([eliminate(multiply(edge_factor(30, 31, rat(1, 3)), edge_factor(31, 32, rat(1, 3))), 31)],
         r"D \+ 1 = 4 point values$"),
    ],
    ids=["packed", "points"],
)
def test_guard_message_names_the_encoding(extra, pattern):
    # 13 edges of weight 1/2 and two of 1/3 pack at bits(2**13 * 3**2) + 2 = 19 bits.
    # The extra factor's entries have degree 1, so points: D = 2 eliminated + 1.
    star = [edge_factor(0, i, rat(1, 2)) for i in range(1, 14)]
    path = [edge_factor(20, 21, rat(1, 3)), edge_factor(21, 22, rat(1, 3))]
    queries = tuple(range(1, 14)) + (20, 22) + tuple(v for f in extra for v in f.boundary)
    net = FactorNetwork(tuple(star + path + extra), queries)
    with pytest.raises(EnumerationGuardError, match=pattern):
        contract_network(net, order=[21, 0])


def _glue_spy(monkeypatch):
    """Record every _glue call as (size of its union of boundaries, its cut)."""
    calls = []
    real_glue = glue._glue

    def spy(t1, t2, enc, cut=(), memo=None):
        calls.append((len(set(t1.boundary) | set(t2.boundary)), set(cut)))
        return real_glue(t1, t2, enc, cut, memo=memo)

    monkeypatch.setattr(glue, "_glue", spy)
    return calls


def _planned(net, order=None):
    boundaries = [f.boundary for f in net.factors]
    pending = {v for b in boundaries for v in b} - set(net.queries)
    return glue._plan(boundaries, pending, order).steps


def _grid_network(rows, cols, rng):
    """A seeded rows x cols grid of edge factors with weights k/7, queried at three corners."""
    factors = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                factors.append(edge_factor(v, v + 1, rat(rng.randint(1, 6), 7)))
            if r + 1 < rows:
                factors.append(edge_factor(v, v + cols, rat(rng.randint(1, 6), 7)))
    return FactorNetwork(tuple(factors), (0, cols - 1, rows * cols - 1))


def _column_sweep(rows, cols, net):
    return [r * cols + c for c in range(cols) for r in range(rows) if r * cols + c not in net.queries]


@pytest.mark.parametrize("rows, cols, sweep_union", [(4, 10, 6), (5, 10, 7)])
def test_planned_grid_order_unions_no_more_than_the_column_sweep(monkeypatch, rows, cols, sweep_union):
    net = _grid_network(rows, cols, random.Random(20240))
    calls = _glue_spy(monkeypatch)
    swept = contract_network(net, order=_column_sweep(rows, cols, net))
    assert max(size for size, _ in calls) == sweep_union
    calls.clear()
    planned = contract_network(net)
    assert max(size for size, _ in calls) <= sweep_union
    assert planned.same_table(swept)


def _partition_spies(monkeypatch):
    """Record every ``project_rgs`` call as (labels, kept positions) and every ``_labels`` call."""
    projected, lifted = [], []
    real_project, real_labels = glue.project_rgs, glue._labels

    def project_spy(labels, keep):
        projected.append((labels, tuple(keep)))
        return real_project(labels, keep)

    def labels_spy(idx, k, rgs):
        lifted.append((tuple(idx), k, rgs))
        return real_labels(idx, k, rgs)

    monkeypatch.setattr(glue, "project_rgs", project_spy)
    monkeypatch.setattr(glue, "_labels", labels_spy)
    return projected, lifted


def test_contraction_projects_and_lifts_each_partition_once(monkeypatch):
    # One memo serves every glue of a contraction: each (joined string, kept
    # positions) pair is projected once and each lift is built once, and a
    # second contraction starts from an empty memo, so it repeats the counts.
    net = _grid_network(5, 10, random.Random(20240))
    projected, lifted = _partition_spies(monkeypatch)
    first = contract_network(net)
    counts = len(projected), len(lifted)
    assert counts[0] == len(set(projected)) and counts[1] == len(set(lifted))
    projected.clear()
    lifted.clear()
    assert contract_network(net).same_table(first)
    assert (len(projected), len(lifted)) == counts


def test_engine_check_projects_and_lifts_each_partition_once(monkeypatch):
    # One memo serves the check's 400 contractions (5 920 projections and
    # 3 561 lifts with one memo per contraction), and a second check starts
    # from an empty one, so it repeats the counts.
    projected, lifted = _partition_spies(monkeypatch)
    for _ in range(2):
        projected.clear()
        lifted.clear()
        assert check_engine_consistency(trials=200, seed=20240).verdict == HOLDS
        assert (len(projected), len(lifted)) == (593, 185)
        assert (len(set(projected)), len(set(lifted))) == (593, 185)


@pytest.mark.parametrize("n", [3, 11])
def test_hollom_network_keeps_the_greedy_order(monkeypatch, n):
    net = hollom_network(n, rat(1, 100))
    order = [11, 12, 2, 6, 7, 14, 16, 17, 19, 4, 3, 8, 5, 9]
    steps = _planned(net)
    assert [u for v, _, cut, _ in steps for u in [v] + sorted(cut - {v})] == order
    calls = _glue_spy(monkeypatch)
    contract_network(net)
    assert [u for _, cut in calls if cut for u in sorted(cut)] == order


def test_plan_predicts_the_unions_the_contraction_glues(monkeypatch):
    rng = random.Random(5)
    nets = [hollom_network(2, rat(1, 100)), _grid_network(3, 5, rng), _grid_network(4, 4, rng)]
    for _ in range(6):
        n = rng.randint(5, 8)
        edges = _random_connected_graph(rng, n, rng.randint(0, 5))
        factors = tuple(edge_factor(u, v, rat(rng.randint(1, 4), 5)) for u, v in edges)
        nets.append(FactorNetwork(factors, tuple(rng.sample(range(n), 2))))
    calls = _glue_spy(monkeypatch)
    for net in nets:
        pending = sorted({v for f in net.factors for v in f.boundary} - set(net.queries))
        for order in (None, pending[::-1]):
            calls.clear()
            contract_network(net, order=order)
            # Each step's glue with a cut builds the step's whole union.
            steps = _planned(net, order)
            assert [(size, cut) for size, cut in calls if cut] == [(m, c) for _, _, c, m in steps]
            assert max(size for size, _ in calls) == max(m for *_, m in steps)


@pytest.mark.parametrize("order", [None, [21, 0]])
def test_guard_trips_before_any_glue(monkeypatch, order):
    star = [edge_factor(0, i, rat(1, 2)) for i in range(1, 14)]
    path = [edge_factor(20, 21, rat(1, 3)), edge_factor(21, 22, rat(1, 3))]
    net = FactorNetwork(tuple(star + path), tuple(range(1, 14)) + (20, 22))
    calls = _glue_spy(monkeypatch)
    with pytest.raises(EnumerationGuardError, match=r"the plan's largest boundary has 14 vertices"):
        contract_network(net, order=order)
    assert calls == []


def test_growth_plan_wins_on_the_6x6_grid():
    # Greedy grows several fronts on the 6 x 6 grid (largest union 9), while
    # connected growth sweeps it (8), so the plan keeps growth.
    grid = _grid_network(6, 6, random.Random(1))
    assert max(m for *_, m in _planned(grid)) == 8
    boundaries = [f.boundary for f in grid.factors]
    pending = {v for b in boundaries for v in b} - set(grid.queries)
    greedy = glue._Replay(boundaries, pending)
    while greedy.pending:
        greedy.eliminate(min(greedy.pending, key=lambda u: (len(greedy.union[u]), u)))
    assert greedy.top == 9


def test_plan_keeps_the_greedy_order_when_growth_only_ties():
    # Growth takes 0 right after 2; both orders have largest union 3 and
    # Bell sum 2 + 2 + 2 + 5 = 11, so the plan keeps the greedy order.
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (3, 5)]
    net = FactorNetwork(tuple(edge_factor(u, v, rat(1, 2)) for u, v in edges), (1, 3))
    boundaries, pending = [f.boundary for f in net.factors], {0, 2, 4, 5}
    growth = glue._Replay(boundaries, pending)
    while growth.pending:
        growth.eliminate(growth.grown())
    assert [s[0] for s in growth.steps] == [2, 0, 4, 5] and (growth.top, growth.bells) == (3, 11)
    plan = glue._plan(boundaries, pending)
    assert [s[0] for s in plan.steps] == [2, 4, 5, 0] and (plan.top, plan.bells) == (3, 11)


def _factor(boundary, entries, den):
    return Factor(tuple(boundary), {canonical_rgs(k): list(v) for k, v in entries.items()}, den)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.data())
def test_same_table_agrees_with_table_equality(data):
    keys = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    coeffs = st.lists(st.integers(-3, 3), max_size=3)
    entries = {k: data.draw(coeffs) for k in data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))}
    den = data.draw(st.integers(1, 6))
    a = _factor((0, 1, 2), entries, den)
    scale = data.draw(st.integers(1, 4))
    other = {k: [c * scale for c in v] + [0] * data.draw(st.integers(0, 2)) for k, v in entries.items()}
    change = data.draw(st.sampled_from(["none", "value", "drop", "add", "boundary"]))
    boundary = (0, 1, 2)
    if change == "value":
        k = data.draw(st.sampled_from(sorted(other)))
        other[k] = other[k] + [data.draw(st.integers(-2, 2))]
    elif change == "drop" and len(other) > 1:
        del other[data.draw(st.sampled_from(sorted(other)))]
    elif change == "add":
        other.setdefault(data.draw(st.sampled_from(keys)), [0])
    elif change == "boundary":
        boundary = (0, 1, 3)
    b = _factor(boundary, other, den * scale)
    # table() keys are RGS tuples without their ground, so the boundary is compared beside them.
    same = (a.boundary, a.table()) == (b.boundary, b.table())
    assert a.same_table(b) == same == b.same_table(a)


def test_same_table_keeps_all_zero_entries():
    a = _factor((4, 7), {(0, 0): [1, 2], (0, 1): []}, 3)
    b = _factor((4, 7), {(0, 0): [2, 4, 0], (0, 1): [0, 0]}, 6)
    c = _factor((4, 7), {(0, 0): [2, 4]}, 6)
    assert a.same_table(b) and a.table() == b.table()
    assert not a.same_table(c) and a.table() != c.table()
