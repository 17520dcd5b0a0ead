"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Everything here is exact; "tolerance" appears only where a printed
two-decimal table is compared (0.01 per endpoint, as stated).
"""

import time
from itertools import combinations

from bunkbed.catalog import connected_graphs, identity_catalog, named_graph, named_instance
from bunkbed.cli import KNOWN_FAILURE_WINDOWS, negative_window_rows
from bunkbed.exactnum import (
    MultiPoly,
    isolate_negative_region,
    rat,
    sturm_chain,
    sturm_count,
)
from bunkbed.graph import Graph
from bunkbed.measures import alt_colouring_counts, hypergraph_rc_difference
from bunkbed.graph import hollom_instance
from bunkbed.verify import (
    DEFAULT_P_GRID,
    DEFAULT_Q_GRID,
    HOLDS,
    OPEN_OK,
    SKIPPED,
    check_bunkbed,
    check_engine_consistency,
    check_hypergraph_factorization,
    check_p_threshold,
    run_identity_suite,
    scan_conjectures,
)

CUBIC = MultiPoly({(3, 0, 0, 0): 1, (2, 0, 0, 0): -5, (1, 0, 0, 0): 10, (0, 0, 0, 0): -7})


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_failure_window_table():
    start = time.monotonic()
    n_values = (3, 4, 5, 6, 11, 21, 31)
    rows = negative_window_rows(n_values, rat(1, 100))
    ok = True
    shown = []
    for row in rows:
        good = (
            row.get("status") == "ok"
            and len(row.get("windows", ())) == 1
            and row.get("matches_known") is True
        )
        ok &= good
        ok &= row.get("z_at_1") == "1"
        shown.append(f"n={row['n']}:{row.get('window_2dp')}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 600
    _criterion(
        "criterion-01 failure window table (n=3..31, p=1/100)",
        ok,
        f"{'; '.join(shown)}; {elapsed:.0f}s",
    )


def test_criterion_02_hypergraph_factorization():
    start = time.monotonic()
    rep = check_hypergraph_factorization()
    elapsed = time.monotonic() - start
    ok = rep.verdict == HOLDS and elapsed < 5
    _criterion(
        "criterion-02 hypergraph difference factorizes as c*g^6*h^6*q^5*cubic",
        ok,
        f"c={rep.quantities['constant']}, {elapsed:.2f}s",
    )


def test_criterion_03_root_certification():
    # One real root in all: every one lies inside the Cauchy bound 11.
    assert sturm_count(sturm_chain(CUBIC.dense_in("q")), rat(-11), rat(11)) == 1
    roots, _ = isolate_negative_region(CUBIC, (rat(0), rat(10)), rat(1, 1000))
    ok = (
        len(roots) == 1
        and rat(142, 100) <= roots[0].low
        and roots[0].high <= rat(144, 100)
    )
    _criterion(
        "criterion-03 unique real root of q^3-5q^2+10q-7 inside [1.42, 1.44]",
        ok,
        f"({float(roots[0].low):.4f}, {float(roots[0].high):.4f})",
    )


def test_criterion_04_q2_and_named_graph_grids():
    ok = True
    for name, g in connected_graphs(4):
        rep = check_bunkbed(g, p_grid=DEFAULT_P_GRID, q_grid=(rat(2),), instance=name)
        # A one-vertex graph has no pair to test.
        ok &= rep.verdict == (SKIPPED if g.n < 2 else HOLDS)
    for name in ("K3", "K4", "K22", "K23"):
        rep = check_bunkbed(
            named_graph(name), p_grid=DEFAULT_P_GRID, q_grid=DEFAULT_Q_GRID, instance=name
        )
        ok &= rep.verdict == HOLDS
    _criterion("criterion-04 doubled-graph difference >= 0 on the stated grids", ok)


def test_criterion_05_colouring_counts():
    left = named_instance("fig4-left")
    right = named_instance("fig4-right")
    counts_l = alt_colouring_counts(left.graph, left.posts, left.u, left.v)
    counts_r = alt_colouring_counts(right.graph, right.posts, right.u, right.v)
    ok = counts_l == (6, 4, 14) and counts_r == (8, 2, 14)
    _criterion(
        "criterion-05 two-colour model counts (6,4)/14 and (8,2)/14",
        ok,
        f"left={counts_l}, right={counts_r}",
    )


def test_criterion_06_identity_suites_exact():
    suites = (
        "resistance-bracket",
        "cross-inner",
        "pseudoinverse-blocks",
        "resistance-matrix",
        "bsst",
        "choe",
        "strong-rayleigh",
        "rayleigh",
    )
    catalog = identity_catalog()
    ok = True
    details = []
    for suite in suites:
        rep = run_identity_suite(suite, catalog)
        good = rep.verdict == HOLDS and rep.quantities.get("skipped") is None
        ok &= good
        details.append(f"{suite}:{'ok' if good else 'FAIL'}")
    _criterion(
        "criterion-06 exact identity suites on the catalog", ok, ", ".join(details)
    )


def test_criterion_07_two_component_ordering():
    rep = run_identity_suite("bunkbed-tree-stratum", identity_catalog())
    ok = rep.verdict == HOLDS and rep.quantities.get("skipped") is None
    _criterion(
        "criterion-07 two-component forest ordering and resolvent/posts gaps", ok
    )


def test_criterion_08_p_threshold():
    ok = True
    count = 0
    for name, g in connected_graphs(4):
        vertices = list(range(g.n))
        for r in range(g.n + 1):
            for posts in combinations(vertices, r):
                for q in (rat(1, 2), rat(1), rat(2)):
                    rep = check_p_threshold(g, posts, q, instance=name)
                    # Posts that leave fewer than two vertices leave no pair to test.
                    ok &= rep.verdict == (SKIPPED if g.n - r < 2 else HOLDS)
                    count += 1
    _criterion(
        "criterion-08 difference >= 0 at and above the near-1 threshold",
        ok,
        f"{count} (graph, posts, q) cases",
    )


def test_criterion_09_weak_limits():
    rep = run_identity_suite("weak-limit", identity_catalog())
    ok = rep.verdict == HOLDS and rep.quantities.get("skipped") is None
    _criterion(
        "criterion-09 low-q strata reproduce forest and spanning-tree measures", ok
    )


def test_criterion_10_conjecture_scans():
    reports = scan_conjectures(seed=20240, weightings=20)
    by_claim = {r.claim: r for r in reports}
    wanted = {
        "bunkbed-forest-conjecture": OPEN_OK,
        "alt-model-counts": HOLDS,
        "outerplanar-triple-product": HOLDS,
        "forest-harris-conjecture": OPEN_OK,
        "edge-negative-correlation": OPEN_OK,
        "identity-four-point-leading": HOLDS,
        "four-point-forest-conjecture": OPEN_OK,
    }
    ok = True
    for claim, verdict in wanted.items():
        got = by_claim[claim].verdict
        if got != verdict:
            ok = False
            print(f"    {claim}: {got} (witness: {by_claim[claim].witness})")
    _criterion("criterion-10 conjecture scans report no violation", ok)


def test_criterion_11_engine_self_consistency():
    rep = check_engine_consistency(trials=50, seed=4099)
    ok = rep.verdict == HOLDS
    _criterion(
        "criterion-11 contraction equals enumeration on 50 random networks "
        "and is order-invariant",
        ok,
    )
