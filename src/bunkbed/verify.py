"""Named claim checkers producing structured verification reports.

Each checker evaluates one exact statement (identity, inequality, or count)
over explicit instances and grids and returns a VerificationReport.  Proven
statements report "holds" or "fails"; open statements report
"open-conjecture-no-violation" unless a violation is found, in which case the
witness instance is recorded with enough data to recompute it exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product

from .catalog import (
    connected_graphs,
    identity_catalog,
    named_graph,
    named_instance,
    outerplanar_catalog,
)
from .exactnum import (
    Rational,
    _eval_scaled,
    format_rational,
    parse_rational,
    psd_certificate,
    rat,
)
from .glue import FactorNetwork, _Memo, contract_network, edge_factor, factor_from_graph
from .graph import (
    Graph,
    bunkbed,
    bunkbed_copies,
    hollom_instance,
    minor,
    pair_orbits,
)
from .measures import (
    EnumerationGuardError,
    ParameterError,
    _at_activity,
    alt_colouring_counts,
    bunkbed_case_profiles,
    check_parameters,
    forest_table,
    hypergraph_rc_difference,
    rc_profile,
)
from .partition import canonicalize
from .treealg import (
    LaplacianBundle,
    PostsBundle,
    _bunkbed_pinv_and_resolvent,
    all_minors_count,
    bunkbed_pseudoinverse,
)

__all__ = [
    "VerificationReport",
    "DEFAULT_P_GRID",
    "DEFAULT_Q_GRID",
    "DEFAULT_LAMBDA_GRID",
    "check_bunkbed",
    "check_p_threshold",
    "run_identity_suite",
    "scan_conjectures",
    "check_hypergraph_factorization",
    "hollom_cubic",
    "check_engine_consistency",
    "IDENTITY_SUITES",
]

HOLDS = "holds"
FAILS = "fails"
OPEN_OK = "open-conjecture-no-violation"
SKIPPED = "skipped"

DEFAULT_P_GRID = tuple(rat(k, 10) for k in range(1, 10))
DEFAULT_Q_GRID = (rat(1, 2), rat(1), rat(3, 2), rat(2), rat(3))
DEFAULT_LAMBDA_GRID = (rat(1, 10), rat(1, 2), rat(1), rat(2), rat(10))
# scan_conjectures reads the connected graphs on at most this many vertices.
_SCAN_MAX_N = 4


@dataclass
class VerificationReport:
    claim: str
    instance: str
    verdict: str
    quantities: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    witness: dict | None = None

    def to_json(self) -> dict:
        doc = {
            "claim": self.claim,
            "instance": self.instance,
            "verdict": self.verdict,
            "quantities": self.quantities,
            "grid": self.grid,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc

    @property
    def ok(self) -> bool:
        return self.verdict in (HOLDS, OPEN_OK)


def _grid_doc(**grids) -> dict:
    return {k: [format_rational(x) for x in v] for k, v in grids.items() if v is not None}


# ---------------------------------------------------------------------------
# Bunkbed difference checks
# ---------------------------------------------------------------------------


_MEASURES = ("random-cluster", "percolation", "arboreal")


def _case_rows(bb: Graph, triples) -> list:
    """Per (u1, v1, v2) triple, the rows D[kappa][s] of signed subset counts.

    D[kappa][s] counts the subsets with s edges and kappa components joining u1
    to v1, minus those joining u1 to v2: Z (P[u1<->v1] - P[u1<->v2]) is their
    sum weighted by p^s (1-p)^(m-s) q^kappa.
    """
    rows = []
    for prof in bunkbed_case_profiles(bb, triples):
        d = [[0] * (bb.m + 1) for _ in range(bb.n + 1)]
        for ((a, b, c), s, kappa), count in prof.items():
            d[kappa][s] += ((a == b) - (a == c)) * count
        rows.append(d)
    return rows


def _rc_differences(rows, p_grid, q_grid) -> list:
    """Z (P[u1<->v1] - P[u1<->v2]) at each (p, q) of p_grid x q_grid, p outermost.

    Each row read homogeneously at (a, b - a) for p = a/b is b^m times its
    p-polynomial, so p = 1 needs no special case; the rows are read once per p,
    and the q-polynomial of those values at q = c/d carries d^n.
    """
    out = []
    for p in p_grid:
        a, b = int(p.numerator), int(p.denominator)
        by_kappa = [_eval_scaled(row, a, b - a) for row in rows]
        scale = b ** (len(rows[0]) - 1)
        for q in q_grid:
            c, d = int(q.numerator), int(q.denominator)
            out.append(Rational(_eval_scaled(by_kappa, c, d), scale * d ** (len(rows) - 1)))
    return out


def _forest_lists(bb: Graph, triples) -> list:
    """Per triple, the kappa-lists of event(u1<->v1) - event(u1<->v2) and of event()."""
    lists = []
    for triple in triples:
        ft = forest_table(bb, triple)
        same = ft.event(lambda rgs: rgs[0] == rgs[1])
        cross = ft.event(lambda rgs: rgs[0] == rgs[2])
        lists.append(([x - y for x, y in zip(same, cross)], ft.event()))
    return lists


def _arboreal_differences(lists, lam_grid) -> list:
    """P[u1<->v1] - P[u1<->v2] at each activity of lam_grid: the two lists read by ``_at_activity``."""
    diff, total = lists
    return [Rational(_at_activity(diff, lam), _at_activity(total, lam)) for lam in lam_grid]


def _bunkbed_minimum(g: Graph, posts, measure: str, grids, pairs=None):
    """First minimum (diff, (u, v), point) of the bunkbed difference, or None with no pair.

    Without `pairs` the scan reads the first pair of each orbit from
    `pair_orbits`.  Per pair (u, v), the rows of the triple (u1, v1, v2) of
    `bunkbed(g, posts)` are read at the points of product(*grids): the
    random-cluster rows over (p, q), the arboreal lists over lambda.  Pairs
    run outermost; a later pair or point replaces the minimum only when
    strictly smaller.
    """
    arboreal = measure == "arboreal"
    if pairs is None:
        # The random-cluster rows count unweighted subsets; the forest lists read g's weights.
        pairs = pair_orbits(g if arboreal else g.with_weights(1), posts)
    if not pairs:
        return None
    build, values = (_forest_lists, _arboreal_differences) if arboreal else (_case_rows, _rc_differences)
    triples = [(bunkbed_copies(g, posts, a)[0], *bunkbed_copies(g, posts, b)) for a, b in pairs]
    points = list(product(*grids))
    best = None
    for pair, poly in zip(pairs, build(bunkbed(g, posts), triples)):
        for point, diff in zip(points, values(poly, *grids), strict=True):
            if best is None or diff < best[0]:
                best = (diff, pair, point)
    return best


def _no_pair_report(claim: str, instance: str) -> VerificationReport:
    """The report of a check that has no non-post pair, and so tests nothing."""
    return VerificationReport(
        claim=claim, instance=instance, verdict=SKIPPED, quantities={"note": "no non-post pair to test"}
    )


def check_bunkbed(
    g: Graph,
    posts=None,
    measure: str = "random-cluster",
    u: int | None = None,
    v: int | None = None,
    p_grid=DEFAULT_P_GRID,
    q_grid=DEFAULT_Q_GRID,
    lam_grid=DEFAULT_LAMBDA_GRID,
    open_conjecture: bool = False,
    instance: str = "graph",
) -> VerificationReport:
    """Minimum of the bunkbed difference over a grid; its sign decides the verdict.

    The bunkbed is `bunkbed(g, posts)`: posts=None means all verticals, and a
    post set (the empty set included) means posts contracted.  `measure` is random-cluster over
    (p, q), percolation over p at q=1, or arboreal over the lambda grid.  The
    first two put p on every edge; the arboreal gas weighs each vertical 1/2.
    min_difference is the unnormalised numerator Z (P[u1<->v1] - P[u1<->v2])
    for random-cluster and percolation, equal to the probability difference
    only at q = 1, and the probability difference itself for the arboreal gas;
    either way its sign is that of P[u1<->v1] - P[u1<->v2].  Pairs with a
    post are skipped, since u1 = u2 there makes the difference identically 0;
    with no pair left the verdict is SKIPPED.
    Without (u, v) the scan reads the first pair of each orbit from
    `pair_orbits`: an automorphism of g that keeps the posts, and the layer
    swap that turns (u, v) into (v, u), leave the polynomial unchanged, so the
    first pair reaching the minimum is the one a scan of every pair finds.
    """
    if measure not in _MEASURES:
        raise ParameterError(f"unknown measure {measure!r}; choices: {', '.join(_MEASURES)}")
    check_parameters(p=p_grid, q=q_grid, lam=lam_grid)
    others = sorted(set(range(g.n)) - set(posts or ()))
    if (u is None) != (v is None):
        raise ParameterError("give both u and v, or neither")
    if u is not None and (u == v or not {u, v} <= set(others)):
        raise ParameterError(f"pair ({u},{v}) must be two distinct non-post vertices of the graph")
    if measure == "arboreal":
        names, grid = ("lambda",), {"lam": lam_grid}
    else:
        names = ("p", "q")
        grid = {"p": p_grid, "q": q_grid if measure == "random-cluster" else (rat(1),)}
    for name, values in grid.items():
        if not values:
            raise ParameterError(f"{name}_grid is empty; the {measure} check reads it")
    claim = f"bunkbed-difference-{measure}"
    best = _bunkbed_minimum(g, posts, measure, grid.values(), None if u is None else [(u, v)])
    if best is None:
        return _no_pair_report(claim, instance)
    diff, (a, b), at = best
    point = {name: format_rational(x) for name, x in zip(names, at)}
    good = diff >= 0
    verdict = (OPEN_OK if open_conjecture else HOLDS) if good else FAILS
    witness = None if good else {"u": a, "v": b, **point, "difference": format_rational(diff)}
    return VerificationReport(
        claim=claim,
        instance=instance,
        verdict=verdict,
        quantities={"min_difference": format_rational(diff), "at_pair": f"({a},{b})", **point},
        grid=_grid_doc(**grid),
        witness=witness,
    )


def check_p_threshold(g: Graph, posts, q, instance: str = "graph") -> VerificationReport:
    """Difference sign at and above the near-1 threshold for the conditioned bunkbed.

    The threshold is 1/(1 + t) with t = q**n / 2**(|E|/2 + 1) for n the
    contracted bunkbed order and |E| the base edge count; for odd |E| the
    half-integer power of two is underestimated through sqrt(2) < 3/2, which
    only raises the tested p.  The evaluation points are the threshold rounded
    up to denominator 10**4 and two larger values.  As in `check_bunkbed`,
    the scan reads the first pair of each orbit from `pair_orbits`, and with
    no non-post pair the verdict is SKIPPED.
    """
    posts = frozenset(posts)
    q = rat(q)
    check_parameters(q=(q,))
    m_base = g.m

    def t_value(n_exp):
        if m_base % 2 == 0:
            return q**n_exp / rat(2) ** (m_base // 2 + 1)
        return q**n_exp * rat(2, 3) / rat(2) ** ((m_base + 1) // 2)

    # The two-layer order can be read before or after contracting the posts;
    # take the larger threshold so the tested p is safe under either reading.
    t = min(t_value(2 * g.n - len(posts)), t_value(2 * g.n))
    p_star = 1 / (1 + t)
    scaled = p_star * 10**4
    p0 = rat(int(scaled.numerator // scaled.denominator) + 1, 10**4)
    if p0 >= 1:
        p0 = (p_star + 1) / 2
    p_values = (p0, (p0 + 1) / 2, (p0 + 3) / 4)
    best = _bunkbed_minimum(g, posts, "random-cluster", (p_values, (q,)))
    if best is None:
        return _no_pair_report("p-threshold", instance)
    diff, (a, b), (p, _) = best
    verdict = HOLDS if diff >= 0 else FAILS
    return VerificationReport(
        claim="p-threshold",
        instance=instance,
        verdict=verdict,
        quantities={
            "threshold": format_rational(p0),
            "q": format_rational(q),
            "min_difference": format_rational(diff),
            "at_pair": f"({a},{b})",
            "at_p": format_rational(p),
        },
        grid=_grid_doc(p=p_values),
        witness=None if diff >= 0
        else {"u": a, "v": b, "p": format_rational(p), "q": format_rational(q)},
    )


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


# The three ways to pair four marked positions as xy|zw, as (x, y, z, w).
_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def _split_patterns(x, y, z, w):
    """RGS patterns of four marked positions that separate x from y.

    Returns the four two-block patterns, ending [xz|yw], [xw|yz], and the
    four three-block patterns, whose pair also separates z from w.
    """
    two = (
        canonicalize(range(4), ((x,), (y, z, w))),
        canonicalize(range(4), ((x, z, w), (y,))),
        canonicalize(range(4), ((x, z), (y, w))),
        canonicalize(range(4), ((x, w), (y, z))),
    )
    three = (
        canonicalize(range(4), ((x,), (y, z), (w,))),
        canonicalize(range(4), ((x,), (y, w), (z,))),
        canonicalize(range(4), ((y,), (x, z), (w,))),
        canonicalize(range(4), ((y,), (x, w), (z,))),
    )
    return two, three


def _split_keys(x, y, z, w, extra=0):
    """``_split_patterns``' two- and three-block patterns as (pattern, kappa) entry keys.

    Returns the keys of the patterns separating x from y, of those separating
    z from w, and of the three-block ones, each at its minimal component count
    plus `extra`, the entry that ``BoundaryTable.bracket`` reads.
    """
    xy, three = _split_patterns(x, y, z, w)
    zw, _ = _split_patterns(z, w, x, y)
    return tuple(tuple((t, max(t) + 1 + extra) for t in ts) for ts in (xy, zw, three))


# Per pairing xy|zw: its positions and the keys of [xz|yw] and [xw|yz] at two components.
_CROSS_INNER_KEYS = tuple((pos, *_split_keys(*pos)[0][2:]) for pos in _PAIRINGS)
# Per pairing xy|zw: the keys separating x from y, z from w, and the three-block ones.
_CHOE_KEYS = tuple(_split_keys(*pos) for pos in _PAIRINGS)
# Per extra component: the keys separating a from b, c from d, the three-block
# ones and [abcd], over the marked (a, b, c, d).
_LEADING_KEYS = tuple((*_split_keys(0, 1, 2, 3, extra), ((0,) * 4, 1 + extra)) for extra in (0, 1))


def _suite_resistance_bracket(g: Graph) -> bool:
    bundle = LaplacianBundle(g)
    ft = forest_table(g, range(g.n))
    trees = ft.bracket((0,) * g.n)
    for u_, v_ in combinations(range(g.n), 2):
        # Same bracket two ways: the grounded-inverse read and forest enumeration.
        split = bundle.pair_count(u_, v_)
        by_forest = sum(
            w for (rgs, kappa), w in ft.entries.items() if kappa == 2 and rgs[u_] != rgs[v_]
        )
        if split * ft.den != by_forest:
            return False
        if bundle.resistance(u_, v_) != rat(split) / trees:
            return False
    return True


def _suite_cross_inner(g: Graph) -> bool:
    if g.n < 4:
        return True
    bundle = LaplacianBundle(g)
    ft_all = forest_table(g, range(g.n))
    trees = ft_all.entries.get(((0,) * g.n, 1), 0)
    # Entries are den times the brackets, so den cancels in their ratio.
    for ft in ft_all.subsets(4, (2,)):
        get, quad = ft.entries.get, ft.marked
        for pos, xz_yw, xw_yz in _CROSS_INNER_KEYS:
            diff = get(xz_yw, 0) - get(xw_yz, 0)
            if bundle.cross_inner(*map(quad.__getitem__, pos)) != Rational(diff, trees):
                return False
    return True


def _suite_pseudoinverse_blocks(g: Graph) -> bool:
    try:
        bunkbed_pseudoinverse(g)
    except ValueError:
        return False
    return True


def _suite_resistance_matrix(g: Graph) -> bool:
    bundle = LaplacianBundle(g)
    lap, pinv = bundle.lap, bundle.pinv
    r = bundle.resistance_matrix()
    return (
        lap * r * lap == lap * rat(-2)
        and pinv * r * pinv == pinv * pinv * pinv * rat(-2)
    )


def _tree_pair_counts(g: Graph):
    """(trees, through, pairs) of g with unit weights, read off one all-vertex forest table.

    through[e] counts the spanning trees through edge e, and pairs[e, f] for
    e < f is (the trees through e and f, X+, X-) with (X+, X-) the
    orientation counts of the pair (``tests/bsst_oracle.py`` has per-pair
    references).  A tree through e, less e, is a two-tree forest that
    separates e's ends; through e and f, less both, three trees that e and f
    join into one.  A two-tree forest that separates both edges' ends is one
    of g - {e, f}, an X+ when u_f lies in v_e's tree.
    """
    entries = forest_table(g.with_weights(1), range(g.n)).entries
    trees = entries.get(((0,) * g.n, 1), 0)
    two = [(rgs, c) for (rgs, kappa), c in entries.items() if kappa == 2]
    three = [(rgs, c) for (rgs, kappa), c in entries.items() if kappa == 3]
    ends = [(u, v) for u, v, _ in g.edges]
    through = [sum(c for rgs, c in two if rgs[u] != rgs[v]) for u, v in ends]
    pairs = {}
    for e, f in combinations(range(g.m), 2):
        (ue, ve), (uf, vf) = ends[e], ends[f]
        both = sum(
            c for rgs, c in three
            if rgs[ue] != rgs[ve] and rgs[uf] != rgs[vf] and len({rgs[ue], rgs[ve], rgs[uf], rgs[vf]}) == 3
        )
        apart = [(rgs, c) for rgs, c in two if rgs[ue] != rgs[ve] and rgs[uf] != rgs[vf]]
        x_plus = sum(c for rgs, c in apart if rgs[uf] == rgs[ve])
        pairs[e, f] = (both, x_plus, sum(c for _, c in apart) - x_plus)
    return trees, through, pairs


def _suite_bsst(g: Graph) -> bool:
    """[e][f] - [.][e,f] = (X+ - X-)^2 per edge pair; every count from `_tree_pair_counts`."""
    trees, through, pairs = _tree_pair_counts(g)
    return all(
        through[e] * through[f] - trees * both == (xp - xm) ** 2
        for (e, f), (both, xp, xm) in pairs.items()
    )


def _suite_choe(g: Graph) -> bool:
    if g.n < 4:
        return True
    ft_all = forest_table(g, range(g.n))
    total = ft_all.entries.get(((0,) * g.n, 1), 0)
    # Every key below reads two or three components.  Entries are den times
    # the brackets, and each side is a sum of products of two, so den^2 cancels.
    for ft in ft_all.subsets(4, (2, 3)):
        get = ft.entries.get
        for xy, zw, three in _CHOE_KEYS:
            lhs = sum(get(k, 0) for k in xy)
            rhs = sum(get(k, 0) for k in zw)
            cross = get(xy[3], 0) - get(xy[2], 0)
            if lhs * rhs != sum(get(k, 0) for k in three) * total + cross**2:
                return False
    return True


def _connected_spanning_subgraph(g: Graph, drop_edge: int) -> Graph | None:
    h = minor(g, deletions={drop_edge})
    return h if h.is_connected() else None


def _suite_strong_rayleigh(g: Graph) -> bool:
    if g.n < 2:
        return True
    bundle_g = LaplacianBundle(g)
    for f in range(g.m):
        h = _connected_spanning_subgraph(g, f)
        if h is None:
            continue
        diff = LaplacianBundle(h).pinv - bundle_g.pinv
        # A PSD difference also gives every Cauchy-Schwarz inequality
        # <Dx, y>**2 <= <Dx, x><Dy, y>; tests check those as an oracle.
        ok, _ = psd_certificate(diff)
        if not ok:
            return False
    return True


def _suite_rayleigh(g: Graph) -> bool:
    subgraphs = [
        h for f in range(g.m) if (h := _connected_spanning_subgraph(g, f)) is not None
    ]
    if not subgraphs:
        return True
    pairs = list(combinations(range(g.n), 2))

    # pair_count / tau = (M_uu + M_vv - 2 M_uv) / M.den: tau cancels, so each
    # ratio is an integer numerator over its bundle's den, compared crosswise.
    def pair_numerators(bundle):
        num = bundle.inverse.num
        return [num[u_][u_] + num[v_][v_] - 2 * num[u_][v_] for u_, v_ in pairs], bundle.inverse.den

    nums_g, den_g = pair_numerators(LaplacianBundle(g))
    for h in subgraphs:
        nums_h, den_h = pair_numerators(LaplacianBundle(h))
        if any(a * den_h > b * den_g for a, b in zip(nums_g, nums_h)):
            return False
    return True


def _suite_four_point_leading(g: Graph) -> bool:
    if g.n < 4:
        return True
    ft_all = forest_table(g, range(g.n))
    # Every key below reads one to four components: up to three blocks and one
    # extra.  Both sides are sums of products of two entries, so den^2 cancels.
    for ft in ft_all.subsets(4, range(1, 5)):
        get = ft.entries.get

        # Per extra component: sums over ab, cd and the three-block patterns,
        # [abcd], and [ac|bd] - [ad|bc].
        def sums(ab, cd, three, abcd):
            brackets = [sum(get(k, 0) for k in ks) for ks in (ab, cd, three)]
            return (*brackets, get(abcd, 0), get(ab[2], 0) - get(ab[3], 0))

        ab0, cd0, three0, abcd0, cross0 = sums(*_LEADING_KEYS[0])
        ab1, cd1, three1, abcd1, cross1 = sums(*_LEADING_KEYS[1])
        lhs = ab0 * cd1 + cd0 * ab1
        rhs = three0 * abcd1 + three1 * abcd0 + 2 * cross0 * cross1
        if lhs > rhs:
            return False
    return True


def _suite_bunkbed_tree_stratum(g: Graph) -> bool:
    """Two-component forest ordering on the doubled graph plus the gap identity."""
    n = g.n
    doubled, resolvent = _bunkbed_pinv_and_resolvent(g)
    pinv = doubled.pinv
    p, r = pinv.num, resolvent.num
    for u_ in range(n):
        for v_ in range(n):
            if u_ == v_:
                continue
            u1, _ = bunkbed_copies(g, None, u_)
            v1, v2 = bunkbed_copies(g, None, v_)
            same = doubled.pair_count(u1, v1)
            cross_ = doubled.pair_count(u1, v2)
            gap = p[u1][v1] - p[u1][v2]  # over pinv.den
            if same > cross_ or gap * resolvent.den != r[u_][v_] * pinv.den or gap < 0:
                return False
    # Posts variant on nontrivial post sets.
    post_sets = [frozenset({0})]
    if n >= 4:
        post_sets.append(frozenset({0, 1}))
    for posts in post_sets:
        tables = PostsBundle(g, posts)
        others = [x for x in range(n) if x not in posts]
        for u_, v_ in combinations(others, 2):
            gap = tables.gap(u_, v_)
            if gap != tables.entry(u_, v_) or gap < 0:
                return False
    return True


def _suite_weak_limit(g: Graph) -> bool:
    """The lambda*q weak limit of the random-cluster model, read off subset counts.

    With every edge weight l*q, a subset S with kappa components weighs
    (lq)^|S| (1 - lq)^(m - |S|) q^kappa.  Since |S| + kappa >= n, with
    equality exactly for forests, each marked-partition entry has lowest
    q-degree n, and its q^n coefficient sums l^|S| over the forests: the
    (|S|, kappa) counts with |S| + kappa = n.
    """
    n = g.n
    marked = (0, n - 1) if n >= 2 else (0,)
    counts = rc_profile(g, marked)
    lowest: dict = {}
    for rgs, s, kappa in counts:
        lowest[rgs] = min(lowest.get(rgs, s + kappa), s + kappa)
    if any(low != n for low in lowest.values()):
        return False
    stratum = {(rgs, kappa): c for (rgs, s, kappa), c in counts.items() if s + kappa == n}
    if stratum != forest_table(g, marked).entries:
        return False
    # Tree stratum: the q^n l^(n-1) coefficient is the spanning tree count.
    trees = all_minors_count(g, {0}, {0})
    for rgs in lowest:
        top = counts.get((rgs, n - 1, 1), 0)
        if top != (trees if len(set(rgs)) == 1 else 0):
            return False
    # Edge marginal: the spanning trees of g / edge 0 are those of g through edge 0,
    # which less edge 0 are the two-tree forests that separate its ends.
    if g.m:
        contracted = rc_profile(minor(g, contractions={0}), ())
        through = sum(c for (_, s, kappa), c in contracted.items() if (s, kappa) == (n - 2, 1))
        u0, v0, _ = g.edges[0]
        if through != forest_table(g, (u0, v0)).bracket((0, 1)):
            return False
    return True


IDENTITY_SUITES = {
    "resistance-bracket": _suite_resistance_bracket,
    "cross-inner": _suite_cross_inner,
    "pseudoinverse-blocks": _suite_pseudoinverse_blocks,
    "resistance-matrix": _suite_resistance_matrix,
    "bsst": _suite_bsst,
    "choe": _suite_choe,
    "strong-rayleigh": _suite_strong_rayleigh,
    "rayleigh": _suite_rayleigh,
    "four-point-leading": _suite_four_point_leading,
    "bunkbed-tree-stratum": _suite_bunkbed_tree_stratum,
    "weak-limit": _suite_weak_limit,
}
# Suites whose identities count unweighted edge subsets: they hold on unit weights only.
_UNIT_WEIGHT_SUITES = frozenset({"bsst", "weak-limit"})
# All but three forest identities read spanning trees or a pseudoinverse: they need a
# connected graph.
_CONNECTED_SUITES = frozenset(IDENTITY_SUITES) - {"choe", "four-point-leading", "weak-limit"}


def run_identity_suite(suite: str, instances=None) -> VerificationReport:
    """Exact identity/inequality suite over a graph catalog.

    Per-instance guard errors, non-unit edge weights in a unit-weight suite,
    and a disconnected graph in a suite that needs a connected one, are
    collected as skips with their reasons rather than failures;
    with no instance checked the verdict is SKIPPED, not HOLDS.
    """
    if suite not in IDENTITY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choices: {sorted(IDENTITY_SUITES)}")
    fn = IDENTITY_SUITES[suite]
    instances = identity_catalog() if instances is None else instances
    failures = []
    skipped = []
    checked = 0
    for name, g in instances:
        if suite in _UNIT_WEIGHT_SUITES and any(w != 1 for _, _, w in g.edges):
            skipped.append(f"{name}: {suite} holds for unit edge weights only")
            continue
        if suite in _CONNECTED_SUITES and not g.is_connected():
            skipped.append(f"{name}: {suite} needs a connected graph")
            continue
        try:
            ok = fn(g)
        except EnumerationGuardError as exc:
            skipped.append(f"{name}: {exc}")
            continue
        checked += 1
        if not ok:
            failures.append(name)
    verdict = FAILS if failures else HOLDS if checked else SKIPPED
    quantities = {"instances_checked": str(checked)}
    if skipped:
        quantities["skipped"] = str(len(skipped))
        quantities["skip_reasons"] = "; ".join(skipped)
    return VerificationReport(
        claim=f"identity-{suite}",
        instance=f"catalog[{len(instances)}]",
        verdict=verdict,
        quantities=quantities,
        witness={"failing_instances": failures} if failures else None,
    )


# ---------------------------------------------------------------------------
# Conjecture scans
# ---------------------------------------------------------------------------


def _at_each(c: list, lam_grid) -> list:
    """The kappa-list c read by ``_at_activity`` at each lambda of the grid.

    The forest scans compare these integers cleared of Z: Z(lambda) != 0, so
    multiplying both sides of an inequality of probabilities by Z^2 keeps it.
    """
    return [_at_activity(c, lam) for lam in lam_grid]


def _forest_product_inequality(g: Graph, lam_grid):
    """Connection product bound through an intermediate vertex, per lambda."""
    for ft in forest_table(g, range(g.n)).subsets(3):
        trio = ft.marked
        z = _at_each(ft.event(), lam_grid)
        joined = {}
        for i, j in combinations(range(3), 2):
            x, y = trio[i], trio[j]
            joined[x, y] = joined[y, x] = _at_each(
                ft.event(lambda rgs: rgs[i] == rgs[j]), lam_grid
            )
        u_, v_, w_ = trio
        for x, y, t_ in ((u_, v_, w_), (u_, w_, v_), (v_, w_, u_)):
            for lam, xy, xt, ty, wz in zip(lam_grid, joined[x, y], joined[x, t_], joined[t_, y], z):
                # P[x<->y] < P[x<->t] P[t<->y], times Z^2.
                if xy * wz < xt * ty:
                    return {
                        "u": x,
                        "v": y,
                        "t": t_,
                        "lambda": format_rational(lam),
                        "lhs": format_rational(Rational(xy, wz)),
                        "rhs": format_rational(Rational(xt * ty, wz * wz)),
                    }
    return None


def _forest_harris(g: Graph, lam_grid):
    # Over the marked (u, w, v): everything, u<->w<->v, u<->w and w<->v.
    events = (
        None,
        lambda rgs: rgs == (0, 0, 0),
        lambda rgs: rgs[0] == rgs[1],
        lambda rgs: rgs[1] == rgs[2],
    )
    for ft in forest_table(g, range(g.n)).subsets(3):
        u_, w_, v_ = ft.marked
        values = [_at_each(ft.event(event), lam_grid) for event in events]
        for lam, wz, joint, a, b in zip(lam_grid, *values):
            if joint * wz < a * b:
                return {"u": u_, "w": w_, "v": v_, "lambda": format_rational(lam)}
    return None


def _edge_negative_correlation(g: Graph, lam_grid):
    # A forest holds e = (u, v) exactly when, with e removed, it separates u from v,
    # and holds e and f exactly when, with both removed, it separates each edge's ends
    # and {blk u_e, blk v_e} != {blk u_f, blk v_f}.  Each removed edge is one component
    # fewer and a factor num/d: an event's kappa-list shifted down by the edges removed
    # and scaled by their nums is d_e, or d_e d_f, times the forests holding them, and
    # the d cancel in the test, as the b^n of lambda = a/b does.
    ft_all = forest_table(g, range(g.n))
    ends = [(u, v, int(w.numerator)) for u, v, w in g.edges]

    def at_each_lambda(num, removed, event):
        sums = ft_all.event(event)
        return [num * x for x in _at_each(sums[removed:] + [0] * removed, lam_grid)]

    z = at_each_lambda(1, 0, None)
    pe = [at_each_lambda(num, 1, lambda rgs: rgs[u] != rgs[v]) for u, v, num in ends]
    for e, f in combinations(range(g.m), 2):
        (a, b, ne), (c, d, nf) = ends[e], ends[f]
        pef = at_each_lambda(
            ne * nf, 2,
            lambda rgs: rgs[a] != rgs[b] and rgs[c] != rgs[d] and {rgs[a], rgs[b]} != {rgs[c], rgs[d]},
        )
        for lam, we, wf, wef, wz in zip(lam_grid, pe[e], pe[f], pef, z):
            if we * wf < wef * wz:
                return {"e": e, "f": f, "lambda": format_rational(lam)}
    return None


def _four_point_forest(weighted: Graph, lam_grid):
    """Four-point correlation inequality under a fixed edge weighting.

    The events fix the induced partition of the four marked vertices exactly
    except on the left side, where only the stated separation is required.
    Both sides are products of two probabilities, so they compare times Z^2.
    Returns a witness dict on violation, None otherwise.
    """
    # Over the marked (a, b, c, d): a apart from b, c apart from d, the
    # three-block splits, all four joined, [ac|bd] and [ad|bc].
    (_, _, ac_bd, ad_bc), three = _split_patterns(0, 1, 2, 3)
    events = (
        lambda rgs: rgs[0] != rgs[1],
        lambda rgs: rgs[2] != rgs[3],
        lambda rgs: rgs in three,
        lambda rgs: rgs == (0, 0, 0, 0),
        lambda rgs: rgs == ac_bd,
        lambda rgs: rgs == ad_bc,
    )
    for ft in forest_table(weighted, range(weighted.n)).subsets(4):
        values = [_at_each(ft.event(event), lam_grid) for event in events]
        for lam, apart_ab, apart_cd, split3, together, ac, ad in zip(lam_grid, *values):
            if apart_ab * apart_cd < split3 * together + (ac - ad) ** 2:
                return {"quad": list(ft.marked), "lambda": format_rational(lam)}
    return None


def _first_witness(instances, find):
    """Witness of the first (name, graph) instance where `find` returns one."""
    for name, g in instances:
        witness = find(g)
        if witness:
            return {**witness, "instance": name}
    return None


def scan_conjectures(
    lam_grid=DEFAULT_LAMBDA_GRID,
    seed: int = 20240,
    weightings: int = 20,
) -> list[VerificationReport]:
    """Exact grid scans of the open inequalities; failures carry witnesses."""
    check_parameters(lam=lam_grid)
    if weightings < 1:
        raise ParameterError(f"weightings must be at least 1; got {weightings}")
    reports = []

    # Doubled-graph forest inequality on all small connected graphs.
    worst = None
    for name, g in connected_graphs(_SCAN_MAX_N, min_n=2):
        rep = check_bunkbed(
            g,
            measure="arboreal",
            lam_grid=lam_grid,
            open_conjecture=True,
            instance=name,
        )
        value = parse_rational(rep.quantities["min_difference"])
        if worst is None or value < worst[0]:
            worst = (value, rep)
        if not rep.ok:
            break
    chosen = worst[1]
    reports.append(
        VerificationReport(
            claim="bunkbed-forest-conjecture",
            instance=f"connected<={_SCAN_MAX_N}",
            verdict=chosen.verdict,
            quantities={**chosen.quantities, "worst_instance": chosen.instance},
            grid=_grid_doc(lam=lam_grid),
            witness=chosen.witness,
        )
    )

    # Alternate-model counts on the fixed endpoint instances.
    alt_ok = True
    alt_quantities = {}
    for name in ("fig4-left", "fig4-right"):
        inst = named_instance(name)
        counts = alt_colouring_counts(inst.graph, inst.posts, inst.u, inst.v)
        alt_quantities[name] = str(counts)
        expected = (6, 4, 14) if name == "fig4-left" else (8, 2, 14)
        alt_ok &= counts == expected
    for variant in ("G", "H"):
        for n_path in (1, 2, 3):
            inst = named_instance(f"fig5-{variant}-{n_path}")
            n_rr, n_rb, n_tot = alt_colouring_counts(
                inst.graph, inst.posts, inst.u, inst.v
            )
            alt_quantities[inst.name] = str((n_rr, n_rb, n_tot))
            alt_ok &= n_rr >= n_rb
    reports.append(
        VerificationReport(
            claim="alt-model-counts",
            instance="fig4, fig5 families",
            verdict=HOLDS if alt_ok else FAILS,
            quantities=alt_quantities,
        )
    )

    # Outerplanar triple product (proved), forest Harris-style product bound
    # and edge negative correlation for forests (open): first witness each.
    outerplanar = [(inst.name, inst.graph) for inst in outerplanar_catalog() if inst.graph.n >= 3]
    for claim, instances, label, find, ok_verdict in (
        ("outerplanar-triple-product", outerplanar, "outerplanar catalog",
         _forest_product_inequality, HOLDS),
        ("forest-harris-conjecture", connected_graphs(_SCAN_MAX_N, min_n=3), f"connected<= {_SCAN_MAX_N}",
         _forest_harris, OPEN_OK),
        ("edge-negative-correlation", connected_graphs(_SCAN_MAX_N, min_n=2), f"connected<= {_SCAN_MAX_N}",
         _edge_negative_correlation, OPEN_OK),
    ):
        witness = _first_witness(instances, lambda g: find(g, lam_grid))
        reports.append(
            VerificationReport(
                claim=claim,
                instance=label,
                verdict=ok_verdict if witness is None else FAILS,
                grid=_grid_doc(lam=lam_grid),
                witness=witness,
            )
        )

    # Leading-order four-point inequality (proved; exact counts).
    rep = run_identity_suite("four-point-leading")
    reports.append(rep)

    # Four-point inequality with random rational weights (open), drawn trial
    # by trial, K4 before K5; each instance is named by its (name, trial).
    rng = random.Random(seed)
    bases = [(name, named_graph(name)) for name in ("K4", "K5")]
    drawn = {
        (name, trial): Graph(
            g.n, tuple((u_, v_, rat(rng.randint(1, 12), rng.randint(1, 12))) for u_, v_, _ in g.edges)
        )
        for trial in range(weightings)
        for name, g in bases
    }
    witness = _first_witness(drawn.items(), lambda g: _four_point_forest(g, lam_grid))
    if witness:
        name, trial = witness["instance"]
        weights = [format_rational(w) for _, _, w in drawn[name, trial].edges]
        witness.update(instance=name, trial=trial, weights=weights)
    reports.append(
        VerificationReport(
            claim="four-point-forest-conjecture",
            instance="K4, K5 random weights",
            verdict=OPEN_OK if witness is None else FAILS,
            quantities={"weightings": str(weightings), "seed": str(seed)},
            grid=_grid_doc(lam=lam_grid),
            witness=witness,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Hypergraph factorization and engine self-consistency
# ---------------------------------------------------------------------------


def hollom_cubic() -> list[int]:
    """q^3 - 5q^2 + 10q - 7, the q-factor of the hollom bunkbed's connection
    difference, as integer coefficients, lowest first."""
    return [-7, 10, -5, 1]


def check_hypergraph_factorization() -> VerificationReport:
    """Exact factor structure of the doubled-hypergraph connection difference.

    It holds when the difference is c g^6 h^6 q^5 times the cubic for some c > 0.
    """
    diff = hypergraph_rc_difference(hollom_instance(), 1, 10)
    c = rat(0)
    ok = all(exp[2] == 6 and exp[3] == 6 and exp[0] >= 5 for exp in diff.terms)
    if ok:
        shifted = {exp[0] - 5: coeff for exp, coeff in diff.terms.items()}
        c = shifted.get(3, c)
        ok = c > 0 and shifted == {k: c * x for k, x in enumerate(hollom_cubic())}
    return VerificationReport(
        claim="hypergraph-factorization",
        instance="hollom bunkbed",
        verdict=HOLDS if ok else FAILS,
        quantities={
            "constant": format_rational(c),
            "difference": diff.to_string(),
            "value_at_q1": format_rational(diff.eval({"q": rat(1), "g": rat(1), "h": rat(1)})),
        },
        witness=None if ok else {"difference": diff.to_string()},
    )


def check_engine_consistency(
    trials: int = 50, seed: int = 4099
) -> VerificationReport:
    """Factor contraction vs direct enumeration on random small networks.

    Every contraction of the check shares one partition memo: its entries
    depend only on their keys, and the networks are small enough that the
    same keys recur across trials.
    """
    if trials < 1:
        raise ParameterError(f"trials must be at least 1; got {trials}")
    rng = random.Random(seed)
    memo = _Memo()
    failures = []
    for trial in range(trials):
        n = rng.randint(4, 7)
        edges = []
        for v in range(1, n):
            edges.append((rng.randrange(v), v))
        extra = rng.randint(0, 4)
        existing = set(edges)
        while extra:
            u_, v_ = rng.sample(range(n), 2)
            e = (min(u_, v_), max(u_, v_))
            if e not in existing:
                existing.add(e)
                edges.append(e)
            extra -= 1
        weights = [rat(rng.randint(1, 5), rng.randint(6, 9)) for _ in edges]
        g = Graph(n, tuple((u_, v_, w) for (u_, v_), w in zip(edges, weights)))
        queries = tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))
        factors = tuple(
            edge_factor(min(u_, v_), max(u_, v_), w)
            for (u_, v_), w in zip(edges, weights)
        )
        net = FactorNetwork(factors, queries)
        expected = factor_from_graph(g, queries)
        result = contract_network(net, memo=memo)
        ok = result.same_table(expected)
        non_query = [x for x in range(n) if x not in queries]
        rng.shuffle(non_query)
        alt = contract_network(net, order=list(non_query), memo=memo)
        ok &= alt.same_table(result)
        if not ok:
            failures.append(
                {"trial": trial, "n": n, "edges": edges, "queries": list(queries)}
            )
    return VerificationReport(
        claim="engine-self-consistency",
        instance=f"{trials} random networks",
        verdict=HOLDS if not failures else FAILS,
        quantities={"trials": str(trials), "seed": str(seed)},
        witness={"failures": failures} if failures else None,
    )
