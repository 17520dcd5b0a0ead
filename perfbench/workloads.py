"""Workloads of the bunkbed benchmark: inputs from a seed, jobs and checks.

A job calls the public functions of the bunkbed package and returns one
certified output: a table2 row, a suite report, a contracted network or an
isolated polynomial.  Its check tests what the output must satisfy for any
seed (known windows, Z(1) = 1, oracle and order agreement, planted roots);
`reference.json` adds the exact digest of every output for the default seed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

PROGRAM_MODULES = (
    "exactnum",
    "partition",
    "graph",
    "catalog",
    "measures",
    "treealg",
    "glue",
    "verify",
    "cli",
)
WORKLOADS = ("table2", "networks", "verify", "roots")
DEFAULT_SEED = 20240
REFERENCE_PATH = Path(__file__).with_name("reference.json")

TABLE2_N = (3, 4, 5, 6, 11, 21)
TABLE2_P = (1, 100)

# Grids and ladders (rows, columns), contracted under the greedy order; the
# last one is the workload's largest job.  6 x 6 takes about 19 s, too long
# for one run, so rows stop at 5.
NETWORK_SHAPES = ((2, 12), (2, 20), (3, 12), (4, 10), (5, 10))
# Small enough for the factor_from_graph enumeration oracle.
ORACLE_SHAPES = ((2, 5), (3, 3))
ENGINE_TRIALS = 200
# Every edge weight is k/7: the shared denominator keeps the work of a
# network independent of the seed.
WEIGHT_DEN = 7

ROOT_WIDTH = (1, 10**6)
# (class, degree, coefficient bits, instances per pass).  The t2 shapes are
# those of the table2 numerators for n = 6, 11, 21 and 31; table2 leaves
# n = 31 out, and its numerator is the largest job here.
ROOT_SHAPES = (
    ("t2", 47, 612, 8),
    ("t2", 77, 1014, 5),
    ("t2", 137, 1816, 2),
    ("t2", 197, 2618, 2),
    ("sturm", 12, 64, 8),
    ("sturm", 24, 96, 5),
    ("fallback", 26, 78, 2),
)

HOLDS = "holds"
OPEN_OK = "open-conjecture-no-violation"
# Claims of the conjecture scan that are open problems, not theorems.
OPEN_SCAN_CLAIMS = (
    "bunkbed-forest-conjecture",
    "forest-harris-conjecture",
    "edge-negative-correlation",
    "four-point-forest-conjecture",
)


class JobFailure(Exception):
    """A job's output failed its correctness check."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    to_json: Callable[[object], object]
    ref_key: str | None = None
    largest: bool = False


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise JobFailure(message)


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_program(after_import=None) -> SimpleNamespace:
    """Import every bunkbed module afresh and return them as a namespace.

    Earlier imports are dropped first, so each call pays the full import
    cost; `after_import` runs before any program code is called.
    """
    for name in [k for k in sys.modules if k == "bunkbed" or k.startswith("bunkbed.")]:
        del sys.modules[name]
    bb = SimpleNamespace(
        **{m: importlib.import_module(f"bunkbed.{m}") for m in PROGRAM_MODULES}
    )
    if after_import is not None:
        after_import(bb)
    return bb


def build(workload: str, seed: int, smoke: bool = False, after_import=None):
    """Set up one workload: imports, the fixed inputs, and seeded inputs.

    Every workload builds the same fixed inputs (the verify catalogs, K4 and
    the hollom hypergraph), so setup_s measures the same fixed work on each.  `smoke` shrinks every workload for the tests.
    Returns (program namespace, jobs).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choices: {WORKLOADS}")
    bb = load_program(after_import)
    fixed = SimpleNamespace(
        identity=bb.catalog.identity_catalog(),
        small4=bb.catalog.connected_graphs(4, min_n=2),
        k4=bb.catalog.named_instance("K4"),
        hollom=bb.graph.hollom_instance(),
    )
    make_jobs = {
        "table2": _table2_jobs,
        "networks": _network_jobs,
        "verify": _verify_jobs,
        "roots": _root_jobs,
    }[workload]
    return bb, make_jobs(bb, fixed, seed, smoke)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# table2: the paper's failure-window rows
# ---------------------------------------------------------------------------


def table2_payload(rows) -> dict:
    """The payload `bunkbed table2` writes for these rows."""
    bad = [r for r in rows if r.get("status") == "ok" and r.get("matches_known") is False]
    return {"rows": rows, "failed": [r["n"] for r in bad]}


def _table2_jobs(bb, fixed, seed, smoke):
    p = bb.exactnum.rat(*TABLE2_P)
    n_values = TABLE2_N[:2] if smoke else TABLE2_N

    def make(n):
        def run():
            (row,) = bb.cli.negative_window_rows([n], p)
            return row

        def check(row):
            expect(row.get("status") == "ok", f"n={n}: status {row.get('status')!r}")
            expect(row.get("matches_known") is True, f"n={n}: window {row.get('window_2dp')} != known")
            expect(row.get("z_at_1") == "1", f"n={n}: Z(1) = {row.get('z_at_1')}")

        return Job(f"n{n}", run, check, lambda row: row, f"n{n}", n == n_values[-1])

    return [make(n) for n in n_values]


# ---------------------------------------------------------------------------
# networks: seeded factor networks through glue.contract_network
# ---------------------------------------------------------------------------


def grid_network(bb, rows, cols, rng):
    """Seeded rows x cols grid: its graph, edge-factor network and sweep order."""
    rat = bb.exactnum.rat
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    weights = [rat(rng.randint(1, WEIGHT_DEN - 1), WEIGHT_DEN) for _ in edges]
    graph = bb.graph.Graph(rows * cols, tuple((u, v, w) for (u, v), w in zip(edges, weights)))
    factors = tuple(bb.glue.edge_factor(u, v, w) for (u, v), w in zip(edges, weights))
    queries = tuple(sorted({0, cols - 1, rows * cols - 1}))
    net = bb.glue.FactorNetwork(factors, queries)
    sweep = [r * cols + c for c in range(cols) for r in range(rows)]
    return graph, net, [v for v in sweep if v not in queries]


def seeded_ref(seed, smoke):
    """Reference lookup for outputs that depend on the seed and the size."""
    return lambda name: name if seed == DEFAULT_SEED and not smoke else None


def _network_jobs(bb, fixed, seed, smoke):
    rng = random.Random(seed)
    ref_key = seeded_ref(seed, smoke)
    glue = bb.glue
    one = bb.exactnum.rat(1)
    shapes = ((2, 6), (3, 4)) if smoke else NETWORK_SHAPES
    jobs = []

    def make(name, rows, cols, oracle):
        graph, net, sweep = grid_network(bb, rows, cols, rng)

        def check(factor):
            total = factor.total().eval({"q": one})
            expect(total == one, f"{name}: Z(1) = {total}")
            table = factor.table()
            other = glue.contract_network(net, order=list(sweep)).table()
            expect(other == table, f"{name}: the sweep order gives another table")
            if oracle:
                expected = glue.factor_from_graph(graph, net.queries).table()
                expect(expected == table, f"{name}: differs from the enumeration oracle")

        return Job(name, lambda: glue.contract_network(net), check, lambda f: f.to_json(), ref_key(name))

    for rows, cols in ORACLE_SHAPES:
        jobs.append(make(f"oracle{rows}x{cols}", rows, cols, True))
    for rows, cols in shapes:
        jobs.append(make(f"grid{rows}x{cols}", rows, cols, False))
    jobs[-1].largest = True
    trials = 5 if smoke else ENGINE_TRIALS

    def engine():
        return bb.verify.check_engine_consistency(trials=trials, seed=seed)

    def engine_check(report):
        expect(report.verdict == HOLDS, f"engine: {report.verdict} {report.witness}")

    jobs.append(Job("engine", engine, engine_check, lambda r: r.to_json(), ref_key("engine")))
    return jobs


# ---------------------------------------------------------------------------
# verify: every suite once, as a user's full check runs them
# ---------------------------------------------------------------------------


def _verify_jobs(bb, fixed, seed, smoke):
    v = bb.verify
    k4 = fixed.k4
    suites = {name: (lambda s=name: [v.run_identity_suite(s, fixed.identity)]) for name in v.IDENTITY_SUITES}
    suites.update(
        {
            "bunkbed-small4": lambda: [
                v.check_bunkbed(g, measure="random-cluster", instance=name)
                for name, g in fixed.small4
            ],
            "bunkbed-K4-arboreal": lambda: [
                v.check_bunkbed(k4.graph, posts=k4.posts or None, measure="arboreal", instance="K4")
            ],
            "p-threshold-K4": lambda: [
                v.check_p_threshold(k4.graph, k4.posts, q, instance="K4") for q in v.DEFAULT_Q_GRID
            ],
            "conjectures": lambda: v.scan_conjectures(seed=seed),
            "hypergraph-factor": lambda: [v.check_hypergraph_factorization()],
            "engine": lambda: [v.check_engine_consistency(seed=seed)],
        }
    )
    if smoke:
        suites = {k: suites[k] for k in ("resistance-bracket", "hypergraph-factor")}
    seeded = ("conjectures", "engine")

    def make(name, run):
        def check(reports):
            expect(bool(reports), f"{name}: no report")
            for rep in reports:
                want = OPEN_OK if rep.claim in OPEN_SCAN_CLAIMS else HOLDS
                expect(rep.verdict == want, f"{name}: {rep.claim} on {rep.instance} is {rep.verdict}")

        ref = None if name in seeded and seed != DEFAULT_SEED else name
        return Job(name, run, check, lambda reports: [r.to_json() for r in reports], ref, name == "conjectures")

    return [make(name, run) for name, run in suites.items()]


# ---------------------------------------------------------------------------
# roots: seeded polynomials with planted rational roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedPoly:
    """Integer coefficients (ascending) and the real roots planted in them.

    `roots` lists (root, multiplicity) for every positive real root, sorted;
    all other factors are q**2, roots below zero and complex pairs.
    """

    coeffs: tuple
    roots: tuple


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def planted_poly(rng, kind: str, degree: int, bits: int, rat, variant: int = 0) -> PlantedPoly:
    """A polynomial of the given degree with about `bits`-bit coefficients.

    t2 mimics a table2 numerator: q**2, two simple roots in (0.4, 1.7), two
    negative roots, complex pairs.  sturm has one to four roots in (0, 3),
    the last one double for odd variants.  fallback has a double root (even
    variants) or two roots 1e-13 apart, which Descartes cannot separate, so
    isolation falls back to Sturm.  The variant, not the seed, picks the
    structure, which keeps the work of a pass nearly seed-independent.
    """
    word = max(2, bits // degree)  # bits per linear factor
    factors = []
    planted = []

    def root_in(lo, hi):
        # Never an integer, so never a power-of-two end of the domain.
        while True:
            den = rng.randrange(2 ** (word - 1), 2**word) | 1
            r = rat(rng.randrange(int(lo * den) + 1, int(hi * den)), den)
            if r.denominator != 1:
                return r

    if kind == "t2":
        factors.append([0, 0, 1])
        planted += [(root_in(rat(2, 5), rat(1)), 1), (root_in(rat(1), rat(17, 10)), 1)]
        negatives = 2
    elif kind == "sturm":
        count = 1 + variant % 4
        while len(planted) < count:
            r = root_in(rat(1, 20), rat(3))
            if all(r != s for s, _ in planted):
                planted.append((r, 1))
        planted[-1] = (planted[-1][0], 1 + variant % 2)
        negatives = 1
    elif kind == "fallback":
        r = root_in(rat(1, 5), rat(2))
        if variant % 2 == 0:
            planted += [(r, 2)]
        else:
            planted += [(r, 1), (r + rat(1, 10**13), 1)]
        third = r
        while any(third == s for s, _ in planted):
            third = root_in(rat(1, 5), rat(2))
        planted.append((third, 1))
        negatives = 1
    else:
        raise ValueError(f"unknown polynomial kind {kind!r}")
    for r, mult in planted:
        factors += [[-int(r.numerator), int(r.denominator)]] * mult
    for _ in range(negatives):
        r = root_in(rat(1, 10), rat(3))
        factors.append([int(r.numerator), int(r.denominator)])
    used = sum(len(f) - 1 for f in factors)
    if (degree - used) % 2:
        r = root_in(rat(1, 10), rat(3))
        factors.append([int(r.numerator), int(r.denominator)])
        used += 1
    while used < degree:
        # (q - a)**2 + s**2 scaled by d**2: roots (a +- i s) / d, never real.
        d = rng.randrange(2 ** (word - 1), 2**word)
        a = rng.randrange(-3 * d, 3 * d)
        s = rng.randrange(d // 4 + 1, 3 * d)
        factors.append([a * a + s * s, -2 * a * d, d * d])
        used += 2
    coeffs = [rng.choice((-1, 1))]
    for f in factors:
        coeffs = _mul(coeffs, f)
    poly = PlantedPoly(tuple(coeffs), tuple(sorted(planted)))
    if kind == "fallback" and len(planted) == 3:
        # Brackets of roots 1e-13 apart touch, so no window can sit between
        # them: make that gap positive.
        pair = next(i for i, (r, _) in enumerate(poly.roots) if r - poly.roots[i - 1][0] == rat(1, 10**13))
        if any(left == pair - 1 for left, _ in expected_windows(poly)):
            poly = PlantedPoly(tuple(-c for c in coeffs), poly.roots)
    return poly


def expected_windows(poly: PlantedPoly):
    """Negative gaps (left root index or None, right root index or None).

    The sign of each gap between consecutive planted roots follows from the
    leading coefficient and the multiplicities of the roots above it.
    """
    roots = poly.roots
    sign = 1 if poly.coeffs[-1] > 0 else -1
    signs = [sign]
    for _, mult in reversed(roots):
        sign = sign * (-1) ** mult
        signs.append(sign)
    signs.reverse()  # signs[i] is the sign on the gap left of roots[i]
    out = []
    for i, s in enumerate(signs):
        if s < 0:
            out.append((i - 1 if i else None, i if i < len(roots) else None))
    return out


def _root_jobs(bb, fixed, seed, smoke):
    rng = random.Random(seed)
    ref_key = seeded_ref(seed, smoke)
    ex = bb.exactnum
    rat = ex.rat
    width = rat(*ROOT_WIDTH)
    shapes = [(k, d, b, 1) for k, d, b, _ in ROOT_SHAPES] if smoke else ROOT_SHAPES
    jobs = []
    largest = max(d for _, d, _, _ in shapes)

    def make(name, poly):
        p = ex.MultiPoly({(k, 0, 0, 0): rat(c) for k, c in enumerate(poly.coeffs) if c})

        def run():
            hi = rat(2)
            coeffs = p.dense_in("q")
            while not ex.descartes_no_roots_above(coeffs, hi):
                hi *= 2
            roots, negative = ex.isolate_negative_region(p, (rat(0), hi), width)
            return hi, roots, negative

        def check(out):
            hi, roots, negative = out
            planted = poly.roots
            expect(planted[-1][0] < hi, f"{name}: root {planted[-1][0]} above the domain {hi}")
            expect(len(roots) == len(planted), f"{name}: {len(roots)} intervals for {len(planted)} roots")
            for (r, mult), iv in zip(planted, roots):
                inside = sum(other.low < r < other.high for other in roots)
                expect(inside == 1, f"{name}: root {r} lies in {inside} intervals")
                expect(iv.low < r < iv.high, f"{name}: root {r} outside its interval")
                expect(iv.multiplicity == mult, f"{name}: multiplicity {iv.multiplicity} != {mult}")
                expect(iv.high - iv.low < width, f"{name}: interval wider than {width}")
            want = expected_windows(poly)
            expect(len(negative) == len(want), f"{name}: {len(negative)} negative windows, want {len(want)}")
            for (a, b), (left, right) in zip(negative, want):
                if left is None:
                    expect(a == 0, f"{name}: window starts at {a}, not 0")
                else:
                    expect(abs(a - planted[left][0]) < width, f"{name}: window edge {a} off its root")
                if right is None:
                    expect(b == hi, f"{name}: window ends at {b}, not {hi}")
                else:
                    expect(abs(b - planted[right][0]) < width, f"{name}: window edge {b} off its root")

        def to_json(out):
            hi, roots, negative = out
            f = ex.format_rational
            return {
                "hi": f(hi),
                "roots": [[f(iv.low), f(iv.high), iv.multiplicity] for iv in roots],
                "negative": [[f(a), f(b)] for a, b in negative],
            }

        return Job(name, run, check, to_json, ref_key(name))

    for kind, degree, bits, count in shapes:
        for i in range(count):
            name = f"{kind}{degree}-{i}"
            job = make(name, planted_poly(rng, kind, degree, bits, rat, i))
            job.largest = degree == largest and i == 0
            jobs.append(job)
    return jobs
