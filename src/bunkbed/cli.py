"""Command-line surface.

Subcommands: `table2` reproduces the failure-window table of the doubled
counterexample family, `verify` runs a named verification suite, `compute`
prints individual exact quantities, and `recheck` re-runs a stored report and
diffs it.  All numeric inputs are exact rational strings ("1/100"); decimals
are rejected so the exactness contract survives the shell.

Exit codes: 0 every verdict holds, is open with no violation or is skipped,
1 a verdict fails or a recheck diverges, 2 usage or guard errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (
    connected_graphs,
    identity_catalog,
    instance_names,
    named_instance,
    outerplanar_catalog,
)
from .exactnum import (
    Rational,
    descartes_no_roots_above,
    format_rational,
    integer_negative_region,
    parse_rational,
    rat,
)
from .glue import counterexample_numerator
from .graph import load_graph
from .measures import EnumerationGuardError, ParameterError, rc_connection_prob, forest_table
from .partition import canonicalize
from .treealg import LaplacianBundle, laplacian, pseudoinverse
from .verify import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_P_GRID,
    DEFAULT_Q_GRID,
    IDENTITY_SUITES,
    check_bunkbed,
    check_engine_consistency,
    check_hypergraph_factorization,
    check_p_threshold,
    hollom_cubic,
    run_identity_suite,
    scan_conjectures,
)

SCHEMA = 1

# Known failure windows of the weight-1/100 family in hundredths, truncated
# toward the window interior.  A row is compared with them only at that
# weight and at a bracket width within their 1/100 tolerance.
KNOWN_P = rat(1, 100)
KNOWN_FAILURE_WINDOWS = {
    3: (70, 108),
    4: (62, 125),
    5: (59, 132),
    6: (58, 136),
    11: (56, 142),
    21: (56, 142),
    31: (56, 143),
    41: (56, 143),
    51: (56, 143),
    1001: (56, 143),
}


class UsageError(Exception):
    pass


def _parse_rat(text: str) -> Rational:
    if "." in text:
        raise UsageError(f"decimal input {text!r} rejected; use exact rationals like 7/10")
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _parse_rat_list(text: str):
    values = tuple(_parse_rat(part) for part in text.split(",") if part)
    if not values:
        raise UsageError(f"empty list {text!r}; give at least one rational")
    return values


def _parse_int_list(text: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise UsageError(f"bad integer list {text!r}; use comma-separated integers") from None
    if not values:
        raise UsageError(f"empty list {text!r}; give at least one integer")
    return values


def _check_vertices(g, vertices) -> None:
    bad = [v for v in vertices if not 0 <= v < g.n]
    if bad:
        raise UsageError(f"vertices {bad} out of range for a graph on {g.n} vertices")


def _load_instance(args):
    if getattr(args, "input", None):
        try:
            g, posts = load_graph(args.input)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            raise UsageError(f"cannot read graph file {args.input!r}: {reason}") from None
        return g, posts if posts is not None else frozenset()
    name = getattr(args, "graph", None)
    if not name:
        raise UsageError("need --graph NAME or --input FILE")
    if name == "hollom":
        raise UsageError(
            "hollom is the hypergraph instance; run `verify --suite hypergraph-factor`"
        )
    try:
        inst = named_instance(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return inst.graph, inst.posts


def _catalog_from(args):
    name = getattr(args, "catalog", None)
    if name in (None, ""):
        return None
    if name == "small4":
        return connected_graphs(4, min_n=2)
    if name == "small5":
        return connected_graphs(5, min_n=2)
    if name == "identity":
        return identity_catalog()
    if name == "outerplanar":
        return [(inst.name, inst.graph) for inst in outerplanar_catalog()]
    raise UsageError(f"unknown catalog {name!r}")


# ---------------------------------------------------------------------------
# table2
# ---------------------------------------------------------------------------


def _ceil_2dp(x: Rational) -> Rational:
    scaled = x * 100
    q, r = divmod(int(scaled.numerator), int(scaled.denominator))
    return rat(q + (1 if r else 0), 100)


def _floor_2dp(x: Rational) -> Rational:
    scaled = x * 100
    return rat(int(scaled.numerator) // int(scaled.denominator), 100)


def _2dp_str(x: Rational) -> str:
    cents = int(x * 100)
    return f"{cents // 100}.{cents % 100:02d}"


def negative_window_rows(n_values, p, width=None):
    """Certified negative-q windows of the counterexample numerator, per n.

    A row with one window gets `window_2dp`, the hundredths that round its
    inner edges inward: the high end of the lower root's bracket and the low
    end of the upper root's, between which the numerator is negative.  It
    has none when the rounded edges cross.  Rows carry `known` and
    `matches_known` only where the known table applies: at p = 1/100 and a
    width of at most 1/100.
    """
    width = rat(1, 10**6) if width is None else rat(width)
    tol = rat(1, 100)
    compare = rat(p) == KNOWN_P and width <= tol
    rows = []
    for n in n_values:
        row = {"n": n}
        try:
            coeffs, scale, mass = counterexample_numerator(n, p)
        except (EnumerationGuardError, ValueError) as exc:
            row["status"] = "skipped"
            row["reason"] = str(exc)
            rows.append(row)
            continue
        domain_hi = rat(2)
        while not descartes_no_roots_above(coeffs, domain_hi):
            domain_hi *= 2
        roots, negative = integer_negative_region(coeffs, (rat(0), domain_hi), width)
        row["status"] = "ok"
        row["z_at_1"] = format_rational(Rational(mass, scale))
        row["windows"] = [
            [format_rational(a), format_rational(b)] for a, b in negative
        ]
        if len(negative) == 1:
            lo, hi = negative[0]
            inner_lo = _ceil_2dp(next((r.high for r in roots if r.low == lo), lo))
            inner_hi = _floor_2dp(next((r.low for r in roots if r.high == hi), hi))
            if inner_lo <= inner_hi:
                row["window_2dp"] = [_2dp_str(inner_lo), _2dp_str(inner_hi)]
                known = KNOWN_FAILURE_WINDOWS.get(n) if compare else None
                if known:
                    row["known"] = [_2dp_str(rat(c, 100)) for c in known]
                    ok = abs(inner_lo - rat(known[0], 100)) <= tol and abs(
                        inner_hi - rat(known[1], 100)
                    ) <= tol
                    row["matches_known"] = ok
        rows.append(row)
    return rows


def cmd_table2(args) -> dict:
    p = _parse_rat(args.p)
    if not 0 < p < 1:
        raise UsageError(f"--p {args.p} must lie strictly between 0 and 1")
    width = None if args.width is None else _parse_rat(args.width)
    if width is not None and width <= 0:
        raise UsageError(f"--width {args.width} must be positive")
    n_values = _parse_int_list(args.n)
    bad_n = [n for n in n_values if n < 1]
    if bad_n:
        raise UsageError(f"--n values {bad_n} must be at least 1")
    repeated = sorted({n for n in n_values if n_values.count(n) > 1})
    if repeated:
        raise UsageError(f"--n repeats {repeated}; give each gadget size once")
    rows = negative_window_rows(n_values, p, width)
    bad = [
        r
        for r in rows
        if r.get("status") == "ok" and r.get("matches_known") is False
    ]
    for r in rows:
        if r.get("status") != "ok":
            print(f"n={r['n']}: skipped ({r['reason']})")
            continue
        shown = r.get("window_2dp")
        if shown is None:
            windows = ", ".join(f"({lo}, {hi})" for lo, hi in r["windows"])
            print(f"n={r['n']}:", f"negative windows {windows}" if windows else "no negative window")
            continue
        known = r.get("known")
        mark = ""
        if known:
            mark = " == known" if r.get("matches_known") else f" != known {known}"
        print(f"n={r['n']}: negative for q in [{shown[0]}, {shown[1]}]{mark}")
    return {"rows": rows, "failed": [r["n"] for r in bad]}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# What each verify suite reads of _OPTIONS, the bunkbed suite by its measure; an
# unknown suite or measure reads them all, so the error further on names it.
_OPTIONS = ("measure", "p", "q", "lam", "seed", "weightings")
_READS = dict.fromkeys([*IDENTITY_SUITES, "hypergraph-factor"], "") | {
    "p-threshold": "q", "conjectures": "lam seed weightings", "engine": "seed",
    "bunkbed --measure random-cluster": "measure p q",
    "bunkbed --measure percolation": "measure p",
    "bunkbed --measure arboreal": "measure lam",
}


def _refuse_unread(name: str, args, options, reads: str) -> None:
    """A usage error naming each of `options` given to `name` that it does not read."""
    unread = [f"--{opt}" for opt in options if getattr(args, opt) is not None and opt not in reads.split()]
    if unread:
        raise UsageError(f"{name} does not read {', '.join(unread)}")


def cmd_verify(args) -> dict:
    suite = args.suite
    measure = "random-cluster" if args.measure is None else args.measure
    seed = 20240 if args.seed is None else args.seed
    if args.catalog and (args.graph or args.input):
        raise UsageError("--catalog runs a whole catalog; give it without --graph or --input")
    if suite in ("conjectures", "hypergraph-factor", "engine") and (args.catalog or args.graph or args.input):
        raise UsageError(
            f"{suite} runs its own fixed instances; give it without --catalog, --graph or --input"
        )
    name = f"bunkbed --measure {measure}" if suite == "bunkbed" else suite
    _refuse_unread(name, args, _OPTIONS, _READS.get(name, " ".join(_OPTIONS)))
    p_grid = DEFAULT_P_GRID if args.p is None else _parse_rat_list(args.p)
    q_grid = DEFAULT_Q_GRID if args.q is None else _parse_rat_list(args.q)
    lam_grid = DEFAULT_LAMBDA_GRID if args.lam is None else _parse_rat_list(args.lam)
    reports = []
    if suite in IDENTITY_SUITES:
        # Without --catalog, --graph or --input the suite runs the identity catalog.
        catalog = _catalog_from(args)
        if catalog is None and (args.graph or args.input):
            catalog = [(args.graph or args.input, _load_instance(args)[0])]
        reports.append(run_identity_suite(suite, catalog))
    elif suite == "bunkbed":
        catalog = _catalog_from(args)
        if catalog is None:
            g, posts = _load_instance(args)
            runs = [(args.graph or args.input, g, posts or None)]
        else:
            runs = [(name, g, None) for name, g in catalog]
        for name, g, posts in runs:
            reports.append(
                check_bunkbed(
                    g,
                    posts=posts,
                    measure=measure,
                    p_grid=p_grid,
                    q_grid=q_grid,
                    lam_grid=lam_grid,
                    instance=name,
                )
            )
    elif suite == "p-threshold":
        g, posts = _load_instance(args)
        if not posts:
            # Without posts the two layers never meet, so every P[u1 <-> v2] is 0.
            raise UsageError("p-threshold needs an instance with posts; this one has none")
        for q in q_grid:
            reports.append(
                check_p_threshold(g, posts, q, instance=args.graph or args.input)
            )
    elif suite == "conjectures":
        weightings = 20 if args.weightings is None else args.weightings
        reports.extend(scan_conjectures(lam_grid=lam_grid, seed=seed, weightings=weightings))
    elif suite == "hypergraph-factor":
        reports.append(check_hypergraph_factorization())
    elif suite == "engine":
        reports.append(check_engine_consistency(seed=seed))
    else:
        raise UsageError(
            f"unknown suite {suite!r}; choices: "
            f"{sorted(IDENTITY_SUITES) + ['bunkbed', 'p-threshold', 'conjectures', 'hypergraph-factor', 'engine']}"
        )
    for rep in reports:
        print(f"[{rep.verdict}] {rep.claim} on {rep.instance}")
        if rep.witness:
            print(f"    witness: {rep.witness}")
        if "skip_reasons" in rep.quantities:
            print(f"    skipped: {rep.quantities['skip_reasons']}")
        if "note" in rep.quantities:
            print(f"    note: {rep.quantities['note']}")
    return {"reports": [r.to_json() for r in reports]}


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


# What each compute kind reads of _COMPUTE_OPTIONS, and the values in force
# for those it reads but is not given.
_COMPUTE_OPTIONS = ("graph", "input", "u", "v", "p", "q", "marked", "pattern", "extra")
_COMPUTE_DEFAULTS = {"u": 0, "v": 1, "p": "1/2", "q": "1", "marked": "0,1", "extra": 0}
_COMPUTE_READS = {
    "resistance": "graph input u v",
    "rc-prob": "graph input u v p q",
    "bracket": "graph input marked pattern extra",
    "pseudoinverse": "graph input",
    "root143": "",
}


def cmd_compute(args) -> dict:
    kind = args.kind
    _refuse_unread(f"compute {kind}", args, _COMPUTE_OPTIONS, _COMPUTE_READS[kind])
    for opt, default in _COMPUTE_DEFAULTS.items():
        if getattr(args, opt) is None:
            setattr(args, opt, default)
    if kind == "root143":
        roots, _ = integer_negative_region(hollom_cubic(), (rat(0), rat(10)), rat(1, 10**4))
        (iv,) = roots
        print(f"real root isolated in ({format_rational(iv.low)}, {format_rational(iv.high)})")
        return {
            "interval": [format_rational(iv.low), format_rational(iv.high)],
            "multiplicity": iv.multiplicity,
        }
    g, posts = _load_instance(args)
    if kind in ("resistance", "rc-prob"):
        _check_vertices(g, (args.u, args.v))
    if kind in ("resistance", "pseudoinverse") and not g.is_connected():
        raise UsageError(f"{kind} needs a connected graph; the input graph is disconnected")
    if kind == "resistance":
        bundle = LaplacianBundle(g)
        value = bundle.resistance(args.u, args.v)
        print(format_rational(value))
        return {"resistance": format_rational(value)}
    if kind == "rc-prob":
        p = _parse_rat(args.p)
        q = _parse_rat(args.q)
        weighted = g.with_weights(p)
        value = rc_connection_prob(weighted, q, args.u, args.v)
        print(format_rational(value))
        return {"probability": format_rational(value)}
    if kind == "bracket":
        if args.extra < 0:
            raise UsageError(f"--extra {args.extra} must be non-negative")
        marked = _parse_int_list(args.marked) if args.marked else ()
        _check_vertices(g, marked)
        if len(set(marked)) != len(marked):
            raise UsageError(f"--marked {args.marked} repeats a vertex")
        table = forest_table(g, marked)
        pattern = None
        if args.pattern:
            groups = [
                _parse_int_list(block if "," in block else ",".join(block))
                for block in args.pattern.split("|")
            ]
            try:
                pattern = canonicalize(marked, groups)
            except ValueError as exc:
                raise UsageError(f"bad pattern {args.pattern!r}: {exc}") from None
        value = table.bracket(pattern, args.extra)
        print(value)
        return {"bracket": str(value)}
    if kind == "pseudoinverse":
        mat = pseudoinverse(laplacian(g))
        print(json.dumps(mat.to_lists()))
        return {"pseudoinverse": mat.to_lists()}
    raise UsageError(f"unknown compute kind {kind!r}")


# ---------------------------------------------------------------------------
# recheck
# ---------------------------------------------------------------------------


def cmd_recheck(args) -> dict:
    try:
        with open(args.report) as fh:
            stored = json.load(fh)
    except (OSError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise UsageError(f"cannot read report {args.report!r}: {reason}") from None
    if not isinstance(stored, dict):
        raise UsageError(f"report {args.report!r} is not a JSON object")
    if stored.get("schema") != SCHEMA:
        raise UsageError(f"unsupported report schema {stored.get('schema')!r}")
    argv = stored.get("argv")
    if not isinstance(argv, list) or not argv:
        raise UsageError("report carries no command to re-run")
    if argv[0] == "recheck":
        raise UsageError("report stores a recheck command; recheck the report it names instead")
    fresh = _run(argv, capture_only=True)
    same = fresh == stored.get("payload")
    print("recheck: identical" if same else "recheck: DIVERGED")
    return {"identical": same, "fresh": fresh}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bunkbed",
        description="Exact random-cluster / forest computations on bunkbed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t2 = sub.add_parser("table2", help="reproduce the counterexample failure windows")
    t2.add_argument("--n", required=True, help="comma-separated gadget sizes, e.g. 3,4,5")
    t2.add_argument("--p", default="1/100", help="edge weight as an exact rational")
    t2.add_argument("--width", default=None, help="bracket width (rational)")
    t2.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--graph", default=None, help=f"named instance ({', '.join(instance_names())})")
    ver.add_argument("--input", default=None, help="graph JSON file")
    ver.add_argument("--catalog", default=None, help="small4 | small5 | identity | outerplanar")
    ver.add_argument("--measure", default=None, help="random-cluster (default), percolation or arboreal")
    ver.add_argument("--p", default=None, help="comma-separated rationals")
    ver.add_argument("--q", default=None, help="comma-separated rationals")
    ver.add_argument("--lam", default=None, help="comma-separated rationals")
    ver.add_argument("--seed", type=int, default=None, help="default 20240")
    ver.add_argument("--weightings", type=int, default=None, help="default 20")
    ver.add_argument("--out", default=None)

    comp = sub.add_parser("compute", help="print one exact quantity")
    comp.add_argument("kind", choices=["resistance", "bracket", "rc-prob", "pseudoinverse", "root143"])
    comp.add_argument("--graph", default=None)
    comp.add_argument("--input", default=None)
    comp.add_argument("--u", type=int, default=None, help="default 0")
    comp.add_argument("--v", type=int, default=None, help="default 1")
    comp.add_argument("--p", default=None, help="default 1/2")
    comp.add_argument("--q", default=None, help="default 1")
    comp.add_argument("--marked", default=None, help="default 0,1; '' marks no vertex")
    comp.add_argument("--pattern", default=None)
    comp.add_argument("--extra", type=int, default=None, help="default 0")
    comp.add_argument("--out", default=None)

    rec = sub.add_parser("recheck", help="re-run a stored report and diff exactly")
    rec.add_argument("report")
    return parser


_COMMANDS = {
    "table2": cmd_table2,
    "verify": cmd_verify,
    "compute": cmd_compute,
    "recheck": cmd_recheck,
}


def _exit_code(payload: dict) -> int:
    for rep in payload.get("reports", ()):
        if rep.get("verdict") == "fails":
            return 1
    if payload.get("failed"):
        return 1
    if payload.get("identical") is False:
        return 1
    return 0


def _run(argv, capture_only: bool = False):
    parser = _build_parser()
    args = parser.parse_args(argv)
    payload = _COMMANDS[args.command](args)
    if capture_only:
        return payload
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                json.dump({"schema": SCHEMA, "argv": list(argv), "payload": payload}, fh, indent=1)
        except OSError as exc:
            raise UsageError(f"cannot write report {out!r}: {type(exc).__name__}: {exc}") from None
        print(f"report written to {out}")
    return payload


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        payload = _run(argv)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationGuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    return _exit_code(payload)


if __name__ == "__main__":
    sys.exit(main())
