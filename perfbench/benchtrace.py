"""Spans and counters around the bunkbed layers for the traced run.

The tracer wraps public functions of the program from outside.  Each function
is replaced under every name a bunkbed module binds it to, so callers that
look the name up in their own module's globals (glue.multiply inside
contract_network, glue.join_rgs inside multiply) reach the wrapper.  Spans
are kept in memory as [name, parent id, start, end] and written out when the
run ends; a layer's self time is its spans' time minus their children's.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

# Enumeration engines whose subsets are counted as measures.enum.
ENUMERATIONS = (
    ("measures", "bunkbed_case_profiles"),
    ("measures", "forest_table"),
    ("measures", "forest_masks"),
    ("measures", "rc_boundary_table"),
    ("measures", "alt_colouring_counts"),
    ("glue", "factor_from_graph"),
)
TABLE2_JOBS = ("n3", "n4", "n5", "n6", "n11", "n21")
VERIFY_JOBS = (
    "resistance-bracket",
    "cross-inner",
    "pseudoinverse-blocks",
    "resistance-matrix",
    "bsst",
    "choe",
    "strong-rayleigh",
    "rayleigh",
    "four-point-leading",
    "bunkbed-tree-stratum",
    "weak-limit",
    "bunkbed-small4",
    "bunkbed-K4-arboreal",
    "p-threshold-K4",
    "conjectures",
    "hypergraph-factor",
    "engine",
)
# Layers reported by their share of the traced pass's wall time.
SELF_SHARE_LAYERS = (
    "glue.multiply",
    "glue.eliminate",
    "glue.gadget_factor",
    "glue.contract_network",
    "measures.enum",
    "treealg.pseudoinverse",
    "treealg.all_minors_count",
    "exactnum.invert",
    "exactnum.bareiss_det",
    "exactnum.isolate_negative_region",
    "exactnum.isolate_real_roots.sturm",
    "exactnum.isolate_real_roots.descartes",
    "exactnum.sturm_chain",
)
CALL_COUNTS = (
    "glue.multiply",
    "glue.eliminate",
    "glue.gadget_factor",
    "glue.contract_network",
    "partition.join_rgs",
    "measures.enum",
    "treealg.pseudoinverse",
    "treealg.all_minors_count",
    "exactnum.invert",
    "exactnum.bareiss_det",
    "exactnum.isolate_negative_region",
)
# Name and unit of every per-layer metric, in the order they are reported.
PER_LAYER = (
    [(f"{layer}.self_pct", "%") for layer in SELF_SHARE_LAYERS]
    + [(f"{layer}.calls", "count") for layer in CALL_COUNTS]
    + [
        ("glue.multiply.coeff_pairs", "count"),
        ("glue.multiply.max_coeff_bits", "bits"),
        ("glue.contract_network.max_boundary", "count"),
        ("glue.contract_network.max_entries", "count"),
        ("glue.entry_yield", "ratio"),
        ("measures.enum.subsets", "count"),
        ("measures.subsets_per_s", "1/s"),
        ("measures.forest_yield", "ratio"),
        ("exactnum.invert.max_dim", "count"),
        ("exactnum.isolate_real_roots.fallbacks", "count"),
        ("exactnum.roots.max_degree", "count"),
        ("exactnum.roots.max_bits", "bits"),
        ("catalog.connected_graphs.setup_s", "s"),
        ("graph.hollom_instance.setup_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    + [(f"cli.table2.row_pct.{job}", "%") for job in TABLE2_JOBS]
    + [(f"verify.suite_pct.{job}", "%") for job in VERIFY_JOBS]
)


class Tracer:
    """In-memory spans and counters; records only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(int)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[sid][0] == name for sid in self.stack)

    def bump_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def take(self) -> dict:
        """Return what was recorded so far and start afresh."""
        snap = {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima)}
        self.spans, self.stack = [], []
        self.counts, self.maxima = Counter(), defaultdict(int)
        return snap

    def wrap(self, fn, label, after=None):
        """Span around fn; `label` is a name or a function of the arguments."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = label if isinstance(label, str) else label(args, kwargs)
            tracer.counts[name + ".calls"] += 1
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, fn, key):
        """Call counter without a span, for functions called millions of times."""
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted


def patch(bb, module: str, attr: str, make_wrapper) -> None:
    """Replace a function under every name the program's modules bind it to."""
    fn = getattr(getattr(bb, module), attr)
    wrapper = make_wrapper(fn)
    for mod in vars(bb).values():
        for name, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, name, wrapper)


def _int_bits(coeffs) -> int:
    """Largest coefficient bit length once the rationals share a denominator."""
    lcm = 1
    for c in coeffs:
        lcm = math.lcm(lcm, int(c.denominator))
    return max((abs(int(c.numerator) * (lcm // int(c.denominator))).bit_length() for c in coeffs), default=0)


def instrument(tracer: Tracer, bb) -> None:
    """Wrap the layers of the freshly imported program `bb`."""
    t = tracer

    def entry_lengths(factor):
        return sum(len(c) for c in factor.entries.values())

    def after_multiply(args, kwargs, result):
        t.counts["glue.multiply.coeff_pairs"] += entry_lengths(args[0]) * entry_lengths(args[1])
        t.counts["glue.multiply.entries"] += len(result.entries)
        bits = max((abs(c).bit_length() for cs in result.entries.values() for c in cs), default=0)
        t.bump_max("glue.multiply.max_coeff_bits", bits)
        if t.inside("glue.contract_network"):
            t.bump_max("glue.contract_network.max_boundary", len(result.boundary))
            t.bump_max("glue.contract_network.max_entries", len(result.entries))

    def after_eliminate(args, kwargs, result):
        t.counts["glue.eliminate.entries"] += len(result.entries)

    patch(bb, "glue", "multiply", lambda fn: t.wrap(fn, "glue.multiply", after_multiply))
    patch(bb, "glue", "eliminate", lambda fn: t.wrap(fn, "glue.eliminate", after_eliminate))
    for attr in ("gadget_factor", "contract_network"):
        patch(bb, "glue", attr, lambda fn, a=attr: t.wrap(fn, f"glue.{a}"))
    patch(bb, "partition", "join_rgs", lambda fn: t.count(fn, "partition.join_rgs.calls"))

    def after_enum(args, kwargs, result, attr):
        subsets = 2 ** args[0].m
        t.counts["measures.enum.subsets"] += subsets
        forests = None
        if attr == "forest_masks":
            forests = len(result)
        elif attr == "alt_colouring_counts":
            forests = result[2]
        elif attr == "forest_table" and all(isinstance(x, int) for x in result.entries.values()):
            forests = sum(result.entries.values())
        if forests is not None:
            t.counts["measures.forests"] += forests
            t.counts["measures.forest_subsets"] += subsets

    for module, attr in ENUMERATIONS:
        patch(
            bb,
            module,
            attr,
            lambda fn, a=attr: t.wrap(fn, "measures.enum", lambda x, y, r: after_enum(x, y, r, a)),
        )

    for attr in ("pseudoinverse", "all_minors_count"):
        patch(bb, "treealg", attr, lambda fn, a=attr: t.wrap(fn, f"treealg.{a}"))
    patch(
        bb,
        "exactnum",
        "invert",
        lambda fn: t.wrap(fn, "exactnum.invert", lambda a, k, r: t.bump_max("exactnum.invert.max_dim", a[0].rows)),
    )
    for attr in ("bareiss_det", "isolate_negative_region", "sturm_chain"):
        patch(bb, "exactnum", attr, lambda fn, a=attr: t.wrap(fn, f"exactnum.{a}"))

    sturm_limit = getattr(bb.exactnum, "_STURM_DEGREE_LIMIT", 24)

    def isolation_label(args, kwargs):
        coeffs = list(args[0])
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        degree = len(coeffs) - 1
        t.bump_max("exactnum.roots.max_degree", degree)
        t.bump_max("exactnum.roots.max_bits", _int_bits([bb.exactnum.rat(c) for c in coeffs]))
        engine = kwargs.get("engine", args[3] if len(args) > 3 else "auto")
        if engine == "auto":
            engine = "sturm" if degree <= sturm_limit else "descartes"
        name = f"exactnum.isolate_real_roots.{engine}"
        if engine == "sturm" and t.current() == "exactnum.isolate_real_roots.descartes":
            t.counts["exactnum.isolate_real_roots.fallbacks"] += 1
        return name

    patch(bb, "exactnum", "isolate_real_roots", lambda fn: t.wrap(fn, isolation_label))
    for module, attr in (("catalog", "connected_graphs"), ("graph", "hollom_instance")):
        patch(bb, module, attr, lambda fn, m=module, a=attr: t.wrap(fn, f"{m}.{a}"))


def self_times(spans) -> dict:
    """Self time per span name: duration minus the children's durations."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for sid, (name, parent, start, end) in enumerate(spans):
        out[name] += end - start - child[sid]
    return out


def layer_metrics(
    setup: dict, traced: dict, traced_wall: float, untraced_wall: float, setup_scale: float, pass_scale: float
) -> dict:
    """Every PER_LAYER metric from the setup and traced-pass recordings.

    Spans hold raw wall times; `setup_scale` and `pass_scale` turn the
    set-up's and the traced pass's into reference seconds like the walls
    passed in.
    """
    counts = traced["counts"]
    maxima = traced["maxima"]
    own = {name: s * pass_scale for name, s in self_times(traced["spans"]).items()}
    setup_own = {name: s * setup_scale for name, s in self_times(setup["spans"]).items()}
    jobs = defaultdict(float)
    for name, parent, start, end in traced["spans"]:
        if name.startswith("job/"):
            jobs[name[4:]] += (end - start) * pass_scale

    def pct(seconds):
        return 100.0 * seconds / traced_wall

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{layer}.self_pct": pct(own.get(layer, 0.0)) for layer in SELF_SHARE_LAYERS}
    values.update({f"{layer}.calls": counts.get(f"{layer}.calls", 0) for layer in CALL_COUNTS})
    values.update(
        {
            "glue.multiply.coeff_pairs": counts.get("glue.multiply.coeff_pairs", 0),
            "glue.multiply.max_coeff_bits": maxima.get("glue.multiply.max_coeff_bits", 0),
            "glue.contract_network.max_boundary": maxima.get("glue.contract_network.max_boundary", 0),
            "glue.contract_network.max_entries": maxima.get("glue.contract_network.max_entries", 0),
            "glue.entry_yield": ratio(counts.get("glue.eliminate.entries", 0), counts.get("glue.multiply.entries", 0)),
            "measures.enum.subsets": counts.get("measures.enum.subsets", 0),
            "measures.subsets_per_s": ratio(counts.get("measures.enum.subsets", 0), own.get("measures.enum", 0.0)),
            "measures.forest_yield": ratio(counts.get("measures.forests", 0), counts.get("measures.forest_subsets", 0)),
            "exactnum.invert.max_dim": maxima.get("exactnum.invert.max_dim", 0),
            "exactnum.isolate_real_roots.fallbacks": counts.get("exactnum.isolate_real_roots.fallbacks", 0),
            "exactnum.roots.max_degree": maxima.get("exactnum.roots.max_degree", 0),
            "exactnum.roots.max_bits": maxima.get("exactnum.roots.max_bits", 0),
            "catalog.connected_graphs.setup_s": setup_own.get("catalog.connected_graphs", 0.0),
            "graph.hollom_instance.setup_s": setup_own.get("graph.hollom_instance", 0.0),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.spans": len(traced["spans"]),
        }
    )
    values.update({f"cli.table2.row_pct.{job}": pct(jobs.get(f"table2/{job}", 0.0)) for job in TABLE2_JOBS})
    values.update({f"verify.suite_pct.{job}": pct(jobs.get(f"verify/{job}", 0.0)) for job in VERIFY_JOBS})
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
