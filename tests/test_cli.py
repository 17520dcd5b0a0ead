import json

import pytest
from readout_oracle import windows_by_entries

from bunkbed import measures
from bunkbed.glue import counterexample_numerator
from bunkbed.cli import KNOWN_FAILURE_WINDOWS, main, negative_window_rows
from bunkbed.exactnum import format_rational, parse_rational, rat


def test_compute_rc_prob(capsys):
    code = main(["compute", "rc-prob", "--graph", "K2", "--p", "1/2", "--q", "2", "--u", "0", "--v", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/3"


def test_compute_resistance(capsys):
    code = main(["compute", "resistance", "--graph", "C4", "--u", "0", "--v", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_defaults_are_the_values_in_force(capsys):
    # u 0, v 1, p 1/2, q 1, marked 0,1 and extra 0 when not given.
    for kind, defaults in (
        ("resistance", ["--u", "0", "--v", "1"]),
        ("rc-prob", ["--u", "0", "--v", "1", "--p", "1/2", "--q", "1"]),
        ("bracket", ["--marked", "0,1", "--extra", "0"]),
    ):
        assert main(["compute", kind, "--graph", "K4"]) == 0
        implicit = capsys.readouterr().out
        assert main(["compute", kind, "--graph", "K4", *defaults]) == 0
        assert capsys.readouterr().out == implicit
    # An empty --marked marks no vertex, so 0|1 is no pattern of it.
    assert main(["compute", "bracket", "--graph", "K4", "--pattern", "0|1"]) == 0
    assert main(["compute", "bracket", "--graph", "K4", "--marked", "", "--pattern", "0|1"]) == 2
    assert "does not partition" in capsys.readouterr().err


def test_compute_root143(capsys):
    code = main(["compute", "root143"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.4" in str(out) or "/" in out  # exact rational endpoints


def test_compute_bracket(capsys):
    code = main(["compute", "bracket", "--graph", "K3", "--marked", "0,1", "--pattern", "0|1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_decimal_inputs_rejected():
    assert main(["compute", "rc-prob", "--graph", "K2", "--p", "0.5", "--q", "2"]) == 2


def test_unknown_graph_is_usage_error():
    assert main(["compute", "resistance", "--graph", "nope"]) == 2


def test_verify_identity_suite_exit_zero(capsys):
    code = main(["verify", "--suite", "choe", "--catalog", "small4"])
    assert code == 0
    assert "[holds]" in capsys.readouterr().out


def test_verify_identity_suite_on_one_instance(tmp_path, capsys):
    assert main(["verify", "--suite", "bsst", "--graph", "K4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["[holds] identity-bsst on catalog[1]"]
    doc = {"n": 3, "edges": [[0, 1, "1/2"], [1, 2, "1"], [0, 2, "1"]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    # The only instance is skipped, so nothing holds: the verdict says so and exits 0.
    assert main(["verify", "--suite", "bsst", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[skipped] identity-bsst on catalog[1]",
        f"    skipped: {path}: bsst holds for unit edge weights only",
    ]
    assert main(["verify", "--suite", "rayleigh", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["[holds] identity-rayleigh on catalog[1]"]


@pytest.mark.parametrize(
    "suite",
    ["bsst", "bunkbed-tree-stratum", "cross-inner", "pseudoinverse-blocks",
     "rayleigh", "resistance-bracket", "resistance-matrix", "strong-rayleigh"],
)
def test_verify_identity_suite_skips_a_disconnected_input(suite, tmp_path, capsys):
    doc = {"n": 5, "edges": [[0, 1, "1"], [1, 2, "1"], [0, 2, "1"], [3, 4, "1"]]}
    path = tmp_path / "pieces.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--suite", suite, "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"[skipped] identity-{suite} on catalog[1]",
        f"    skipped: {path}: {suite} needs a connected graph",
    ]


@pytest.mark.parametrize("measure", ["random-cluster", "arboreal"])
def test_verify_bunkbed_prints_why_it_skipped(measure, tmp_path, capsys):
    # Both vertices are posts, so no pair is left to compare.
    path = tmp_path / "posts.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1, "1/2"]], "posts": [0, 1]}))
    assert main(["verify", "--suite", "bunkbed", "--input", str(path), "--measure", measure]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"[skipped] bunkbed-difference-{measure} on {path}",
        "    note: no non-post pair to test",
    ]


def test_verify_bunkbed_named_graph(capsys):
    code = main([
        "verify", "--suite", "bunkbed", "--graph", "K3",
        "--p", "1/4,1/2,3/4", "--q", "2",
    ])
    assert code == 0


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "bogus"]) == 2


def test_table2_small_row(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["table2", "--n", "3", "--p", "1/100", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "[0.70, 1.08]" in printed
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    row = doc["payload"]["rows"][0]
    assert row["matches_known"] is True
    assert row["window_2dp"] == ["0.70", "1.08"]


def test_table2_row_without_window(capsys):
    # At p = 1/10 the n = 3 numerator has no negative window.
    assert main(["table2", "--n", "3", "--p", "1/10"]) == 0
    assert capsys.readouterr().out.strip() == "n=3: no negative window"


def test_table2_compares_with_the_known_table_only_at_its_p_and_width(capsys):
    # The known windows are the p = 1/100 table, read to 1/100.
    assert main(["table2", "--n", "3,11", "--p", "1/5"]) == 0
    printed = capsys.readouterr().out
    assert "known" not in printed
    assert "n=11: negative for q in [0.62, 1.38]" in printed
    for p, width in ((rat(1, 5), None), (rat(1, 100), rat(1, 10))):
        for row in negative_window_rows([3, 11], p, width):
            assert "known" not in row and "matches_known" not in row
    rows = negative_window_rows([3, 11], rat(1, 100), rat(1, 100))
    assert [row["matches_known"] for row in rows] == [True, True]


@pytest.mark.parametrize("width", [rat(1), rat(1, 2), rat(1, 10), rat(1, 10**6)])
def test_negative_window_contains_the_known_one_at_every_width(width):
    for row in negative_window_rows([3, 11], rat(1, 100), width):
        (window,) = row["windows"]
        lo, hi = (parse_rational(x) for x in window)
        known_lo, known_hi = KNOWN_FAILURE_WINDOWS[row["n"]]
        assert lo <= rat(known_lo, 100) and rat(known_hi, 100) <= hi


@pytest.mark.parametrize("width", [rat(1), rat(1, 2), rat(1, 10), rat(1, 100), rat(1, 10**6)])
def test_two_decimal_window_is_negative_at_both_printed_ends(width):
    # The printed hundredths round the inner bracket edges inward, so the
    # numerator is negative at both, even where coarse brackets are wide.
    for row in negative_window_rows([3, 11], rat(1, 100), width):
        coeffs, _, _ = counterexample_numerator(row["n"], rat(1, 100))
        for end in row["window_2dp"]:
            q = rat(int(end.replace(".", "")), 100)
            assert sum(c * q**k for k, c in enumerate(coeffs)) < 0, (row["n"], width, end)


def test_table2_prints_no_two_decimal_window_without_a_negative_hundredth(capsys):
    # Near the p where the n = 3 window closes it is about 0.0025 wide,
    # between 0.88 and 0.89: the windows are printed exactly instead.
    assert main(["table2", "--n", "3", "--p", "18721/393216"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("n=3: negative windows (") and "[" not in printed


@pytest.mark.parametrize("width", [rat(1, 10**6), rat(1, 1000)])
@pytest.mark.parametrize("p", [rat(1, 100), rat(1, 7), rat(2, 5)])
def test_rows_from_the_integer_list_match_the_multipoly_route(p, width):
    # Windows and Z(1) are all a row reads off the numerator; the rest of
    # the row is derived from the windows.  The oracle reads them off the
    # whole twelve-factor network, not off the layer-mirror readout.
    for row in negative_window_rows([1, 2, 3, 5, 11], p, width):
        negative, z_at_1 = windows_by_entries(row["n"], p, width)
        assert row["status"] == "ok"
        assert row["windows"] == [[format_rational(a), format_rational(b)] for a, b in negative]
        assert row["z_at_1"] == format_rational(z_at_1)


def test_recheck_round_trip(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "hypergraph-factor", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["recheck", str(out)]) == 0
    assert "identical" in capsys.readouterr().out


def test_negative_window_rows_guard_skip():
    rows = negative_window_rows([0], rat(1, 100))
    assert rows[0]["status"] == "skipped"
    # The gadget refuses a weight outside (0, 1); the row says so.
    assert negative_window_rows([3], rat(3, 2)) == [
        {"n": 3, "status": "skipped", "reason": "gadget weight must satisfy 0 < p < 1"}
    ]


def test_verify_bunkbed_with_posts_instance(capsys):
    code = main([
        "verify", "--suite", "bunkbed", "--graph", "fig4-left",
        "--p", "1/2", "--q", "1,2",
    ])
    assert code == 0


def test_graph_input_file(tmp_path, capsys):
    doc = {"n": 3, "edges": [[0, 1, "1/2"], [1, 2, "1/2"], [0, 2, "1/2"]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    code = main(["compute", "resistance", "--input", str(path), "--u", "0", "--v", "1"])
    assert code == 0
    # Triangle of half-weight resistors: parallel of 2 and 4.
    assert capsys.readouterr().out.strip() == "4/3"


def test_compute_bracket_weighted_input(tmp_path, capsys):
    doc = {"n": 3, "edges": [[0, 1, "1/2"], [1, 2, "2/3"], [0, 2, "3/4"]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    base = ["compute", "bracket", "--input", str(path), "--marked", "0,2"]
    # Spanning trees weigh 1/2 * 2/3 + 1/2 * 3/4 + 2/3 * 3/4.
    assert main(base + ["--pattern", "02", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "29/24"
    assert json.loads(out.read_text())["payload"] == {"bracket": "29/24"}
    # 0 and 2 apart in two trees: {01} and {12}; in three trees: the empty forest.
    assert main(base + ["--pattern", "0|2"]) == 0
    assert capsys.readouterr().out.strip() == "7/6"
    assert main(base + ["--pattern", "0|2", "--extra", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_table2_recheck_round_trip(tmp_path, capsys):
    out = tmp_path / "t2.json"
    assert main(["table2", "--n", "3", "--p", "1/100", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["recheck", str(out)]) == 0
    assert "identical" in capsys.readouterr().out


def test_compute_pseudoinverse_json(capsys):
    code = main(["compute", "pseudoinverse", "--graph", "K2"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [["1/4", "-1/4"], ["-1/4", "1/4"]]


def test_hollom_graph_hint(capsys):
    assert main(["compute", "resistance", "--graph", "hollom"]) == 2
    assert "hypergraph-factor" in capsys.readouterr().err


def test_state_guard_trip_is_a_guard_error(monkeypatch, capsys):
    monkeypatch.setattr(measures, "_LEVEL_GUARD", 11)
    assert main(["verify", "--suite", "bunkbed", "--graph", "K3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("guard: fold passed ") and err[0].endswith(
        "(guard is 2^11 bytes); 3 vertices live at this step, the sweep's peak is 5 at step 5"
    )


def test_exit_code_mapping():
    from bunkbed.cli import _exit_code

    assert _exit_code({"reports": [{"verdict": "holds"}]}) == 0
    assert _exit_code({"reports": [{"verdict": "fails"}]}) == 1
    assert _exit_code({"failed": [3]}) == 1
    assert _exit_code({"identical": False}) == 1


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["table2", "--n", "3,x"], "3,x"),
        (["compute", "resistance", "--input", "{tmp}/missing.json"], "FileNotFoundError"),
        (["compute", "resistance", "--input", "{tmp}/no_edges.json"], "edges"),
        (["compute", "bracket", "--graph", "K3", "--marked", "0,9"], "[9]"),
        (["compute", "bracket", "--graph", "K3", "--pattern", "0|2"], "0|2"),
        (["compute", "bracket", "--graph", "K3", "--pattern", "x|1"], "x"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--measure", "arboreal", "--lam=-1"], "-1"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--measure", "arboreal", "--lam=-1/2"], "-1/2"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--p", "3/2"], "3/2"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--measure", "percolationx"], "percolationx"),
        (["compute", "rc-prob", "--graph", "K2", "--q", "0"], "q"),
        (["compute", "rc-prob", "--graph", "K2", "--p", "3/2"], "3/2"),
        (["compute", "pseudoinverse", "--input", "{tmp}/two_edges.json"], "disconnected"),
        (["compute", "resistance", "--input", "{tmp}/two_edges.json", "--u", "0", "--v", "2"], "disconnected"),
        (["verify", "--suite", "bunkbed", "--input", "{tmp}/poly.json", "--measure", "arboreal"], "not a rational"),
        (["compute", "resistance", "--input", "{tmp}/poly.json"], "not a rational"),
        (["compute", "bracket", "--input", "{tmp}/poly.json"], "not a rational"),
        (["compute", "resistance", "--input", "{tmp}/number.json"], "edge (0, 1)"),
        (["table2", "--n", "3", "--p", "0"], "between 0 and 1"),
        (["table2", "--n", "3", "--p", "3/2"], "3/2"),
        (["table2", "--n", "3", "--width", "0"], "--width 0"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--p", ","], "empty list"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--q", ","], "empty list"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--measure", "arboreal", "--lam", ","], "empty list"),
        (["verify", "--suite", "p-threshold", "--graph", "K4", "--q", ","], "empty list"),
        (["compute", "bracket", "--graph", "K3", "--extra", "-1"], "--extra -1"),
        (["recheck", "{tmp}/missing.json"], "FileNotFoundError"),
        (["recheck", "{tmp}/not_json.json"], "JSONDecodeError"),
        (["recheck", "{tmp}/list.json"], "not a JSON object"),
        (["table2", "--n", ","], "empty list"),
        (["table2", "--n", "0,-2"], "[0, -2]"),
        (["recheck", "{tmp}/self_recheck.json"], "recheck command"),
        (["verify", "--suite", "p-threshold", "--graph", "K4"], "needs an instance with posts"),
        (["compute", "bracket", "--graph", "K3", "--marked", "0,0"], "repeats a vertex"),
        (["compute", "bracket", "--graph", "K3", "--marked", "0,0", "--pattern", "0|0"], "repeats a vertex"),
        (["compute", "pseudoinverse", "--input", "{tmp}/n_zero.json"], "'n'"),
        (["verify", "--suite", "resistance-matrix", "--input", "{tmp}/n_zero.json"], "got 0"),
        (["compute", "pseudoinverse", "--input", "{tmp}/n_float.json"], "got 2.0"),
        (["compute", "resistance", "--input", "{tmp}/n_negative.json"], "got -2"),
        (["compute", "resistance", "--input", "{tmp}/n_true.json"], "got True"),
        (["verify", "--suite", "bunkbed", "--input", "{tmp}/post_out_of_range.json"], "'posts'"),
        (["verify", "--suite", "bunkbed", "--input", "{tmp}/posts_not_a_list.json"], "'posts'"),
        (["verify", "--suite", "bunkbed", "--input", "{tmp}/float_endpoint.json"], "endpoints"),
        (["compute", "resistance", "--input", "{tmp}/float_endpoint.json", "--u", "0", "--v", "2"], "endpoints"),
        (["verify", "--suite", "rayleigh", "--input", "{tmp}/float_endpoint.json"], "endpoints"),
        (["verify", "--suite", "conjectures", "--weightings", "0"], "weightings"),
        (["verify", "--suite", "conjectures", "--weightings", "-3"], "weightings"),
        (["compute", "bracket", "--input", "{tmp}/negative.json", "--marked", "0,2"], "non-negative; got -1/2"),
        (["verify", "--suite", "bunkbed", "--catalog", "small4", "--graph", "K4"], "--catalog"),
        (["verify", "--suite", "choe", "--catalog", "identity", "--input", "{tmp}/two_edges.json"], "--catalog"),
        (["compute", "resistance", "--graph", "K4", "--out", "{tmp}/missing/x.json"], "cannot write report"),
        (["verify", "--suite", "engine", "--catalog", "small4"], "engine runs its own fixed instances"),
        (["verify", "--suite", "conjectures", "--graph", "K4"], "conjectures runs its own fixed instances"),
        (["verify", "--suite", "hypergraph-factor", "--input", "{tmp}/two_edges.json"], "hypergraph-factor runs its own"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--measure", "percolation", "--q", "7"], "does not read --q"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--measure", "arboreal", "--p", "1/2", "--q", "2"], "--p, --q"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--lam", "1"], "random-cluster does not read --lam"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--seed", "1", "--weightings", "2"], "--seed, --weightings"),
        (["verify", "--suite", "choe", "--lam", "1"], "choe does not read --lam"),
        (["verify", "--suite", "weak-limit", "--measure", "arboreal", "--seed", "1"], "--measure, --seed"),
        (["verify", "--suite", "weak-limit", "--weightings", "3"], "weak-limit does not read --weightings"),
        (["verify", "--suite", "p-threshold", "--graph", "fig4-left", "--p", "1/2"], "p-threshold does not read --p"),
        (["verify", "--suite", "conjectures", "--measure", "percolation", "--q", "2"], "--measure, --q"),
        (["verify", "--suite", "engine", "--lam", "1", "--weightings", "2"], "engine does not read --lam, --weightings"),
        (["verify", "--suite", "hypergraph-factor", "--seed", "3"], "hypergraph-factor does not read --seed"),
        (["verify", "--suite", "bunkbed", "--graph", "K3", "--p", ""], "empty list ''"),
        (["verify", "--suite", "p-threshold", "--graph", "fig4-left", "--q", ""], "empty list ''"),
        (["table2", "--n", "3", "--width", ""], "bad rational ''"),
        (["table2", "--n", "3,4,3"], "repeats [3]"),
        (
            ["compute", "resistance", "--graph", "K4", "--p", "1/3", "--marked", "0,5", "--pattern", "0"],
            "compute resistance does not read --p, --marked, --pattern",
        ),
        (["compute", "root143", "--graph", "K4", "--u", "9"], "compute root143 does not read --graph, --u"),
        (["compute", "root143", "--input", "{tmp}/missing.json"], "compute root143 does not read --input"),
        (["compute", "pseudoinverse", "--graph", "P3", "--u", "7"], "compute pseudoinverse does not read --u"),
        (["compute", "rc-prob", "--graph", "K2", "--extra", "1"], "compute rc-prob does not read --extra"),
        (["compute", "bracket", "--graph", "K3", "--v", "1", "--q", "2"], "compute bracket does not read --v, --q"),
        (["compute", "resistance", "--graph", "K4", "--marked", ""], "compute resistance does not read --marked"),
    ],
)
def test_malformed_input_is_usage_error(argv, fragment, tmp_path, capsys):
    (tmp_path / "no_edges.json").write_text(json.dumps({"n": 2}))
    (tmp_path / "two_edges.json").write_text(json.dumps({"n": 4, "edges": [[0, 1, "1"], [2, 3, "1"]]}))
    poly_edges = [[0, 1, "1/3*q^1*l^1*g^0*h^0"], [1, 2, "1/2"], [0, 2, "1/2"]]
    (tmp_path / "poly.json").write_text(json.dumps({"n": 3, "edges": poly_edges}))
    (tmp_path / "number.json").write_text(json.dumps({"n": 2, "edges": [[0, 1, 1]]}))
    triangle = [[0, 1, "1/2"], [1, 2, "1/2"], [0, 2, "1/2"]]
    (tmp_path / "post_out_of_range.json").write_text(json.dumps({"n": 3, "edges": triangle, "posts": [7]}))
    (tmp_path / "posts_not_a_list.json").write_text(json.dumps({"n": 3, "edges": triangle, "posts": "1"}))
    negative = [[0, 1, "1/2"], [1, 2, "-1/2"], [0, 2, "1/2"]]
    (tmp_path / "negative.json").write_text(json.dumps({"n": 3, "edges": negative}))
    (tmp_path / "float_endpoint.json").write_text(json.dumps({"n": 3, "edges": [[0.0, 1, "1/2"], [1, 2, "1/2"]]}))
    for name, n in (("n_zero", 0), ("n_float", 2.0), ("n_negative", -2), ("n_true", True)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"n": n, "edges": []}))
    (tmp_path / "not_json.json").write_text("schema: 1")
    (tmp_path / "list.json").write_text("[]")
    self_recheck = {"schema": 1, "argv": ["recheck", str(tmp_path / "self_recheck.json")], "payload": {}}
    (tmp_path / "self_recheck.json").write_text(json.dumps(self_recheck))
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0]


# A weighted multigraph (two parallel 1-3 edges) and its exact outputs, pinned
# from the Fraction-entry matrix layer: the integer-row layer must print the
# same bytes.
WEIGHTED_GRAPH = {
    "n": 5,
    "edges": [
        [0, 1, "1/2"], [1, 2, "2/3"], [2, 3, "3"], [3, 4, "5/7"],
        [4, 0, "1/3"], [0, 2, "4/9"], [1, 3, "7/4"], [1, 3, "1/6"],
    ],
}
WEIGHTED_PINV = [
    ["2249139/4418900", "-455391/4418900", "-535911/4418900", "-671811/4418900", "-293013/2209450"],
    ["-455391/4418900", "1169379/4418900", "31059/4418900", "144759/4418900", "-444903/2209450"],
    ["-535911/4418900", "31059/4418900", "1022439/4418900", "295239/4418900", "-406413/2209450"],
    ["-671811/4418900", "144759/4418900", "295239/4418900", "766539/4418900", "-267363/2209450"],
    ["-293013/2209450", "-444903/2209450", "-406413/2209450", "-267363/2209450", "705846/1104725"],
]
WEIGHTED_RESISTANCE = {
    (0, 1): "43293/44189", (0, 2): "43434/44189", (0, 3): "43593/44189",
    (0, 4): "249783/176756", (1, 2): "21297/44189", (1, 3): "16464/44189",
    (1, 4): "230895/176756", (2, 3): "11985/44189", (2, 4): "218859/176756",
    (3, 4): "186375/176756",
}


def test_weighted_pseudoinverse_and_resistance_are_pinned(tmp_path, capsys):
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(WEIGHTED_GRAPH))
    out = tmp_path / "report.json"
    assert main(["compute", "pseudoinverse", "--input", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == json.dumps(WEIGHTED_PINV)
    assert json.loads(out.read_text())["payload"] == {"pseudoinverse": WEIGHTED_PINV}
    for (u, v), value in WEIGHTED_RESISTANCE.items():
        for a, b in ((u, v), (v, u)):
            argv = ["compute", "resistance", "--input", str(path), "--u", str(a), "--v", str(b)]
            assert main(argv + ["--out", str(out)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == value
            assert json.loads(out.read_text())["payload"] == {"resistance": value}
