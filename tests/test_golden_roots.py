"""Exact root-isolation outputs, pinned.

The expected strings are the outputs of the earlier isolators, which mapped
every interval from the original polynomial and counted every Sturm bracket
on the whole chain.  The kernel must visit the same bisection points, so
every bracket must come out identical.
"""

import random

import pytest

from bunkbed import exactnum
from bunkbed.cli import main, negative_window_rows
from bunkbed.exactnum import format_rational, isolate_real_roots, rat


def test_table2_windows_are_pinned():
    rows = negative_window_rows([3, 4, 11], rat(1, 100))
    assert {row["n"]: row["windows"] for row in rows} == {
        3: [["365503/524288", "570743/524288"]],
        4: [["640387/1048576", "1314397/1048576"]],
        11: [["292991/524288", "372563/262144"]],
    }


def test_table2_rows_are_pinned():
    rows = negative_window_rows([3, 4, 11], rat(1, 100)) + negative_window_rows([3, 11], rat(1, 5))
    assert rows == [
        {
            "n": 3,
            "status": "ok",
            "z_at_1": "1",
            "windows": [["365503/524288", "570743/524288"]],
            "window_2dp": ["0.70", "1.08"],
            "known": ["0.70", "1.08"],
            "matches_known": True,
        },
        {
            "n": 4,
            "status": "ok",
            "z_at_1": "1",
            "windows": [["640387/1048576", "1314397/1048576"]],
            "window_2dp": ["0.62", "1.25"],
            "known": ["0.62", "1.25"],
            "matches_known": True,
        },
        {
            "n": 11,
            "status": "ok",
            "z_at_1": "1",
            "windows": [["292991/524288", "372563/262144"]],
            "window_2dp": ["0.56", "1.42"],
            "known": ["0.56", "1.42"],
            "matches_known": True,
        },
        {"n": 3, "status": "ok", "z_at_1": "1", "windows": []},
        {
            "n": 11,
            "status": "ok",
            "z_at_1": "1",
            "windows": [["321023/524288", "1454457/1048576"]],
            "window_2dp": ["0.62", "1.38"],
        },
    ]


def test_largest_table2_rows_are_pinned():
    rows = negative_window_rows([21, 31], rat(1, 100))
    assert rows == [
        {
            "n": 21,
            "status": "ok",
            "z_at_1": "1",
            "windows": [["585317/1048576", "1499369/1048576"]],
            "window_2dp": ["0.56", "1.42"],
            "known": ["0.56", "1.42"],
            "matches_known": True,
        },
        {
            "n": 31,
            "status": "ok",
            "z_at_1": "1",
            "windows": [["585315/1048576", "187453/131072"]],
            "window_2dp": ["0.56", "1.43"],
            "known": ["0.56", "1.43"],
            "matches_known": True,
        },
    ]


def test_root143_interval_is_pinned(capsys):
    assert main(["compute", "root143"]) == 0
    assert capsys.readouterr().out == "real root isolated in (93725/65536, 46865/32768)\n"


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fallback_polynomial(close_pair=False):
    """Seeded degree-26 polynomial with a double root, so Descartes stalls on it.

    Six rational roots in (0, 3), one of them double, and ten quadratic
    factors with no real roots.  `close_pair` moves the second copy of the
    double root r to r + 10**-13, closer than Descartes separates at the
    width 10**-6 used here.
    """
    rng = random.Random(26)
    double = [-rng.randrange(200, 1800), 1000]
    second = [double[0] * 10**10 - 1, 10**13] if close_pair else double
    coeffs = [1]
    for f in [double, second] + [[-rng.randrange(1, 3000), 1000] for _ in range(4)]:
        coeffs = _mul(coeffs, f)
    while len(coeffs) - 1 < 26:
        d = rng.randrange(64, 128)
        a = rng.randrange(-3 * d, 3 * d)
        s = rng.randrange(d // 4 + 1, 3 * d)
        coeffs = _mul(coeffs, [a * a + s * s, -2 * a * d, d * d])
    return coeffs


def test_fallback_polynomial_intervals_are_pinned():
    coeffs = fallback_polynomial()
    assert len(coeffs) - 1 == 26
    width = rat(1, 10**6)
    with pytest.raises(exactnum._Stall):
        exactnum._isolate_descartes(coeffs, rat(0), rat(4), width, width / 2**16)
    found = isolate_real_roots(coeffs, (rat(0), rat(4)), width)
    assert [[format_rational(iv.low), format_rational(iv.high), iv.multiplicity] for iv in found] == [
        ["435683/524288", "871367/1048576", 1],
        ["220463/262144", "881853/1048576", 1],
        ["453509/262144", "1814037/1048576", 2],
        ["464519/262144", "1858077/1048576", 1],
        ["708313/262144", "2833253/1048576", 1],
    ]


def test_fallback_polynomial_builds_no_sturm_chain(monkeypatch):
    built = []
    real = exactnum.sturm_chain

    def counting(coeffs):
        chain = real(coeffs)
        built.append(chain[0])
        return chain

    monkeypatch.setattr(exactnum, "sturm_chain", counting)
    width = rat(1, 10**6)
    found = isolate_real_roots(fallback_polynomial(), (rat(0), rat(4)), width)
    assert [iv.multiplicity for iv in found] == [1, 1, 2, 1, 1]
    found = isolate_real_roots(fallback_polynomial(close_pair=True), (rat(0), rat(4)), width)
    assert [iv.multiplicity for iv in found] == [1] * 6
    assert all(iv.width() < width for iv in found)
    # Descartes isolates the square-free part of the double root, and goes
    # on down its own tree to separate roots 10**-13 apart: no chain at all.
    assert built == []
