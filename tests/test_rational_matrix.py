"""RationalMatrix as integer rows over one denominator, against plain Fraction lists."""

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from psd_oracle import is_psd

from bunkbed.exactnum import RationalMatrix, bareiss_det, invert, psd_certificate, rat

ENTRIES = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def grids(rows, cols, entries=ENTRIES):
    row = st.lists(entries, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


def lists(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def normal(m):
    """m, after checking its representation: int rows over den > 0, in lowest terms."""
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for x in chain.from_iterable(m.num))
    assert gcd(m.den, *chain.from_iterable(m.num)) == 1
    assert m.rows == len(m.num)
    return m


def product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def gauss_jordan(rows):
    """(det, inverse or None) of a square Fraction matrix by plain elimination."""
    n = len(rows)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det, [row[n:] for row in a]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_arithmetic_matches_fraction_lists(data):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(grids(r, k)), data.draw(grids(r, k))
    e = data.draw(grids(k, c))
    s = data.draw(ENTRIES)
    ma, mb, me = RationalMatrix(a), RationalMatrix(b), RationalMatrix(e)
    for m, rows in ((ma, a), (mb, b), (me, e)):
        assert lists(normal(m)) == rows
    expected = {
        "+": (ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        "-": (ma - mb, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        "*": (ma * me, product(a, e)),
        "scalar *": (ma * s, [[x * s for x in row] for row in a]),
        "scalar * on the left": (s * ma, [[s * x for x in row] for row in a]),
        "int scalar *": (ma * 3, [[3 * x for x in row] for row in a]),
        "-m": (-ma, [[-x for x in row] for row in a]),
        "transpose": (ma.transpose(), [list(col) for col in zip(*a)]),
    }
    keep_rows = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=r))
    keep_cols = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k))
    expected["submatrix"] = (
        ma.submatrix(keep_rows, keep_cols),
        [[a[i][j] for j in keep_cols] for i in keep_rows],
    )
    for op, (got, want) in expected.items():
        assert lists(normal(got)) == want, op
        # One representation per matrix: == is structural.
        assert got == RationalMatrix(want), op
    assert (ma == mb) == (a == b)


@st.composite
def square_grids(draw):
    n = draw(st.integers(1, 5))
    rows = draw(grids(n, n))
    if n > 1 and draw(st.booleans()):
        # A dependent last row makes the matrix singular.
        f = draw(ENTRIES)
        rows[-1] = [f * x for x in rows[0]]
    return rows


@settings(deadline=None, max_examples=150)
@given(square_grids())
def test_invert_and_det_match_fraction_elimination(rows):
    m = RationalMatrix(rows)
    det, inverse = gauss_jordan(rows)
    assert bareiss_det(m) == det
    if inverse is None:
        with pytest.raises(ValueError, match="singular"):
            invert(m)
        return
    inv = normal(invert(m))
    assert lists(inv) == inverse
    assert m * inv == RationalMatrix.identity(m.rows)


def test_invert_with_negative_last_pivot():
    # num = [[3, 0], [0, -2]] over 6: the last Bareiss pivot is -6.
    m = RationalMatrix([[rat(1, 2), 0], [0, rat(-1, 3)]])
    inv = normal(invert(m))
    assert lists(inv) == [[2, 0], [0, -3]]
    m = RationalMatrix([[0, 1, 2], [1, 0, 3], [4, -3, 8]])
    det, inverse = gauss_jordan(lists(m))
    assert det < 0
    assert lists(normal(invert(m))) == inverse


def test_zero_by_zero_matrix():
    empty = normal(RationalMatrix([]))
    assert (empty.rows, empty.cols, empty.num, empty.den) == (0, 0, [], 1)
    assert normal(invert(empty)) == empty == RationalMatrix.identity(0)
    assert bareiss_det(empty) == 1
    assert empty + empty == empty * empty == empty.transpose() == empty * rat(5, 3) == empty
    assert psd_certificate(empty) == (True, None)
    assert empty.to_lists() == []


def test_representation_examples():
    m = RationalMatrix([[rat(1, 2), rat(-1, 3)], [2, rat(4, 6)]])
    assert (m.num, m.den) == ([[3, -2], [12, 4]], 6)
    assert m[0, 1] == rat(-1, 3)
    assert m.to_lists() == [["1/2", "-1/3"], ["2", "2/3"]]
    assert normal(m * 6) == RationalMatrix([[3, -2], [12, 4]])
    assert (m * 6).den == 1
    assert RationalMatrix.from_integers([[2, -4]], -6) == RationalMatrix([[rat(-1, 3), rat(2, 3)]])
    with pytest.raises(ZeroDivisionError):
        RationalMatrix.from_integers([[1]], 0)
    with pytest.raises(ValueError, match="ragged"):
        RationalMatrix([[1, 2], [3]])


def _form(rows, x):
    return sum(
        (x[i] * rows[i][j] * x[j] for i in range(len(x)) for j in range(len(x))), Fraction(0)
    )


@st.composite
def symmetric_grids(draw):
    """Symmetric rational matrices: plain, Gram (PSD, often singular) or indefinite."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(("plain", "gram", "indefinite", "zero-diagonal")))
    if shape in ("gram", "indefinite"):
        k = n if shape == "indefinite" else draw(st.integers(1, n))
        a = draw(grids(n, k))
        d = [Fraction(draw(st.integers(1, 3))) for _ in range(k)]
        if shape == "indefinite":
            d[draw(st.integers(0, k - 1))] = Fraction(-draw(st.integers(1, 3)))
        # a diag(d) a^T: by Sylvester's law of inertia it is indefinite when a
        # is nonsingular and d has a negative entry.
        ad = [[x * dt for x, dt in zip(row, d)] for row in a]
        indefinite = shape == "indefinite" and gauss_jordan(a)[0] != 0
        return product(ad, [list(col) for col in zip(*a)]), indefinite
    rows = draw(grids(n, n))
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
        if shape == "zero-diagonal":
            rows[i][i] = Fraction(0)
    return rows, False


@settings(deadline=None, max_examples=200)
@given(symmetric_grids())
def test_psd_certificate_matches_ldl_oracle(case):
    rows, indefinite = case
    ok, witness = psd_certificate(RationalMatrix(rows))
    assert ok == is_psd(rows)
    if indefinite:
        assert not ok
    if ok:
        assert witness is None
    else:
        assert len(witness) == len(rows)
        assert _form(rows, [Fraction(int(x.numerator), int(x.denominator)) for x in witness]) < 0
