import random
import re
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from dense_poly import at, from_roots, qpoly
from descartes_oracle import (
    _refine_sign_change,
    interval_variations,
    isolate_descartes,
    taylor_shift_by_loops,
    value,
)
from hypothesis import given, settings, strategies as st
from invert_oracle import invert_by_back_substitution
from region_oracle import negative_region_by_evaluation
from sturm_oracle import isolate_sturm

from bunkbed import exactnum
from bunkbed.exactnum import (
    IsolatingInterval,
    MultiPoly,
    Rational,
    RationalMatrix,
    bareiss_det,
    descartes_no_roots_above,
    format_rational,
    integer_negative_region,
    invert,
    isolate_negative_region,
    isolate_real_roots,
    parse_rational,
    psd_certificate,
    rat,
    sturm_chain,
    sturm_count,
)

CUBIC = qpoly([-7, 10, -5, 1])


def test_rational_parse_and_format():
    assert parse_rational("3/4") == rat(3, 4)
    assert parse_rational("-2") == rat(-2)
    assert format_rational(rat(6, 8)) == "3/4"
    assert format_rational(rat(5)) == "5"
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_rat_refuses_floats():
    # A float's binary expansion is not the decimal it was written as.
    for args in ((0.1,), (1, 0.5), (0.5, 2), (Rational(1, 2), 1.0)):
        with pytest.raises(TypeError):
            rat(*args)


def test_rat_builds_one_rational_and_returns_a_rational_unchanged():
    x = Rational(3, 7)
    assert rat(x) is x
    assert rat(x, 1) is x
    assert type(rat(6, -4)) is Rational and rat(6, -4) == Rational(-3, 2)
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)
    # Everything but two ints or a lone Rational takes the general path.
    assert rat(True, 2) == Rational(1, 2)
    assert rat(x, 3) == Rational(1, 7)
    assert rat(Fraction(1, 2)) == Rational(1, 2)
    assert rat("-6/4") == Rational(-3, 2)


def test_rat_refuses_decimal_strings():
    # Fraction reads "0.1" as one tenth; rat reads only integers and "a/b",
    # and so do the polynomial view, the matrices and root isolation.
    for args in (("0.1",), ("1/2", "0.5"), ("1e3",)):
        with pytest.raises(ValueError):
            rat(*args)
    assert rat("3/4", "1/2") == Rational(3, 2)
    with pytest.raises(ValueError):
        MultiPoly({(0, 0, 0, 0): "0.1"})
    with pytest.raises(ValueError):
        RationalMatrix([["0.5"]])
    with pytest.raises(ValueError):
        isolate_real_roots(["-0.5", 1], (rat(0), rat(1)), rat(1, 10))


def test_multipoly_refuses_floats():
    with pytest.raises(TypeError):
        MultiPoly({(0, 0, 0, 0): 0.1})


def test_rational_matrix_refuses_floats():
    with pytest.raises(TypeError):
        RationalMatrix([[0.1]])


def test_root_isolation_refuses_float_coefficients():
    with pytest.raises(TypeError):
        isolate_real_roots([-0.1, 1], (rat(0), rat(1)), rat(1, 10))


@pytest.mark.parametrize(
    "call",
    [
        lambda: isolate_real_roots([-1, 2], (rat(0), rat(2)), 0.1),
        lambda: isolate_real_roots([-1, 2], (0.0, rat(2)), rat(1, 10)),
        lambda: isolate_negative_region(CUBIC, (0.0, 1), rat(1, 10)),
        lambda: isolate_negative_region(CUBIC, (rat(0), rat(10)), 0.001),
        lambda: descartes_no_roots_above(CUBIC.dense_in("q"), 0.5),
        lambda: sturm_count(sturm_chain(CUBIC.dense_in("q")), 0.25, rat(10)),
        lambda: CUBIC.eval({"q": 0.1}),
        lambda: IsolatingInterval(rat(0), rat(1)).contains(0.1),
    ],
    ids=["width", "domain", "region-domain", "region-width", "descartes-point", "sturm-point", "eval", "contains"],
)
def test_exact_entries_refuse_float_points_domains_and_widths(call):
    # 0.1 is a binary fraction, 3602879701896397 / 2**55, not one tenth.
    with pytest.raises(TypeError):
        call()


def test_no_code_path_compares_type_names():
    # No code path may compare type names, so none can depend on which
    # rational type happens to be installed.
    src = Path(__file__).resolve().parents[1] / "src" / "bunkbed"
    compare = re.compile(r"\.__name__\s*(==|!=|(not\s+)?in\b)|(==|!=|\bin)\s*type\(.*\)\.__name__")
    hits = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if compare.search(line)
    ]
    assert hits == []


def test_polynomials_coerce_every_rational_type():
    for x in (3, True, Fraction(1, 3), rat(2, 5)):
        p = MultiPoly({(0, 0, 0, 0): 1, (1, 0, 0, 0): x})
        assert all(type(c) is Rational for c in p.terms.values())
        assert p.dense_in("q") == [1, x]
        assert p.eval({"q": rat(1)}) == 1 + x


# -- the polynomial view


def test_poly_eval_examples():
    assert CUBIC.eval({"q": rat(1)}) == -1
    assert CUBIC.eval({"q": rat(2)}) == 1
    forests_k3 = MultiPoly({(0, 2, 0, 0): 3, (0, 1, 0, 0): 3, (0, 0, 0, 0): 1})
    assert forests_k3.eval({"l": rat(1)}) == 7


def test_poly_eval_missing_assignment_names_variable():
    with pytest.raises(ValueError, match="q"):
        CUBIC.eval({"l": rat(1)})


def test_poly_string_round_trip():
    p = MultiPoly({(2, 1, 0, 0): 3, (0, 0, 1, 0): rat(-1, 2), (0, 0, 0, 0): 5})
    assert p.to_string() == "5*q^0*l^0*g^0*h^0 + -1/2*q^0*l^0*g^1*h^0 + 3*q^2*l^1*g^0*h^0"
    assert MultiPoly().to_string() == "0"
    assert MultiPoly({(0, 0, 0, 0): 0}) == MultiPoly()


def test_poly_coefficients_and_degrees():
    p = qpoly([0, 0, 3, 0, 1])
    assert p.dense_in("q") == [0, 0, 3, 0, 1]
    assert MultiPoly({(0, 3, 0, 0): 2}).dense_in("l") == [0, 0, 0, 2]
    assert MultiPoly().dense_in("q") == [0]
    with pytest.raises(ValueError, match="univariate"):
        MultiPoly({(1, 1, 0, 0): 1}).dense_in("q")
    with pytest.raises(ValueError):
        MultiPoly({(1, 0, 0): 1})


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).map(lambda f: rat(f.numerator, f.denominator))


def poly_strategy():
    exponents = st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)
    )
    return st.dictionaries(exponents, small_rationals, max_size=5).map(MultiPoly)


@settings(deadline=None, max_examples=40)
@given(poly_strategy(), poly_strategy())
def test_poly_eval_commutes_with_arithmetic(a, b):
    # eval is additive over summed term dicts.
    point = {"q": rat(2, 3), "l": rat(-1, 2), "g": rat(3), "h": rat(1, 5)}
    total = dict(a.terms)
    for exp, c in b.terms.items():
        total[exp] = total.get(exp, 0) + c
    assert MultiPoly(total).eval(point) == a.eval(point) + b.eval(point)


# -- matrices


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Rational(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_bareiss_examples():
    assert bareiss_det(RationalMatrix([[2, -1], [-1, 2]])) == 3
    assert bareiss_det(RationalMatrix.identity(3)) == 1
    # Reduced Laplacian of K4: Cayley gives 4**2 = 16 spanning trees.
    red = RationalMatrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert bareiss_det(red) == 16
    with pytest.raises(ValueError):
        bareiss_det(RationalMatrix([[1, 2, 3], [4, 5, 6]]))


def test_bareiss_matches_cofactor_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        rows = [
            [rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
            for _ in range(4)
        ]
        m = RationalMatrix(rows)
        assert bareiss_det(m) == _cofactor_det(rows)


def test_invert_round_trip():
    rng = random.Random(11)
    for _ in range(15):
        rows = [
            [rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(4)
        ]
        m = RationalMatrix(rows)
        if bareiss_det(m) == 0:
            continue
        assert m * invert(m) == RationalMatrix.identity(4)
    with pytest.raises(ValueError):
        invert(RationalMatrix([[1, 1], [1, 1]]))
    assert invert(RationalMatrix([])) == RationalMatrix([])
    assert bareiss_det(RationalMatrix([])) == 1


@st.composite
def square_matrices(draw):
    """Small rational matrices, often with zero pivots or singular on purpose."""
    n = draw(st.integers(1, 7))
    entry = st.builds(rat, st.integers(-6, 6), st.integers(1, 4))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "zero-pivots", "singular")))
    if shape == "zero-pivots":
        # An upper triangle with a nonzero diagonal, rows shuffled: elimination
        # meets a zero pivot at most steps and must swap rows past it.
        for i in range(n):
            rows[i][:i] = [rat(0)] * i
            if rows[i][i] == 0:
                rows[i][i] = rat(draw(st.sampled_from((-3, -1, 1, 2))))
        rows = draw(st.permutations(rows))
    elif shape == "singular":
        a, b = draw(entry), draw(entry)
        if n == 1:
            rows[0][0] = rat(0)
        else:
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return RationalMatrix(rows)


@settings(deadline=None, max_examples=200)
@given(square_matrices())
def test_invert_matches_back_substitution_oracle(m):
    try:
        expected = invert_by_back_substitution(m)
    except ValueError:
        assert bareiss_det(m) == 0
        with pytest.raises(ValueError, match="singular"):
            invert(m)
        return
    inv = invert(m)
    assert inv == expected
    assert m * inv == RationalMatrix.identity(m.rows)


def test_psd_certificate_basic():
    ok, witness = psd_certificate(RationalMatrix.identity(3))
    assert ok and witness is None
    ok, witness = psd_certificate(RationalMatrix([[1, 2], [2, 1]]))
    assert not ok
    x = witness
    m = RationalMatrix([[1, 2], [2, 1]])
    assert sum(a * b for a, b in zip(x, m.apply(x))) < 0


def test_psd_certificate_semidefinite_and_indefinite():
    # Laplacian of K3 is PSD but singular.
    lap = RationalMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    ok, _ = psd_certificate(lap)
    assert ok
    # Zero diagonal with off-diagonal entry is indefinite.
    ok, witness = psd_certificate(RationalMatrix([[0, 1], [1, 0]]))
    assert not ok and witness is not None
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rat(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        m = RationalMatrix(rows)
        m = m * m.transpose()  # always PSD
        ok, _ = psd_certificate(m)
        assert ok


# -- root isolation


def test_sturm_count_on_cubic():
    chain = sturm_chain(CUBIC.dense_in("q"))
    assert sturm_count(chain, rat(0), rat(10)) == 1
    # Every real root lies inside the Cauchy bound 1 + max |c_i / c_3| = 11.
    assert sturm_count(chain, rat(-11), rat(11)) == 1


@contextmanager
def descartes_runs():
    """Record the polynomial of each `_isolate_descartes` run inside the
    block, and fail if the block builds a Sturm chain."""
    runs = []
    descartes = exactnum._isolate_descartes

    def counted(c, *args):
        runs.append(c)
        return descartes(c, *args)

    def refused(coeffs):
        raise AssertionError("root isolation built a Sturm chain")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "_isolate_descartes", counted)
        mp.setattr(exactnum, "sturm_chain", refused)
        yield runs


@pytest.fixture
def engine(request):
    """An isolator with the signature of `isolate_real_roots`.

    "sturm" is the Sturm-count oracle itself, so the test checks the oracle;
    "descartes" is `isolate_real_roots`, which must build no Sturm chain and
    return the oracle's brackets.
    """
    if request.param == "sturm":
        return isolate_sturm

    def isolate(coeffs, domain, width):
        with descartes_runs():
            found = isolate_real_roots(coeffs, domain, width)
        assert found == isolate_sturm(coeffs, domain, width)
        return found

    return isolate


def test_isolating_interval_invariants():
    with pytest.raises(ValueError):
        IsolatingInterval(rat(1), rat(1))
    with pytest.raises(ValueError):
        IsolatingInterval(rat(0), rat(1), 0)


@pytest.mark.parametrize("engine", ["sturm", "descartes"], indirect=True)
def test_root_near_143_is_certified(engine):
    roots = engine(CUBIC.dense_in("q"), (rat(0), rat(10)), rat(1, 1000))
    assert len(roots) == 1
    r = roots[0]
    assert rat(142, 100) < r.low < r.high < rat(144, 100)
    assert r.multiplicity == 1


def test_cubic_is_negative_exactly_below_its_root():
    roots, negative = isolate_negative_region(CUBIC, (rat(0), rat(10)), rat(1, 1000))
    assert len(roots) == 1
    r = roots[0]
    assert rat(142, 100) < r.low < r.high < rat(144, 100)
    assert r.multiplicity == 1
    assert len(negative) == 1
    lo, hi = negative[0]
    assert lo == 0 and abs(hi - rat(143, 100)) < rat(2, 100)


def test_negative_region_of_linear_poly():
    roots, negative = isolate_negative_region(qpoly([-1, 1]), (rat(0), rat(2)), rat(1, 100))
    assert len(roots) == 1
    (lo, hi), = negative
    assert lo == 0
    assert rat(99, 100) <= hi <= rat(101, 100)


def test_sign_definite_polynomial_gives_empty_or_full_region():
    roots, negative = isolate_negative_region(qpoly([1, 0, 1]), (rat(0), rat(5)), rat(1, 10))
    assert roots == [] and negative == []
    roots, negative = isolate_negative_region(qpoly([-3]), (rat(0), rat(5)), rat(1, 10))
    assert negative == [(rat(0), rat(5))]
    # -q**2: its only root is the domain end 0, so no root and one window.
    roots, negative = isolate_negative_region(qpoly([0, 0, -1]), (rat(0), rat(2)), rat(1, 100))
    assert roots == [] and negative == [(rat(0), rat(2))]


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        isolate_negative_region(MultiPoly(), (rat(0), rat(1)), rat(1, 10))


def test_q_power_factor_is_stripped():
    p = qpoly([0, 0, 0, -1, 1])  # q^3 (q - 1)
    roots, negative = isolate_negative_region(p, (rat(0), rat(2)), rat(1, 100))
    assert len(roots) == 1
    assert negative[0][0] == 0


def test_window_next_to_a_root_at_the_domain_start_is_kept():
    # q (q - 1/10000): the first bracket starts at the root 0, so the empty
    # gap before it must take its sign from just right of 0, where p < 0.
    p = qpoly([0, rat(-1, 10000), 1])
    roots, negative = isolate_negative_region(p, (rat(0), rat(2)), rat(1, 100))
    assert [(r.low, r.high) for r in roots] == [(rat(0), rat(1, 128))]
    assert negative == [(rat(0), rat(1, 128))]


def test_window_next_to_a_root_at_the_domain_end_is_kept():
    # (q - 2)(q - a) with a = 2 - 1/10000 is negative on (a, 2); the last
    # bracket stops at the root 2, and (q - 2) is negative inside (0, 2).
    a = rat(2) - rat(1, 10000)
    p = qpoly([2 * a, -(2 + a), 1])
    roots, negative = isolate_negative_region(p, (rat(0), rat(2)), rat(1, 100))
    assert [(r.low, r.high) for r in roots] == [(rat(255, 128), rat(2))]
    assert negative == [(rat(255, 128), rat(2))]
    # (q - 2)**2 (q - a) keeps the sign of (q - a): negative below a only.
    p = qpoly([-4 * a, 4 + 4 * a, -(4 + a), 1])
    roots, negative = isolate_negative_region(p, (rat(0), rat(2)), rat(1, 100))
    assert negative == [(rat(0), roots[0].high)]


@pytest.mark.parametrize("engine", ["sturm", "descartes"], indirect=True)
def test_isolation_brackets_random_products_of_linear_factors(engine):
    rng = random.Random(19)
    for _ in range(12):
        roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
        p = from_roots(roots)
        found = engine(p, (rat(-10), rat(10)), rat(1, 8))
        assert len(found) == len(roots)
        for interval, r in zip(found, roots):
            assert interval.contains(r)
            assert interval.width() < rat(1, 8)
            # Independent certification: a Sturm count over the bracket.
            chain = sturm_chain(p)
            assert sturm_count(chain, interval.low, interval.high) == 1


def test_multiplicity_reporting_on_repeated_roots():
    p = from_roots([1, 1, 3])
    found = isolate_real_roots(p, (rat(0), rat(5)), rat(1, 16))
    assert [iv.multiplicity for iv in found] == [2, 1]
    assert found[0].contains(1) and found[1].contains(3)


def test_even_root_does_not_join_negative_regions():
    # -(q-1)^2 (shifted): negative on both sides of the double root at 1.
    p = qpoly([-1, 2, -1])
    roots, negative = isolate_negative_region(p, (rat(0), rat(2)), rat(1, 32))
    assert len(roots) == 1 and roots[0].multiplicity == 2
    assert len(negative) == 2


def test_descartes_upper_certificate():
    assert descartes_no_roots_above(CUBIC.dense_in("q"), rat(2))
    assert not descartes_no_roots_above(CUBIC.dense_in("q"), rat(1))
    assert descartes_no_roots_above([rat(-1), rat(0), rat(1)], rat(3))


def test_brackets_confirmed_by_endpoint_signs():
    rng = random.Random(5)
    for _ in range(10):
        roots = sorted(rng.sample(range(-6, 7), rng.randint(1, 3)))
        p = from_roots(roots)
        for iv in isolate_real_roots(p, (rat(-8), rat(8)), rat(1, 4)):
            lo_sign = at(p, iv.low)
            hi_sign = at(p, iv.high)
            assert lo_sign != 0 and hi_sign != 0
            if iv.multiplicity % 2 == 1:
                assert (lo_sign < 0) != (hi_sign < 0)


def test_descartes_falls_back_for_repeated_roots():
    # The double root stalls Descartes on p below the width; Descartes then
    # isolates the square-free part (x - 1)(x - 3), and no Sturm chain runs.
    with descartes_runs() as runs:
        found = isolate_real_roots(from_roots([1, 1, 3]), (rat(0), rat(5)), rat(1, 16))
    assert [iv.multiplicity for iv in found] == [2, 1]
    assert runs == [from_roots([1, 1, 3]), from_roots([1, 3])]


def test_square_free_stall_resumes_its_tree(monkeypatch):
    # Roots 1/3 and 1/3 + 10**-9 stall the tree at the width; c is
    # square-free, so the same tree goes on below it instead of restarting
    # (the domain is mapped once), and it ends where a tree with no floor
    # from the domain ends.
    c = _times(_times([-1, 3], [-(10**9 + 3), 3 * 10**9]), [1, 0, 1])
    lo, hi, width = rat(0), rat(2), rat(1, 10**6)
    mapped = []
    to_unit = exactnum._to_unit_interval
    monkeypatch.setattr(exactnum, "_to_unit_interval", lambda *args: mapped.append(args[1:]) or to_unit(*args))
    with descartes_runs() as runs:
        found = isolate_real_roots(c, (lo, hi), width)
    assert runs == [c, c] and mapped == [(lo, hi)]
    assert [(iv.low, iv.high) for iv in found] == exactnum._isolate_descartes(c, lo, hi, width, 0)
    assert found == isolate_sturm(c, (lo, hi), width)
    assert found[0].contains(rat(1, 3)) and found[1].contains(rat(1, 3) + rat(1, 10**9))


def test_both_engines_bracket_a_midpoint_root_alike():
    # 3/8 is a bisection midpoint of (0, 2); the bracket centres on it.
    p = from_roots([rat(3, 8), rat(9, 5)])
    with descartes_runs():
        found = isolate_real_roots(p, (rat(0), rat(2)), rat(1, 1000))
    assert found == isolate_sturm(p, (rat(0), rat(2)), rat(1, 1000))
    assert (found[0].low, found[0].high) == (rat(1499, 4000), rat(1501, 4000))
    assert found[1].contains(rat(9, 5))


@pytest.mark.parametrize("engine", ["sturm", "descartes"], indirect=True)
def test_multiplicities_three_and_four_are_reported(engine):
    roots = [rat(1, 3)] * 3 + [rat(5, 7)] * 4 + [rat(3, 2)]
    found = engine(from_roots(roots), (rat(0), rat(2)), rat(1, 100))
    assert [iv.multiplicity for iv in found] == [3, 4, 1]
    assert all(iv.contains(r) for iv, r in zip(found, (rat(1, 3), rat(5, 7), rat(3, 2))))


@pytest.mark.parametrize("engine", ["sturm", "descartes"], indirect=True)
@pytest.mark.parametrize("end", ["low", "high"])
def test_root_next_to_a_root_at_the_domain_end_is_kept(engine, end):
    eps = rat(1, 10**7)
    root, near = (rat(0), eps) if end == "low" else (rat(1), 1 - eps)
    p = [c * 10**7 for c in from_roots([root, near, rat(1, 2)])]
    found = engine(p, (rat(0), rat(1)), eps * 10)
    assert len(found) == 2
    inner = found[0] if end == "low" else found[1]
    assert inner.contains(near) and inner.width() < eps * 10
    assert not inner.contains(root)
    assert [iv.multiplicity for iv in found] == [1, 1]


def test_root_at_both_domain_ends_and_a_double_one_inside():
    p = from_roots([rat(1), rat(1), rat(3, 2), rat(3, 2), rat(2)])
    (found,) = isolate_real_roots(p, (rat(1), rat(2)), rat(1, 100))
    assert found.contains(rat(3, 2)) and found.multiplicity == 2


def test_negative_region_when_the_domain_starts_at_a_root():
    # (q - 1)(q - 1 - 10**-7)(q - 3/2) is positive on (1, 1 + 10**-7) and
    # negative up to 3/2; the empty gap at q = 1 opens no window.
    p = qpoly([c * 10**7 for c in from_roots([rat(1), 1 + rat(1, 10**7), rat(3, 2)])])
    width = rat(1, 10**6)
    roots, negative = isolate_negative_region(p, (rat(1), rat(2)), width)
    assert len(roots) == 2 and roots[0].contains(1 + rat(1, 10**7))
    ((left, right),) = negative
    assert left == 1 and abs(right - rat(3, 2)) < width


def test_taylor_shift_matches_the_double_loop():
    rng = random.Random(3)
    for length in range(8):
        c = [rng.randint(-50, 50) for _ in range(length)]
        for a in (0, 1, -3, 7):
            assert exactnum._taylor_shift(c, a) == taylor_shift_by_loops(c, a)


def test_eval_scaled_matches_fraction_evaluation():
    rng = random.Random(4)
    for length in range(8):
        c = [rng.randint(-10**6, 10**6) for _ in range(length)]
        # num = 0 skips the Horner loop; powers of two take shifts, odd dens do not.
        for den in (0, 1, 2, 2**40, 2**64, 3, 12, 7**5, 2**31 - 1, 2**9 * 3):
            for num in (0, 1, -1, 5, -(2**45) - 1, 2**70):
                if den:
                    expected = value(c, Fraction(num, den)) * den ** max(length - 1, 0)
                else:
                    # Only the top term of the homogeneous sum survives.
                    expected = c[-1] * num ** (length - 1) if c else 0
                assert exactnum._eval_scaled(c, num, den) == expected


_ORACLE_DOMAINS = [
    (Fraction(0), Fraction(2)),
    (Fraction(-1), Fraction(1)),
    (Fraction(-7, 3), Fraction(11, 5)),
    (Fraction(1, 3), Fraction(5, 2)),
    (Fraction(-3, 10), Fraction(17, 7)),
]


def _poly_from(roots, cofactor):
    """Integer coefficients of cofactor times the product of (den q - num)."""
    c = list(cofactor)
    for r in roots:
        c = [r.denominator * x - r.numerator * y for x, y in zip([0] + c, c + [0])]
    return c


_CASE_KINDS = ("signed", "double", "midpoints", "rational", "signed", "midpoints", "rational", "rational")


def _descartes_case(rng, i):
    """The ith seeded (coeffs, lo, hi, width, kind) with no root at lo or hi."""
    degree = 1 + i % 60
    kind = _CASE_KINDS[i % len(_CASE_KINDS)]
    while True:
        lo, hi = rng.choice(_ORACLE_DOMAINS)
        width = rng.choice((Fraction(1, 10), Fraction(1, 1000), Fraction(1, 7**4)))
        bits = 4
        if kind == "signed":
            roots, bits = [], rng.randint(1, 40)
        elif kind == "double":
            r = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
            roots = [r, r]
        elif kind == "midpoints":
            # Bisection points of the first levels, so some node's midpoint
            # is a root and gets nudged.
            mid = (lo + hi) / 2
            roots = [mid, (lo + mid) / 2, (mid + hi) / 2, (7 * lo + hi) / 8][: max(1, degree // 2)]
        else:
            roots = [
                lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
                for _ in range(rng.randint(1, min(degree, 5)))
            ]
        roots = roots[:degree]
        cofactor = [rng.randint(-(2**bits), 2**bits) for _ in range(degree - len(roots))]
        cofactor.append(rng.choice((-1, 1)) * rng.randint(1, 2**bits))
        c = _poly_from(roots, cofactor)
        if value(c, lo) and value(c, hi):
            return c, lo, hi, width, kind


def _outcome(isolate, *args):
    try:
        return [(str(a), str(b)) for a, b in isolate(*args)]
    except exactnum._Stall:
        return "stall"


def test_descartes_tree_matches_the_per_interval_oracle(monkeypatch):
    remapped = []
    to_unit = exactnum._to_unit_interval

    def counting(c, a, b):
        remapped.append((a, b))
        return to_unit(c, a, b)

    monkeypatch.setattr(exactnum, "_to_unit_interval", counting)
    rng = random.Random(1976)
    stalled = set()
    nudged = 0
    for i in range(200):
        c, lo, hi, width, kind = _descartes_case(rng, i)
        # Both stall floors of isolate_real_roots: the width, and width / 2**16.
        floor = width if i % 3 else width / (1 << 16)
        del remapped[:]
        got = _outcome(exactnum._isolate_descartes, c, rat(lo), rat(hi), rat(width), rat(floor))
        assert got == _outcome(isolate_descartes, c, lo, hi, width, floor), (i, kind, c, lo, hi)
        if isinstance(got, str):
            stalled.add(kind)
        nudged += len(remapped) > 1
    assert "double" in stalled and nudged > 0


@st.composite
def _nudged_trees(draw):
    """(c, lo, hi, width): roots at the midpoint of a node some levels down
    the domain's tree and, drawn at random, at the first one or two points
    it is nudged to, so the nudge runs on; plus up to three more roots."""
    lo, hi = draw(st.sampled_from(_ORACLE_DOMAINS))
    a, b = lo, hi
    for _ in range(draw(st.integers(0, 6))):
        mid = (a + b) / 2
        a, b = (a, mid) if draw(st.booleans()) else (mid, b)
    x, bump = (a + b) / 2, (b - a) / 16
    roots = [x]
    for _ in range(draw(st.integers(1, 2))):
        x += bump
        bump /= 3
        roots.append(x)
    roots += [lo + (hi - lo) * Fraction(draw(st.integers(1, 999)), 1000) for _ in range(draw(st.integers(0, 3)))]
    cofactor = [draw(st.integers(1, 2**20)), 0, 1] if draw(st.booleans()) else [1]
    c = _poly_from(roots, [draw(st.sampled_from((-1, 1))) * x for x in cofactor])
    return c, lo, hi, draw(st.sampled_from((Fraction(1, 10), Fraction(1, 1000), Fraction(1, 7**4))))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_nudged_trees())
def test_integer_nodes_give_the_fraction_trees_brackets(case):
    # Nodes are integers over the domain's dyadic grid, or over 16 * 3**m
    # times it past a nudged midpoint; the oracle's nodes are Fractions.
    # The only Fractions the search builds are the brackets it returns.
    c, lo, hi, width = case
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counted)
        got = _outcome(exactnum._isolate_descartes, c, rat(lo), rat(hi), rat(width), rat(width))
        count = len(built)
    assert got == _outcome(isolate_descartes, c, lo, hi, width, width)
    if Rational is Fraction:
        assert count == (0 if got == "stall" else 2 * len(got))


# -- Bernstein nodes


def _power_to_bernstein(r):
    """Bernstein coefficients of sum_j r_j t**j on (0, 1): b_i = sum_{j <= i} C(i, j) / C(d, j) r_j."""
    d = len(r) - 1
    return [sum(Fraction(comb(i, j), comb(d, j)) * r[j] for j in range(i + 1)) for i in range(d + 1)]


def _is_positive_multiple(x, y):
    k = next(i for i, v in enumerate(y) if v)
    scale = Fraction(x[k]) / y[k]
    return scale > 0 and all(u == scale * v for u, v in zip(x, y))


@st.composite
def _dyadic_nodes(draw):
    """(c, a, b): an integer polynomial and a dyadic interval, half of the
    time with a root at its midpoint."""
    level = draw(st.integers(0, 12))
    a = Fraction(draw(st.integers(-64, 64)), 2**level)
    b = a + Fraction(draw(st.integers(1, 3)), 2**level)
    c = draw(st.lists(st.integers(-(2**20), 2**20), max_size=15))
    c.append(draw(st.integers(1, 2**20)) * draw(st.sampled_from((-1, 1))))
    if draw(st.booleans()):
        c = _poly_from([(a + b) / 2], c)
    return c, rat(a), rat(b)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_dyadic_nodes())
def test_de_casteljau_halves_are_the_bernstein_coefficients_of_each_half(node):
    c, a, b = node
    mid = (a + b) / 2
    bern = exactnum._bernstein(c, a, b)
    left, right = exactnum._de_casteljau(bern)
    for got, (x, y) in ((bern, (a, b)), (left, (a, mid)), (right, (mid, b))):
        assert _is_positive_multiple(got, _power_to_bernstein(exactnum._to_unit_interval(c, x, y)))
    # The apex 2**d P(1/2) is shared by both halves.
    assert left[-1] == right[0]
    assert (left[-1] == 0) == (value(c, mid) == 0)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_dyadic_nodes())
def test_bernstein_variations_are_the_descartes_counts(node):
    c, a, b = node
    mid = (a + b) / 2
    bern = exactnum._bernstein(c, a, b)
    left, right = exactnum._de_casteljau(bern)
    # The count of (1 + t)**d P(1 / (1 + t)), on the node and on each half.
    for got, (x, y) in ((bern, (a, b)), (left, (a, mid)), (right, (mid, b))):
        assert exactnum._variations(got) == interval_variations(c, x, y)


# -- refinement on one grid


def _halvings(a, b, width):
    """How often bisection halves (a, b) before it is narrower than width."""
    k = 0
    while (b - a) / 2**k >= width:
        k += 1
    return k


def _bare(x):
    """x with its numerator and denominator alone: any arithmetic on it raises."""
    return SimpleNamespace(numerator=x.numerator, denominator=x.denominator)


@st.composite
def _refine_nodes(draw):
    """(cofactor, a, b, width): a cofactor with no root in [a, b], on a
    dyadic node or one whose ends were nudged off the dyadic grid."""
    level = draw(st.integers(0, 12))
    a = Fraction(draw(st.integers(-64, 64)), 2**level)
    b = a + Fraction(draw(st.integers(1, 3)), 2**level)
    # A nudged midpoint sits a sixteenth of its node and thirds of that off.
    if draw(st.booleans()):
        a += (b - a) * Fraction(draw(st.integers(1, 40)), 16 * 3 ** draw(st.integers(1, 4)))
    if draw(st.booleans()):
        b -= (b - a) * Fraction(draw(st.integers(1, 40)), 16 * 3 ** draw(st.integers(1, 4)))
    width = draw(st.sampled_from((Fraction(1, 8), Fraction(1, 10**6), Fraction(1, 10**12))))
    # (x**2 + t)**m times linear factors whose roots lie outside [a, b].
    t = draw(st.integers(1, 2**20))
    cofactor = [draw(st.sampled_from((-1, 1)))]
    for _ in range(draw(st.integers(0, 4))):
        cofactor = _times(cofactor, [t, 0, 1])
    outside = [
        b + Fraction(draw(st.integers(1, 99)), 7) if draw(st.booleans()) else a - Fraction(draw(st.integers(1, 99)), 7)
        for _ in range(draw(st.integers(0, 3)))
    ]
    return _poly_from(outside, cofactor), a, b, width


def _no_probe(bern, k):
    return 0, 0


def _check_refine(c, a, b, width, probe=None):
    """exactnum._refine against the Fraction bisection of the oracle, with a
    never evaluated and no arithmetic on width.  `probe` stands in for
    `exactnum._probe`.  Returns the number of evaluations and the level of
    the cell the probe gave."""
    bern = exactnum._bernstein(c, rat(a), rat(b))
    points = []
    levels = []
    evaluate = exactnum._eval_scaled
    probe = probe or exactnum._probe

    def recorded(c, num, den):
        points.append(Fraction(num, den))
        return evaluate(c, num, den)

    def probed(bern, k):
        levels.append(probe(bern, k))
        return levels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "_eval_scaled", recorded)
        mp.setattr(exactnum, "_probe", probed)
        an, bn, den = a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator
        low, high, out_den = exactnum._refine(c, an, bn, den, _bare(width), bern)
    got = Fraction(low, out_den), Fraction(high, out_den)
    assert [str(x) for x in got] == [str(x) for x in _refine_sign_change(c, a, b, width)]
    assert a not in points
    return len(points), levels[0][0] if levels else 0


def _wrong_cells(bern, k):
    """Cells the probe could wrongly give: its cell's sibling and both end cells."""
    j, i = exactnum._probe(bern, k)
    return [(j, i ^ 1)] * (j > 0) + [(k, 0), (k, (1 << k) - 1)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_refine_nodes(), st.integers(0, 2**60), st.integers(1, 2**60))
def test_grid_refinement_is_the_fraction_bisection(node, odd, off):
    cofactor, a, b, width = node
    k = _halvings(a, b, width)
    # A root off the grid, then one on the grid at every depth j = 1..k,
    # where the halving meets it j evaluations in.  With no probe the
    # halving runs from (a, b); a guided one evaluates the two ends of the
    # probe's level-j cell and halves inside it.
    roots = [(a + (b - a) * Fraction(off, 2**60 + 1), k)]
    roots += [(a + (b - a) * Fraction(2 * (odd % 2 ** (depth - 1)) + 1, 2**depth), depth) for depth in range(1, k + 1)]
    for r, unguided in roots:
        c = _poly_from([r], cofactor)
        assert _check_refine(c, a, b, width, _no_probe) == (unguided, 0)
        count, j = _check_refine(c, a, b, width)
        assert count <= 2 + k - j
        if k:
            for cell in _wrong_cells(exactnum._bernstein(c, rat(a), rat(b)), k):
                count, _ = _check_refine(c, a, b, width, lambda bern, k: cell)
                assert count <= 2 + k


def test_grid_refinement_of_a_node_narrower_than_the_width():
    # k = 0: the node itself is the bracket, and c is never evaluated.
    c = _poly_from([Fraction(5, 11)], [1])
    assert _check_refine(c, Fraction(7, 16), Fraction(1, 2), Fraction(1, 8)) == (0, 0)
    assert _check_refine(c, Fraction(13, 32), Fraction(1, 2) + Fraction(1, 48), Fraction(1, 8)) == (0, 0)


@st.composite
def _guided_nodes(draw, degree, bits, widths):
    """(c, a, b, width, depth): a node of _refine_nodes' kind holding one
    root of c, times a cofactor of about the given degree and coefficient
    bits with no root in [a, b].  Half of the time the root is the grid
    point at `depth` of the node's halving, else depth is None."""
    level = draw(st.integers(0, 12))
    a = Fraction(draw(st.integers(-64, 64)), 2**level)
    b = a + Fraction(draw(st.integers(1, 3)), 2**level)
    if draw(st.booleans()):
        a += (b - a) * Fraction(draw(st.integers(1, 40)), 16 * 3 ** draw(st.integers(1, 4)))
    width = draw(st.sampled_from(widths))
    k = _halvings(a, b, width)
    depth = draw(st.integers(1, k)) if k and draw(st.booleans()) else None
    if depth:
        r = a + (b - a) * Fraction(2 * draw(st.integers(0, 2 ** (depth - 1) - 1)) + 1, 2**depth)
    else:
        r = a + (b - a) * Fraction(draw(st.integers(1, 2**64)), 2**64 + 1)
    # (x**2 + t)**m has no real root; its coefficients are t**i C(m, i).
    m = degree // 2
    t = draw(st.integers(1, 2**20))
    scale = draw(st.integers(2 ** (bits - 1), 2**bits)) * draw(st.sampled_from((-1, 1)))
    cofactor = [0] * (2 * m + 1)
    for i in range(m + 1):
        cofactor[2 * i] = scale * comb(m, i) * t ** (m - i)
    outside = b + Fraction(draw(st.integers(1, 99)), 7) if draw(st.booleans()) else a - Fraction(draw(st.integers(1, 99)), 7)
    return _poly_from([r, outside], cofactor), a, b, width, depth


_TINY_WIDTHS = (Fraction(1, 10**6), Fraction(1, 10**12), Fraction(1, 10**20), Fraction(1, 10**30))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 60).flatmap(lambda d: _guided_nodes(d, 64, _TINY_WIDTHS)))
def test_guided_refinement_is_the_fraction_bisection(node):
    # Down to width 10**-30, where k is far beyond the 53 bits of a double
    # and the probe resolves only some of the levels.  A grid root at depth
    # j is met at the end of the probe's cell or inside it.
    c, a, b, width, depth = node
    k = _halvings(a, b, width)
    count, j = _check_refine(c, a, b, width)
    assert count <= 2 + k - j
    assert _check_refine(c, a, b, width, _no_probe) == (depth or k, 0)


@settings(derandomize=True, deadline=None, max_examples=4)
@given(_guided_nodes(1100, 1100, (Fraction(1, 8), Fraction(1, 10**6))))
def test_guided_refinement_at_degree_1100_and_1100_bit_coefficients(node):
    # Neither the coefficients nor the binomials C(1 102, i) fit a double:
    # the probe scales their products by one power of two, and whatever it
    # resolves, the exact ends of its cell decide.
    c, a, b, width, depth = node
    assert len(c) - 1 >= 1100 and max(map(abs, c)).bit_length() > 1100
    k = _halvings(a, b, width)
    count, j = _check_refine(c, a, b, width)
    assert count <= 2 + k - j


# -- square-free split


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _prs_gcd_monic(f, g):
    """Monic gcd by Euclid over the rationals, as a Fraction list."""
    f, g = [Fraction(x) for x in f], [Fraction(x) for x in g]
    while g:
        while len(f) >= len(g):
            t = f[-1] / g[-1]
            shift = len(f) - len(g)
            f = [x - t * g[i - shift] if i >= shift else x for i, x in enumerate(f)]
            while f and f[-1] == 0:
                f.pop()
            if not f:
                break
        f, g = g, f
    return [x / f[-1] for x in f]


def _gcd_cases(rng, count):
    """Random integer polynomials with a planted common factor."""
    for _ in range(count):
        common, a, b = (
            [rng.randint(-30, 30) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 30)] for _ in range(3)
        )
        content = rng.choice((1, -2, 6))
        yield [content * x for x in _times(a, common)], _times(b, common)


def test_divide_exact_refuses_a_fractional_quotient():
    assert exactnum._divide_exact([2, 6, 4], [1, 2]) == [2, 2]
    # The quotient of 3q + 1 by 2q + 1 is 3/2; the floor 1 would leave 0 below the top.
    assert exactnum._divide_exact([1, 3], [1, 2]) is None
    assert exactnum._divide_exact([1, 2], [1, 0, 1]) is None


@pytest.mark.parametrize("candidate", ["heuristic", "failing"])
def test_gcd_is_the_primitive_remainder_sequence_gcd(candidate, monkeypatch):
    fallbacks = []
    pseudo_rem = exactnum._pseudo_rem
    monkeypatch.setattr(exactnum, "_pseudo_rem", lambda f, g: fallbacks.append(1) or pseudo_rem(f, g))
    if candidate == "failing":
        # A degree-40 candidate divides neither input.
        monkeypatch.setattr(exactnum, "_unpack", lambda packed, bits: [1] * 41)
    heuristic = 0
    for f, g in _gcd_cases(random.Random(1989), 60):
        del fallbacks[:]
        h = exactnum._gcd(f, g)
        assert h[-1] > 0 and exactnum._primitive(h) == h
        assert [Fraction(x, h[-1]) for x in h] == _prs_gcd_monic(f, g)
        heuristic += not fallbacks
    # One evaluation point finds most of them; an accidental common factor
    # of f(xi) and g(xi) sends the rest on to the remainder sequence.
    assert heuristic >= 55 if candidate == "heuristic" else heuristic == 0


def _planted_square_free(rng):
    """(factors, c): primitive, square-free, pairwise coprime a_m with
    positive leading coefficients, and c = the product of the a_m**m."""
    roots, squares = set(), set()
    factors = []
    for m in range(1, rng.randint(1, 5)):
        a = [1]
        for _ in range(rng.randint(0, 3)):
            r = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            if r not in roots:
                roots.add(r)
                a = _times(a, [-r.numerator, r.denominator])
        k = rng.randint(1, 9)
        if rng.random() < 0.3 and k not in squares:
            squares.add(k)  # q**2 + k: no real roots, coprime to the rest
            a = _times(a, [k, 0, 1])
        if len(a) > 1:
            factors.append((a, m))
    c = [1]
    for a, m in factors:
        for _ in range(m):
            c = _times(c, a)
    return factors, c


def test_yun_returns_the_planted_square_free_factors():
    rng = random.Random(1976)
    for _ in range(80):
        factors, c = _planted_square_free(rng)
        if len(c) == 1:
            continue
        content = rng.choice((1, -3, 10))
        core, split = exactnum._square_free_split([content * x for x in c])
        assert split == factors
        product = [1]
        for a, m in split:
            for _ in range(m):
                product = _times(product, a)
        assert product == c
        square_free = [1]
        for a, _ in split:
            square_free = _times(square_free, a)
        assert [x * core[-1] for x in square_free] == [x * square_free[-1] for x in core]


def _planted_roots():
    """Distinct rationals with odd denominators 3..15, each with a multiplicity 1..4.

    Any two lie more than 1/200 apart and none is dyadic, so neither a
    bisection midpoint nor a bracket of width 1/1000 can hold two.
    """
    root = st.builds(Fraction, st.integers(-20, 50), st.sampled_from([3, 5, 7, 9, 11, 13, 15]))
    return st.lists(
        st.tuples(root.filter(lambda r: r.denominator > 1), st.integers(1, 4)),
        min_size=1,
        max_size=5,
        unique_by=lambda pair: pair[0],
    )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_planted_roots())
def test_sturm_and_descartes_on_the_square_free_part_agree(planted):
    c = _poly_from([r for r, m in planted for _ in range(m)], [1])
    lo, hi, width = rat(0), rat(2), rat(1, 1000)
    with descartes_runs():
        found = isolate_real_roots(c, (lo, hi), width)
    assert found == isolate_sturm(c, (lo, hi), width)
    inside = sorted((r, m) for r, m in planted if lo < r < hi)
    assert [iv.multiplicity for iv in found] == [m for _, m in inside]
    assert all(iv.contains(r) and iv.width() < width for iv, (r, _) in zip(found, inside))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    _planted_roots(),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from([1, -1]),
    st.sampled_from([rat(1, 8), rat(1, 1000), rat(1, 10**6)]),
    st.integers(1, 2**80),
    st.integers(1, 2**80),
)
def test_clearing_denominators_moves_no_bracket(planted, at_lo, at_hi, sign, width, k, d):
    # Roots at the domain ends too: they are divided out before isolation.
    roots = [r for r, m in planted for _ in range(m)] + [Fraction(0)] * at_lo + [Fraction(2)] * at_hi
    c = _poly_from(roots, [sign])
    domain = (rat(0), rat(2))
    expected = integer_negative_region(c, domain, width)
    assert integer_negative_region([k * x for x in c], domain, width) == expected
    assert isolate_negative_region(qpoly(c, d), domain, width) == expected


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    _planted_roots(),
    st.integers(0, 4),
    st.integers(0, 4),
    st.booleans(),
    st.sampled_from([1, -1]),
    st.sampled_from([(rat(0), rat(2)), (rat(-7, 3), rat(11, 5)), (rat(1, 3), rat(5, 2))]),
)
def test_gap_signs_from_multiplicities_are_the_evaluated_signs(planted, at_lo, at_hi, close, sign, domain):
    # Multiplicities 1 to 4 inside, 0 to 4 at either domain end, and
    # optionally a pair of roots 10**-13 apart, whose brackets touch.
    lo, hi = domain
    roots = [r for r, m in planted for _ in range(m)] + [Fraction(lo)] * at_lo + [Fraction(hi)] * at_hi
    if close:
        roots += [Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**13)]
    c = _poly_from(roots, [sign])
    for width in (rat(1, 8), rat(1, 10**6)):
        assert integer_negative_region(c, domain, width) == negative_region_by_evaluation(c, domain, width)


def test_gap_signs_across_touching_brackets():
    # Roots 10**-13 apart on either side of a double root: touching
    # brackets leave empty gaps, each signed at its one point.
    roots = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**13), Fraction(5, 7), Fraction(5, 7)]
    c = _poly_from(roots + [Fraction(0)] * 3, [1])
    found, negative = integer_negative_region(c, (rat(0), rat(1)), rat(1, 10**6))
    assert found[0].high == found[1].low
    assert (found, negative) == negative_region_by_evaluation(c, (rat(0), rat(1)), rat(1, 10**6))


def test_degree_100_with_a_double_root_isolates_with_multiplicity_2():
    # A double root at 1/3 and 49 quadratics with no real root: Descartes
    # on the square-free part certifies it, at any degree.
    c = [1, -6, 9]
    for k in range(49):
        c = _times(c, [k + 1, 0, 1])
    assert len(c) - 1 == 100
    (found,) = isolate_real_roots(c, (rat(0), rat(2)), rat(1, 10**6))
    assert found.multiplicity == 2 and found.contains(rat(1, 3))


def test_roots_too_close_above_degree_96_are_separated():
    # Roots 10**-13 apart, closer than 10**-6 / 2**16: the square-free tree
    # goes on down with no floor and no degree limit, and builds no chain.
    c = _times([-1, 3], [-(10**13 + 3), 3 * 10**13])
    for k in range(48):
        c = _times(c, [k + 1, 0, 1])
    assert len(c) - 1 == 98
    width = rat(1, 10**6)
    with descartes_runs():
        found = isolate_real_roots(c, (rat(0), rat(2)), width)
    assert len(found) == 2
    chain = sturm_chain(c)
    assert all(iv.width() < width and sturm_count(chain, iv.low, iv.high) == 1 for iv in found)
    assert found[0].contains(rat(1, 3)) and found[1].contains(rat(1, 3) + rat(1, 10**13))
