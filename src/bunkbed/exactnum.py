"""Exact arithmetic kernel.

Arbitrary-precision rationals, rational matrices stored as integer rows over
one denominator with fraction-free elimination (Bareiss determinants,
Gauss-Jordan inverses and symmetric PSD certificates, all in integers), and
certified isolation of real roots of univariate polynomials.

Polynomials are computed as dense integer coefficient lists over one shared
denominator, by the engines that produce them, and root isolation reads
them as they are.  ``MultiPoly`` is only the read-only view that reports
print, compare and evaluate: a sparse map from exponent tuples in the
indeterminates q, l, g, h (l is the forest activity usually written lambda)
to rational coefficients, with no arithmetic.

Real roots are isolated by bisection.  ``integer_negative_region`` is the
one front end: it scales a coefficient list to integers, checks it and
divides out the roots at the domain ends, once; ``isolate_real_roots``
returns its brackets, and ``isolate_negative_region`` feeds it a view's
q-coefficients.  Descartes' rule of signs certifies each node of a bisection
tree at every degree (Collins and Akritas 1976; Rouillier and Zimmermann
2004) in the Bernstein basis (Mourrain, Rouillier and Roy 2005): a node
carries a positive integer multiple of the Bernstein coefficients of p on
its interval, whose sign variations are the node's count, and a split runs
one integer de Casteljau triangle (Lane and Riesenfeld 1981) that gives both
children.  A node narrower than the requested width that still shows two or
more sign variations (a repeated root, or roots closer than the width)
splits p once into square-free factors a_1, a_2, ... with
p ~ a_1 a_2**2 ... (Yun 1976, over a heuristic gcd that packs each
polynomial into one integer, Char, Geddes and Gonnet 1989).  A square-free p
goes on down the same tree with no floor; otherwise Descartes isolates the
square-free part a_1 a_2 ... from the domain.  Either ends, by Vincent's
theorem.  Nodes are integer numerators over one denominator.  A bracket
holding one simple root is halved on one integer grid, its end signs read
off its node's end Bernstein coefficients; a floating-point probe on those
coefficients picks the grid cell the root is in, two exact signs at the
cell's ends certify it, and the halving goes on inside it.  A grid point
that is the root ends the halving with a bracket centred on it.  A
bracket's multiplicity is the m whose a_m changes sign across it, and the
sign of p between brackets follows from its sign at the domain's low end and
the multiplicities.  Every sign is an integer's: p at num/den is
den**deg p(num/den), once the powers of two common to num and den are
stripped, with shifts for a power-of-two den.

Everything this module returns is exact.  Floating point only chooses where
the root refinement evaluates, and every returned sign or interval is
backed by integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, zip_longest
from math import comb, gcd, lcm
from operator import add, mul, ne, sub
from typing import Iterable, NamedTuple, Sequence

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a hard dependency, but the
    from fractions import Fraction as Rational  # stdlib type is a drop-in.

__all__ = [
    "Rational",
    "rat",
    "parse_rational",
    "format_rational",
    "INDETERMINATES",
    "MultiPoly",
    "RationalMatrix",
    "bareiss_det",
    "invert",
    "psd_certificate",
    "IsolatingInterval",
    "sturm_chain",
    "sturm_count",
    "isolate_real_roots",
    "isolate_negative_region",
    "integer_negative_region",
    "descartes_no_roots_above",
]

INDETERMINATES = ("q", "l", "g", "h")
_NVARS = 4

_R0 = Rational(0)
_R1 = Rational(1)


def rat(num, den=1) -> Rational:
    """Exact rational from integers, "a/b" strings, or another rational.

    Two ints make one Rational, and a Rational alone comes back unchanged.
    Floats are refused: 0.1 is a binary fraction, not one tenth.  Strings
    go through ``parse_rational``, so "0.1" is refused too.
    """
    if type(den) is int:
        if type(num) is int:
            return Rational(num, den)
        if den == 1 and type(num) is Rational:
            return num
    if isinstance(num, float) or isinstance(den, float):
        raise TypeError(f"rat({num!r}, {den!r}): floats are not exact rationals")
    num, den = (parse_rational(x) if isinstance(x, str) else Rational(x) for x in (num, den))
    return num if den == 1 else num / den


def parse_rational(text: str) -> Rational:
    """Parse "3/4", "-2" or "7" into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Rational(int(num), d)
    return Rational(int(text))


def format_rational(x) -> str:
    return str(Rational(x))


# ---------------------------------------------------------------------------
# Polynomial view
# ---------------------------------------------------------------------------


class MultiPoly:
    """Read-only view of a polynomial in q, l, g, h with exact rational coefficients.

    The engines compute with dense integer coefficient lists over one shared
    denominator; this view carries their results to the reports, which print,
    compare and evaluate it.  Terms map exponent 4-tuples to nonzero
    coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                c = rat(coeff)
                if c != 0:
                    if len(exp) != _NVARS or any(e < 0 for e in exp):
                        raise ValueError(f"bad exponent tuple {exp!r}")
                    cleaned[tuple(exp)] = c
        self.terms = cleaned

    def dense_in(self, var: str) -> list[Rational]:
        """Coefficient list [c0, c1, ...] when univariate in var (or constant)."""
        i = INDETERMINATES.index(var)
        coeffs = [_R0] * (max((exp[i] for exp in self.terms), default=0) + 1)
        for exp, c in self.terms.items():
            if sum(exp) != exp[i]:
                raise ValueError(f"polynomial is not univariate in {var}")
            coeffs[exp[i]] = c
        return coeffs

    def eval(self, point: dict) -> Rational:
        """Exact value at a point assigning a rational to every variable used."""
        vals = [rat(point.get(v, 0)) for v in INDETERMINATES]
        total = _R0
        for exp, c in self.terms.items():
            term = c
            for v, x, e in zip(INDETERMINATES, vals, exp):
                if e:
                    if v not in point:
                        raise ValueError(f"missing assignment for indeterminate {v!r}")
                    term *= x**e
            total += term
        return total

    def to_string(self) -> str:
        """Canonical text form: coeff*q^a*l^b*g^c*h^d terms in lex exponent order."""
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            vars_part = "*".join(f"{v}^{e}" for v, e in zip(INDETERMINATES, exp))
            parts.append(f"{format_rational(c)}*{vars_part}")
        return " + ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"


# ---------------------------------------------------------------------------
# Rational matrices and fraction-free elimination
# ---------------------------------------------------------------------------


class RationalMatrix:
    """Dense matrix of exact rationals: integer rows ``num`` over one ``den``.

    ``den`` is positive and gcd(den, every entry) = 1, so a matrix has exactly
    one representation and ``==`` compares fields.  Sums, products and scalar
    multiples are integer arithmetic on ``num``; only ``[i, j]`` and
    ``to_lists`` build rationals.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Iterable[Iterable]):
        data = [[x if type(x) in (int, Rational) else rat(x) for x in row] for row in data]
        den = lcm(*(int(x.denominator) for row in data for x in row))
        # Over the lcm of the reduced denominators gcd(den, entries) is already 1.
        self._set([[int(x.numerator) * (den // int(x.denominator)) for x in row] for row in data], den)

    @classmethod
    def from_integers(cls, num: list[list[int]], den: int = 1) -> "RationalMatrix":
        """The matrix num / den in lowest terms, for integer rows and a nonzero den."""
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        if den < 0:
            num, den = [[-x for x in row] for row in num], -den
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num, den = [[x // g for x in row] for row in num], den // g
        m = cls.__new__(cls)
        m._set(num, den)
        return m

    def _set(self, num: list[list[int]], den: int) -> None:
        self.num, self.den = num, den
        self.rows = len(num)
        self.cols = len(num[0]) if num else 0
        if any(len(row) != self.cols for row in num):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.from_integers([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> Rational:
        i, j = key
        return Rational(self.num[i][j], self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def _combine(self, other, op) -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return RationalMatrix.from_integers(
            [[op(x * a, y * b) for x, y in zip(ra, rb)] for ra, rb in zip(self.num, other.num)],
            den,
        )

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            bt = list(zip(*other.num))
            return RationalMatrix.from_integers(
                [[sum(map(mul, row, col)) for col in bt] for row in self.num],
                self.den * other.den,
            )
        c = rat(other)
        a = int(c.numerator)
        return RationalMatrix.from_integers(
            [[x * a for x in row] for row in self.num], self.den * int(c.denominator)
        )

    def __rmul__(self, other):
        return self * other

    def __neg__(self):
        return self * -1

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_integers([list(col) for col in zip(*self.num)], self.den)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and [list(col) for col in zip(*self.num)] == self.num

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix.from_integers(
            [[self.num[i][j] for j in keep_cols] for i in keep_rows], self.den
        )

    def apply(self, vec: Sequence) -> list[Rational]:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        x = RationalMatrix([vec])
        (xs,) = x.num
        return [Rational(sum(map(mul, row, xs)), self.den * x.den) for row in self.num]

    def to_lists(self) -> list[list[str]]:
        den = self.den
        return [[str(Rational(x, den)) for x in row] for row in self.num]

    def __repr__(self):
        return f"RationalMatrix({self.to_lists()})"


def bareiss_det(m: RationalMatrix) -> Rational:
    """Exact determinant by fraction-free (Bareiss) elimination on ``m.num``."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return _R1
    a = [row[:] for row in m.num]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return _R0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return Rational(sign * a[n - 1][n - 1], m.den**n)


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse by fraction-free (Bareiss) Gauss-Jordan elimination.

    With M = N / den, [N | den I] is reduced with the Bareiss exact division
    both above and below every pivot, so every intermediate entry stays an
    integer.  This turns the left block into d I, where d is the last pivot,
    and the right block into d M^-1, which is returned over d (the sign goes
    into the denominator).  The left block's finished columns are not written
    back, as no later step reads them.  A 0 x 0 matrix is its own inverse.
    """
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [row + [m.den if j == i else 0 for j in range(n)] for i, row in enumerate(m.num)]
    prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if aug[i][k] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[k], aug[pivot] = aug[pivot], aug[k]
        row_k = aug[k]
        akk = row_k[k]
        tail_k = row_k[k + 1 :]
        for i in range(n):
            if i == k:
                continue
            row_i = aug[i]
            aik = row_i[k]
            row_i[k + 1 :] = [
                (x * akk - aik * y) // prev for x, y in zip(row_i[k + 1 :], tail_k)
            ]
        prev = akk
    return RationalMatrix.from_integers([row[n:] for row in aug], prev)


def psd_certificate(m: RationalMatrix):
    """Exact positive-semidefiniteness test for a symmetric rational matrix.

    Returns (True, None) when PSD, else (False, witness) with a rational vector
    x such that x^T M x < 0.  Symmetric elimination with positive diagonal
    pivots, fraction-free on ``m.num``: eliminating a pivot d scales the Schur
    complement by d > 0 and divides exactly by the previous pivot, so every
    entry is a minor of ``m.num`` and every sign is the Schur complement's.
    Works for singular (rank-deficient) matrices.
    """
    if not m.is_symmetric():
        raise ValueError("psd_certificate requires a symmetric matrix")
    n = m.rows
    a = [row[:] for row in m.num]
    # basis[i] is a positive multiple of the current coordinate i, in the
    # original coordinates; the form on it is a positive multiple of a.
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    active = list(range(n))
    prev = 1
    while active:
        neg = next((i for i in active if a[i][i] < 0), None)
        if neg is not None:
            return False, _witness(m, basis[neg])
        pivot = next((i for i in active if a[i][i] > 0), None)
        if pivot is None:
            # All remaining diagonal entries vanish; any nonzero off-diagonal
            # entry makes the form indefinite.
            for i in active:
                for j in active:
                    if j != i and a[i][j] != 0:
                        s = 1 if a[i][j] > 0 else -1
                        return False, _witness(m, [x - s * y for x, y in zip(basis[i], basis[j])])
            return True, None
        active.remove(pivot)
        row_p, basis_p = a[pivot], basis[pivot]
        d = row_p[pivot]
        for i in active:
            row_i = a[i]
            aip = row_i[pivot]
            for j in active:
                row_i[j] = (d * row_i[j] - aip * row_p[j]) // prev
            basis[i] = [(d * x - aip * y) // prev for x, y in zip(basis[i], basis_p)]
        prev = d
    return True, None


def _witness(m: RationalMatrix, x: list[int]) -> list[Rational]:
    """x as rationals, after checking x^T M x < 0."""
    assert sum(map(mul, x, m.apply(x))) < 0
    return [Rational(v) for v in x]


# ---------------------------------------------------------------------------
# Dense integer polynomials (internal helpers for root isolation)
# ---------------------------------------------------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _int_clear(coeffs: Sequence) -> list[int]:
    """Scale a rational coefficient list by a positive rational to integers."""
    if all(type(c) is int for c in coeffs):
        return _trim(list(coeffs))
    coeffs = [c if type(c) is Rational else rat(c) for c in coeffs]
    scale = lcm(*(int(c.denominator) for c in coeffs))
    if scale == 1:
        return _trim([int(c.numerator) for c in coeffs])
    return _trim([int(c.numerator) * (scale // int(c.denominator)) for c in coeffs])


def _primitive(c: Sequence[int]) -> list[int]:
    c = _trim(list(c))
    if not c:
        return []
    g = gcd(*c)
    return [x // g for x in c]


def _derivative(c: Sequence[int]) -> list[int]:
    return _trim([i * c[i] for i in range(1, len(c))])


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _eval_scaled(c: Sequence[int], num: int, den: int) -> int:
    """den**deg * p(num/den); same sign as p(num/den) for den > 0.

    It is the sum of c[k] num^k den^(deg-k), so den = 0 gives c[deg] num^deg
    and num = 0 gives c[0] den^deg.
    At a power-of-two den (every dyadic bisection midpoint) its powers are shifts.
    """
    if not c:
        return 0
    if not num:
        return c[0] * den ** (len(c) - 1)
    acc = c[-1]
    if den & (den - 1) or not den:
        dpow = 1
        for k in range(len(c) - 2, -1, -1):
            dpow *= den
            acc = acc * num + c[k] * dpow
        return acc
    bits = den.bit_length() - 1
    shift = 0
    for k in range(len(c) - 2, -1, -1):
        shift += bits
        acc = acc * num + (c[k] << shift)
    return acc


def _eval_sign(c: Sequence[int], x: Rational) -> int:
    return _sign(_eval_scaled(c, int(x.numerator), int(x.denominator)))


def _divide_out_root(c: list[int], x: Rational) -> list[int]:
    """c divided by (den*t - num) for x = num/den, as often as x is a root.

    Synthetic division from the top coefficient; by Gauss's lemma every
    quotient of an integer polynomial by a primitive linear factor is integral.
    """
    num, den = int(x.numerator), int(x.denominator)
    while len(c) > 1 and _eval_scaled(c, num, den) == 0:
        quotient = [0] * (len(c) - 1)
        carry = 0
        for i in range(len(c) - 1, 0, -1):
            carry = (c[i] + num * carry) // den
            quotient[i - 1] = carry
        c = quotient
    return c


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Remainder of f scaled by positive powers of |lc(g)|.

    The positive scaling leaves the sign sequence of a Sturm chain intact.
    """
    f = list(f)
    dg = len(g) - 1
    lc = g[-1]
    scale = abs(lc)
    while f and len(f) - 1 >= dg:
        f = [x * scale for x in f]
        factor = f[-1] // lc
        shift = (len(f) - 1) - dg
        for i in range(dg + 1):
            f[shift + i] -= factor * g[i]
        f = _trim(f)
    return f


def _divide_exact(f: Sequence[int], g: Sequence[int]) -> list[int] | None:
    """f / g if g divides f with an integral quotient, else None.

    By Gauss's lemma a primitive g that divides f over the rationals divides
    it over the integers, so for primitive g this is the divisibility test.
    """
    f = list(f)
    dg = len(g) - 1
    lc = g[-1]
    quotient = [0] * max(len(f) - dg, 0)
    for k in range(len(quotient) - 1, -1, -1):
        t, r = divmod(f[k + dg], lc)
        if r:
            return None
        quotient[k] = t
        if t:
            f[k : k + dg] = [x - t * y for x, y in zip(f[k : k + dg], g)]
    return None if any(f[:dg]) else quotient


def _pack(coeffs: Sequence[int], bits: int) -> int:
    """p(2**bits): coefficient k at bit k * bits (Kronecker substitution)."""
    return sum(c << (k * bits) for k, c in enumerate(coeffs))


def _unpack(packed: int, bits: int) -> list[int]:
    """Signed base-2**bits digits of packed, lowest first, each in
    [-2**(bits-1), 2**(bits-1)): the coefficients `_pack` took, while every
    one of them lies in that range.  Each digit is subtracted before the
    shift, so the loop ends."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = []
    while packed:
        c = packed & mask
        if c >= half:
            c -= 1 << bits
        coeffs.append(c)
        packed = (packed - c) >> bits
    return coeffs


def _gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Primitive gcd of two integer polynomials, not both zero, with a
    positive leading coefficient.

    First the heuristic gcd (Char, Geddes and Gonnet 1989): at
    xi = 2**k >= 2 min(|f|, |g|) + 2, where evaluation is packing, the
    candidate is the primitive part of the signed base-xi digits of
    gcd(f(xi), g(xi)), and it is the gcd if it divides both (their
    Theorem 1).  Otherwise the primitive remainder sequence of `_pseudo_rem`.
    """
    f, g = _primitive(f), _primitive(g)
    if f and g:
        k = (2 * min(max(map(abs, f)), max(map(abs, g))) + 1).bit_length()
        h = _primitive(_unpack(gcd(_pack(f, k), _pack(g, k)), k))
        if _divide_exact(f, h) is not None and _divide_exact(g, h) is not None:
            f, g = h, []  # the gcd: no remainder sequence to run
    while g:
        f, g = g, _primitive(_pseudo_rem(f, g))
    return f if f[-1] > 0 else [-x for x in f]


def _square_free_split(c: Sequence[int]) -> tuple[list[int], list[tuple[list[int], int]]]:
    """Yun's square-free decomposition (Yun 1976) of a non-constant integer polynomial.

    Returns (core, factors).  core = c / gcd(c, c') has the distinct roots
    of c, all simple.  factors lists (a, m) for m = 1, 2, ... wherever a is
    not constant: the a are primitive, square-free and pairwise coprime, and
    c is a rational multiple of the product of the a**m.
    """
    f = _primitive(c)
    df = _derivative(f)
    g = _gcd(f, df)
    core = b = _divide_exact(f, g)
    d = _divide_exact(df, g)
    factors = []
    m = 1
    # Yun's loop: b is the product of the factors of multiplicity >= m, and
    # a = gcd(b, d - b') those of multiplicity exactly m.
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(d, _derivative(b), fillvalue=0)])
        a = _gcd(b, d)
        b, d = _divide_exact(b, a), _divide_exact(d, a)
        if len(a) > 1:
            factors.append((a, m))
        m += 1
    return core, factors


def sturm_chain(coeffs: Sequence) -> list[list[int]]:
    """Sturm chain of a univariate polynomial given as a coefficient list."""
    p0 = _int_clear(coeffs)
    if not p0:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [_primitive(p0)]
    d = _derivative(chain[0])
    if d:
        chain.append(_primitive(d))
        while True:
            r = _pseudo_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-x for x in _primitive(r)])
            if len(chain[-1]) == 1:
                break
    return chain


def _variations(values: Iterable[int]) -> int:
    """Sign changes along a sequence of integers, zeros skipped."""
    signs = [x > 0 for x in values if x]
    return sum(map(ne, signs, signs[1:]))


def sturm_count(chain, a: Rational, b: Rational) -> int:
    """Number of distinct real roots in (a, b] (endpoints must not be roots of p)."""
    at_a, at_b = (
        _variations([_eval_scaled(p, int(x.numerator), int(x.denominator)) for p in chain])
        for x in (rat(a), rat(b))
    )
    return at_a - at_b


# -- Descartes / interval sign variation machinery


def _taylor_shift(c: list[int], a: int) -> list[int]:
    """Coefficients of p(x + a) by repeated synthetic division.

    The shift by 1 is additions only: each pass adds to every coefficient
    below the top of a shrinking range its already-updated upper neighbour, a
    running sum from the top coefficient that accumulate runs in C.  Any
    other a shifts p(a y) by 1, whose coefficient i is a**i times that of
    p(x + a).
    """
    if a == 0 or len(c) < 2:
        return list(c)
    powers = list(accumulate([a] * (len(c) - 1), mul, initial=1))
    top_first = [x * w for x, w in zip(c, powers)][::-1]
    for m in range(len(top_first), 1, -1):
        top_first[:m] = accumulate(top_first[:m])
    return [x // w for x, w in zip(top_first[::-1], powers)]


def _to_unit_interval(c: list[int], a, b) -> list[int]:
    """A positive integer multiple of p(a + (b - a) t), so (0, 1) maps onto (a, b).

    a and b need only a numerator and a denominator: rationals, or the
    `_Ratio` ends of a nudged node.
    """
    an, ad, bn, bd = int(a.numerator), int(a.denominator), int(b.numerator), int(b.denominator)
    wn, wd = bn * ad - an * bd, ad * bd
    g = gcd(wn, wd)
    wn, wd = wn // g, wd // g
    d = len(c) - 1
    # ad**d p(x / ad) is integral; shifting it by an and putting x = ad w t
    # gives (ad wd)**d p(a + w t) once each coefficient is cleared of wd.
    shifted = _taylor_shift([ci * ad ** (d - i) for i, ci in enumerate(c)], an)
    return [ci * (ad * wn) ** i * wd ** (d - i) for i, ci in enumerate(shifted)]


class _Ratio(NamedTuple):
    """num / den in lowest terms: what `_to_unit_interval` reads of a rational."""

    numerator: int
    denominator: int


def _ratio(num: int, den: int) -> _Ratio:
    g = gcd(num, den)
    return _Ratio(num // g, den // g)


@cache
def _binomial_cofactors(d: int) -> tuple[int, ...]:
    """lcm(C(d, 0), ..., C(d, d)) / C(d, i) for i = 0..d."""
    top = lcm(*(comb(d, i) for i in range(d + 1)))
    return tuple(top // comb(d, i) for i in range(d + 1))


@cache
def _binomials(d: int) -> tuple[int, ...]:
    return tuple(comb(d, i) for i in range(d + 1))


def _bernstein(c: list[int], a: Rational, b: Rational) -> list[int]:
    """A positive integer multiple of the Bernstein coefficients of p on (a, b).

    With P(t) = p(a + (b - a) t) = sum_i b_i C(d, i) t**i (1 - t)**(d - i),
    (1 + s)**d P(1 / (1 + s)) = sum_i b_i C(d, i) s**(d - i): one Taylor
    shift of P reversed, whose coefficient d - i is divided by C(d, i).
    """
    shifted = _taylor_shift(_to_unit_interval(c, a, b)[::-1], 1)
    return [x * k for x, k in zip(reversed(shifted), _binomial_cofactors(len(c) - 1))]


def _de_casteljau(bern: list[int]) -> tuple[list[int], list[int]]:
    """Bernstein coefficients of both halves of a node, each times 2**d.

    Row k of the triangle holds 2**k times the de Casteljau row k at t = 1/2,
    by sums of neighbours: the left half reads the first entries of the rows,
    the right half the last ones.  The apex, the left half's last
    coefficient, is 2**d P(1/2), 0 exactly when the midpoint is a root.
    """
    d = len(bern) - 1
    left, right = [bern[0]], [bern[-1]]
    row = bern
    for _ in range(d):
        row = list(map(add, row, row[1:]))
        left.append(row[0])
        right.append(row[-1])
    return [x << (d - k) for k, x in enumerate(left)], [x << (d - k) for k, x in enumerate(right)][::-1]


def descartes_no_roots_above(coeffs: Sequence, a: Rational) -> bool:
    """Certify that a univariate polynomial has no real roots in (a, infinity).

    `coeffs` is [c0, c1, ...], integers or rationals.  An all-int list is only
    copied and trimmed; a rational one is cleared to integers on every call.
    """
    c = _int_clear(coeffs)
    if not c:
        raise ValueError("zero polynomial")
    a = rat(a)
    # A positive integer multiple of p(a + x), whose roots x > 0 are p's above a.
    return _variations(_to_unit_interval(c, a, a + 1)) == 0


# -- root isolation


@dataclass(frozen=True)
class IsolatingInterval:
    """Open interval (low, high) containing exactly `multiplicity` roots
    (counted with multiplicity) of the isolated polynomial."""

    low: Rational
    high: Rational
    multiplicity: int = 1

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError("isolating interval needs low < high")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

    def width(self) -> Rational:
        return self.high - self.low

    def contains(self, x) -> bool:
        return self.low < rat(x) < self.high


def isolate_real_roots(coeffs: Sequence, domain: tuple, width) -> list[IsolatingInterval]:
    """Isolate the distinct real roots of a univariate polynomial in a domain.

    Returns disjoint intervals of width < `width`, each containing exactly one
    distinct root whose multiplicity is reported.  Roots at the domain ends
    are divided out exactly and not reported; an interval may end at such a
    domain end, and no other interval endpoint is a root.  Descartes sign
    variations of Bernstein coefficients on a bisection tree certify every
    degree.  Only a node narrower than `width` that still shows two or more
    variations (a repeated root, or roots closer than `width`) splits the
    polynomial, once, into square-free factors by Yun's algorithm.  A
    square-free polynomial then continues the same tree with no floor; one
    with a repeated root has its square-free part isolated from the domain,
    also with no floor.  There is no degree limit.  A node with one variation
    is halved in integers on one grid, each point stripped of powers of two,
    from the signs its end Bernstein coefficients give its ends; a
    floating-point probe picks the grid cell to halve inside, once exact
    signs at its two ends certify it, so the brackets are those of halving
    the node.  Only the returned brackets are rationals.  A bracket's
    multiplicity is the m of the square-free factor that changes sign across
    it.
    """
    return integer_negative_region(coeffs, domain, width)[0]


def _isolate(c, lo, hi, width) -> list[IsolatingInterval]:
    """``isolate_real_roots`` of a nonzero c whose roots at lo and hi are divided out."""
    if len(c) == 1:
        return []
    try:
        return [IsolatingInterval(a, b) for a, b in _isolate_descartes(c, lo, hi, width, width)]
    except _Stall as stall:
        (tree,) = stall.args
    core, factors = _square_free_split(c)
    if len(factors) == 1 and factors[0][1] == 1:
        # c is square-free: the stalled tree, on c's own nodes, goes on.
        return [IsolatingInterval(a, b) for a, b in _isolate_descartes(c, lo, hi, width, 0, tree)]
    # No bracket ends at a root, and its one root is a simple root of
    # exactly one square-free factor.
    return [
        IsolatingInterval(a, b, next(m for f, m in factors if _eval_sign(f, a) != _eval_sign(f, b)))
        for a, b in _isolate_descartes(core, lo, hi, width, 0)
    ]


def _probe(bern: list[int], k: int) -> tuple[int, int]:
    """(j, i): the cell [i, i + 1] / 2**j, j <= k, of the unit interval in
    which floating point puts the one root of a node with one variation.

    Each level halves the cell at its midpoint t.  There P(t) is a positive
    multiple of the sum of beta_i u**i for u = t / (1 - t) <= 1, or of
    beta_i v**(d - i) for v = 1 / u < 1, where beta_i = bern_i C(d, i) in
    doubles, scaled by one power of two below 2**960.  The probe stops where
    the value does not exceed its rounding bound, (4d + 4) unit roundoffs
    times the sum of |beta_i| u**i (or where it is a NaN).  It only guides:
    `_refine` certifies its cell by exact signs.
    """
    d = len(bern) - 1
    beta = list(map(mul, bern, _binomials(d)))
    scale = 1 << max(max(x.bit_length() for x in beta) - 960, 0)
    up = [x / scale for x in beta]
    up_size = list(map(abs, up))
    down, down_size = up[::-1], up_size[::-1]
    tol = (4 * d + 4) * 2.0**-53
    # u <= 1, so this bounds the rounding bound at every level.
    loose = tol * sum(up_size)
    positive = bern[0] > 0
    i = 0
    for j in range(k):
        m = 2 * i + 1  # the midpoint m / 2**(j + 1) of cell i at level j
        rest = (2 << j) - m
        terms, sizes, u = (down, down_size, m / rest) if m <= rest else (up, up_size, rest / m)
        value = 0.0
        for x in terms:
            value = value * u + x
        if not abs(value) > loose:
            size = 0.0
            for x in sizes:
                size = size * u + x
            if not abs(value) > tol * size:
                return j, i
        i = m if (value > 0) == positive else m - 1
    return k, i


def _refine(c, a, b, den, width, bern):
    """Halve (a / den, b / den), holding one simple root of c and none at its
    ends, to below `width`; returns (low, high, den), the bracket's ends.

    The halves are cells of one grid, (a 2**k + i (b - a)) / (den 2**k) for
    the least k with (b - a) / (den 2**k) < width.  Exact signs at the ends
    of the level-j cell `_probe` picks certify it, and the halving goes on
    inside it; a cell they do not certify sends it back to (a, b).  A grid
    point that is the root ends the halving with a bracket of width
    width / 2 centred on it, inside (a, b) as b - a >= width.  Any halving
    that holds a grid root meets it, so the bracket is the one halving (a, b)
    k times keeps, whatever the probe says.  A point sheds the powers of two
    it shares with den before it is evaluated; the signs at a and b are
    those of bern[0] and bern[-1].
    """
    wn, wd = int(width.numerator), int(width.denominator)
    step = b - a
    # (b - a) / den / width = over / under, and k is the least with over < under * 2**k.
    over, under = step * wd, den * wn
    k = max(over.bit_length() - under.bit_length(), 0)
    k += over >= under << k
    base, den, top = a << k, den << k, 1 << k
    positive = bern[0] > 0

    def value(i):
        num = base + i * step
        strip = ((num | den) & -(num | den)).bit_length() - 1
        return _eval_scaled(c, num >> strip, den >> strip)

    def centred(i):
        num, half = (base + i * step) * 4 * wd, wn * den
        return num - half, num + half, 4 * den * wd

    left, right = 0, top
    j, i = _probe(bern, k) if k else (0, 0)
    if j:
        low, high = i << (k - j), (i + 1) << (k - j)
        at_low = value(low) if low else bern[0]
        if not at_low:
            return centred(low)
        if (at_low > 0) == positive:
            at_high = value(high) if high < top else bern[-1]
            if not at_high:
                return centred(high)
            if (at_high > 0) != positive:
                left, right = low, high
    while right - left > 1:
        mid = (left + right) >> 1
        at_mid = value(mid)
        if not at_mid:
            return centred(mid)
        left, right = (mid, right) if (at_mid > 0) == positive else (left, mid)
    return base + left * step, base + right * step, den


class _Stall(Exception):
    """A Descartes node narrower than its floor still shows two or more sign
    variations.  Its argument is the unfinished search, stalled node on top."""


def _isolate_descartes(c, lo, hi, width, floor, tree=None):
    """Descartes bisection in the Bernstein basis (Collins-Akritas).

    A node (a, b, den, bern) is the interval (a / den, b / den) and a
    positive multiple of the Bernstein coefficients of p on it; their sign
    variations bound its roots, and one de Casteljau triangle splits it at
    (a + b) / (2 den).  A midpoint that is a root moves by (b - a) / 16, then
    by thirds of that, to the first point that is not; only the domain and
    the children of such a point are mapped from p.  Only the sorted
    brackets are rationals.  Raises _Stall at the first node narrower than
    `floor` with two or more variations; `tree`, the (stack, brackets) it
    carries, resumes the search.
    """
    if tree is None:
        ln, ld, hn, hd = int(lo.numerator), int(lo.denominator), int(hi.numerator), int(hi.denominator)
        tree = [(ln * hd, hn * ld, ld * hd, _bernstein(c, lo, hi))], []
    stack, out = tree
    fn, fd = int(floor.numerator), int(floor.denominator)
    while stack:
        a, b, den, bern = stack.pop()
        # Descartes' bound on the roots in (a, b): 0 certifies none, 1 one simple root.
        v = _variations(bern)
        if v == 0:
            continue
        if v == 1:
            out.append(_refine(c, a, b, den, width, bern))
            continue
        if (b - a) * fd < fn * den:
            stack.append((a, b, den, bern))
            raise _Stall((stack, out))
        left, right = _de_casteljau(bern)
        a, mid, b, den = a << 1, a + b, b << 1, den << 1
        if not left[-1]:
            a, mid, b, den, bump = a << 4, mid << 4, b << 4, den << 4, b - a
            mid += bump
            while not _eval_scaled(c, mid, den):
                a, mid, b, den = 3 * a, 3 * mid + bump, 3 * b, 3 * den
            g = gcd(a, mid, b, den)
            a, mid, b, den = a // g, mid // g, b // g, den // g
            left = _bernstein(c, _ratio(a, den), _ratio(mid, den))
            right = _bernstein(c, _ratio(mid, den), _ratio(b, den))
        stack.append((a, mid, den, left))
        stack.append((mid, b, den, right))
    return sorted((Rational(low, den), Rational(high, den)) for low, high, den in out)


def isolate_negative_region(p: MultiPoly, domain: tuple, width):
    """``integer_negative_region`` of the univariate polynomial p in q, read off its view.

    No code in the package calls it; perfbench's roots jobs do.
    """
    return integer_negative_region(p.dense_in("q"), domain, width)


def integer_negative_region(coeffs: Sequence[int], domain: tuple, width):
    """Certified sign analysis of a polynomial [c0, c1, ...] on a domain.

    Returns (roots, negative) where `roots` is a list of IsolatingInterval
    bracketing every distinct root inside the open domain, and `negative` is
    the list of maximal subintervals of the domain where p < 0.  Negative
    region endpoints that fall at a root are reported by the root's outer
    bracket, so each carries uncertainty below `width`; endpoints at the
    domain boundary are exact.  The signs between brackets cost one
    evaluation, at the domain's low end after the root there is divided out;
    each bracket flips the sign by the parity of its multiplicity.  An
    all-int list is only copied and trimmed;
    rational coefficients are first scaled to integers by a positive
    rational, which moves no sign, so any positive multiple of p gives the
    same brackets and regions.  It is root isolation's one front end.
    """
    c = _int_clear(coeffs)
    if not c:
        raise ValueError("zero polynomial has no sign regions")
    lo, hi = rat(domain[0]), rat(domain[1])
    if not lo < hi:
        raise ValueError("empty domain")
    width = rat(width)
    if width <= 0:
        raise ValueError("width must be positive")
    # Divide out the roots at the domain ends once, before isolating, so
    # that the sign just inside an end can be read at the end itself, where
    # a bracket may start or stop.  On (lo, hi), (q - lo)**k is positive and
    # (q - hi)**k has the sign (-1)**k.
    c = _divide_out_root(c, lo)
    at_hi = len(c)
    c = _divide_out_root(c, hi)
    flip = -1 if (at_hi - len(c)) % 2 else 1
    roots = _isolate(c, lo, hi, width)

    # Every root in (lo, hi) is bracketed, with its multiplicity.
    sign = flip * _eval_sign(c, lo)
    signs = [sign]
    for r in roots:
        sign = -sign if r.multiplicity % 2 else sign
        signs.append(sign)

    # Assemble maximal negative intervals.  A gap endpoint at the domain edge
    # is exact; at a root it is the root's outer bracket edge, except where
    # the neighbouring gap is also negative (a sign-preserving touch point),
    # in which case the inner edge keeps the reported intervals disjoint.
    negative = []
    for i, sign in enumerate(signs):
        if sign >= 0:
            continue
        if i == 0:
            left = lo
        elif signs[i - 1] < 0:
            left = roots[i - 1].high
        else:
            left = roots[i - 1].low
        if i == len(roots):
            right = hi
        elif signs[i + 1] < 0:
            right = roots[i].low
        else:
            right = roots[i].high
        negative.append((left, right))
    return roots, negative
