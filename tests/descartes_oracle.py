"""Descartes bisection with a fresh substitution per interval: the oracle for
``exactnum._isolate_descartes``.

``bunkbed.exactnum`` maps the polynomial onto the domain once and derives
every node's Bernstein coefficients from its parent's by de Casteljau; this
helper keeps the earlier, independent route, which rebuilds each interval's
polynomial from the original one by a rational substitution and evaluates
signs in ``Fraction`` arithmetic, so tests can compare the two on the same
polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from bunkbed.exactnum import _Stall


def taylor_shift_by_loops(c, a):
    """Coefficients of p(x + a) by the index double loop of synthetic division."""
    out = list(c)
    n = len(out)
    if a == 0:
        return out
    for k in range(n - 1):
        for i in range(n - 2, k - 1, -1):
            out[i] += a * out[i + 1]
    return out


def value(c, x):
    """p(x) in Fraction arithmetic, by Horner."""
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def _sign(x):
    return (x > 0) - (x < 0)


def _variations(values):
    signs = [s for s in map(_sign, values) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def interval_variations(c, a, b):
    """Descartes sign variations of integer coefficients c on the open (a, b)."""
    a, b = Fraction(a), Fraction(b)
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    d = len(c) - 1
    # q(x) = den**d * p((alpha + beta*x)/den) via Horner, so (0, 1) maps to (a, b).
    alpha = an * bd
    beta = bn * ad - an * bd
    den = ad * bd
    q = [c[-1]]
    dpow = 1
    for k in range(d - 1, -1, -1):
        dpow *= den
        new = [0] * (len(q) + 1)
        for i, qc in enumerate(q):
            new[i] += qc * alpha
            new[i + 1] += qc * beta
        new[0] += c[k] * dpow
        q = new
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return 0
    # Roots of q in (0, 1) <-> roots of (1 + x)**deg * q(1 / (1 + x)) in (0, oo).
    return _variations(taylor_shift_by_loops(q[::-1], 1))


def _refine_sign_change(c, a, b, width):
    sa = _sign(value(c, a))
    while b - a >= width:
        mid = (a + b) / 2
        sm = _sign(value(c, mid))
        if sm == 0:
            quarter = width / 4
            lo2, hi2 = mid - quarter, mid + quarter
            if lo2 <= a:
                lo2 = (a + mid) / 2
            if hi2 >= b:
                hi2 = (mid + b) / 2
            return lo2, hi2
        if sm == sa:
            a = mid
        else:
            b = mid
    return a, b


def isolate_descartes(c, lo, hi, width, floor):
    """Sorted (low, high) brackets of the roots of c in (lo, hi).

    The domain ends must not be roots.  Raises ``_Stall`` when an interval
    with two or more sign variations gets narrower than `floor`.
    """
    lo, hi, width, floor = Fraction(lo), Fraction(hi), Fraction(width), Fraction(floor)
    out = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        v = interval_variations(c, a, b)
        if v == 0:
            continue
        if v == 1:
            out.append(_refine_sign_change(c, a, b, width))
            continue
        if b - a < floor:
            raise _Stall
        mid = (a + b) / 2
        bump = (b - a) / 16
        while value(c, mid) == 0:
            mid += bump
            bump /= 3
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort()
    return out
