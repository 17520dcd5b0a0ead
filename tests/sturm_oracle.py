"""Root isolation by Sturm counts: the oracle for ``exactnum.isolate_real_roots``.

``bunkbed.exactnum`` certifies every bracket by Descartes sign variations in
the Bernstein basis.  This helper certifies the same brackets by another
route, the public ``sturm_chain`` and ``sturm_count`` alone: it bisects the
domain on distinct-root counts, nudges a midpoint that is a root as the
kernel does, and halves a one-root bracket on counts too, so it returns the
kernel's brackets wherever both trees keep one root per node.  A bracket's
multiplicity is read off the tower p, gcd(p, p'), ... that the chain ends in.
"""

from __future__ import annotations

from fractions import Fraction

from descartes_oracle import value

from bunkbed.exactnum import IsolatingInterval, rat, sturm_chain, sturm_count


def _divide_out(c, x):
    """c divided by (t - x) as often as x is a root, in Fraction arithmetic."""
    c = [Fraction(v) for v in c]
    while len(c) > 1 and value(c, x) == 0:
        carry, quotient = Fraction(0), []
        for coeff in reversed(c[1:]):
            carry = coeff + x * carry
            quotient.append(carry)
        c = quotient[::-1]
    return c


def multiplicity(c, a, b):
    """How often c vanishes at its one distinct root in (a, b).

    The last member of the Sturm chain of c is gcd(c, c'), which vanishes
    exactly at the repeated roots of c, once less often.
    """
    m = 0
    while len(c) > 1 and sturm_count(sturm_chain(c), a, b):
        m += 1
        c = sturm_chain(c)[-1]
    return m


def isolate_sturm(coeffs, domain, width):
    """The brackets `isolate_real_roots(coeffs, domain, width)` should return."""
    lo, hi, width = (Fraction(x) for x in (*domain, width))
    c = _divide_out(_divide_out(coeffs, lo), hi)
    chain = sturm_chain(c)

    def count(a, b):
        return sturm_count(chain, rat(a), rat(b))

    def refine(a, b):
        while b - a >= width:
            mid = (a + b) / 2
            if value(c, mid) == 0:
                return mid - width / 4, mid + width / 4
            a, b = (a, mid) if count(a, mid) else (mid, b)
        return a, b

    out = []
    stack = [(lo, hi)] if len(c) > 1 else []
    while stack:
        a, b = stack.pop()
        roots = count(a, b)
        if roots == 1:
            out.append(refine(a, b))
        elif roots:
            mid, bump = (a + b) / 2, (b - a) / 16
            while value(c, mid) == 0:
                mid += bump
                bump /= 3
            stack += [(a, mid), (mid, b)]
    return [IsolatingInterval(rat(a), rat(b), multiplicity(c, rat(a), rat(b))) for a, b in sorted(out)]
