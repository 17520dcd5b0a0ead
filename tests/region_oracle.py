"""Negative regions with one evaluation per gap: the oracle for the gap
signs of ``exactnum.integer_negative_region``.

``bunkbed.exactnum`` evaluates the polynomial once, at the domain's low end,
and flips the sign across each root bracket by the parity of its
multiplicity.  This helper takes its brackets from the Sturm-count oracle,
not from the library, whose one front end returns brackets and regions
together, and evaluates every gap on its own in ``Fraction`` arithmetic: at
the gap's midpoint, moved off any root, or at the one point of an empty gap.
"""

from __future__ import annotations

from fractions import Fraction

from descartes_oracle import value
from sturm_oracle import _divide_out, isolate_sturm


def _sign(x):
    return (x > 0) - (x < 0)


def negative_region_by_evaluation(coeffs, domain, width):
    """The (roots, negative) `integer_negative_region(coeffs, domain, width)` should return."""
    lo, hi = (Fraction(x) for x in domain)
    c = _divide_out(coeffs, lo)
    at_hi = len(c)
    c = _divide_out(c, hi)
    # (q - hi)**k has the sign (-1)**k on the domain.
    flip = -1 if (at_hi - len(c)) % 2 else 1
    roots = isolate_sturm(coeffs, domain, width)
    signs = []
    for a, b in zip([lo] + [r.high for r in roots], [r.low for r in roots] + [hi]):
        x, bump = (a + b) / 2, (b - a) / 16
        while value(c, x) == 0:
            x += bump
            bump /= 3
        signs.append(flip * _sign(value(c, x)))
    negative = []
    for i, sign in enumerate(signs):
        if sign < 0:
            left = lo if i == 0 else roots[i - 1].high if signs[i - 1] < 0 else roots[i - 1].low
            right = hi if i == len(roots) else roots[i].low if signs[i + 1] < 0 else roots[i].high
            negative.append((left, right))
    return roots, negative
