"""Test polynomials as dense coefficient lists, lowest degree first."""

from bunkbed.exactnum import MultiPoly, rat


def qpoly(coeffs, den=1):
    """The MultiPoly view of coefficients in q, each divided by den."""
    return MultiPoly({(k, 0, 0, 0): rat(c, den) for k, c in enumerate(coeffs)})


def from_roots(roots):
    """Coefficients of the monic product of (q - r) over the roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def at(coeffs, x):
    """Exact value of a coefficient list at a rational x."""
    return qpoly(coeffs).eval({"q": x})
