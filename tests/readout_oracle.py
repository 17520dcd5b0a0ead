"""Every entry interpolated, then read: the oracle for ``counterexample_polynomial``.

``bunkbed.glue.counterexample_polynomial`` contracts only layer 1 of the
doubled counterexample, mirrors that table onto layer 2 and reads N and Z(1)
off one signed glue of the two.  This helper takes an independent route
through the whole network: contract all twelve gadget factors with
``contract_network``, interpolate every final entry, subtract the two query
entries as polynomials, and evaluate the partition function
``Factor.total()`` at q = 1.
"""

from __future__ import annotations

from bunkbed.exactnum import MultiPoly, Rational, rat
from bunkbed.glue import contract_network, hollom_network


def counterexample_by_entries(n: int, p) -> tuple[MultiPoly, Rational]:
    """(N, Z(1)) of the doubled counterexample from the interpolated final table."""
    final = contract_network(hollom_network(n, p))
    diff: dict = {}
    for rgs, sign in (((0, 0, 1), 1), ((0, 1, 0), -1)):  # {1,10}{20}, {1,20}{10}
        for k, coeff in enumerate(final.entries.get(rgs, [])):
            # Both query partitions have two blocks: restore q**2.
            diff[k + 2] = diff.get(k + 2, 0) + sign * coeff
    numerator = MultiPoly({(e, 0, 0, 0): Rational(c, final.den) for e, c in diff.items() if c})
    return numerator, final.total().eval({"q": rat(1)})
