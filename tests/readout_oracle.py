"""Every entry interpolated, then read: the oracle for ``counterexample_numerator``.

``bunkbed.glue.counterexample_numerator`` contracts only layer 1 of the
doubled counterexample, mirrors that table onto layer 2 and reads N and Z(1)
off one signed glue of the two.  This helper takes an independent route
through the whole network: contract all twelve gadget factors with
``contract_network``, interpolate every final entry, subtract the two query
entries as polynomials, and evaluate the partition function
``Factor.total()`` at q = 1.

``windows_by_entries`` is the oracle for ``cli.negative_window_rows``: it
reads a row's windows off that whole-network numerator, through the
``MultiPoly`` view's ``isolate_negative_region``, where the CLI takes the
integer list of ``counterexample_numerator`` straight to the integer window.
"""

from __future__ import annotations

from bunkbed.exactnum import MultiPoly, Rational, descartes_no_roots_above, isolate_negative_region, rat
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


def windows_by_entries(n: int, p, width) -> tuple[list, Rational]:
    """(negative windows, Z(1)) of a table2 row, from the whole-network numerator."""
    numerator, z_at_1 = counterexample_by_entries(n, p)
    hi = rat(2)
    while not descartes_no_roots_above(numerator.dense_in("q"), hi):
        hi *= 2
    _, negative = isolate_negative_region(numerator, (rat(0), hi), width)
    return negative, z_at_1
