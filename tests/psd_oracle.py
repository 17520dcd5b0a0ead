"""Positive semidefiniteness by rational LDL^T: the oracle for ``psd_certificate``.

``bunkbed.exactnum.psd_certificate`` eliminates fraction-free on the integer
numerators; this helper keeps the plain route, symmetric elimination with
diagonal pivoting in ``fractions.Fraction``, so tests can compare verdicts.
"""

from __future__ import annotations

from fractions import Fraction


def is_psd(rows) -> bool:
    """Whether the symmetric matrix given as rows of rationals is PSD."""
    a = [[Fraction(x) for x in row] for row in rows]
    active = list(range(len(a)))
    while active:
        if any(a[i][i] < 0 for i in active):
            return False
        pivot = next((i for i in active if a[i][i] > 0), None)
        if pivot is None:
            # A zero diagonal leaves a PSD form only if its rows vanish too.
            return all(a[i][j] == 0 for i in active for j in active)
        active.remove(pivot)
        d = a[pivot][pivot]
        for i in active:
            c = a[i][pivot] / d
            for j in active:
                a[i][j] -= c * a[pivot][j]
    return True
