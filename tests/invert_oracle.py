"""Forward elimination plus rational back substitution: the oracle for ``invert``.

``bunkbed.exactnum.invert`` reduces the whole augmented matrix with
fraction-free Gauss-Jordan steps and divides by one determinant at the end;
this helper keeps the earlier, independent route (Bareiss forward elimination
to an integer upper triangle, then back substitution in exact rationals), so
tests can compare the two on the same matrices.
"""

from __future__ import annotations

from math import lcm

from bunkbed.exactnum import Rational, RationalMatrix


def invert_by_back_substitution(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a nonempty square matrix; ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    # Row-scale to integers and solve (D*M) X = D, so X = M^-1.
    aug = []
    for i in range(n):
        row = [m[i, j] for j in range(n)]
        scale = lcm(*(int(x.denominator) for x in row))
        left = [int(x.numerator) * (scale // int(x.denominator)) for x in row]
        right = [scale if j == i else 0 for j in range(n)]
        aug.append(left + right)
    width = 2 * n
    prev = 1
    for k in range(n - 1):
        if aug[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if aug[i][k] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[k], aug[pivot] = aug[pivot], aug[k]
        akk = aug[k][k]
        for i in range(k + 1, n):
            aik = aug[i][k]
            row_i, row_k = aug[i], aug[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    if aug[n - 1][n - 1] == 0:
        raise ValueError("matrix is singular")
    inv_rows = [[Rational(0)] * n for _ in range(n)]
    for col in range(n):
        x = [Rational(0)] * n
        for i in range(n - 1, -1, -1):
            s = Rational(aug[i][n + col])
            for j in range(i + 1, n):
                s -= Rational(aug[i][j]) * x[j]
            x[i] = s / Rational(aug[i][i])
        for i in range(n):
            inv_rows[i][col] = x[i]
    return RationalMatrix(inv_rows)
