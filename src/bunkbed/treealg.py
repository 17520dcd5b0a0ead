"""Exact algebraic graph theory.

Laplacians and their pseudoinverses over the rationals, all-minors spanning
forest counts, effective resistances, the block formula for the pseudoinverse
of a bunkbed Laplacian, and positive-semidefiniteness certificates.  Every
matrix is exactnum's integer rows over one denominator, and a Laplacian is
inverted one way only, by exactnum's fraction-free Gauss-Jordan: its grounded
inverse M is the inverse of L_-0 (L without vertex 0) bordered by a zero row
and column.  M is a generalised inverse of L, so the pseudoinverse is P M P
for P = I - J/n, one integer centring pass; resistances and inner products
pair vectors orthogonal to the all-ones vector and read M itself.

A LaplacianBundle builds one Laplacian and one M per graph and answers every
all-minors query (`minors_count`), pseudoinverse entry, resistance and
two-forest count det L_-{u,v} = tau (M_uu + M_vv - 2 M_uv), tau = det L_-0,
from them.  A PostsBundle inverts L^SS and the posts-contracted bunkbed's
Laplacian once per post set for every vertex pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

from .exactnum import (
    Rational,
    RationalMatrix,
    bareiss_det,
    invert,
    rat,
)
from .graph import Graph, bunkbed, bunkbed_copies

__all__ = [
    "laplacian",
    "LaplacianBundle",
    "PostsBundle",
    "all_minors_count",
    "pseudoinverse",
    "bunkbed_pseudoinverse",
]


def laplacian(g: Graph) -> RationalMatrix:
    """Weighted graph Laplacian; parallel edges add, rows sum to zero."""
    n = g.n
    den = lcm(*(int(w.denominator) for _, _, w in g.edges))
    num = [[0] * n for _ in range(n)]
    for u, v, w in g.edges:
        x = int(w.numerator) * (den // int(w.denominator))
        num[u][u] += x
        num[v][v] += x
        num[u][v] -= x
        num[v][u] -= x
    return RationalMatrix.from_integers(num, den)


def all_minors_count(g: Graph, s_set, t_set) -> Rational:
    """|det L(S^c, T^c)|: spanning forests with one vertex of S and T per tree."""
    return LaplacianBundle(g).minors_count(s_set, t_set)


def pseudoinverse(lap: RationalMatrix) -> RationalMatrix:
    """Moore-Penrose pseudoinverse of a connected graph's Laplacian."""
    return _centred(_grounded_inverse(lap))


def _grounded_inverse(lap: RationalMatrix) -> RationalMatrix:
    """M: the inverse of L_-0 bordered by a zero row and column, so vertex x is row x."""
    n = lap.rows
    if n == 0:
        raise ValueError("a graph Laplacian needs at least one vertex")
    try:
        inv = invert(lap.submatrix(range(1, n), range(1, n)))
    except ValueError:
        raise ValueError("grounded Laplacian is singular: the graph is disconnected") from None
    return RationalMatrix.from_integers([[0] * n] + [[0, *row] for row in inv.num], inv.den)


def _centred(m: RationalMatrix) -> RationalMatrix:
    """P m P for P = I - J/n and a symmetric m: m_ij - (r_i + r_j)/n + s/n^2, r the row sums."""
    n, sums = m.rows, [sum(row) for row in m.num]
    total = sum(sums)
    return RationalMatrix.from_integers(
        [[n * n * x - n * (ri + rj) + total for x, rj in zip(row, sums)] for row, ri in zip(m.num, sums)],
        n * n * m.den,
    )


@dataclass
class LaplacianBundle:
    """A graph with its Laplacian, inverted once on first use; one bundle serves every query."""

    graph: Graph
    lap: RationalMatrix = field(init=False)

    def __post_init__(self):
        self.lap = laplacian(self.graph)

    @cached_property
    def inverse(self) -> RationalMatrix:
        """M, the grounded inverse (`_grounded_inverse`)."""
        return _grounded_inverse(self.lap)

    @cached_property
    def pinv(self) -> RationalMatrix:
        return _centred(self.inverse)

    @cached_property
    def grounded(self) -> tuple[Rational, RationalMatrix]:
        """(tau, M): tau = det L_-0, the spanning-tree count, and M = `inverse`."""
        m, rest = self.inverse, range(1, self.graph.n)
        return bareiss_det(self.lap.submatrix(rest, rest)), m

    def minors_count(self, s_set, t_set) -> Rational:
        """|det L(S^c, T^c)|: spanning forests with one vertex of S and T per tree."""
        s_set, t_set = set(s_set), set(t_set)
        if len(s_set) != len(t_set):
            raise ValueError("vertex sets must have equal size")
        _check_vertices(self.graph, s_set | t_set)
        n = self.graph.n
        keep_rows = [i for i in range(n) if i not in s_set]
        keep_cols = [j for j in range(n) if j not in t_set]
        if not keep_rows:
            return rat(1)
        det = bareiss_det(self.lap.submatrix(keep_rows, keep_cols))
        return det if det >= 0 else -det

    def pair_count(self, u: int, v: int) -> Rational:
        """minors_count({u, v}, {u, v}), as tau (M_uu + M_vv - 2 M_uv) from `grounded`."""
        _check_vertices(self.graph, (u, v))
        if u == v:
            raise ValueError(f"pair count needs two distinct vertices; got u = v = {u}")
        tau, m = self.grounded
        row_u, row_v = m.num[u], m.num[v]
        return tau * Rational(row_u[u] + row_v[v] - 2 * row_u[v], m.den)

    def resistance(self, u: int, v: int) -> Rational:
        _check_vertices(self.graph, (u, v))
        m = self.inverse
        num = m.num
        return Rational(num[u][u] + num[v][v] - 2 * num[u][v], m.den)

    def cross_inner(self, a: int, b: int, c: int, d: int) -> Rational:
        """<L_pinv (e_a - e_b), e_c - e_d>, exactly."""
        _check_vertices(self.graph, (a, b, c, d))
        m = self.inverse
        ra, rb = m.num[a], m.num[b]
        return Rational(ra[c] - ra[d] - rb[c] + rb[d], m.den)

    def resistance_matrix(self) -> RationalMatrix:
        """All effective resistances, with a zero diagonal."""
        m = self.inverse
        diag = [row[i] for i, row in enumerate(m.num)]
        return RationalMatrix.from_integers(
            [[di + dj - 2 * x for dj, x in zip(diag, row)] for di, row in zip(diag, m.num)],
            m.den,
        )


def _check_vertices(g: Graph, vertices) -> None:
    bad = sorted(x for x in vertices if not 0 <= x < g.n)
    if bad:
        raise ValueError(f"vertex {bad[0]} out of range for a graph on {g.n} vertices")


def bunkbed_pseudoinverse(g: Graph) -> RationalMatrix:
    """Pseudoinverse of the bunkbed Laplacian, validated two ways.

    Computes it directly from the bunkbed graph and through the block formula
    (half the sum of an all-blocks L-pinv matrix and a signed (L+2I)^{-1}
    matrix); raises if the two disagree anywhere.
    """
    return _bunkbed_pinv_and_resolvent(g)[0].pinv


def _bunkbed_pinv_and_resolvent(g: Graph) -> tuple[LaplacianBundle, RationalMatrix]:
    """The doubled bunkbed's bundle, pinv checked, and the (L + 2I)^{-1} it was checked against."""
    doubled = LaplacianBundle(bunkbed(g, vertical_weight=rat(1)))

    lap = laplacian(g)
    lp = pseudoinverse(lap)
    shifted = invert(lap + RationalMatrix.identity(g.n) * 2)
    # Same-layer blocks (lp + shifted) / 2, cross-layer blocks (lp - shifted) / 2.
    den = lcm(lp.den, shifted.den)
    a, b = den // lp.den, den // shifted.den
    top, bottom = [], []
    for row_l, row_s in zip(lp.num, shifted.num):
        same = [x * a + y * b for x, y in zip(row_l, row_s)]
        cross = [x * a - y * b for x, y in zip(row_l, row_s)]
        top.append(same + cross)
        bottom.append(cross + same)
    blocks = RationalMatrix.from_integers(top + bottom, 2 * den)
    # The block rows run over layer 1, then layer 2, each in base vertex order.
    copies = [bunkbed_copies(g, None, x) for x in range(g.n)]
    order = [c[layer] for layer in (0, 1) for c in copies]
    if doubled.pinv.submatrix(order, order) != blocks:
        raise ValueError("bunkbed pseudoinverse block formula mismatch")
    return doubled, shifted


class PostsBundle:
    """Both sides of the posts gap identity for one post set.

    `entry` reads the inverse of L^SS, the Laplacian restricted to the
    non-post vertices S; `gap` reads L_pinv(u1, v1) - L_pinv(u1, v2) on the
    posts-contracted bunkbed.  Each matrix is inverted once, on first use, and
    then serves every vertex pair.
    """

    def __init__(self, g: Graph, posts):
        self.graph = g
        self.posts = frozenset(posts)
        if not self.posts:
            raise ValueError("post set must be nonempty (L^SS would be singular)")
        _check_vertices(g, self.posts)

    @cached_property
    def _lss_inverse(self) -> tuple[dict[int, int], RationalMatrix]:
        s_vertices = [x for x in range(self.graph.n) if x not in self.posts]
        lss = laplacian(self.graph).submatrix(s_vertices, s_vertices)
        return {x: i for i, x in enumerate(s_vertices)}, invert(lss)

    @cached_property
    def _contracted(self) -> RationalMatrix:
        return pseudoinverse(laplacian(bunkbed(self.graph, self.posts)))

    def _check_pair(self, u: int, v: int) -> None:
        """The guard `entry` and `gap` share: two non-post vertices."""
        if u in self.posts or v in self.posts:
            raise ValueError("query vertices must not be posts")
        _check_vertices(self.graph, (u, v))

    def entry(self, u: int, v: int) -> Rational:
        """Entry (u, v) of the inverse of L^SS."""
        self._check_pair(u, v)
        index, inv = self._lss_inverse
        return inv[index[u], index[v]]

    def gap(self, u: int, v: int) -> Rational:
        """L_pinv(u1, v1) - L_pinv(u1, v2) on the posts-contracted bunkbed."""
        self._check_pair(u, v)
        pinv = self._contracted
        u1, _ = bunkbed_copies(self.graph, self.posts, u)
        v1, v2 = bunkbed_copies(self.graph, self.posts, v)
        row = pinv.num[u1]
        return Rational(row[v1] - row[v2], pinv.den)
