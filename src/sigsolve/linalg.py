"""Exact linear algebra in integers: one pivot kernel and one elimination.

`Tableau` holds a polyhedron {x >= 0 : rows . x <= rhs} with rhs >= 0 as an
integer dictionary: the rhs and the nonbasic columns only, as in lrs/lrsnash
(Avis, Rosenberg, Savani & von Stengel 2010). It pivots fraction-free
(Bareiss), leaving by the lexicographic min-ratio test, and reads each basic
column as det times a unit vector instead of storing it. The vertex walk in
`equilibrium` and the max-norm distance from a point to a convex hull are
built on it. `bareiss` eliminates a square integer block fraction-free; the
determinant of an integer matrix and the partner solve in `equilibrium` are
built on it. Both take integers; the hull distance scales its `Fraction`
input to integers by the common denominator, numerator times cofactor, and
reads its result off exactly as a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)


class Tableau:
    """{x >= 0 : rows . x <= rhs}, rhs >= 0, as an integer dictionary.

    Variable v < dim is the coordinate x_v and variable dim + r the slack of
    row r. Row r of `rows` is [value | coefficient of each nonbasic variable]
    for the variable `basis[r]`. `place[v]` says where variable v is: its
    column k >= 1 in every row when nonbasic, -1 - r when basic at row r.
    The integer entries are scaled by `det`, the determinant of the current
    basis, so a coordinate x_v = rows[r][0] / det where basis[r] = v, and
    every Bareiss division is exact. A basic
    variable's column, det at its own row and 0 elsewhere, is not stored. The
    start is the all-slack basis, the origin, with x_v in column v + 1. An
    `objective` c of a maximization rides along as one extra last row, in
    which a negative entry marks a variable whose increase raises c . x; it
    pivots with the others and is never a pivot row.
    """

    def __init__(self, rows: Sequence[Sequence[int]], rhs: Sequence[int], dim: int, objective: Sequence[int] = ()):
        count = len(rows)
        self.rows = [[b, *row] for row, b in zip(rows, rhs)]  # row r: [rhs | x_0 .. x_{dim-1}]
        if objective:
            self.rows.append([0] + [-v for v in objective])
        self.count = count
        self.basis = list(range(dim, dim + count))
        self.place = list(range(1, dim + 1)) + [-1 - r for r in range(count)]
        self.det = 1
        self._slacks = range(dim, dim + count)

    def snapshot(self) -> tuple:
        """The state to return to with `restore`. `pivot` replaces rows and
        never changes one in place, so a shallow copy of the rows keeps it."""
        return list(self.rows), list(self.basis), list(self.place), self.det

    def restore(self, state: tuple) -> None:
        self.rows, self.basis, self.place, self.det = state

    def pivot(self, r: int, v: int) -> None:
        """Bring nonbasic variable v into the basis at row r.

        The other rows get the Bareiss update, and v's column then holds the
        leaving variable: -a_i in row i, the old det in row r.
        """
        rows = self.rows
        k = self.place[v]
        pivot_row = rows[r]
        p = pivot_row[k]
        det = self.det
        for i, row in enumerate(rows):
            if i == r:
                continue
            a = row[k]
            if a:
                rows[i] = [(x * p - a * y) // det for x, y in zip(row, pivot_row)]
                rows[i][k] = -a
            elif p != det:
                rows[i] = [x * p // det for x in row]
        rows[r] = list(pivot_row)
        rows[r][k] = det
        self.place[self.basis[r]] = k
        self.place[v] = -1 - r
        self.basis[r] = v
        self.det = p

    def leaving_row(self, v: int) -> int | None:
        """The row the lexicographic min-ratio test over [rhs | slack columns]
        picks for nonbasic variable v; None when no row bounds v."""
        k = self.place[v]
        best = top = b = None
        for i, row in enumerate(self.rows[: self.count]):
            a = row[k]
            if a <= 0:
                continue
            if best is not None:
                diff = row[0] * b - top[0] * a
                if not diff:
                    diff = self._slack_tie(i, a, best, b)
                if diff > 0:
                    continue
            best, top, b = i, row, a
        return best

    def _slack_tie(self, i: int, a: int, best: int, b: int) -> int:
        """Compare rows i and best, divided by their entries a and b, on the
        slack columns in order; a basic slack's column is det times its unit
        vector."""
        row, other = self.rows[i], self.rows[best]
        for s in self._slacks:
            k = self.place[s]
            if k > 0:
                diff = row[k] * b - other[k] * a
            elif k == -1 - i:
                diff = self.det * b
            elif k == -1 - best:
                diff = -self.det * a
            else:
                continue
            if diff:
                return diff
        return 0

    def value(self, v: int) -> Fraction:
        """The exact value of coordinate x_v (v < dim) at the current basis."""
        k = self.place[v]
        return ZERO if k > 0 else Fraction(self.rows[-1 - k][0], self.det)


def bareiss(rows: list[list[int]]) -> int:
    """The determinant of the square block in the first len(rows) columns of
    the integer `rows`, eliminated in place fraction-free (Bareiss 1968, Math.
    Comp. 22): with row swaps, each update is divided exactly by the previous
    pivot, which leaves +-det as the last pivot. 0 when the block is singular."""
    k = len(rows)
    previous, sign = 1, 1
    for c in range(k):
        r = next((r for r in range(c, k) if rows[r][c]), None)
        if r is None:
            return 0
        if r != c:
            rows[c], rows[r], sign = rows[r], rows[c], -sign
        top = rows[c]
        p = top[c]
        for r in range(c + 1, k):
            row = rows[r]
            a = row[c]
            rows[r] = [(x * p - a * t) // previous for x, t in zip(row, top)]
        previous = p
    return sign * previous


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix: `bareiss` on a copy."""
    return bareiss([list(row) for row in matrix])


def linf_distance_to_hull(point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact max-norm distance from a point to conv(vertices).

    Solved as the LP: minimize t with |point - sum_k lambda_k v_k| <= t
    componentwise and lambda on the simplex. Substituting
    lambda_0 = 1 - sum_{k>=1} lambda_k and t = T0 - u, with
    T0 = max_i |point_i - v0_i| (the distance at lambda = e_0), makes every
    right-hand side nonnegative, so the all-slack basis is feasible and no
    phase 1 is needed. The two rows of any coordinate add up to u <= T0, so
    maximizing u is bounded. Entering the improving variable of least id and
    leaving by the lexicographic rule cannot cycle. The LP runs on the point
    and vertices times the lcm of their denominators, which scales t alike;
    a single vertex needs no LP.
    """
    if not vertices:
        raise ValueError("empty vertex set")
    scale = math.lcm(*(w.denominator for w in point), *(w.denominator for v in vertices for w in v))
    first, *rest = ([w.numerator * (scale // w.denominator) for w in v] for v in vertices)
    gaps = [w.numerator * (scale // w.denominator) - v for w, v in zip(point, first)]
    top = max(abs(gap) for gap in gaps)
    if not rest:
        return Fraction(top, scale)
    # variables: lambda_1 .. lambda_{K-1}, then u
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i, gap in enumerate(gaps):
        spread = [v[i] - first[i] for v in rest]
        rows.append([-w for w in spread] + [1])
        rhs.append(top - gap)
        rows.append(spread + [1])
        rhs.append(top + gap)
    rows.append([1] * len(rest) + [0])
    rhs.append(1)
    u = len(rest)
    tableau = Tableau(rows, rhs, u + 1, objective=[0] * u + [1])
    while True:
        costs = tableau.rows[-1]
        entering = next((v for v, k in enumerate(tableau.place) if k > 0 and costs[k] < 0), None)
        if entering is None:
            return (top - tableau.value(u)) / scale
        tableau.pivot(tableau.leaving_row(entering), entering)
