"""Exact linear algebra over Fractions: determinants, a small two-phase
simplex, and max-norm distance from a point to a convex hull.

Everything here works on plain lists of Fractions. Problem sizes in this
package are tiny (a handful of strategies), so clarity beats sparsity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


class InfeasibleProgram(ValueError):
    pass


class UnboundedProgram(ValueError):
    pass


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(matrix)
    work = [list(row) for row in matrix]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col] / inv
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def _pivot(tableau: Matrix, basis: list[int], row: int, col: int) -> None:
    inv = tableau[row][col]
    tableau[row] = [v / inv for v in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [a - factor * b for a, b in zip(tableau[r], tableau[row])]
    basis[row] = col


def _optimize(tableau: Matrix, basis: list[int], costs: Vector, n_vars: int) -> Fraction:
    """Run simplex with Bland's rule on [A | b] rows; returns objective value."""
    m = len(tableau)
    # reduced costs: z_j = c_j - c_B . column_j
    while True:
        cb = [costs[b] for b in basis]
        entering = None
        for j in range(n_vars):
            if j in basis:
                continue
            reduced = costs[j] - sum(cb[r] * tableau[r][j] for r in range(m))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best = None
        for r in range(m):
            coef = tableau[r][entering]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise UnboundedProgram("objective unbounded below")
        _pivot(tableau, basis, leaving, entering)
    cb = [costs[b] for b in basis]
    return sum(cb[r] * tableau[r][-1] for r in range(m))


def simplex_minimize(
    objective: Sequence[Fraction],
    eq_rows: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
) -> tuple[Fraction, Vector]:
    """Minimize c.x subject to A x = b, x >= 0. Exact two-phase simplex.

    Bland's rule guarantees termination on degenerate inputs.
    """
    m = len(eq_rows)
    n = len(objective)
    tableau: Matrix = []
    for i in range(m):
        row = list(eq_rows[i])
        b = eq_rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        tableau.append(row + [ZERO] * m + [b])
    for i in range(m):
        tableau[i][n + i] = ONE
    basis = [n + i for i in range(m)]

    phase1 = [ZERO] * n + [ONE] * m
    value = _optimize(tableau, basis, phase1, n + m)
    if value != 0:
        raise InfeasibleProgram("no feasible point")
    # drive leftover artificials out of the basis; drop redundant rows
    for r in range(m - 1, -1, -1):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                del tableau[r]
                del basis[r]
            else:
                _pivot(tableau, basis, r, col)
    tableau = [row[:n] + [row[-1]] for row in tableau]
    phase2 = list(objective)
    value = _optimize(tableau, basis, phase2, n)
    solution = [ZERO] * n
    for r, b in enumerate(basis):
        solution[b] = tableau[r][-1]
    return value, solution


def linf_distance_to_hull(point: Sequence[Fraction], vertices: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact max-norm distance from a point to conv(vertices).

    Solved as a small LP: minimize t with |point - sum_k lambda_k v_k| <= t
    componentwise and lambda on the simplex.
    """
    if not vertices:
        raise ValueError("empty vertex set")
    dim = len(point)
    count = len(vertices)
    # variables: lambda_0..lambda_{K-1}, t, upper slacks s+_i, lower slacks s-_i
    n_vars = count + 1 + 2 * dim
    rows: Matrix = []
    rhs: Vector = []
    for i in range(dim):
        row = [v[i] for v in vertices] + [-ONE] + [ZERO] * (2 * dim)
        row[count + 1 + i] = ONE
        rows.append(row)
        rhs.append(point[i])
        row = [v[i] for v in vertices] + [ONE] + [ZERO] * (2 * dim)
        row[count + 1 + dim + i] = -ONE
        rows.append(row)
        rhs.append(point[i])
    rows.append([ONE] * count + [ZERO] * (1 + 2 * dim))
    rhs.append(ONE)
    objective = [ZERO] * count + [ONE] + [ZERO] * (2 * dim)
    value, _ = simplex_minimize(objective, rows, rhs)
    return value
