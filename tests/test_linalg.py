import math
import random
from fractions import Fraction as F

import pytest
import sympy

from helpers import (
    InfeasibleProgram,
    reference_format_compact,
    simplex_distance_to_hull,
    simplex_minimize,
    solve_square,
)

from sigsolve.indices import _box, _outside
from sigsolve.linalg import Tableau, determinant, linf_distance_to_hull
from sigsolve.rational import format_compact, numerators, parse_rational, sqrt_decimal


def test_solve_square_exact():
    matrix = [[F(2), F(1)], [F(1), F(3)]]
    solution = solve_square(matrix, [F(5), F(10)])
    assert solution == [F(1), F(3)]


def test_solve_square_singular_returns_none():
    matrix = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_square(matrix, [F(1), F(2)]) is None


def scaled(matrix):
    """A square `Fraction` matrix times the lcm of its denominators, and that lcm."""
    flat, scale = numerators([v for row in matrix for v in row])
    n = len(matrix)
    return [flat[i * n : (i + 1) * n] for i in range(n)], scale


def test_determinant_values():
    matrix = [[1, 2], [3, 4]]
    assert determinant(matrix) == -2
    assert matrix == [[1, 2], [3, 4]]
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    integers, scale = scaled([[F(1, 2), F(1, 3)], [F(1, 4), F(1)]])
    assert (integers, scale) == ([[6, 4], [3, 12]], 12)
    assert determinant(integers) == F(5, 12) * scale**2


@pytest.mark.parametrize(
    "rows, rhs, first_row, expected",
    [
        ([[1, 0], [1, 1], [0, 1]], [1, 2, 1], 0, 1),
        ([[1, 1], [2, 0], [0, 2]], [2, 2, 2], 1, 2),
    ],
)
def test_leaving_row_breaks_ratio_ties_lexicographically(rows, rhs, first_row, expected):
    # after x0 enters, two rows tie on the rhs ratio for x1; the slack columns
    # decide, once in favour of the earlier row and once of the later one
    tableau = Tableau(rows, rhs, 2)
    tableau.pivot(first_row, 0)
    assert tableau.leaving_row(1) == expected


def lexicographic_leaving_row(rows, rhs, dim, basis, v):
    """The lexicographic min-ratio row for entering variable v, from the
    full tableau B^-1 [rhs | slack columns | column v] solved in Fractions."""
    count = len(rows)
    columns = [[F(row[u]) for row in rows] if u < dim else [F(r == u - dim) for r in range(count)] for u in basis]
    matrix = [[column[r] for column in columns] for r in range(count)]
    targets = [[F(b) for b in rhs]] + [[F(r == k) for r in range(count)] for k in range(count)]
    targets.append([F(row[v]) for row in rows] if v < dim else [F(r == v - dim) for r in range(count)])
    solved = [solve_square(matrix, target) for target in targets]
    entering = solved[-1]
    ratios = [
        (tuple(column[i] / entering[i] for column in solved[:-1]), i) for i in range(count) if entering[i] > 0
    ]
    return min(ratios)[1] if ratios else None


@pytest.mark.parametrize("seed", [3, 5])
def test_leaving_row_is_the_lexicographic_minimum(seed):
    # degenerate polytopes, walked by random pivots; a basic slack's column,
    # which the tableau does not store, decides many of the ties
    rng = random.Random(seed)
    ties = 0
    for _ in range(60):
        dim, count = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(0, 2) for _ in range(dim)] for _ in range(count)]
        rhs = [rng.choice((0, 1, 1, 2)) for _ in range(count)]
        tableau = Tableau(rows, rhs, dim)
        for _ in range(8):
            nonbasic = [v for v in range(dim + count) if v not in tableau.basis]
            for v in nonbasic:
                expected = lexicographic_leaving_row(rows, rhs, dim, tableau.basis, v)
                assert tableau.leaving_row(v) == expected, (rows, rhs, tableau.basis, v)
                ties += expected is not None and sum(tableau.rows[i][0] == 0 for i in range(count)) > 1
            v = rng.choice(nonbasic)
            r = tableau.leaving_row(v)
            if r is not None:
                tableau.pivot(r, v)
    assert ties


def test_simplex_on_a_transport_toy():
    # minimize x0 + 2 x1 with x0 + x1 = 4, x0 <= 3 (slack x2)
    value, solution = simplex_minimize(
        [F(1), F(2), F(0)],
        [[F(1), F(1), F(0)], [F(1), F(0), F(1)]],
        [F(4), F(3)],
    )
    assert value == F(5)
    assert solution[0] == F(3) and solution[1] == F(1)


def test_simplex_detects_infeasibility():
    with pytest.raises(InfeasibleProgram):
        simplex_minimize([F(1), F(1)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])


def test_hull_distance_inside_and_outside():
    segment = [(F(0), F(0)), (F(1), F(1))]
    assert linf_distance_to_hull((F(1, 2), F(1, 2)), segment) == 0
    assert linf_distance_to_hull((F(1), F(0)), segment) == F(1, 2)
    assert linf_distance_to_hull((F(2), F(2)), segment) == F(1)


def test_hull_distance_to_single_point():
    assert linf_distance_to_hull((F(1), F(5)), [(F(0), F(1))]) == F(4)


def square_matrices(seed):
    """Seeded n x n matrices, n = 1..6: plain ones, singular ones (for n > 1,
    the last row a combination of earlier ones) and ones whose leading entry
    is 0, which forces the first column into a later row."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for kind in ("plain", "singular", "zero lead") * 20:
            rows = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 7))) for _ in range(n)] for _ in range(n)]
            if kind == "singular":
                a, b = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[(n - 1) // 2])]
            elif kind == "zero lead":
                rows[0][0] = F(0)
            yield rows


def test_determinant_matches_sympy():
    singular = 0
    for matrix in square_matrices(11):
        expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in matrix]).det()
        integers, scale = scaled(matrix)
        assert determinant(integers) == F(int(expected.p), int(expected.q)) * scale ** len(matrix), matrix
        singular += expected == 0
    assert singular >= 40


def hull_cases(seed):
    """Seeded (point, vertices) pairs: dimension 1-6 and 1-8 vertices, plain,
    repeated or collinear; the point a convex combination of the vertices or
    a free draw; entries small integers, thirds and sevenths (so the LP's
    common denominator differs from each entry's) or, as the sampling index
    draws them, offsets on the 1/10^6 grid."""
    rng = random.Random(seed)
    for _ in range(180):
        dim = rng.randint(1, 6)
        grid = rng.choice(("integer", "thirds-sevenths", "fine"))

        def draw():
            if grid == "fine":
                return tuple(F(rng.randint(0, 2)) + F(rng.randint(-1000, 1000), 10**6) for _ in range(dim))
            if grid == "thirds-sevenths":
                return tuple(F(rng.randint(-9, 9), rng.choice((1, 3, 7))) for _ in range(dim))
            return tuple(F(rng.randint(-3, 3)) for _ in range(dim))

        size = rng.randint(1, 8)
        vertices = [draw() for _ in range(size)]
        kind = rng.choice(("plain", "repeated", "collinear"))
        if kind == "repeated":
            vertices = [rng.choice(vertices[: max(1, size // 2)]) for _ in range(size)]
        elif kind == "collinear":
            a, b = vertices[0], draw()
            steps = [F(rng.randint(-4, 8), 4) for _ in range(size)]
            vertices = [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in steps]
        if rng.random() < 0.5:
            weights = [F(rng.randint(1, 5)) for _ in vertices]
            point = tuple(sum(w * v[i] for w, v in zip(weights, vertices)) / sum(weights) for i in range(dim))
        else:
            point = draw()
        yield point, vertices


@pytest.mark.parametrize("seed", [1, 2])
def test_hull_distance_matches_simplex_oracle(seed):
    distances = []
    for point, vertices in hull_cases(seed):
        distances.append(linf_distance_to_hull(point, vertices))
        assert distances[-1] == simplex_distance_to_hull(point, vertices), (point, vertices)
    assert 0 in distances and max(distances) > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_box_bound_calls_far_only_what_the_hull_lp_calls_far(seed):
    """The sampling index skips the hull LPs of a face when a point lies more
    than the radius outside the box around the face's vertices; that must
    never drop a point within the radius. The screen reads each point as the
    vertex walk gives it, unnormalized integers over their total, and must
    agree with the box bound taken in Fractions."""
    rng = random.Random(seed)
    screened = kept = 0
    for point, vertices in hull_cases(seed):
        total = math.lcm(*(w.denominator for w in point)) * rng.randint(2, 5)
        integers = tuple(int(w * total) for w in point)
        lows, highs = map(min, zip(*vertices)), map(max, zip(*vertices))
        bound = max(max(lo - w, w - hi) for w, lo, hi in zip(point, lows, highs))
        distance = linf_distance_to_hull(point, vertices)
        for radius in (F(0), F(1, 1000), F(1, 20), F(1, 2)):
            outside = _outside(integers, total, _box(vertices, radius))
            assert outside == (bound > radius), (point, vertices, radius)
            if outside:
                assert distance > radius, (point, vertices, radius)
                screened += 1
            else:
                kept += 1
    assert screened and kept


def test_parse_and_render_rationals():
    assert parse_rational("9/10") == F(9, 10)
    assert parse_rational("3") == F(3)
    with pytest.raises(ValueError):
        parse_rational("x/y")
    assert format_compact(F(29, 10)) == "2.9"
    assert format_compact(F(-1, 4)) == "-0.25"
    assert format_compact(F(1, 3)) == "1/3"
    assert format_compact(F(7)) == "7"


def test_format_compact_matches_the_digit_loop():
    """One exact `decimal` quotient prints what the digit loop printed, on
    0, integers, negatives, numerators up to 10^30, denominators 2^a * 5^b
    up to 2^40 * 5^30, and denominators with other prime factors. Numerators
    of 30 digits over 2^40 need more than the 28 digits of decimal's
    default precision."""
    rng = random.Random(30)
    values = [F(0), F(7), F(-7), F(10**30), F(-(10**30) + 1, 2**40 * 5**30)]
    for _ in range(100_000):
        numerator = rng.randint(-(10 ** rng.randint(0, 30)), 10 ** rng.randint(0, 30))
        if rng.random() < 0.8:
            denominator = 2 ** rng.randint(0, 40) * 5 ** rng.randint(0, 30)
        else:
            denominator = rng.randint(1, 10**12)
        values.append(F(numerator, denominator))
    for value in values:
        assert format_compact(value) == reference_format_compact(value), value


def test_sqrt_rendering():
    assert sqrt_decimal(F(0)) == "0"
    assert sqrt_decimal(F(4)) == "2"
    assert sqrt_decimal(F(2)) == "1.41421356237"
    assert sqrt_decimal(F(3, 200)) == "0.122474487139"
