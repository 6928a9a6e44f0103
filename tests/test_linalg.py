from fractions import Fraction as F

import pytest

from helpers import solve_square

from sigsolve.linalg import (
    InfeasibleProgram,
    determinant,
    linf_distance_to_hull,
    simplex_minimize,
)
from sigsolve.rational import format_compact, parse_rational, sqrt_decimal


def test_solve_square_exact():
    matrix = [[F(2), F(1)], [F(1), F(3)]]
    solution = solve_square(matrix, [F(5), F(10)])
    assert solution == [F(1), F(3)]


def test_solve_square_singular_returns_none():
    matrix = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_square(matrix, [F(1), F(2)]) is None


def test_determinant_values():
    assert determinant([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert determinant([[F(0), F(1)], [F(1), F(0)]]) == F(-1)
    assert determinant([[F(1), F(2)], [F(2), F(4)]]) == 0


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


def test_parse_and_render_rationals():
    assert parse_rational("9/10") == F(9, 10)
    assert parse_rational("3") == F(3)
    with pytest.raises(ValueError):
        parse_rational("x/y")
    assert format_compact(F(29, 10)) == "2.9"
    assert format_compact(F(-1, 4)) == "-0.25"
    assert format_compact(F(1, 3)) == "1/3"
    assert format_compact(F(7)) == "7"


def test_sqrt_rendering():
    assert sqrt_decimal(F(0)) == "0"
    assert sqrt_decimal(F(4)) == "2"
    assert sqrt_decimal(F(2)) == "1.41421356237"
    assert sqrt_decimal(F(3, 200)) == "0.122474487139"
