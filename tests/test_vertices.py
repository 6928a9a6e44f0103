"""The pivoting vertex enumerator against the exhaustive basis search.

Every polytope that `enumerate_extreme_equilibria` builds, on the game's
strict-dominance core, must get the same {vertex: labels} map from both. The
equilibria must print the same as those of the `Fraction` reference
enumerator on the full game, and the `degenerate` flag the same as the
reference's on `dominance_filter(gamma)`, the core the flag describes. Small
payoff ranges and monitored forms make most of these polytopes degenerate,
which is where a pivoting walk can lose vertices and an exact label match can
lose pairs.
"""

import random
from fractions import Fraction as F

import pytest

from helpers import exhaustive_polytope_vertices, reference_extreme_equilibria

from sigsolve import equilibrium
from sigsolve.catalog import beer_quiche, random_bimatrix
from sigsolve.game import SignalingGame
from sigsolve.indices import _perturbed_game
from sigsolve.normalform import (
    BimatrixGame,
    build_normal_form,
    build_sgcm_normal_form,
    dominance_filter,
    reduce_normal_form,
)


def random_games(seed):
    rng = random.Random(seed)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        high = rng.choice((2, 3, 4, 1000))
        cells = tuple(
            tuple((F(rng.randrange(high)), F(rng.randrange(high))) for _ in range(cols)) for _ in range(rows)
        )
        yield BimatrixGame(tuple(range(rows)), tuple(range(cols)), cells)


def rational_games(seed):
    """Non-square games with negative payoffs over mixed denominators."""
    rng = random.Random(seed)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        while rows == cols:
            cols = rng.randint(1, 5)
        high = rng.choice((2, 3, 1000))
        cells = tuple(
            tuple(
                tuple(F(rng.randrange(-high, high), rng.choice((1, 3, 7, 10))) for _ in range(2))
                for _ in range(cols)
            )
            for _ in range(rows)
        )
        yield BimatrixGame(tuple(range(rows)), tuple(range(cols)), cells)


def monitored_forms(seed):
    rng = random.Random(seed)
    for _ in range(8):
        types = tuple(f"t{i}" for i in range(rng.randint(1, 2)))
        messages = ("m0", "m1")
        actions = ("a0", "a1")
        weights = [rng.randint(1, 9) for _ in types]
        game = SignalingGame(
            types=types,
            messages=messages,
            actions=actions,
            prior={t: F(w, sum(weights)) for t, w in zip(types, weights)},
            payoff={
                (t, m, a): (F(rng.randrange(4)), F(rng.randrange(4)))
                for t in types
                for m in messages
                for a in actions
            },
        )
        sgcm = build_sgcm_normal_form(game, F(rng.randrange(3), rng.randint(1, 8)))
        yield build_normal_form(game)
        yield sgcm
        yield reduce_normal_form(sgcm)[0]


def perturbed_forms(seed):
    rng = random.Random(seed)
    base = build_normal_form(beer_quiche())
    reduced = reduce_normal_form(build_sgcm_normal_form(beer_quiche(), F(1, 20)))[0]
    for gamma in (base, reduced, random_bimatrix(rng, 4, 5), random_bimatrix(rng, 5, 4)):
        for _ in range(3):
            yield _perturbed_game(gamma, rng)


def as_points(vertices, dim):
    """The walk's {(den, *nums): label bits} as {Fraction point: label set}."""
    return {
        tuple(F(x, key[0]) for x in key[1:]): frozenset(
            ("zero", v) if v < dim else ("tight", v - dim) for v in range(mask.bit_length()) if mask >> v & 1
        )
        for key, mask in vertices.items()
    }


@pytest.mark.parametrize(
    "family, seed",
    [(random_games, 11), (random_games, 19), (rational_games, 17), (monitored_forms, 23), (perturbed_forms, 29)],
)
def test_pivoting_matches_exhaustive_search(family, seed, monkeypatch):
    pivoting = equilibrium._polytope_vertices
    for gamma in family(seed):

        def compared(rows, dim):
            vertices = pivoting(rows, dim)
            expected = exhaustive_polytope_vertices([[F(v) for v in row] for row in rows], dim, ("zero", "tight"))
            assert as_points(vertices, dim) == expected, gamma
            return vertices

        monkeypatch.setattr(equilibrium, "_polytope_vertices", compared)
        found = equilibrium.enumerate_extreme_equilibria(gamma)
        monkeypatch.setattr(equilibrium, "_polytope_vertices", pivoting)
        assert repr(found.equilibria) == repr(reference_extreme_equilibria(gamma).equilibria), gamma
        assert found.degenerate == reference_extreme_equilibria(dominance_filter(gamma)).degenerate, gamma
