"""The pivoting vertex enumerator against the exhaustive basis search and
the two-walk label matcher.

Every polytope that `enumerate_extreme_equilibria` walks, on the game's
strict-dominance core, must get the same {vertex: labels} map from both. The
equilibria must print the same as those of the `Fraction` reference
enumerator on the full game, flags included, and each equilibrium's
`regular` flag must be the sympy regularity oracle's verdict. The flagged
vertex pairs of the one walk and its partner faces must be those of walking
both polytopes in full, whichever polytope is walked. Small payoff ranges and
monitored forms make most of these polytopes degenerate, which is where a
pivoting walk can lose vertices and a partner face can lose pairs.
"""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (
    binary_game,
    exhaustive_polytope_vertices,
    frontier_probe,
    is_regular,
    normalized_pairs,
    perturbed_game,
    reference_extreme_equilibria,
    two_walk_vertex_pairs,
)

from sigsolve import equilibrium
from sigsolve.catalog import beer_quiche, random_bimatrix
from sigsolve.game import SignalingGame
from sigsolve.gamefile import load_game
from sigsolve.normalform import (
    BimatrixGame,
    build_normal_form,
    build_sgcm_normal_form,
    monitored_form,
    reduce_normal_form,
    strict_core,
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
            yield perturbed_game(gamma, rng)


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
        expected = reference_extreme_equilibria(gamma).equilibria
        assert repr(found.equilibria) == repr(expected), gamma
        assert found.degenerate == (not all(is_regular(gamma, eq) for eq in expected)), gamma


FLAT = (F(1), F(1))


@pytest.mark.parametrize(
    "gamma, irregular",
    [
        (list(random_games(19))[51], False),
        (list(rational_games(17))[0], False),
        (list(rational_games(17))[23], False),
        (BimatrixGame(("r0", "r1"), ("c0", "c1"), ((FLAT, FLAT), (FLAT, FLAT))), True),
    ],
    ids=["random_games-19", "rational_games-17-0", "rational_games-17-23", "flat"],
)
def test_degenerate_means_an_irregular_equilibrium(gamma, irregular):
    """Each of these games has an overlabeled vertex on a best-response
    polytope of its core, which the flag once read as degenerate; only the
    flat game, where every pure pair is an equilibrium, has an equilibrium
    that is not regular."""
    assert two_walk_vertex_pairs(gamma.receiver_integers, gamma.sender_integers)[1]
    found = equilibrium.enumerate_extreme_equilibria(gamma)
    assert found.degenerate == irregular
    assert (not all(is_regular(gamma, eq) for eq in found)) == irregular


def fixture_forms():
    """Each bundled game's base form, its monitored forms at 0 and at 1/20,
    and their reduced forms."""
    for path in sorted((Path(__file__).resolve().parent.parent / "games").glob("*.sg")):
        game = load_game(str(path))
        yield build_normal_form(game)
        for cost in (F(0), F(1, 20)):
            monitored = build_sgcm_normal_form(game, cost)
            yield monitored
            yield reduce_normal_form(monitored)[0]


# frontier probes (types, messages, actions, seed, jittered) whose two walks take under a second
PROBES = [(2, 3, 3, 0, True), (2, 3, 3, 1, False), (2, 4, 2, 1, False), (3, 3, 2, 0, True)]


def probe_forms():
    """The reduced base form and reduced monitored form at 1/20 of each probe."""
    for probe in PROBES:
        game = frontier_probe(*probe)
        for form in (build_normal_form(game), build_sgcm_normal_form(game, F(1, 20))):
            yield reduce_normal_form(form)[0]


def binary_forms():
    """The base form, the zero-cost monitored form and the reduced monitored
    form at 1/20 of 40 seeded binary games (`helpers.binary_game`)."""
    for number in random.Random(31).sample(range(2**16), 40):
        game = binary_game(number)
        base = build_normal_form(game)
        yield base
        yield monitored_form(game, base)
        yield reduce_normal_form(build_sgcm_normal_form(game, F(1, 20)))[0]


FORMS = {
    "random_games-11": lambda: random_games(11),
    "random_games-19": lambda: random_games(19),
    "rational_games-17": lambda: rational_games(17),
    "monitored_forms": lambda: monitored_forms(23),
    "perturbed_forms": lambda: perturbed_forms(29),
    "fixtures": fixture_forms,
    "probes": probe_forms,
}


@pytest.mark.parametrize("forms", FORMS.values(), ids=FORMS.keys())
def test_one_walk_matches_two_walks(forms):
    """`extreme_vertex_pairs` gives the normalized pairs of the two-walk
    matcher, each with the same `regular` flag. So does its partner routine
    walking either polytope of the core, P or Q."""
    for gamma in forms():
        receiver, sender = gamma.receiver_integers, gamma.sender_integers
        m, n = gamma.shape
        expected = normalized_pairs(two_walk_vertex_pairs(receiver, sender)[0])
        found = equilibrium.extreme_vertex_pairs(receiver, sender)
        assert normalized_pairs(found) == expected, gamma
        rows, cols = strict_core(receiver.matrix, sender.matrix)
        p_rows = [[sender.matrix[i][j] + sender.shift for i in rows] for j in cols]
        q_rows = [[receiver.matrix[i][j] + receiver.shift for j in cols] for i in rows]
        on_p = equilibrium._partner_pairs(p_rows, q_rows)
        on_q = equilibrium._partner_pairs(q_rows, p_rows)
        for pairs in (on_p, [(x, y, regular) for y, x, regular in on_q]):
            full = [(equilibrium._padded(x, rows, m), equilibrium._padded(y, cols, n), r) for x, y, r in pairs]
            assert normalized_pairs(full) == expected, gamma


@pytest.mark.parametrize("forms", [*FORMS.values(), binary_forms], ids=[*FORMS, "binary"])
def test_regular_flags_match_the_sympy_oracle(forms):
    """Every extreme equilibrium's `regular` flag, which the walk decides, is
    the sympy check `is_regular` on the full game."""
    for gamma in forms():
        for eq in equilibrium.enumerate_extreme_equilibria(gamma):
            assert eq.regular == is_regular(gamma, eq), (gamma, eq)
