"""Ready-made games: beer-quiche and seeded random bimatrices."""

from __future__ import annotations

import random
from fractions import Fraction

from .game import SignalingGame
from .gamefile import parse_game_file
from .normalform import BimatrixGame

F = Fraction

BEER_QUICHE_TEXT = """\
types: S:9/10 W:1/10
messages: B Q
actions: F N
payoffs:
S B F 1 0
S B N 3 1
S Q F 0 0
S Q N 2 1
W B F 0 1
W B N 2 0
W Q F 1 1
W Q N 3 0
"""


def beer_quiche() -> SignalingGame:
    """Strong/weak sender signals through breakfast; the receiver duels or not.

    The sender gains 1 for her type's favorite breakfast (beer when strong,
    quiche when weak) and 2 for avoiding a duel. The receiver gains 1 for
    dueling the weak type or leaving the strong type alone.
    """
    return parse_game_file(BEER_QUICHE_TEXT)


def random_bimatrix(rng: random.Random, rows: int, cols: int) -> BimatrixGame:
    """Integer payoffs drawn without replacement per player, so no ties."""
    u1 = rng.sample(range(1000), rows * cols)
    u2 = rng.sample(range(1000), rows * cols)
    cells = tuple(
        tuple((F(u1[r * cols + c]), F(u2[r * cols + c])) for c in range(cols))
        for r in range(rows)
    )
    return BimatrixGame(
        row_labels=tuple(f"r{i}" for i in range(rows)),
        col_labels=tuple(f"c{j}" for j in range(cols)),
        cells=cells,
    )
