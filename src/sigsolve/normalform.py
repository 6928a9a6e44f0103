"""Normal forms: the base bimatrix game, its costly-monitoring variant, pure
reduction by strategic equivalence, the zero-cost embedding, and the core
left by removing strictly dominated pure strategies.

Pricing runs in integers: the prior and the payoff table are scaled to
integers once per game, each cell is an integer sum, and each entry becomes
one `Fraction`. Each `BimatrixGame` keeps one integer view of each player's
payoffs (`IntegerPayoffs`), which enumeration, indices, dominance and
reduction all read; it computes them from its own cells. A reduced form is
its labels and views (`ReducedViews`), and `_game` alone reads `Fraction`
cells off them. A monitoring receiver strategy (1, s, d) pays like base row
s minus the cost, a free one (0, s, d) like the constant base row
(d, ..., d), so every monitored form is read off the base form's rows:
`monitored_form` is the game at cost zero, and the reduced form at a cost
(`reduce_at_cost`) and the full table (`build_sgcm_normal_form`) come from
it.

Orientation convention used throughout the package: the receiver picks rows,
the sender picks columns, and each cell stores (sender payoff, receiver
payoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .game import ReceiverStrategy, ReceiverStrategyC, SignalingGame, strategy_spaces, strategy_spaces_c
from .rational import numerators

Cell = tuple[Fraction, Fraction]


class IntegerPayoffs(NamedTuple):
    """One player's payoffs times `scale`, a common denominator of them, and
    the `shift` that lifts the least of them to 1. A game's own views use the
    lcm of the denominators; the index's perturbation draws use that lcm
    times 10^6."""

    matrix: tuple[tuple[int, ...], ...]
    scale: int
    shift: int

    @classmethod
    def of(cls, matrix: tuple[tuple[int, ...], ...], scale: int) -> IntegerPayoffs:
        return cls(matrix, scale, 1 - min(map(min, matrix)))


def _integer_view(cells: tuple, player: int) -> IntegerPayoffs:
    payoffs = [[cell[player] for cell in row] for row in cells]
    scale = math.lcm(*(v.denominator for row in payoffs for v in row))
    matrix = tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in payoffs)
    return IntegerPayoffs.of(matrix, scale)


def _lowest_view(matrix: tuple[tuple[int, ...], ...], scale: int) -> IntegerPayoffs:
    """The view of payoffs matrix / scale on the lcm of their denominators,
    the one `_integer_view` computes from the `Fraction`s."""
    g = math.gcd(scale, *chain.from_iterable(matrix))
    if g > 1:
        matrix = tuple(tuple(v // g for v in row) for row in matrix)
    return IntegerPayoffs.of(matrix, scale // g)


@dataclass(frozen=True)
class BimatrixGame:
    """Receiver rows by sender cols of (sender, receiver) payoff cells. In a
    monitored form, the rows that pay the cost are read off their labels by
    `monitor_bit`; the cost itself is already in their cells.

    `sender_integers` and `receiver_integers` are the integer views of the
    two players' payoffs, computed from the cells on first read and cached
    on this object; nothing else sets them."""

    row_labels: tuple[object, ...]
    col_labels: tuple[object, ...]
    cells: tuple[tuple[Cell, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    @cached_property
    def sender_integers(self) -> IntegerPayoffs:
        return _integer_view(self.cells, 0)

    @cached_property
    def receiver_integers(self) -> IntegerPayoffs:
        return _integer_view(self.cells, 1)


class ReducedViews(NamedTuple):
    """A reduced game without `Fraction` cells: its class labels and integer
    views, all that enumeration and outcomes read; `_game` makes its cells."""

    row_labels: tuple[StrategyClass, ...]
    col_labels: tuple[StrategyClass, ...]
    sender_integers: IntegerPayoffs
    receiver_integers: IntegerPayoffs


@dataclass(frozen=True)
class StrategyClass:
    """A set of strategically equivalent strategies collapsed to one row/column.

    `members` are underlying strategies, never classes. Like them, a class
    carries no text; `cli.render_label` prints it.
    """

    members: tuple[object, ...]

    @property
    def representative(self) -> object:
        return self.members[0]


def monitor_bit(label: object) -> int | None:
    """Whether a row of a monitored form pays the cost: the bit of a monitored
    receiver strategy, or the bit all members of a class share.
    None for classes whose members disagree and for every other label."""
    if isinstance(label, StrategyClass):
        bits = {monitor_bit(member) for member in label.members}
        return bits.pop() if len(bits) == 1 else None
    return label.monitor if isinstance(label, ReceiverStrategyC) else None


def deep_representative(label: object) -> object:
    return label.representative if isinstance(label, StrategyClass) else label


def _members_of(label: object) -> tuple:
    return label.members if isinstance(label, StrategyClass) else (label,)


def _pays_like(s2: ReceiverStrategyC) -> ReceiverStrategy:
    """The base receiver strategy that takes the same action after every
    message: s for (1, s, d), the constant (d, ..., d) for (0, s, d)."""
    return ReceiverStrategy(tuple(s2.reply(i) for i in range(len(s2.on_message))))


def _payoff_cells(game: SignalingGame, senders: tuple, receivers: tuple) -> tuple:
    """Expected payoffs of base receiver strategies against sender
    strategies, receiver rows by sender columns; every monitored table reads
    its rows off these through `monitored_form`.

    The prior and the payoff table are each scaled to integers by the lcm of
    their denominators, so a cell is an integer sum over the types and each
    entry is one Fraction over the product of the two scales."""
    weights, prior_scale = numerators([game.prior[t] for t in game.types])
    payoff_scale = math.lcm(*(v.denominator for pair in game.payoff.values() for v in pair))
    # weighted[(i, m, a)]: type i's prior weight times its payoffs after message m and action a
    weighted = {
        (i, m, a): tuple(w * v.numerator * (payoff_scale // v.denominator) for v in game.payoff[(t, m, a)])
        for i, (t, w) in enumerate(zip(game.types, weights))
        for m in game.messages
        for a in game.actions
    }
    den = prior_scale * payoff_scale
    cells = []
    for s2 in receivers:
        replies = dict(zip(game.messages, s2.actions))
        row = []
        for s1 in senders:
            u1 = u2 = 0
            for i, m in enumerate(s1.messages):
                p1, p2 = weighted[(i, m, replies[m])]
                u1 += p1
                u2 += p2
            row.append((Fraction(u1, den), Fraction(u2, den)))
        cells.append(tuple(row))
    return tuple(cells)


def build_normal_form(game: SignalingGame) -> BimatrixGame:
    """Expected-payoff bimatrix of the base signaling game."""
    senders, receivers = strategy_spaces(game)
    return BimatrixGame(row_labels=receivers, col_labels=senders, cells=_payoff_cells(game, senders, receivers))


def build_sgcm_normal_form(game: SignalingGame, cost: Fraction) -> BimatrixGame:
    """The full monitored bimatrix, one row per strategy of
    `strategy_spaces_c`: the row of its `monitored_form` class, with the
    receiver paying `cost` on monitoring rows."""
    _check_cost(cost)
    monitored = monitored_form(game, build_normal_form(game))
    row_of = {s2: row for label, row in zip(monitored.row_labels, monitored.cells) for s2 in label.members}
    receivers = strategy_spaces_c(game)
    priced = (tuple((u1, u2 - cost) for u1, u2 in row_of[s2]) if s2.monitor else row_of[s2] for s2 in receivers)
    return BimatrixGame(receivers, monitored.col_labels, tuple(priced))


def _check_cost(cost: Fraction) -> None:
    if cost < 0:
        raise ValueError(f"monitoring cost must be nonnegative, got {cost}")


def monitored_form(game: SignalingGame, base: BimatrixGame) -> BimatrixGame:
    """The monitored form at cost zero, one row per class of receiver
    strategies that pay alike at every cost: the free classes (0,*,d) in
    action order, then a monitoring class (1,s,*) per row s of the base form.
    Members are in `strategy_spaces_c` order. A row takes the cells of the
    base row it pays like."""
    free = [tuple(ReceiverStrategyC(0, s2.actions, d) for s2 in base.row_labels) for d in game.actions]
    monitoring = [tuple(ReceiverStrategyC(1, s2.actions, d) for d in game.actions) for s2 in base.row_labels]
    labels = tuple(StrategyClass(members) for members in free + monitoring)
    base_row = {s2: i for i, s2 in enumerate(base.row_labels)}
    cells = tuple(base.cells[base_row[_pays_like(label.representative)]] for label in labels)
    return BimatrixGame(labels, base.col_labels, cells)


def _repriced(view: IntegerPayoffs, bits: list[int], delta: Fraction) -> IntegerPayoffs:
    """The receiver view with `delta` = p/q added on the monitoring rows: on
    the scale lcm(scale, q) they shift by p times its cofactor."""
    scale = math.lcm(view.scale, delta.denominator)
    up, shift = scale // view.scale, delta.numerator * (scale // delta.denominator)
    return _lowest_view(tuple(tuple(v * up + shift * bit for v in row) for row, bit in zip(view.matrix, bits)), scale)


def _group_equal(vectors: list[tuple]) -> list[list[int]]:
    groups: dict[tuple, list[int]] = {}
    for idx, vec in enumerate(vectors):
        groups.setdefault(vec, []).append(idx)
    return list(groups.values())


def _reduce(
    row_labels: tuple, col_labels: tuple, sender: IntegerPayoffs, receiver: IntegerPayoffs, row_order=None
) -> ReducedViews:
    """Group the strategies whose payoff vectors for both players coincide
    against every opponent strategy; slice the views to one per class. A
    class lists the underlying strategies of the labels it merges, in label
    order or, where several merge, sorted by the key `row_order` if given."""
    row_groups = _group_equal([s + r for s, r in zip(sender.matrix, receiver.matrix)])
    col_groups = _group_equal(list(zip(*sender.matrix, *receiver.matrix)))

    def classes(labels, groups, order):
        merged = []
        for g in groups:
            members = tuple(chain.from_iterable(_members_of(labels[i]) for i in g))
            if order and len(g) > 1:
                members = tuple(sorted(members, key=order))
            merged.append(StrategyClass(members))
        return tuple(merged)

    def sliced(view):
        matrix = view.matrix
        return _lowest_view(tuple(tuple(matrix[rg[0]][cg[0]] for cg in col_groups) for rg in row_groups), view.scale)

    rows, cols = classes(row_labels, row_groups, row_order), classes(col_labels, col_groups, None)
    return ReducedViews(rows, cols, sliced(sender), sliced(receiver))


def reduce_normal_form(gamma: BimatrixGame) -> tuple[BimatrixGame, tuple[StrategyClass, ...]]:
    """Collapse strategically equivalent strategies on both sides.

    Two strategies merge exactly when their payoff vectors for both players
    coincide against every opponent strategy, compared on the game's integer
    views. Returns the reduced game (its labels are StrategyClass instances,
    its cells read off the sliced views) together with all classes, rows first.
    """
    views = _reduce(gamma.row_labels, gamma.col_labels, gamma.sender_integers, gamma.receiver_integers)
    return _game(views), views.row_labels + views.col_labels


def reduce_at_cost(monitored: BimatrixGame, cost: Fraction) -> ReducedViews:
    """The reduced monitored form at `cost` from `monitored_form`'s views:
    monitoring rows lowered by the cost, then classes found afresh, since a
    free row can equal a monitoring row at one cost. Merged classes list
    their strategies in `strategy_spaces_c` order."""
    _check_cost(cost)
    reps = [label.representative for label in monitored.row_labels]
    rank = {rep.default: i for i, rep in enumerate(reps) if not rep.monitor}  # free rows lead, in action order

    def order(s2: ReceiverStrategyC) -> tuple:
        return s2.monitor, [rank[a] for a in s2.on_message], rank[s2.default]

    receiver = _repriced(monitored.receiver_integers, [rep.monitor for rep in reps], -cost)
    return _reduce(monitored.row_labels, monitored.col_labels, monitored.sender_integers, receiver, order)


def _game(views: ReducedViews) -> BimatrixGame:
    """The reduced form with `Fraction` cells read off its views, the one
    place a reduced form's cells are made."""
    sender, receiver = views.sender_integers, views.receiver_integers
    cells = tuple(
        tuple((Fraction(u1, sender.scale), Fraction(u2, receiver.scale)) for u1, u2 in zip(srow, rrow))
        for srow, rrow in zip(sender.matrix, receiver.matrix)
    )
    return BimatrixGame(views.row_labels, views.col_labels, cells)


def reduced_sgcm(game: SignalingGame, cost: Fraction) -> BimatrixGame:
    """`reduce_normal_form(build_sgcm_normal_form(game, cost))[0]`, built
    from the base form."""
    return _game(reduce_at_cost(monitored_form(game, build_normal_form(game)), cost))


def embed_map(gamma0: BimatrixGame) -> dict[StrategyClass, ReceiverStrategy]:
    """Where each receiver class of `monitored_form`, the zero-cost game,
    sits in the base game, by construction: on the base row its strategies
    pay like."""
    return {label: _pays_like(label.representative) for label in gamma0.row_labels}


def _undominated(payoffs, own: list[int], others: list[int]) -> list[int]:
    """The strategies in `own` that no strategy in `own` strictly beats
    against every strategy in `others`; `payoffs[s][o]` is the payoff of s
    against o."""
    kept = []
    for s in own:
        mine = payoffs[s]
        for rival in own:
            theirs = payoffs[rival]
            for o in others:
                if theirs[o] <= mine[o]:
                    break
            else:
                break  # rival strictly beats s
        else:
            kept.append(s)
    return kept


def strict_core(row_payoffs, col_payoffs) -> tuple[list[int], list[int]]:
    """The indices of the rows and cols left by dropping, round after round,
    every pure strategy that another surviving pure strategy strictly beats
    against all surviving opponent strategies, until none is left. Each round
    tests rows and cols against the sets the round started with.

    `row_payoffs[r][c]` is the row player's payoff and `col_payoffs[r][c]`
    the col player's, as ints or Fractions. No Nash equilibrium plays a
    strictly dominated strategy, so the core's equilibria, padded with zeros,
    are the game's; and the core does not depend on the order of removal
    (Gilboa, Kalai & Zemel 1990, Operations Research Letters 9).
    """
    rows = list(range(len(row_payoffs)))
    cols = list(range(len(row_payoffs[0])))
    col_transposed = list(zip(*col_payoffs))
    while True:
        kept_rows = _undominated(row_payoffs, rows, cols)
        kept_cols = _undominated(col_transposed, cols, rows)
        if (kept_rows, kept_cols) == (rows, cols):
            return rows, cols
        rows, cols = kept_rows, kept_cols
