"""Normal forms: the base bimatrix game, its costly-monitoring variant, pure
reduction by strategic equivalence, the zero-cost embedding, and the core
left by removing strictly dominated pure strategies.

Pricing runs in integers: the prior and the payoff table are scaled to
integers once per game, each cell is an integer sum, and each entry becomes
one `Fraction`. Only `with_cost` applies the monitoring cost, so a monitored
form is built once and repriced at every other cost. Each `BimatrixGame`
computes, on first use, one integer view of each player's payoffs
(`IntegerPayoffs`) and keeps it for its own lifetime; enumeration, indices,
dominance and reduction all read it, so a game is scaled to integers once.

Orientation convention used throughout the package: the receiver picks rows,
the sender picks columns, and each cell stores (sender payoff, receiver
payoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .game import ReceiverStrategyC, SignalingGame, strategy_spaces, strategy_spaces_c

ZERO = Fraction(0)

Cell = tuple[Fraction, Fraction]

# The positive cost at which reduced_sgcm_at_zero fixes the class structure.
REFERENCE_COST = Fraction(1, 20)


class IntegerPayoffs(NamedTuple):
    """One player's payoffs times `scale`, a common denominator of them, and
    the `shift` that lifts the least of them to 1. A game's own views use
    the lcm of the denominators; the index's perturbation draws use that lcm
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


@dataclass(frozen=True)
class BimatrixGame:
    """`cost` is the monitoring cost of an SGCM form, None for a base form;
    which rows pay it is read off their labels by `monitor_bit`.

    `sender_integers` and `receiver_integers` are the integer views of the
    two players' payoffs, computed on first use and cached on this object;
    a game made from it by `replace`, `with_cost` or `reduce_normal_form`
    computes its own."""

    row_labels: tuple[object, ...]
    col_labels: tuple[object, ...]
    cells: tuple[tuple[Cell, ...], ...]
    cost: Fraction | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def sender_payoff(self, row: int, col: int) -> Fraction:
        return self.cells[row][col][0]

    def receiver_payoff(self, row: int, col: int) -> Fraction:
        return self.cells[row][col][1]

    @cached_property
    def sender_integers(self) -> IntegerPayoffs:
        return _integer_view(self.cells, 0)

    @cached_property
    def receiver_integers(self) -> IntegerPayoffs:
        return _integer_view(self.cells, 1)


@dataclass(frozen=True)
class StrategyClass:
    """A set of strategically equivalent strategies collapsed to one row/column.

    `representative` is the lexicographically least underlying strategy, with
    nested classes flattened.
    """

    representative: object
    members: tuple[object, ...]
    side: str

    @property
    def masked(self) -> object:
        """The representative with the choices that never reach play shown as
        '*': the default of a monitoring class, the per-message actions of a
        non-monitoring one. Classes without a common monitor bit show it whole."""
        rep = self.representative
        bit = monitor_bit(self)
        if bit is None:
            return rep
        if bit:
            return replace(rep, default="*")
        return replace(rep, on_message=("*",) * len(rep.on_message))

    @property
    def label(self) -> str:
        return label_of(self.masked)


@dataclass(frozen=True)
class EmbedMap:
    """How zero-cost receiver classes sit inside the base game.

    Monitoring classes are in bijection with the base receiver strategies;
    non-monitoring classes duplicate the message-independent (constant) ones.
    """

    monitor_to_base: dict[StrategyClass, object]
    duplicate_to_base: dict[StrategyClass, object]

    def map_row(self, label: object) -> object:
        if label in self.monitor_to_base:
            return self.monitor_to_base[label]
        if label in self.duplicate_to_base:
            return self.duplicate_to_base[label]
        raise KeyError(f"no embedding recorded for {label}")


def label_of(obj: object) -> str:
    return getattr(obj, "label", str(obj))


def monitor_bit(label: object) -> int | None:
    """Whether a row of a monitored form pays the cost: the bit of a monitored
    receiver strategy, or the bit all members of a (nested) class share.
    None for classes whose members disagree and for every other label."""
    if isinstance(label, StrategyClass):
        bits = {monitor_bit(member) for member in label.members}
        return bits.pop() if len(bits) == 1 else None
    return label.monitor if isinstance(label, ReceiverStrategyC) else None


def deep_representative(label: object) -> object:
    while isinstance(label, StrategyClass):
        label = label.representative
    return label


def _payoff_cells(game: SignalingGame, senders: tuple, receivers: tuple) -> tuple:
    """Expected payoffs before any monitoring cost, receiver rows by sender
    columns; a monitored receiver strategy is priced by the actions it takes.

    The prior and the payoff table are each scaled to integers by the lcm of
    their denominators, so a cell is an integer sum over the types and each
    entry is one Fraction over the product of the two scales."""
    prior_scale = math.lcm(*(game.prior[t].denominator for t in game.types))
    payoff_scale = math.lcm(*(v.denominator for pair in game.payoff.values() for v in pair))
    weights = [game.prior[t].numerator * (prior_scale // game.prior[t].denominator) for t in game.types]
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
        replies = {m: s2.reply(i) for i, m in enumerate(game.messages)}
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
    """Bimatrix of the monitored game: the cost-free form repriced by
    `with_cost`, so the receiver pays `cost` on monitoring rows."""
    senders, _ = strategy_spaces(game)
    receivers = strategy_spaces_c(game)
    free = BimatrixGame(receivers, senders, _payoff_cells(game, senders, receivers), cost=ZERO)
    return with_cost(free, cost)


def with_cost(gamma: BimatrixGame, new_cost: Fraction) -> BimatrixGame:
    """Reprice an SGCM form at a different cost; only monitoring rows change.
    This is the one place the monitoring cost enters a payoff.

    Raises ValueError when a row class mixes monitoring and non-monitoring
    strategies: they were payoff-equal only at the old cost.
    """
    if gamma.cost is None:
        raise ValueError("game carries no monitoring cost")
    if new_cost < 0:
        raise ValueError(f"monitoring cost must be nonnegative, got {new_cost}")
    bits = [monitor_bit(label) for label in gamma.row_labels]
    if None in bits:
        mixed = gamma.row_labels[bits.index(None)]
        raise ValueError(f"row {label_of(mixed)} mixes monitor bits; reprice before reducing")
    delta = gamma.cost - new_cost
    cells = tuple(
        tuple((u1, u2 + delta) for (u1, u2) in row) if bit else row for row, bit in zip(gamma.cells, bits)
    )
    return replace(gamma, cells=cells, cost=new_cost)


def _group_equal(vectors: list[tuple]) -> list[list[int]]:
    groups: dict[tuple, list[int]] = {}
    for idx, vec in enumerate(vectors):
        groups.setdefault(vec, []).append(idx)
    return list(groups.values())


def reduce_normal_form(gamma: BimatrixGame) -> tuple[BimatrixGame, tuple[StrategyClass, ...]]:
    """Collapse strategically equivalent strategies on both sides.

    Two strategies merge exactly when their payoff vectors for both players
    coincide against every opponent strategy, compared on the game's integer
    views. Returns the reduced game (its labels are StrategyClass instances)
    together with all classes, rows first.
    """
    sender, receiver = gamma.sender_integers.matrix, gamma.receiver_integers.matrix
    row_groups = _group_equal([s + r for s, r in zip(sender, receiver)])
    col_groups = _group_equal(list(zip(*sender, *receiver)))

    row_classes = tuple(
        StrategyClass(
            representative=deep_representative(gamma.row_labels[group[0]]),
            members=tuple(gamma.row_labels[i] for i in group),
            side="row",
        )
        for group in row_groups
    )
    col_classes = tuple(
        StrategyClass(
            representative=deep_representative(gamma.col_labels[group[0]]),
            members=tuple(gamma.col_labels[i] for i in group),
            side="col",
        )
        for group in col_groups
    )
    cells = tuple(
        tuple(gamma.cells[rg[0]][cg[0]] for cg in col_groups) for rg in row_groups
    )
    reduced = BimatrixGame(row_labels=row_classes, col_labels=col_classes, cells=cells, cost=gamma.cost)
    return reduced, row_classes + col_classes


def reduced_sgcm_at_zero(game: SignalingGame) -> BimatrixGame:
    """The reduced monitored form with its class structure frozen at the
    positive REFERENCE_COST, then repriced at cost zero.

    At cost zero this game is no longer purely reduced: each non-monitoring
    class duplicates the constant monitoring class with the same action.
    """
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(game, REFERENCE_COST))
    return with_cost(reduced, ZERO)


def embed_map(gamma0: BimatrixGame, gamma: BimatrixGame) -> EmbedMap:
    """Match every receiver class of the zero-cost reduced SGCM form to the
    base receiver strategy with the identical payoff column.

    Raises ValueError when a class has no matching base strategy or when the
    monitoring classes fail to be in bijection with the base strategies; both
    signal a construction bug or a mismatched game pair.
    """
    if gamma0.cost != 0:
        raise ValueError("first argument must be an SGCM form evaluated at cost zero")
    n_rows0, n_cols0 = gamma0.shape
    n_rows, _ = gamma.shape
    # align sender columns by their underlying strategies (the zero-cost form
    # may have merged payoff-equal sender columns into classes)
    base_col_of = {deep_representative(lbl): j for j, lbl in enumerate(gamma.col_labels)}
    try:
        col_map = [base_col_of[deep_representative(lbl)] for lbl in gamma0.col_labels]
    except KeyError as exc:
        raise ValueError(f"sender strategy {exc} missing from the base form") from exc

    base_rows: dict[tuple, object] = {}
    for r in range(n_rows):
        key = tuple(gamma.cells[r][col_map[c]] for c in range(n_cols0))
        base_rows.setdefault(key, gamma.row_labels[r])
    monitor_to_base: dict[StrategyClass, object] = {}
    duplicate_to_base: dict[StrategyClass, object] = {}
    for r, lbl in enumerate(gamma0.row_labels):
        bit = monitor_bit(lbl)
        if bit is None:
            raise ValueError(f"row {label_of(lbl)} carries no single monitor bit")
        column = tuple(gamma0.cells[r])
        base = base_rows.get(column)
        if base is None:
            raise ValueError(f"no base strategy matches the payoffs of class {label_of(lbl)}")
        if bit:
            monitor_to_base[lbl] = base
        else:
            duplicate_to_base[lbl] = base
    images = list(monitor_to_base.values())
    if len(set(images)) != len(images) or set(images) != set(gamma.row_labels):
        raise ValueError("monitoring classes are not in bijection with the base receiver strategies")
    return EmbedMap(monitor_to_base=monitor_to_base, duplicate_to_base=duplicate_to_base)


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


def dominance_filter(gamma: BimatrixGame) -> BimatrixGame:
    """The strict-dominance core of `gamma` as a game (see `strict_core`),
    read on its integer views; `enumerate_extreme_equilibria` walks the same
    core."""
    rows, cols = strict_core(gamma.receiver_integers.matrix, gamma.sender_integers.matrix)
    return BimatrixGame(
        row_labels=tuple(gamma.row_labels[r] for r in rows),
        col_labels=tuple(gamma.col_labels[c] for c in cols),
        cells=tuple(tuple(gamma.cells[r][c] for c in cols) for r in rows),
        cost=gamma.cost,
    )
