"""Core model: signaling games, strategies, plays, and outcomes.

A signaling game couples a typed sender (player 1, picks a message after
learning her type) with a receiver (player 2, picks an action). The costly
monitoring variant gives the receiver a prior binary choice: pay a cost to
observe the message, or act on a message-independent default. A receiver
strategy of either game answers "which action after message i" (`reply`),
so a monitored one pays like the base strategy with the same replies, less
the cost if it monitors. A mixed strategy is a mapping from pure strategies
to exact weights, and an outcome is a dict from (type, message, action)
plays to their masses, zeros included, in `enumerate_plays` order. The
monitor bit is not part of a play: whether the receiver observed the
message changes only who pays. Strategies carry no text; `cli.render_label`
prints them.

All probabilities and payoffs are Fractions; every function here is pure:
it returns new values and changes none of its arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .rational import numerators

ZERO = Fraction(0)


@dataclass(frozen=True)
class SignalingGame:
    """Types, messages, actions, the prior over types, and the payoff table.

    `payoff[(t, m, a)]` is the pair (sender payoff, receiver payoff). Label
    tuples keep their declared order; that order drives every enumeration.
    """

    types: tuple[str, ...]
    messages: tuple[str, ...]
    actions: tuple[str, ...]
    prior: Mapping[str, Fraction]
    payoff: Mapping[tuple[str, str, str], tuple[Fraction, Fraction]]


@dataclass(frozen=True, order=True)
class SenderStrategy:
    """A message per type, aligned with the game's declared type order."""

    messages: tuple[str, ...]


@dataclass(frozen=True, order=True)
class ReceiverStrategy:
    """An action per message, aligned with the declared message order."""

    actions: tuple[str, ...]

    def reply(self, i: int) -> str:
        """The action after message i."""
        return self.actions[i]


@dataclass(frozen=True, order=True)
class ReceiverStrategyC:
    """Receiver strategy in the monitored game.

    `monitor` is the binary choice to pay the cost, `on_message` the action
    taken after each observed message, `default` the action when the message
    went unobserved. Payoffs never depend on `on_message` when monitor=0 and
    never on `default` when monitor=1.
    """

    monitor: int
    on_message: tuple[str, ...]
    default: str

    def reply(self, i: int) -> str:
        """The action after message i: the observed reply when monitoring,
        the default otherwise."""
        return self.on_message[i] if self.monitor else self.default


def validate_game(game: SignalingGame) -> list[str]:
    """Report every violated invariant; an empty list means the game is valid."""
    problems: list[str] = []
    for name, labels in (("types", game.types), ("messages", game.messages), ("actions", game.actions)):
        if not labels:
            problems.append(f"{name} empty")
        if len(set(labels)) != len(labels):
            problems.append(f"{name} contain duplicates")
    if set(game.prior) != set(game.types):
        problems.append("prior keys do not match the type list")
    else:
        total = sum(game.prior.values(), ZERO)
        if total != 1:
            problems.append(f"prior sums to {total}")
        for t in game.types:
            if game.prior[t] <= 0:
                problems.append(f"prior of {t} is {game.prior[t]}, must be positive")
    expected = {(t, m, a) for t in game.types for m in game.messages for a in game.actions}
    missing = expected - set(game.payoff)
    extra = set(game.payoff) - expected
    for key in sorted(missing):
        problems.append(f"payoff missing for {key}")
    for key in sorted(extra):
        problems.append(f"payoff defined for unknown triple {key}")
    return problems


def enumerate_plays(game: SignalingGame) -> list[tuple[str, str, str]]:
    """All (type, message, action) plays in lexicographic order of the declared labels."""
    return [(t, m, a) for t in game.types for m in game.messages for a in game.actions]


def strategy_spaces(game: SignalingGame) -> tuple[tuple[SenderStrategy, ...], tuple[ReceiverStrategy, ...]]:
    """All pure strategies of both players in lexicographic order."""
    senders = tuple(
        SenderStrategy(messages=combo)
        for combo in itertools.product(game.messages, repeat=len(game.types))
    )
    receivers = tuple(
        ReceiverStrategy(actions=combo)
        for combo in itertools.product(game.actions, repeat=len(game.messages))
    )
    return senders, receivers


def strategy_spaces_c(game: SignalingGame) -> tuple[ReceiverStrategyC, ...]:
    """Receiver strategies of the monitored game: (bit, per-message actions, default)."""
    _, receivers = strategy_spaces(game)
    return tuple(
        ReceiverStrategyC(monitor=bit, on_message=s2.actions, default=default)
        for bit in (0, 1)
        for s2 in receivers
        for default in game.actions
    )


def outcome_of_profile(
    game: SignalingGame,
    sender: Mapping[SenderStrategy, Fraction],
    receiver: Mapping[ReceiverStrategy | ReceiverStrategyC, Fraction],
) -> dict[tuple[str, str, str], Fraction]:
    """The outcome of a mixed profile, given as each player's strategy ->
    weight mapping: each type's prior times the two weights lands on the
    action the receiver strategy takes after the type's message. Summed as
    integers over a common denominator, with one Fraction per play."""
    prior, prior_den = numerators([game.prior[t] for t in game.types])
    senders, sender_den = numerators(list(sender.values()))
    receivers, receiver_den = numerators(list(receiver.values()))
    msg_index = {m: i for i, m in enumerate(game.messages)}
    totals = dict.fromkeys(enumerate_plays(game), 0)
    for ti, (t, p) in enumerate(zip(game.types, prior)):
        for s1, w1 in zip(sender, senders):
            m = s1.messages[ti]
            i = msg_index[m]
            for s2, w2 in zip(receiver, receivers):
                totals[(t, m, s2.reply(i))] += p * w1 * w2
    den = prior_den * sender_den * receiver_den
    return {play: Fraction(total, den) for play, total in totals.items()}


def outcome_distance(a: Mapping[tuple, Fraction], b: Mapping[tuple, Fraction]) -> Fraction:
    """Exact squared Euclidean distance between two outcomes, summed as
    integers over a common denominator; `rational.sqrt_decimal` renders its
    root."""
    if set(a) != set(b):
        raise ValueError("outcomes are defined over different play sets")
    left, den = numerators(list(a.values()))
    right, other = numerators([b[p] for p in a])
    return Fraction(sum((x * other - y * den) ** 2 for x, y in zip(left, right)), (den * other) ** 2)


def classify_outcome(game: SignalingGame, mu: Mapping[tuple, Fraction]) -> str:
    """'pooling' | 'separating' | 'hybrid', judged from per-type message supports."""
    supports: dict[str, set[str]] = {t: set() for t in game.types}
    for (t, m, _a), mass in mu.items():
        if mass > 0:
            supports[t].add(m)
    used = set().union(*supports.values()) if supports else set()
    if len(used) == 1:
        return "pooling"
    pairs = itertools.combinations(game.types, 2)
    if all(not (supports[t1] & supports[t2]) for t1, t2 in pairs):
        return "separating"
    return "hybrid"
