"""Core model: signaling games, strategies, plays, and outcomes.

A signaling game couples a typed sender (player 1, picks a message after
learning her type) with a receiver (player 2, picks an action). The costly
monitoring variant gives the receiver a prior binary choice: pay a cost to
observe the message, or act on a message-independent default.

All probabilities and payoffs are Fractions; every operation here is a pure
function over immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

ZERO = Fraction(0)
ONE = Fraction(1)


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

    @property
    def label(self) -> str:
        return "".join(self.messages) if all(len(m) == 1 for m in self.messages) else ",".join(self.messages)


@dataclass(frozen=True, order=True)
class ReceiverStrategy:
    """An action per message, aligned with the declared message order."""

    actions: tuple[str, ...]

    @property
    def label(self) -> str:
        return "".join(self.actions) if all(len(a) == 1 for a in self.actions) else ",".join(self.actions)

    def reply(self, i: int) -> tuple[int, str]:
        """(monitor bit, action) after message i: the base game is the
        always-monitor slice of the monitored game."""
        return 1, self.actions[i]


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

    @property
    def label(self) -> str:
        return f"{self.monitor}{''.join(self.on_message)}{self.default}"

    def reply(self, i: int) -> tuple[int, str]:
        """(monitor bit, action) after message i."""
        return (1, self.on_message[i]) if self.monitor else (0, self.default)


ReceiverLike = Union[ReceiverStrategy, ReceiverStrategyC]


@dataclass(frozen=True)
class MixedProfile:
    """Mixed strategies for both players; weights are exact and sum to one."""

    sender: Mapping[SenderStrategy, Fraction]
    receiver: Mapping[ReceiverLike, Fraction]


@dataclass(frozen=True)
class Outcome:
    """Probability distribution over plays, zeros included.

    `monitored` outcomes live on (type, message, monitor bit, action)
    quadruples, plain ones on (type, message, action) triples.
    """

    masses: Mapping[tuple, Fraction]
    monitored: bool


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


def enumerate_plays(game: SignalingGame, monitored: bool = False) -> list[tuple]:
    """All plays in lexicographic order of the declared labels."""
    if monitored:
        return [
            (t, m, bit, a)
            for t in game.types
            for m in game.messages
            for bit in (0, 1)
            for a in game.actions
        ]
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


def _check_weights(weights: Mapping, side: str) -> None:
    total = sum(weights.values(), ZERO)
    if total != 1:
        raise ValueError(f"{side} weights sum to {total}, expected 1")
    for strat, w in weights.items():
        if w < 0:
            raise ValueError(f"{side} weight for {strat} is negative")


def _check_profile(game: SignalingGame, profile: MixedProfile, monitored: bool) -> None:
    """Weights are distributions over pure strategies of the requested game."""
    senders, receivers = strategy_spaces(game)
    if monitored:
        receivers = strategy_spaces_c(game)
    kind = "monitored" if monitored else "base"
    for side, weights, space in (("sender", profile.sender, senders), ("receiver", profile.receiver, receivers)):
        _check_weights(weights, side)
        fitting = frozenset(space)
        for strat in weights:
            if strat not in fitting:
                raise ValueError(f"{side} strategy {strat} does not fit the {kind} game")


def outcome_of_profile(game: SignalingGame, profile: MixedProfile, monitored: bool = False) -> Outcome:
    """Distribution over plays induced by a mixed profile.

    Plays are counted with their monitor bit; base profiles, whose receiver
    always monitors, get the projected outcome.
    """
    _check_profile(game, profile, monitored)
    msg_index = {m: i for i, m in enumerate(game.messages)}
    masses: dict[tuple, Fraction] = {play: ZERO for play in enumerate_plays(game, monitored=True)}
    for ti, t in enumerate(game.types):
        p = game.prior[t]
        for s1, w1 in profile.sender.items():
            if w1 == 0:
                continue
            m = s1.messages[ti]
            for s2, w2 in profile.receiver.items():
                if w2 == 0:
                    continue
                bit, a = s2.reply(msg_index[m])
                masses[(t, m, bit, a)] += p * w1 * w2
    mu_c = Outcome(masses=masses, monitored=True)
    return mu_c if monitored else project_outcome(mu_c)


def project_outcome(mu_c: Outcome) -> Outcome:
    """Sum out the monitor bit: mass(t,m,a) = mass(t,m,0,a) + mass(t,m,1,a)."""
    if not mu_c.monitored:
        raise ValueError("projection applies to monitored outcomes only")
    masses: dict[tuple, Fraction] = {}
    for (t, m, _bit, a), mass in mu_c.masses.items():
        key = (t, m, a)
        masses[key] = masses.get(key, ZERO) + mass
    return Outcome(masses=masses, monitored=False)


def outcome_distance(a: Outcome, b: Outcome) -> Fraction:
    """Exact squared Euclidean distance; `rational.sqrt_decimal` renders its root."""
    if set(a.masses) != set(b.masses):
        raise ValueError("outcomes are defined over different play sets")
    return sum(((a.masses[p] - b.masses[p]) ** 2 for p in a.masses), ZERO)


def classify_outcome(game: SignalingGame, mu: Outcome) -> str:
    """'pooling' | 'separating' | 'hybrid', judged from per-type message supports."""
    if mu.monitored:
        raise ValueError("classify projected outcomes, not monitored ones")
    supports: dict[str, set[str]] = {t: set() for t in game.types}
    for (t, m, _a), mass in mu.masses.items():
        if mass > 0:
            supports[t].add(m)
    used = set().union(*supports.values()) if supports else set()
    if len(used) == 1:
        return "pooling"
    pairs = itertools.combinations(game.types, 2)
    if all(not (supports[t1] & supports[t2]) for t1, t2 in pairs):
        return "separating"
    return "hybrid"


def expected_payoffs(game: SignalingGame, mu: Outcome, cost: Fraction = ZERO) -> tuple[Fraction, Fraction]:
    """Expected (sender, receiver) payoffs under an outcome.

    For monitored outcomes the receiver pays `cost` whenever the monitor bit
    is set.
    """
    u1 = u2 = ZERO
    for play, mass in mu.masses.items():
        if mass == 0:
            continue
        t, m, a = play[0], play[1], play[-1]
        bit = play[2] if len(play) == 4 else 0
        base1, base2 = game.payoff[(t, m, a)]
        u1 += mass * base1
        u2 += mass * (base2 - cost * bit)
    return u1, u2
