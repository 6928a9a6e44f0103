from fractions import Fraction as F

import pytest

from sigsolve.rational import sqrt_decimal
from sigsolve.game import (
    ReceiverStrategy,
    ReceiverStrategyC,
    SenderStrategy,
    SignalingGame,
    classify_outcome,
    enumerate_plays,
    outcome_distance,
    outcome_of_profile,
    validate_game,
)


def pure(sender, receiver):
    return {sender: F(1)}, {receiver: F(1)}


def test_beer_quiche_is_valid(beerquiche):
    assert validate_game(beerquiche) == []


def test_bad_prior_sum_reported(beerquiche):
    game = SignalingGame(
        types=("S", "W"),
        messages=beerquiche.messages,
        actions=beerquiche.actions,
        prior={"S": F(1, 2), "W": F(1, 3)},
        payoff=beerquiche.payoff,
    )
    problems = validate_game(game)
    assert any("prior sums to 5/6" in p for p in problems)


def test_empty_messages_reported(beerquiche):
    game = SignalingGame(
        types=beerquiche.types,
        messages=(),
        actions=beerquiche.actions,
        prior=beerquiche.prior,
        payoff={},
    )
    problems = validate_game(game)
    assert any("messages empty" in p for p in problems)


def test_play_counts(beerquiche):
    assert len(enumerate_plays(beerquiche)) == 8


def test_play_count_three_types():
    game = SignalingGame(
        types=("a", "b", "c"),
        messages=("m", "n"),
        actions=("x", "y"),
        prior={"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)},
        payoff={
            (t, m, a): (F(0), F(0))
            for t in ("a", "b", "c")
            for m in ("m", "n")
            for a in ("x", "y")
        },
    )
    assert len(enumerate_plays(game)) == 12


def test_pooling_beer_outcome(beerquiche):
    mu = outcome_of_profile(
        beerquiche,
        *pure(SenderStrategy(("B", "B")), ReceiverStrategy(("N", "F"))),
    )
    assert mu[("S", "B", "N")] == F(9, 10)
    assert mu[("W", "B", "N")] == F(1, 10)
    assert sum(mu.values()) == 1


def test_pooling_quiche_outcome(beerquiche):
    mu = outcome_of_profile(
        beerquiche,
        *pure(SenderStrategy(("Q", "Q")), ReceiverStrategy(("F", "N"))),
    )
    assert mu[("S", "Q", "N")] == F(9, 10)
    assert mu[("W", "Q", "N")] == F(1, 10)


def test_mixed_sender_mass_sums_to_one(beerquiche):
    sender = {SenderStrategy(("B", "B")): F(1, 2), SenderStrategy(("B", "Q")): F(1, 2)}
    receiver = {ReceiverStrategy(("N", "N")): F(1)}
    mu = outcome_of_profile(beerquiche, sender, receiver)
    assert sum(mu.values()) == 1
    assert all(v >= 0 for v in mu.values())


def test_projection_of_always_monitor_is_identity_on_triples(beerquiche):
    """An always-monitoring receiver strategy has the outcome of its base twin."""
    sender = {SenderStrategy(("B", "Q")): F(1)}
    receiver = {ReceiverStrategyC(1, ("N", "F"), "F"): F(1)}
    mu = outcome_of_profile(beerquiche, sender, receiver)
    base = outcome_of_profile(
        beerquiche, *pure(SenderStrategy(("B", "Q")), ReceiverStrategy(("N", "F")))
    )
    assert mu == base


def test_projection_of_analytic_equilibrium_at_small_cost(beerquiche):
    """Plays of monitoring and non-monitoring receivers land on the same
    (type, message, action) triples."""
    # family at cost c: sender (1-10c) BB + 10c BQ, receiver half monitor-FN half default-N
    c = F(1, 20)
    y = 1 - 10 * c
    sender = {SenderStrategy(("B", "B")): y, SenderStrategy(("B", "Q")): 1 - y}
    receiver = {
        ReceiverStrategyC(1, ("N", "F"), "F"): F(1, 2),
        ReceiverStrategyC(0, ("F", "F"), "N"): F(1, 2),
    }
    mu = outcome_of_profile(beerquiche, sender, receiver)
    assert mu[("S", "B", "N")] == F(9, 10)
    assert mu[("W", "B", "N")] == y / 10
    assert mu[("W", "Q", "F")] == c / 2
    assert mu[("W", "Q", "N")] == c / 2


def test_distance_of_outcome_to_itself_is_zero(beerquiche):
    mu = outcome_of_profile(
        beerquiche, *pure(SenderStrategy(("B", "B")), ReceiverStrategy(("N", "F")))
    )
    result = outcome_distance(mu, mu)
    assert result == 0
    assert sqrt_decimal(result) == "0"


def test_distance_of_disjoint_unit_masses(beerquiche):
    plays = {p: F(0) for p in enumerate_plays(beerquiche)}
    a = dict(plays)
    a[("S", "B", "N")] = F(1)
    b = dict(plays)
    b[("S", "Q", "N")] = F(1)
    result = outcome_distance(a, b)
    assert result == 2


def test_distance_rejects_mismatched_play_sets(beerquiche):
    mu = outcome_of_profile(
        beerquiche, *pure(SenderStrategy(("B", "B")), ReceiverStrategy(("N", "F")))
    )
    other = {("S", "B", "N"): F(1)}
    with pytest.raises(ValueError):
        outcome_distance(mu, other)


def test_distance_squared_scales_with_cost_squared(beerquiche):
    base = outcome_of_profile(
        beerquiche, *pure(SenderStrategy(("B", "B")), ReceiverStrategy(("N", "F")))
    )
    for c in (F(1, 100), F(1, 50)):
        y = 1 - 10 * c
        sender = {SenderStrategy(("B", "B")): y, SenderStrategy(("B", "Q")): 1 - y}
        receiver = {
            ReceiverStrategyC(1, ("N", "F"), "F"): F(1, 2),
            ReceiverStrategyC(0, ("F", "F"), "N"): F(1, 2),
        }
        mu = outcome_of_profile(beerquiche, sender, receiver)
        assert outcome_distance(mu, base) == F(3, 2) * c * c


def outcome_from_masses(beerquiche, positive):
    masses = {p: F(0) for p in enumerate_plays(beerquiche)}
    masses.update(positive)
    return masses


def test_classify_pooling(beerquiche):
    mu = outcome_from_masses(
        beerquiche, {("S", "B", "N"): F(9, 10), ("W", "B", "N"): F(1, 10)}
    )
    assert classify_outcome(beerquiche, mu) == "pooling"


def test_classify_separating(beerquiche):
    mu = outcome_from_masses(
        beerquiche, {("S", "B", "N"): F(9, 10), ("W", "Q", "N"): F(1, 10)}
    )
    assert classify_outcome(beerquiche, mu) == "separating"


def test_classify_hybrid(beerquiche):
    mu = outcome_from_masses(
        beerquiche,
        {("S", "B", "N"): F(9, 10), ("W", "B", "N"): F(1, 20), ("W", "Q", "F"): F(1, 20)},
    )
    assert classify_outcome(beerquiche, mu) == "hybrid"
