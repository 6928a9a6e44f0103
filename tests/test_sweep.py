from contextlib import suppress
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import message_blind_receiver_game, monitoring_merges_at_one_quarter, reference_evaluate_cost

from sigsolve import sweep
from sigsolve.catalog import beer_quiche
from sigsolve.cli import render_label
from sigsolve.equilibrium import solve_components
from sigsolve.gamefile import load_game
from sigsolve.normalform import build_normal_form, monitor_bit, monitored_form, reduce_at_cost
from sigsolve.sweep import (
    C_MAX,
    MAX_GRID_COSTS,
    THEOREM_GRID_STEPS,
    NoSurvivalError,
    UnknownComponentError,
    component_ids,
    cost_sweep,
    distance_scaling,
    evaluate_cost,
    halving_grid,
    resolve_base_component,
    survival_threshold,
    verify_theorem_bound,
)

BEER = "C0"
QUICHE = "C1"


@pytest.fixture(scope="module")
def game():
    return beer_quiche()


@pytest.fixture(scope="module")
def beer_base(game):
    return resolve_base_component(game, BEER)


def test_component_id_assignment(game):
    base = resolve_base_component(game, BEER)
    assert component_ids(solve_components(build_normal_form(game))) == ["C0", "C1"]
    assert render_label(base.component.col_support()[0], True) == "BB"
    assert base.payoffs == (F(29, 10), F(9, 10))


def test_unknown_component_rejected(game):
    with pytest.raises(UnknownComponentError):
        resolve_base_component(game, "C7")


def test_sweep_record_at_one_twentieth(game, beer_base):
    record = evaluate_cost(game, beer_base, F(1, 20))
    assert record.found
    assert record.monitor_probability == F(1, 2)
    assert record.payoffs == (F(29, 10), F(9, 10))
    senders = [render_label(l, True) for l in record.sender_support]
    assert senders == ["BB", "BQ"]
    # pooling weight follows the cost exactly
    assert record.nearest.col_mix[0] == 1 - 10 * F(1, 20)


def test_sweep_record_at_one_fifth(game, beer_base):
    record = evaluate_cost(game, beer_base, F(1, 5))
    assert not record.found
    assert record.payoffs == (F(3), F(9, 10))
    assert record.monitor_probability == 0
    assert [render_label(l, True) for l in record.sender_support] == ["BQ"]
    assert [render_label(l, True) for l in record.receiver_support] == ["0N**"]


def test_distance_shrinks_towards_zero_cost(game, beer_base):
    small = evaluate_cost(game, beer_base, F(1, 100))
    smaller = evaluate_cost(game, beer_base, F(1, 1000))
    assert smaller.squared_distance < small.squared_distance
    assert small.squared_distance == F(3, 2) * F(1, 100) ** 2
    assert smaller.squared_distance == F(3, 2) * F(1, 1000) ** 2


def test_sweep_grid_and_invariants(game):
    records = cost_sweep(game, BEER, c_min=F(0), c_max=F(1, 16), steps=5)
    assert [r.c for r in records] == sorted(r.c for r in records)
    assert len(records) == 5
    for r in records:
        assert 0 < r.c < F(1, 10)
        assert r.found
        assert r.monitor_probability == F(1, 2)
        assert r.payoffs == (F(29, 10), F(9, 10))
        assert r.nearest.col_mix[0] == 1 - 10 * r.c
        assert r.squared_distance == F(3, 2) * r.c * r.c


def test_distance_scaling_constant(game):
    assert distance_scaling(cost_sweep(game, BEER, c_min=F(0), c_max=F(1, 100), steps=3)) == F(3, 2)


def test_distance_scaling_ignores_costs_where_the_component_failed(game):
    records = cost_sweep(game, BEER, F(0), F(1, 4), 6)
    assert [r.c for r in records if not r.found] == [F(1, 8), F(1, 4)]
    assert distance_scaling(records) == F(3, 2)


def test_sweep_grid_stops_at_the_first_cost_below_c_min(game):
    """The grid never builds the costs below c_min, so a huge step count
    costs no more than the costs it keeps."""
    kept = [F(1, 8), F(1, 16), F(1, 32), F(1, 64)]
    assert halving_grid(F(1, 8), 10**9, F(1, 100)) == halving_grid(F(1, 8), 8, F(1, 100)) == kept
    assert halving_grid(F(1, 8), 3, F(1, 100)) == kept[:3]
    assert halving_grid(C_MAX, THEOREM_GRID_STEPS) == [C_MAX / 2**i for i in range(THEOREM_GRID_STEPS)]
    records = cost_sweep(game, BEER, c_min=F(1, 100), c_max=F(1, 8), steps=10**9)
    assert [r.c for r in records] == kept[::-1]


def test_sweep_grid_has_a_budget(game, monkeypatch):
    """With c_min 0 every step keeps a cost, so the grid raises before its
    cost past MAX_GRID_COSTS, and such a sweep solves nothing."""
    assert len(halving_grid(C_MAX, MAX_GRID_COSTS)) == MAX_GRID_COSTS
    with pytest.raises(ValueError, match=f"budget of {MAX_GRID_COSTS} costs"):
        halving_grid(C_MAX, MAX_GRID_COSTS + 1)
    assert len(halving_grid(C_MAX, 10**9, F(1, 100))) == 5

    def never(*args):
        raise AssertionError("a cost was solved past the budget")

    monkeypatch.setattr(sweep, "evaluate_cost", never)
    with pytest.raises(ValueError, match="budget"):
        cost_sweep(game, BEER, c_min=F(0), c_max=F(1, 8), steps=10**9)


@pytest.mark.parametrize(
    "c_min, c_max, steps, message",
    [
        (F(-1, 8), F(1, 8), 3, "need 0 <= c_min < c_max"),
        (F(1, 8), F(1, 8), 3, "need 0 <= c_min < c_max"),
        (F(0), F(1, 8), 0, "need at least one step"),
    ],
)
def test_cost_sweep_checks_its_arguments_before_the_component(game, c_min, c_max, steps, message):
    with pytest.raises(ValueError, match=message):
        cost_sweep(game, "C7", c_min, c_max, steps)


def test_threshold_brackets_one_tenth(game):
    result = survival_threshold(game, BEER)
    assert result.first_failing is not None
    assert result.bracket_width <= F(1, 1000)
    assert result.last_surviving <= F(1, 10) <= result.first_failing


def test_quiche_component_never_survives(game):
    with pytest.raises(NoSurvivalError) as err:
        survival_threshold(game, QUICHE)
    assert all(not record.found for record in err.value.records)


def test_message_blind_receiver_survives_every_cost():
    game = message_blind_receiver_game()
    assert len(solve_components(build_normal_form(game))) == 1
    result = survival_threshold(game, "C0")
    assert result.first_failing is None
    assert result.last_surviving == sweep.C_MAX


def test_theorem_bound_for_beer_component(game):
    evidence = verify_theorem_bound(game, BEER, F(1, 20))
    assert not evidence.index_warning
    assert evidence.index_result.value == 1
    assert evidence.c_epsilon is not None and evidence.c_epsilon > 0
    for record in evidence.records:
        if record.c < evidence.c_epsilon:
            assert record.squared_distance < F(1, 20) ** 2


def test_theorem_bound_fails_for_quiche_component(game):
    evidence = verify_theorem_bound(game, QUICHE, F(1, 20))
    assert evidence.index_warning
    assert evidence.index_result.value == 0
    assert evidence.c_epsilon is None


def test_theorem_bound_trivial_for_huge_epsilon(game):
    evidence = verify_theorem_bound(game, BEER, F(50))
    assert evidence.c_epsilon == F(1, 4)


def test_integer_cost_grid_matches_fraction_path(monkeypatch):
    """`evaluate_cost` on integer views gives the `Fraction` path's record at
    every cost the threshold scan and bisection and the theorem grid price,
    for every bundled game's components with a constant outcome, and at
    every theorem cost of a game whose classes merge at one of them."""
    evaluate = sweep.evaluate_cost
    priced = []

    def checked(game, base, cost):
        record = evaluate(game, base, cost)
        assert record == reference_evaluate_cost(game, base, cost), (cost, base.component)
        priced.append(cost)
        return record

    monkeypatch.setattr(sweep, "evaluate_cost", checked)
    games = [load_game(str(path)) for path in sorted((Path(__file__).resolve().parent.parent / "games").glob("*.sg"))]
    for game in [*games, monitoring_merges_at_one_quarter()]:
        for component_id in component_ids(solve_components(build_normal_form(game))):
            try:
                base = resolve_base_component(game, component_id)
            except ValueError:  # no constant outcome
                continue
            with suppress(NoSurvivalError):
                survival_threshold(game, component_id)
            for cost in halving_grid(C_MAX, THEOREM_GRID_STEPS):
                checked(game, base, cost)
    assert len(set(priced)) > THEOREM_GRID_STEPS  # bisection costs off the grid were priced too
    merged = monitoring_merges_at_one_quarter()
    monitored = monitored_form(merged, build_normal_form(merged))
    for cost, mixed in ((F(1, 4), 1), (F(1, 8), 0)):
        assert [monitor_bit(label) for label in reduce_at_cost(monitored, cost).row_labels].count(None) == mixed
