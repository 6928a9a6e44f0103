import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (
    binary_game,
    message_blind_receiver_game,
    monitoring_merges_at_one_quarter,
    pooling_persists,
    reference_evaluate_cost,
)

from sigsolve import sweep
from sigsolve.catalog import beer_quiche
from sigsolve.cli import render_label, run_command
from sigsolve.equilibrium import component_outcome, solve_components
from sigsolve.gamefile import load_game
from sigsolve.indices import component_index
from sigsolve.normalform import build_normal_form, monitor_bit, monitored_form, reduce_at_cost
from sigsolve.sweep import (
    C_MAX,
    MAX_GRID_COSTS,
    THEOREM_GRID_STEPS,
    THRESHOLD_GRID_STEPS,
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
GAMES = Path(__file__).resolve().parent.parent / "games"


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
    assert record.nearest.payoffs == (F(29, 10), F(9, 10))
    senders = [render_label(l, True) for l in record.sender_support]
    assert senders == ["BB", "BQ"]
    # pooling weight follows the cost exactly
    assert record.nearest.col_mix[0] == 1 - 10 * F(1, 20)


def test_sweep_record_at_one_fifth(game, beer_base):
    record = evaluate_cost(game, beer_base, F(1, 5))
    assert not record.found
    assert record.nearest.payoffs == (F(3), F(9, 10))
    assert record.monitor_probability == 0
    assert [render_label(l, True) for l in record.sender_support] == ["BQ"]
    assert [render_label(l, True) for l in record.receiver_support] == ["0N**"]


def test_distance_shrinks_towards_zero_cost(game, beer_base):
    small = evaluate_cost(game, beer_base, F(1, 100))
    smaller = evaluate_cost(game, beer_base, F(1, 1000))
    assert smaller.squared_distance < small.squared_distance
    assert small.squared_distance == F(3, 2) * F(1, 100) ** 2
    assert smaller.squared_distance == F(3, 2) * F(1, 1000) ** 2


def test_sweep_grid_and_invariants(game, beer_base):
    records = cost_sweep(game, beer_base, halving_grid(F(1, 16), 5))
    assert [r.c for r in records] == sorted(r.c for r in records)
    assert len(records) == 5
    for r in records:
        assert 0 < r.c < F(1, 10)
        assert r.found
        assert r.monitor_probability == F(1, 2)
        assert r.nearest.payoffs == (F(29, 10), F(9, 10))
        assert r.nearest.col_mix[0] == 1 - 10 * r.c
        assert r.squared_distance == F(3, 2) * r.c * r.c


def test_distance_scaling_constant(game, beer_base):
    assert distance_scaling(cost_sweep(game, beer_base, halving_grid(F(1, 100), 3))) == F(3, 2)


def test_distance_scaling_ignores_costs_where_the_component_failed(game, beer_base):
    records = cost_sweep(game, beer_base, halving_grid(F(1, 4), 6))
    assert [r.c for r in records if not r.found] == [F(1, 8), F(1, 4)]
    assert distance_scaling(records) == F(3, 2)


def test_distance_scaling_ignores_costs_where_survival_is_a_coincidence():
    """Binary game 40006's C1 survives at c = 1/8 only by coincidence, so
    that record gives no scaling constant."""
    game = binary_game(40006)
    records = cost_sweep(game, resolve_base_component(game, "C1"), halving_grid(F(1, 8), 1))
    assert [(r.c, r.found, r.coincidence) for r in records] == [(F(1, 8), True, True)]
    assert distance_scaling(records) is None


def test_sweep_grid_stops_at_the_first_cost_below_c_min(game, beer_base):
    """The grid never builds the costs below c_min, so a huge step count
    costs no more than the costs it keeps."""
    kept = [F(1, 8), F(1, 16), F(1, 32), F(1, 64)]
    assert halving_grid(F(1, 8), 10**9, F(1, 100)) == halving_grid(F(1, 8), 8, F(1, 100)) == kept
    assert halving_grid(F(1, 8), 3, F(1, 100)) == kept[:3]
    assert halving_grid(C_MAX, THEOREM_GRID_STEPS) == [C_MAX / 2**i for i in range(THEOREM_GRID_STEPS)]
    records = cost_sweep(game, beer_base, halving_grid(F(1, 8), 10**9, F(1, 100)))
    assert [r.c for r in records] == kept[::-1]


def test_sweep_grid_has_a_budget(game, beer_base, monkeypatch):
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
        cost_sweep(game, beer_base, halving_grid(F(1, 8), 10**9))


@pytest.mark.parametrize(
    "c_min, c_max, steps, message",
    [
        (F(-1, 8), F(1, 8), 3, "need 0 <= c_min < c_max"),
        (F(1, 8), F(1, 8), 3, "need 0 <= c_min < c_max"),
        (F(0), F(1, 8), 0, "need at least one step"),
    ],
)
def test_cost_sweep_checks_its_arguments_before_the_component(beerquiche_file, c_min, c_max, steps, message):
    """`halving_grid` checks the arguments, and `sweep` builds the grid before
    it resolves the component, so an unknown one is not reported."""
    with pytest.raises(ValueError, match=message):
        halving_grid(c_max, steps, c_min)
    result = run_command(
        ["sweep", beerquiche_file, "--component", "C7", f"--cmin={c_min}", f"--cmax={c_max}",
         f"--steps={steps}", "--out", str(Path(beerquiche_file).with_suffix(".csv"))]
    )
    assert (result.status, result.text) == (1, f"error: {message}")


def test_threshold_brackets_one_tenth(game, beer_base):
    result = survival_threshold(game, beer_base)
    assert result.first_failing is not None
    assert result.bracket_width <= F(1, 1000)
    assert result.last_surviving <= F(1, 10) <= result.first_failing


def test_quiche_component_never_survives(game):
    result = survival_threshold(game, resolve_base_component(game, QUICHE))
    assert (result.last_surviving, result.first_failing) == (None, C_MAX / 2 ** (THRESHOLD_GRID_STEPS - 1))
    assert [record.c for record in result.records] == halving_grid(C_MAX, THRESHOLD_GRID_STEPS)
    assert all(not record.found for record in result.records)
    assert result.bracket_width is None and result.coincidences == ()


def test_a_component_kept_only_by_monitoring_survives_at_no_grid_cost():
    """three_types C0 stays at squared distance 0 by monitoring on path, which
    pays c, so no grid cost keeps its payoffs: no bisection runs, and the
    result holds the 12 grid records."""
    game = load_game(str(GAMES / "three_types.sg"))
    result = survival_threshold(game, resolve_base_component(game, "C0"))
    assert result.last_surviving is None and result.bracket_width is None
    assert [record.c for record in result.records] == halving_grid(C_MAX, THRESHOLD_GRID_STEPS)
    assert all(not record.found and record.squared_distance == 0 for record in result.records)


def test_message_blind_receiver_survives_every_cost():
    game = message_blind_receiver_game()
    assert len(solve_components(build_normal_form(game))) == 1
    result = survival_threshold(game, resolve_base_component(game, "C0"))
    assert result.first_failing is None
    assert result.last_surviving == sweep.C_MAX


def test_survival_by_coincidence_is_flagged():
    """Binary game 40006's C1 pools on Y with payoffs (1/2, 1/2). At every
    threshold grid cost the nearest equilibrium, at squared distance 1/2,
    pays otherwise, and only farther ones pay (1/2, 1/2): each record is
    found by coincidence. `survival_threshold` still counts C_MAX as
    surviving, and reports that record."""
    game = load_game(str(GAMES / "binary_40006.sg"))
    base = resolve_base_component(game, QUICHE)
    assert base.payoffs == (F(1, 2), F(1, 2))
    for cost in halving_grid(C_MAX, THRESHOLD_GRID_STEPS):
        record = evaluate_cost(game, base, cost)
        assert record.found and record.coincidence, cost
        assert record.squared_distance == F(1, 2) and record.nearest.payoffs != base.payoffs, cost
    result = survival_threshold(game, base)
    assert (result.last_surviving, result.first_failing) == (C_MAX, None)
    assert [record.c for record in result.coincidences] == [C_MAX]


def test_no_other_fixture_survives_by_coincidence(monkeypatch):
    """No record is flagged for a constant component of beer-quiche or the
    other bundled games, at the threshold scan and bisection costs, the
    theorem grid and the golden sweep costs."""
    evaluate = sweep.evaluate_cost
    priced = []

    def recording(game, base, cost):
        record = evaluate(game, base, cost)
        priced.append((cost, record.found, record.coincidence))
        return record

    monkeypatch.setattr(sweep, "evaluate_cost", recording)
    games = [load_game(str(path)) for path in sorted(GAMES.glob("*.sg")) if path.stem != "binary_40006"]
    for each in games:
        for component_id in component_ids(solve_components(build_normal_form(each))):
            try:
                base = resolve_base_component(each, component_id)
            except ValueError:  # no constant outcome
                continue
            assert survival_threshold(each, base).coincidences == ()
            for cost in halving_grid(C_MAX, THEOREM_GRID_STEPS) + [F(1, 20), F(1, 40)]:
                sweep.evaluate_cost(each, base, cost)
    assert any(found for _, found, _ in priced)
    assert not any(coincidence for _, _, coincidence in priced)


def test_theorem_bound_for_beer_component(game, beer_base):
    # the theorem's hypothesis, which the caller decides
    assert component_index(beer_base.gamma, beer_base.component).value == 1
    evidence = verify_theorem_bound(game, beer_base, F(1, 20))
    assert evidence.c_epsilon is not None and evidence.c_epsilon > 0
    for record in evidence.records:
        if record.c < evidence.c_epsilon:
            assert record.squared_distance < F(1, 20) ** 2


def test_theorem_bound_fails_for_quiche_component(game):
    base = resolve_base_component(game, QUICHE)
    assert component_index(base.gamma, base.component).value == 0  # no guarantee applies
    evidence = verify_theorem_bound(game, base, F(1, 20))
    assert evidence.c_epsilon is None


def test_theorem_bound_trivial_for_huge_epsilon(game, beer_base):
    evidence = verify_theorem_bound(game, beer_base, F(50))
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
            survival_threshold(game, base)
            for cost in halving_grid(C_MAX, THEOREM_GRID_STEPS):
                checked(game, base, cost)
    assert len(set(priced)) > THEOREM_GRID_STEPS  # bisection costs off the grid were priced too
    merged = monitoring_merges_at_one_quarter()
    monitored = monitored_form(merged, build_normal_form(merged))
    for cost, mixed in ((F(1, 4), 1), (F(1, 8), 0)):
        assert [monitor_bit(label) for label in reduce_at_cost(monitored, cost).row_labels].count(None) == mixed


def test_pooling_outcome_persists_exactly_where_no_type_gains_by_deviating():
    """A pooling component keeps squared distance 0 at c = 1/4096, 1/64 and
    1/8 exactly where `pooling_persists` holds, on the bundled games and 300
    binary games. A solver that also charged the cost to the free rows
    would keep beer-quiche's components, which fail the test, at distance 0."""
    games = [load_game(str(path)) for path in sorted(GAMES.glob("*.sg"))]
    games += [binary_game(number) for number in random.Random(7).sample(range(65536), 300)]
    verdicts = Counter()
    for game in games:
        components = solve_components(build_normal_form(game))
        for component_id, component in zip(component_ids(components), components):
            report = component_outcome(game, component)
            if not report.constant or report.classification != "pooling":
                continue
            persists = pooling_persists(game, report.outcome)
            base = resolve_base_component(game, component_id)
            for cost in (F(1, 4096), F(1, 64), F(1, 8)):
                assert (evaluate_cost(game, base, cost).squared_distance == 0) == persists, (game, component_id, cost)
            verdicts[persists] += 1
    assert verdicts == {True: 22, False: 16}
