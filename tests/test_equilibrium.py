import itertools
import random
from fractions import Fraction as F
from pathlib import Path

from helpers import coordination_2x2, matching_pennies

from sigsolve.cli import render_label
from sigsolve.equilibrium import (
    MixedEquilibrium,
    component_outcome,
    enumerate_extreme_equilibria,
    is_equilibrium,
    maximal_nash_subsets,
    outcome_of_equilibrium,
    solve_components,
)
from sigsolve.game import SignalingGame, enumerate_plays
from sigsolve.gamefile import load_game
from sigsolve.normalform import (
    BimatrixGame,
    build_normal_form,
    build_sgcm_normal_form,
    monitored_form,
    reduce_normal_form,
)


GAMES = Path(__file__).resolve().parent.parent / "games"


def row_index(gamma, classic_label):
    for i, lbl in enumerate(gamma.row_labels):
        if render_label(lbl, classic=True) == classic_label:
            return i
    raise KeyError(classic_label)


def unit(size, hot):
    return tuple(F(1) if i == hot else F(0) for i in range(size))


def test_pure_pooling_profile_is_equilibrium(beerquiche):
    gamma = build_normal_form(beerquiche)
    check = is_equilibrium(gamma, (unit(4, row_index(gamma, "FN")), unit(4, 0)))
    assert check.ok
    assert check.deviations == ()


def test_quiet_row_against_qb_fails_with_certificate(beerquiche):
    gamma = build_normal_form(beerquiche)
    check = is_equilibrium(gamma, (unit(4, row_index(gamma, "NN")), unit(4, 2)))
    assert not check.ok
    # the sender would rather pool on beer: 2.9 beats 2.0
    gains = {(side, idx): gain for side, idx, gain in check.deviations}
    assert gains[("col", 0)] == F(9, 10)


def test_profile_on_dominated_row_is_not_equilibrium():
    cells = (
        ((F(1), F(5)), (F(2), F(6))),
        ((F(1), F(0)), (F(2), F(1))),
    )
    gamma = BimatrixGame(("good", "bad"), ("l", "r"), cells)
    check = is_equilibrium(gamma, ((F(0), F(1)), (F(0), F(1))))
    assert not check.ok


def test_beer_quiche_has_exactly_four_extremes(beerquiche):
    gamma = build_normal_form(beerquiche)
    result = enumerate_extreme_equilibria(gamma)
    fn, nf, nn = row_index(gamma, "FN"), row_index(gamma, "NF"), row_index(gamma, "NN")
    half = F(1, 2)
    expected = {
        (unit(4, fn), unit(4, 0)),
        (tuple(half if i in (fn, nn) else F(0) for i in range(4)), unit(4, 0)),
        (unit(4, nf), unit(4, 3)),
        (tuple(half if i in (nf, nn) else F(0) for i in range(4)), unit(4, 3)),
    }
    assert {(eq.row_mix, eq.col_mix) for eq in result} == expected


def test_matching_pennies_unique_mix():
    result = enumerate_extreme_equilibria(matching_pennies())
    assert len(result) == 1
    eq = result.equilibria[0]
    assert eq.row_mix == (F(1, 2), F(1, 2))
    assert eq.col_mix == (F(1, 2), F(1, 2))


def test_reduced_sgcm_equilibrium_at_one_twentieth(beerquiche):
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(1, 20)))
    result = enumerate_extreme_equilibria(reduced)
    monitor_fn = row_index(reduced, "C*FN")
    stay_home = row_index(reduced, "0N**")
    target_receiver = tuple(
        F(1, 2) if i in (monitor_fn, stay_home) else F(0) for i in range(6)
    )
    target_sender = (F(1, 2), F(1, 2), F(0), F(0))
    assert any(
        eq.row_mix == target_receiver and eq.col_mix == target_sender for eq in result
    )


def test_every_enumerated_equilibrium_verifies(beerquiche):
    for gamma in (
        build_normal_form(beerquiche),
        reduce_normal_form(build_sgcm_normal_form(beerquiche, F(1, 20)))[0],
        matching_pennies(),
        coordination_2x2(),
    ):
        for eq in enumerate_extreme_equilibria(gamma):
            assert is_equilibrium(gamma, (eq.row_mix, eq.col_mix)).ok


def test_beer_quiche_has_two_maximal_subsets(beerquiche):
    gamma = build_normal_form(beerquiche)
    subsets = maximal_nash_subsets(enumerate_extreme_equilibria(gamma))
    assert len(subsets) == 2
    for subset in subsets:
        assert len(subset.col_face) == 1
        assert len(subset.row_face) == 2


def test_matching_pennies_single_singleton_subset():
    gamma = matching_pennies()
    subsets = maximal_nash_subsets(enumerate_extreme_equilibria(gamma))
    assert len(subsets) == 1
    assert len(subsets[0].row_face) == len(subsets[0].col_face) == 1


def test_two_disjoint_strict_equilibria_give_two_subsets():
    cells = (
        ((F(4), F(4)), (F(0), F(1))),
        ((F(1), F(0)), (F(3), F(3))),
    )
    gamma = BimatrixGame(("u", "d"), ("l", "r"), cells)
    eqs = enumerate_extreme_equilibria(gamma)
    subsets = maximal_nash_subsets(eqs)
    singletons = [s for s in subsets if len(s.row_face) == len(s.col_face) == 1]
    pairs = {(eq.row_mix, eq.col_mix) for eq in eqs}
    assert all((s.row_face[0], s.col_face[0]) in pairs for s in singletons)
    pure = {s.row_face[0] for s in singletons}
    assert {(F(1), F(0)), (F(0), F(1))} <= pure


def test_subsets_cover_extremes_and_components_partition_subsets(beerquiche):
    for gamma in (build_normal_form(beerquiche), coordination_2x2()):
        extremes = enumerate_extreme_equilibria(gamma)
        subsets = maximal_nash_subsets(extremes)
        # every cross pair of a subset is an enumerated extreme, and every extreme is one
        covered = {(x, y) for subset in subsets for x in subset.row_face for y in subset.col_face}
        assert covered == {(eq.row_mix, eq.col_mix) for eq in extremes}
        components = solve_components(gamma)
        seen = [subset for component in components for subset in maximal_nash_subsets(component.extremes)]
        assert len(seen) == len(subsets)
        assert set(seen) == set(subsets)


def assert_component_subsets_are_the_game_subsets_in_it(gamma):
    """Each component's maximal Nash subsets, built from its extremes alone,
    are the game's subsets whose mixes lie in it, in the same order."""
    subsets = maximal_nash_subsets(enumerate_extreme_equilibria(gamma))
    found = 0
    for component in solve_components(gamma):
        rows = {eq.row_mix for eq in component.extremes}
        cols = {eq.col_mix for eq in component.extremes}
        inside = tuple(s for s in subsets if set(s.row_face) <= rows and set(s.col_face) <= cols)
        assert maximal_nash_subsets(component.extremes) == inside
        found += len(inside)
    assert found == len(subsets)


def test_component_subsets_are_the_game_subsets_in_it_on_the_fixtures():
    for path in sorted(GAMES.glob("*.sg")):
        game = load_game(str(path))
        gamma = build_normal_form(game)
        for form in (gamma, monitored_form(game, gamma)):
            assert_component_subsets_are_the_game_subsets_in_it(form)


def test_nash_subsets_match_their_definition_on_degenerate_games():
    # payoffs from range(3) tie often, so most of these games are degenerate
    rng = random.Random(2)
    degenerate = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        cells = tuple(
            tuple((F(rng.randrange(3)), F(rng.randrange(3))) for _ in range(cols)) for _ in range(rows)
        )
        gamma = BimatrixGame(tuple(f"r{i}" for i in range(rows)), tuple(f"c{j}" for j in range(cols)), cells)
        extremes = enumerate_extreme_equilibria(gamma)
        degenerate += extremes.degenerate
        subsets = maximal_nash_subsets(extremes)
        pairs = {(eq.row_mix, eq.col_mix) for eq in extremes}
        row_mixes = {eq.row_mix for eq in extremes}
        col_mixes = {eq.col_mix for eq in extremes}

        def fits(x, y):
            return is_equilibrium(gamma, (x, y)).ok

        for subset in subsets:
            cross = {(x, y) for x in subset.row_face for y in subset.col_face}
            assert all(fits(x, y) for x, y in cross)
            assert cross <= pairs
            assert not any(all(fits(x, y) for y in subset.col_face) for x in row_mixes - set(subset.row_face))
            assert not any(all(fits(x, y) for x in subset.row_face) for y in col_mixes - set(subset.col_face))
        covered = {(x, y) for subset in subsets for x in subset.row_face for y in subset.col_face}
        assert pairs <= covered
        faces = [(subset.row_face, subset.col_face) for subset in subsets]
        assert len(set(faces)) == len(faces)
        # complete: closing any set of row mixes gives one of the subsets
        for size in range(1, len(row_mixes) + 1):
            for seed in itertools.combinations(sorted(row_mixes), size):
                cols = tuple(y for y in sorted(col_mixes) if all(fits(x, y) for x in seed))
                if cols:
                    rows = tuple(x for x in sorted(row_mixes) if all(fits(x, y) for y in cols))
                    assert (rows, cols) in faces
        # two extremes share a component exactly when pairs that is_equilibrium
        # accepts join them: each component's row mixes are one closed class
        accepted = {(x, y) for x in row_mixes for y in col_mixes if fits(x, y)}
        components = solve_components(gamma)
        in_components = [eq for component in components for eq in component.extremes]
        assert sorted(in_components, key=MixedEquilibrium.sort_key) == list(extremes)
        for component in components:
            rows = {eq.row_mix for eq in component.extremes[:1]}
            while True:
                cols = {y for x, y in accepted if x in rows}
                joined = {x for x, y in accepted if y in cols}
                if joined == rows:
                    break
                rows = joined
            assert rows == {eq.row_mix for eq in component.extremes}
        assert_component_subsets_are_the_game_subsets_in_it(gamma)
    assert degenerate >= 20


def test_beer_quiche_components(beerquiche):
    gamma = build_normal_form(beerquiche)
    components = solve_components(gamma)
    assert len(components) == 2
    supports = {tuple(render_label(l, True) for l in c.col_support()) for c in components}
    assert supports == {("BB",), ("QQ",)}


def test_matching_pennies_single_component():
    assert len(solve_components(matching_pennies())) == 1


def test_zero_cost_reduced_game_components_mirror_base(beerquiche):
    gamma0 = monitored_form(beerquiche, build_normal_form(beerquiche))
    components = solve_components(gamma0)
    assert len(components) == 2
    senders = {tuple(render_label(l, True) for l in c.col_support()) for c in components}
    assert senders == {("BB",), ("QQ",)}
    receivers = {
        frozenset(render_label(l, True) for l in c.row_support()) for c in components
    }
    assert receivers == {
        frozenset({"C*FN", "C*NN", "0N**"}),
        frozenset({"C*NF", "C*NN", "0N**"}),
    }


def test_component_outcomes_and_payoffs(beerquiche):
    gamma = build_normal_form(beerquiche)
    components = solve_components(gamma)
    by_sender = {
        render_label(c.col_support()[0], True): component_outcome(beerquiche, c)
        for c in components
    }
    beer = by_sender["BB"]
    assert beer.constant
    assert beer.payoffs == (F(29, 10), F(9, 10))
    assert beer.classification == "pooling"
    assert beer.outcome[("S", "B", "N")] == F(9, 10)
    assert beer.outcome[("W", "B", "N")] == F(1, 10)
    quiche = by_sender["QQ"]
    assert quiche.payoffs == (F(21, 10), F(9, 10))
    assert quiche.outcome[("S", "Q", "N")] == F(9, 10)
    assert quiche.outcome[("W", "Q", "N")] == F(1, 10)


def test_outcomes_read_through_forms_and_components_agree(beerquiche):
    base = build_normal_form(beerquiche)
    for component in solve_components(base):
        report = component_outcome(beerquiche, component)
        for eq in component.extremes:
            assert outcome_of_equilibrium(beerquiche, base, eq) == report.outcome
            assert outcome_of_equilibrium(beerquiche, component, eq) == report.outcome
    # monitored forms give outcomes on the same (type, message, action) plays
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(1, 20)))
    for eq in enumerate_extreme_equilibria(reduced):
        mu = outcome_of_equilibrium(beerquiche, reduced, eq)
        assert list(mu) == enumerate_plays(beerquiche)
        assert sum(mu.values()) == 1


def test_receiver_indifference_yields_non_constant_component():
    # one type, one message, two actions the receiver is exactly indifferent
    # between: the whole equilibrium set is one component with varying outcome
    game = SignalingGame(
        types=("t",),
        messages=("m",),
        actions=("a", "b"),
        prior={"t": F(1)},
        payoff={("t", "m", "a"): (F(1), F(0)), ("t", "m", "b"): (F(0), F(0))},
    )
    gamma = build_normal_form(game)
    components = solve_components(gamma)
    assert len(components) == 1
    report = component_outcome(game, components[0])
    assert not report.constant
    first, *rest = (outcome_of_equilibrium(game, components[0], eq) for eq in components[0].extremes)
    assert any(mu != first for mu in rest)
