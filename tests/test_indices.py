import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (
    perturbed_game,
    random_nondegenerate_games,
    reference_determinant_index,
    reference_perturbation_index,
)

from sigsolve import indices
from sigsolve.catalog import coordination_2x2, matching_pennies
from sigsolve.cli import load_game, render_label
from sigsolve.equilibrium import enumerate_extreme_equilibria, extreme_vertex_pairs, solve_components
from sigsolve.indices import (
    DegenerateDrawsError,
    DegenerateEquilibriumError,
    DrawStore,
    PerturbationConfig,
    _perturbation_index,
    component_index,
    duplicate_containment_check,
    equilibrium_index,
    index_sum_check,
)
from sigsolve.normalform import (
    BimatrixGame,
    EmbedMap,
    build_normal_form,
    build_sgcm_normal_form,
    embed_map,
    reduce_normal_form,
    reduced_sgcm_at_zero,
)

CFG = PerturbationConfig()


def test_matching_pennies_index_is_plus_one():
    gamma = matching_pennies()
    eq = enumerate_extreme_equilibria(gamma).equilibria[0]
    result = equilibrium_index(gamma, eq)
    assert result.value == 1
    assert result.method == "determinant"


def test_coordination_indices_sum_to_plus_one():
    gamma = coordination_2x2()
    values = {}
    for eq in enumerate_extreme_equilibria(gamma):
        k = sum(1 for w in eq.row_mix if w > 0)
        values[k] = values.get(k, []) + [equilibrium_index(gamma, eq).value]
    assert values[1] == [1, 1]
    assert values[2] == [-1]


def test_pure_strict_equilibria_always_get_plus_one():
    for gamma, result in random_nondegenerate_games(12, seed=11):
        for eq in result:
            supports = sum(1 for w in eq.row_mix if w > 0)
            if supports == 1 and sum(1 for w in eq.col_mix if w > 0) == 1:
                assert equilibrium_index(gamma, eq).value == 1


def test_unequal_supports_rejected(beerquiche):
    gamma = build_normal_form(beerquiche)
    segment_end = next(
        eq
        for eq in enumerate_extreme_equilibria(gamma)
        if sum(1 for w in eq.row_mix if w > 0) == 2
    )
    with pytest.raises(DegenerateEquilibriumError):
        equilibrium_index(gamma, segment_end)


def test_component_indices_of_beer_quiche(beerquiche):
    gamma = build_normal_form(beerquiche)
    components = solve_components(gamma)
    by_sender = {
        render_label(c.col_support()[0], True): component_index(gamma, c, CFG)
        for c in components
    }
    assert by_sender["BB"].value == 1
    assert by_sender["QQ"].value == 0
    for result in by_sender.values():
        assert result.agreement == 1
        assert result.replications == CFG.replications
        assert not result.indeterminate


def test_singleton_component_matches_determinant_index():
    gamma = matching_pennies()
    component = solve_components(gamma)[0]
    fast = component_index(gamma, component, CFG)
    sampled = _perturbation_index(gamma, component, CFG)
    eq = component.extremes[0]
    assert fast.value == sampled.value == equilibrium_index(gamma, eq).value == 1


def test_index_sum_check_beer_quiche(beerquiche):
    report = index_sum_check(build_normal_form(beerquiche))
    assert report.total == 1
    assert report.ok
    assert sorted(r.value for r in report.per_component) == [0, 1]


def test_index_sum_check_matching_pennies():
    report = index_sum_check(matching_pennies())
    assert report.total == 1 and report.ok


def test_index_sum_on_random_games():
    for gamma, result in random_nondegenerate_games(15, seed=23, max_size=3):
        values = [equilibrium_index(gamma, eq).value for eq in result]
        assert sum(values) == 1
        assert values == [reference_determinant_index(gamma, eq) for eq in result]
        # a negative offset and a fractional scale keep the equilibria and their indices
        moved = replace(
            gamma, cells=tuple(tuple(((u1 - 1000) / 7, (u2 - 1000) / 7) for u1, u2 in row) for row in gamma.cells)
        )
        moved_result = enumerate_extreme_equilibria(moved)
        assert [eq.sort_key() for eq in moved_result] == [eq.sort_key() for eq in result]
        assert [equilibrium_index(moved, eq).value for eq in moved_result] == values


def test_component_index_invariant_under_receiver_payoff_shift(beerquiche):
    gamma = build_normal_form(beerquiche)
    shifted = BimatrixGame(
        gamma.row_labels,
        gamma.col_labels,
        tuple(tuple((u1, u2 + 5) for (u1, u2) in row) for row in gamma.cells),
    )
    for comp, comp_shifted in zip(solve_components(gamma), solve_components(shifted)):
        a = component_index(gamma, comp, CFG)
        b = component_index(shifted, comp_shifted, CFG)
        assert a.value == b.value


def test_duplicate_containment_for_beer_quiche(beerquiche):
    gamma0 = reduced_sgcm_at_zero(beerquiche)
    base = build_normal_form(beerquiche)
    report = duplicate_containment_check(gamma0, base, embed_map(gamma0, base), CFG)
    assert report.ok
    assert len(report.entries) == 1  # only the beer component carries index
    entry = report.entries[0]
    assert entry.duplicate_index.value == 1
    assert entry.base_index.value == 1
    assert {render_label(l, True) for l in entry.image_rows} == {"FN", "NN"}
    assert {render_label(l, True) for l in entry.image_cols} == {"BB"}


def test_duplicate_containment_for_synthetic_duplicate_row():
    # unique strict equilibrium (top, left) plus an exact copy of the top row
    base_cells = (
        ((F(5), F(5)), (F(1), F(4))),
        ((F(4), F(0)), (F(2), F(1))),
    )
    base = BimatrixGame(("top", "bottom"), ("left", "right"), base_cells)
    dup_cells = base_cells + (base_cells[0],)
    duplicated = BimatrixGame(("top", "bottom", "copy"), ("left", "right"), dup_cells)
    embedding = EmbedMap(
        monitor_to_base={"top": "top", "bottom": "bottom"},
        duplicate_to_base={"copy": "top"},
    )
    report = duplicate_containment_check(duplicated, base, embedding, CFG)
    assert report.ok
    assert len(report.entries) == 1
    assert report.entries[0].image_rows == ("top",)


def fixture_forms():
    """The base form and the reduced monitored form at 1/20 of each bundled game."""
    for path in sorted((Path(__file__).resolve().parent.parent / "games").glob("*.sg")):
        game = load_game(str(path))
        yield build_normal_form(game)
        yield reduce_normal_form(build_sgcm_normal_form(game, F(1, 20)))[0]


def tied_bimatrices(seed, count=200):
    """1-4 strategies a side, payoffs from range(2) or range(3): mostly
    degenerate games whose components have several extremes."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols, high = rng.randint(1, 4), rng.randint(1, 4), rng.choice((2, 3))
        cells = tuple(tuple((F(rng.randrange(high)), F(rng.randrange(high))) for _ in range(cols)) for _ in range(rows))
        yield BimatrixGame(tuple(range(rows)), tuple(range(cols)), cells)


# 1/3, 3/10 and 2/7 lie 1/30 to 1/21 apart
NEAR_TIES = (F(0), F(1), F(1, 3), F(2, 7), F(3, 10), F(-1, 3), F(-2, 7), F(-3, 10))


def rational_bimatrices(seed, count=64):
    """2-4 strategies a side, payoffs from four of `NEAR_TIES` per game: ties
    make the games degenerate, and near ties make how far their perturbed
    equilibria move depend on the size of the perturbation, which is 1/10^6
    of each player's common denominator (up to 210 here)."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        pool = rng.sample(NEAR_TIES, 4)
        cells = tuple(tuple((rng.choice(pool), rng.choice(pool)) for _ in range(cols)) for _ in range(rows))
        yield BimatrixGame(tuple(range(rows)), tuple(range(cols)), cells)


def index_or_error(index, *args):
    try:
        return index(*args)
    except DegenerateDrawsError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "games, least_multi",
    [(fixture_forms, 7), (lambda: tied_bimatrices(47), 100), (lambda: rational_bimatrices(53), 40)],
    ids=["fixtures", "tied", "rational"],
)
def test_shared_draws_match_each_component_on_its_own_draws(games, least_multi):
    """Every component's sampling index is the same whether the components
    of a game share one draw store, in either order, or each draws alone."""
    multi = 0
    for gamma in games():
        components = solve_components(gamma)
        expected = [index_or_error(reference_perturbation_index, gamma, comp, CFG) for comp in components]
        for order in (components, components[::-1]):
            draws = DrawStore(gamma, CFG)
            found = {id(comp): index_or_error(_perturbation_index, gamma, comp, CFG, draws) for comp in order}
            assert [found[id(comp)] for comp in components] == expected, gamma
        assert [index_or_error(_perturbation_index, gamma, comp, CFG) for comp in components] == expected, gamma
        multi += sum(len(comp.extremes) > 1 for comp in components)
    assert multi >= least_multi  # components with several extremes, the ones that need the sampling index


@pytest.mark.parametrize("games", [fixture_forms, lambda: rational_bimatrices(53, 16)], ids=["fixtures", "rational"])
def test_integer_draws_are_the_fraction_draws(games):
    """A draw perturbs the integer views exactly as `helpers.perturbed_game`
    perturbs the `Fraction` payoffs from the same generator, so its walk
    gives that perturbed game's extreme equilibria."""
    for gamma in games():
        for attempt in range(3):
            seed = f"{CFG.seed}:0:{attempt}"
            walk = extreme_vertex_pairs(*indices._perturbed_views(gamma, random.Random(seed)))
            expected = enumerate_extreme_equilibria(perturbed_game(gamma, random.Random(seed)))
            mixes = sorted((tuple(F(v, sum(x)) for v in x), tuple(F(v, sum(y)) for v in y)) for x, y in walk.pairs)
            assert mixes == [eq.sort_key() for eq in expected], gamma
            assert walk.degenerate == expected.degenerate, gamma


def test_draws_are_shared_within_a_store_and_never_across_calls(beerquiche, monkeypatch):
    enumerated = []

    def recording(receiver, sender):
        enumerated.append((receiver.matrix, sender.matrix))
        return extreme_vertex_pairs(receiver, sender)

    monkeypatch.setattr(indices, "extreme_vertex_pairs", recording)
    gamma = build_normal_form(beerquiche)
    components = solve_components(gamma)
    alone = []
    for game in (gamma, gamma, build_normal_form(beerquiche)):
        enumerated.clear()
        component_index(game, components[0], CFG)
        alone.append(list(enumerated))
    assert len(alone[0]) >= CFG.replications
    assert alone[1] == alone[2] == alone[0]  # no call reuses another's draws, on the same or an equal game

    enumerated.clear()
    component_index(gamma, components[1], CFG)
    needed = set(alone[0]) | set(enumerated)
    enumerated.clear()
    draws = DrawStore(gamma, CFG)
    for comp in components:
        component_index(gamma, comp, CFG, draws)
    assert len(enumerated) == len(set(enumerated)) and set(enumerated) == needed  # each draw once
    with pytest.raises(ValueError):
        component_index(build_normal_form(beerquiche), components[0], CFG, draws)
