import math
import random
from dataclasses import replace
from itertools import chain
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (
    TABLE_ONE,
    TABLE_THREE,
    TABLE_TWO,
    binary_game,
    dominance_filter,
    frontier_probe,
    matching_pennies,
    merging_game,
    monitoring_merges_at_one_quarter,
    reference_classes,
    reference_extreme_equilibria,
    reference_payoff_cells,
    reference_strict_core,
)

from sigsolve.cli import render_label
from sigsolve.equilibrium import enumerate_extreme_equilibria
from sigsolve.game import ReceiverStrategy, SignalingGame
from sigsolve.gamefile import load_game
from sigsolve.indices import PerturbationConfig, duplicate_containment_check
from sigsolve.normalform import (
    BimatrixGame,
    StrategyClass,
    build_normal_form,
    build_sgcm_normal_form,
    deep_representative,
    embed_map,
    monitor_bit,
    monitored_form,
    reduce_at_cost,
    reduce_normal_form,
    reduced_sgcm,
    reduced_sgcm_at_zero,
    strategy_spaces,
    strict_core,
    strategy_spaces_c,
)


def test_strategy_space_counts(beerquiche):
    senders, receivers = strategy_spaces(beerquiche)
    assert [render_label(s, classic=False) for s in senders] == ["BB", "BQ", "QB", "QQ"]
    assert len(receivers) == 4


def test_strategy_space_counts_asymmetric():
    game = SignalingGame(
        types=("t",),
        messages=("m1", "m2", "m3"),
        actions=("x", "y"),
        prior={"t": F(1)},
        payoff={("t", m, a): (F(0), F(0)) for m in ("m1", "m2", "m3") for a in ("x", "y")},
    )
    senders, receivers = strategy_spaces(game)
    assert len(senders) == 3
    assert len(receivers) == 8


def test_strategy_space_counts_wide_actions():
    game = SignalingGame(
        types=("a", "b"),
        messages=("m", "n"),
        actions=("x", "y", "z"),
        prior={"a": F(1, 2), "b": F(1, 2)},
        payoff={(t, m, c): (F(0), F(0)) for t in "ab" for m in "mn" for c in "xyz"},
    )
    senders, receivers = strategy_spaces(game)
    assert len(senders) == 4
    assert len(receivers) == 9


def test_monitored_space_count(beerquiche):
    assert len(strategy_spaces_c(beerquiche)) == 16


def test_monitored_space_count_single_message():
    game = SignalingGame(
        types=("t",),
        messages=("m",),
        actions=("x", "y", "z"),
        prior={"t": F(1)},
        payoff={("t", "m", a): (F(0), F(0)) for a in "xyz"},
    )
    assert len(strategy_spaces_c(game)) == 18


def test_monitored_space_single_action_payoff_equivalent():
    game = SignalingGame(
        types=("t",),
        messages=("m", "n"),
        actions=("x",),
        prior={"t": F(1)},
        payoff={("t", m, "x"): (F(1), F(2)) for m in "mn"},
    )
    strategies = strategy_spaces_c(game)
    assert len(strategies) == 2
    gamma = build_sgcm_normal_form(game, F(0))
    assert gamma.cells[0] == gamma.cells[1]


def test_normal_form_matches_printed_cells(beerquiche):
    gamma = build_normal_form(beerquiche)
    by_label = {render_label(lbl, classic=True): i for i, lbl in enumerate(gamma.row_labels)}
    for label, row in TABLE_ONE.items():
        for j, cell in enumerate(row):
            assert gamma.cells[by_label[label]][j] == cell


@pytest.mark.parametrize("cost", [F(1, 20), F(1, 7)])
def test_sgcm_form_matches_printed_cells(beerquiche, cost):
    gamma = build_sgcm_normal_form(beerquiche, cost)
    by_label = {render_label(lbl, classic=True): i for i, lbl in enumerate(gamma.row_labels)}
    assert len(by_label) == 16
    for label, (row, monitors) in TABLE_TWO.items():
        for j, (u1, u2) in enumerate(row):
            expected = (u1, u2 - cost) if monitors else (u1, u2)
            assert gamma.cells[by_label[label]][j] == expected


def test_sgcm_non_monitor_row_ignores_on_message(beerquiche):
    gamma = build_sgcm_normal_form(beerquiche, F(1, 20))
    idx = {render_label(lbl, classic=True): i for i, lbl in enumerate(gamma.row_labels)}
    # 0NFF column BQ: never monitors, defaults to N
    assert gamma.cells[idx["0NFF"]][1] == (F(3), F(9, 10))


def test_sgcm_at_zero_matches_base_under_bijection(beerquiche):
    base = build_normal_form(beerquiche)
    gamma = build_sgcm_normal_form(beerquiche, F(0))
    base_rows = {tuple(base.cells[i]): base.row_labels[i] for i in range(4)}
    for i, lbl in enumerate(gamma.row_labels):
        if lbl.monitor:
            assert tuple(gamma.cells[i]) in base_rows
            assert base_rows[tuple(gamma.cells[i])].actions == lbl.on_message


def test_negative_cost_rejected(beerquiche):
    with pytest.raises(ValueError):
        build_sgcm_normal_form(beerquiche, F(-1, 10))


def test_reduction_to_six_classes(beerquiche):
    gamma = build_sgcm_normal_form(beerquiche, F(1, 20))
    reduced, _ = reduce_normal_form(gamma)
    assert len(reduced.row_labels) == 6
    labels = {render_label(c, classic=True) for c in reduced.row_labels}
    assert labels == set(TABLE_THREE)
    sizes = {render_label(c, classic=True): len(c.members) for c in reduced.row_labels}
    assert sizes == {"C*FF": 2, "C*FN": 2, "C*NF": 2, "C*NN": 2, "0F**": 4, "0N**": 4}


def test_reduced_cells_match_printed_values(beerquiche):
    cost = F(1, 20)
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, cost))
    idx = {render_label(lbl, classic=True): i for i, lbl in enumerate(reduced.row_labels)}
    for label, (row, monitors) in TABLE_THREE.items():
        for j, (u1, u2) in enumerate(row):
            expected = (u1, u2 - cost) if monitors else (u1, u2)
            assert reduced.cells[idx[label]][j] == expected


def test_monitor_bits_cover_all_classes(beerquiche):
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(1, 20)))
    bits = [monitor_bit(c) for c in reduced.row_labels]
    assert sorted(bits) == [0] * 2 + [1] * 4
    nested, _ = reduce_normal_form(reduced)
    assert [monitor_bit(c) for c in nested.row_labels] == [monitor_bit(c) for c in reduced.row_labels]
    # classes merging both bits, sender classes and base strategies carry none
    zero, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(0)))
    bits = {render_label(c, classic=True): monitor_bit(c) for c in zero.row_labels}
    assert bits == {"0FFF": None, "0NFF": None, "C*NF": 1, "C*FN": 1}
    assert all(monitor_bit(c) is None for c in reduced.col_labels)
    assert monitor_bit(build_normal_form(beerquiche).row_labels[0]) is None


def test_base_game_has_no_merges(beerquiche):
    gamma = build_normal_form(beerquiche)
    reduced, _ = reduce_normal_form(gamma)
    assert reduced.shape == (4, 4)


def test_zero_cost_six_row_game_collapses_to_four(beerquiche):
    six = reduced_sgcm_at_zero(beerquiche)
    assert len(six.row_labels) == 6
    four, _ = reduce_normal_form(six)
    assert len(four.row_labels) == 4


def test_full_reduction_at_zero_gives_base_rows_with_constant_duplicates(beerquiche):
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(0)))
    assert len(reduced.row_labels) == 4
    base = build_normal_form(beerquiche)
    base_cells = {tuple(base.cells[i]) for i in range(4)}
    assert {tuple(row) for row in reduced.cells} == base_cells
    # the two constant-action classes soak up the non-monitoring duplicates
    constant_classes = [c for c in reduced.row_labels if len(c.members) == 6]
    assert len(constant_classes) == 2


def test_reduce_is_idempotent(beerquiche):
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(1, 20)))
    again, _ = reduce_normal_form(reduced)
    assert again.shape == reduced.shape
    assert again.cells == reduced.cells


def test_repricing_changes_only_monitoring_rows(beerquiche):
    """The reduced monitored forms at two costs with the same classes differ
    by the cost difference on the monitoring rows' receiver payoffs only."""
    a, b = reduced_sgcm(beerquiche, F(1, 20)), reduced_sgcm(beerquiche, F(1, 8))
    assert a.row_labels == b.row_labels
    delta = F(1, 20) - F(1, 8)
    for i in range(len(a.row_labels)):
        for j in range(len(a.col_labels)):
            du1 = b.cells[i][j][0] - a.cells[i][j][0]
            du2 = b.cells[i][j][1] - a.cells[i][j][1]
            assert du1 == 0
            assert du2 == (delta if monitor_bit(a.row_labels[i]) else 0)


def test_zero_cost_form_keeps_apart_rows_that_merge_at_one_twentieth():
    """The receiver values x at 1 and y at 19/20, so at cost 1/20 the free
    class that plays y equals the monitoring class that always plays x. The
    zero-cost form finds its classes where no free row equals a monitoring
    one: two free classes and four monitoring ones."""
    game = merging_game(F(19, 20))
    assert len(reduce_normal_form(build_sgcm_normal_form(game, F(1, 20)))[0].row_labels) == 5
    gamma0 = reduced_sgcm_at_zero(game)
    assert [render_label(label, classic=False) for label in gamma0.row_labels] == [
        "0**x", "0**y", "1xx*", "1xy*", "1yx*", "1yy*"
    ]
    assert duplicate_containment_check(gamma0, build_normal_form(game), embed_map(gamma0), PerturbationConfig()).ok


def test_unreached_information_sets_never_matter(beerquiche):
    gamma = build_sgcm_normal_form(beerquiche, F(1, 13))
    rows = {lbl: tuple(gamma.cells[i]) for i, lbl in enumerate(gamma.row_labels)}
    for lbl, cells in rows.items():
        for other, other_cells in rows.items():
            if lbl.monitor and other.monitor and lbl.on_message == other.on_message:
                assert cells == other_cells
            if not lbl.monitor and not other.monitor and lbl.default == other.default:
                assert cells == other_cells


def test_embedding_of_zero_cost_classes(beerquiche):
    gamma0 = reduced_sgcm_at_zero(beerquiche)
    embedding = {
        render_label(cls, classic=True): render_label(strat, classic=True) for cls, strat in embed_map(gamma0).items()
    }
    assert embedding == {
        "0F**": "FF", "0N**": "NN", "C*FF": "FF", "C*FN": "FN", "C*NF": "NF", "C*NN": "NN"
    }


def test_embedding_single_action_game():
    game = SignalingGame(
        types=("t",),
        messages=("m", "n"),
        actions=("x",),
        prior={"t": F(1)},
        payoff={("t", m, "x"): (F(1), F(2)) for m in "mn"},
    )
    gamma0 = reduced_sgcm_at_zero(game)
    assert [monitor_bit(label) for label in gamma0.row_labels] == [0, 1]
    assert set(embed_map(gamma0).values()) == {ReceiverStrategy(("x", "x"))}


def test_embedding_maps_each_class_onto_a_base_row_with_its_payoffs():
    """Each class of the zero-cost form pays what the base row it is mapped
    onto pays, column for column; no payoff is matched to build the map."""
    for game in [*fixture_games(), *random_signaling_games(11, count=10)]:
        base = build_normal_form(game)
        base_row = {label: i for i, label in enumerate(base.row_labels)}
        gamma0 = reduced_sgcm_at_zero(game)
        embedding = embed_map(gamma0)
        assert list(embedding) == list(gamma0.row_labels)
        for label, cells in zip(gamma0.row_labels, gamma0.cells):
            assert list(cells) == [
                base.cells[base_row[embedding[label]]][base.col_labels.index(col.representative)]
                for col in gamma0.col_labels
            ]


def test_never_monitoring_strictly_dominates_monitoring_the_constant_way(beerquiche):
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(1, 20)))
    filtered = dominance_filter(reduced)
    assert {render_label(label, classic=True) for label in filtered.row_labels} == {"0N**", "C*NF", "C*FN"}
    assert filtered.col_labels == reduced.col_labels
    # the filter keeps the rows it keeps cell for cell, monitoring cost included
    assert filtered.cells == tuple(reduced.cells[reduced.row_labels.index(label)] for label in filtered.row_labels)


def test_dominance_leaves_clean_games_alone():
    gamma = matching_pennies()
    filtered = dominance_filter(gamma)
    assert filtered.shape == gamma.shape


@pytest.mark.parametrize(
    "row_payoffs, col_payoffs, core",
    [
        # prisoner's dilemma: each player's second strategy strictly dominates
        ([[3, 0], [5, 1]], [[3, 5], [0, 1]], ([1], [1])),
        # equal rows beat each other nowhere
        ([[1, 2], [1, 2]], [[0, 1], [0, 1]], ([0, 1], [1])),
        # row 1 beats row 0 only weakly (they tie against col 0)
        ([[1, 2], [1, 3]], [[0, 0], [0, 0]], ([0, 1], [0, 1])),
        # col 0 is dominated only once row 0, which it beats on, is gone
        ([[0, 0], [1, 1]], [[1, 0], [0, 1]], ([1], [1])),
    ],
    ids=["one-by-one", "equal-rows", "weak-dominance", "chain"],
)
def test_strict_core_cases(row_payoffs, col_payoffs, core):
    assert strict_core(row_payoffs, col_payoffs) == core


def test_strict_core_reads_ints_and_fractions_alike():
    """The package passes integer views, but `strict_core` takes Fractions
    too; a positive scale and a shift keep every comparison. On int and
    Fraction matrices with ties its loops agree with the generator form."""
    for gamma in random_games(41):
        receiver = [[cell[1] for cell in row] for row in gamma.cells]
        sender = [[cell[0] for cell in row] for row in gamma.cells]
        as_fractions = strict_core(
            [[F(v - 1000, 7) for v in row] for row in receiver], [[F(v, 3) for v in row] for row in sender]
        )
        as_ints = strict_core([[int(v) for v in row] for row in receiver], [[int(v) for v in row] for row in sender])
        assert as_fractions == as_ints, gamma
    shrunk = 0
    for row_payoffs, col_payoffs in tied_payoffs(43):
        core = strict_core(row_payoffs, col_payoffs)
        assert core == reference_strict_core(row_payoffs, col_payoffs), (row_payoffs, col_payoffs)
        shrunk += core != (list(range(len(row_payoffs))), list(range(len(row_payoffs[0]))))
    assert shrunk


def tied_payoffs(seed):
    """Payoff matrix pairs with 1-8 strategies a side, drawn from a few ints
    or from a few thirds, so that ties are common."""
    rng = random.Random(seed)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        high = rng.choice((2, 3, 5))
        scale = rng.choice((1, F(1, 3)))
        yield tuple(
            [[rng.randrange(high) * scale for _ in range(cols)] for _ in range(rows)] for _player in range(2)
        )


def random_games(seed):
    rng = random.Random(seed)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        high = rng.choice((2, 3, 4, 1000))
        cells = tuple(
            tuple((F(rng.randrange(high)), F(rng.randrange(high))) for _ in range(cols)) for _ in range(rows)
        )
        yield BimatrixGame(tuple(range(rows)), tuple(range(cols)), cells)


def fixture_games():
    return [load_game(str(path)) for path in sorted((Path(__file__).resolve().parent.parent / "games").glob("*.sg"))]


def fixture_forms(unreduced=False):
    """Base forms and reduced monitored forms of the bundled games, down to
    costs at which a monitoring row loses to a free one by only c. With
    `unreduced`, also the full monitored tables, `monitored_form`,
    `reduced_sgcm` and `reduced_sgcm_at_zero`, so that every kind of form
    that is handed its views is there; the exhaustive oracle cannot afford
    the unreduced 32x9 form."""
    for game in fixture_games():
        base = build_normal_form(game)
        yield base
        for cost in (F(0), F(1, 20), F(1, 4), F(1, 4 * 2**11)):
            monitored = build_sgcm_normal_form(game, cost)
            if unreduced:
                yield from (monitored, reduced_sgcm(game, cost))
            yield reduce_normal_form(monitored)[0]
        if unreduced:
            yield from (monitored_form(game, base), reduced_sgcm_at_zero(game))


@pytest.mark.parametrize(
    "forms", [lambda: random_games(31), lambda: random_games(37), fixture_forms], ids=["random-31", "random-37", "fixtures"]
)
def test_strict_core_keeps_every_extreme_equilibrium(forms):
    """The enumerator walks the strict-dominance core; the reference walks
    every basis of the full game."""
    shrunk = 0
    for gamma in forms():
        found = enumerate_extreme_equilibria(gamma)
        assert repr(found.equilibria) == repr(reference_extreme_equilibria(gamma).equilibria), gamma
        shrunk += dominance_filter(gamma).shape != gamma.shape
    assert shrunk


def random_signaling_games(seed, count=30):
    """1-3 types, messages and actions; priors whose denominators are
    products of distinct small primes, such as (1/2, 1/6, 1/3); payoffs
    negative and non-integer."""
    rng = random.Random(seed)
    for _ in range(count):
        types, messages, actions = (
            tuple(f"{prefix}{i}" for i in range(rng.randint(1, 3))) for prefix in ("t", "m", "a")
        )
        prior, left = {}, F(1)
        for t in types[:-1]:
            prior[t] = left / rng.choice((2, 3, 5, 7))
            left -= prior[t]
        prior[types[-1]] = left
        payoff = {
            (t, m, a): tuple(F(rng.randint(-20, 20), rng.choice((1, 2, 3, 7))) for _ in range(2))
            for t in types
            for m in messages
            for a in actions
        }
        yield SignalingGame(types, messages, actions, prior, payoff)


def assert_exact_cells(cells, expected):
    assert cells == expected
    assert all(type(v) is F for row in cells for cell in row for v in cell)


@pytest.mark.parametrize("games", [fixture_games, lambda: random_signaling_games(5)], ids=["fixtures", "random"])
def test_integer_pricing_matches_fraction_reference(games):
    """Integer sums per cell give the Fraction loop's cells, at every cost."""
    for game in games():
        senders, receivers = strategy_spaces(game)
        assert_exact_cells(build_normal_form(game).cells, reference_payoff_cells(game, senders, receivers))
        monitored = strategy_spaces_c(game)
        free = reference_payoff_cells(game, senders, monitored)
        for cost in (F(0), F(1, 20), F(1, 4)):
            expected = tuple(
                tuple((u1, u2 - cost * s2.monitor) for u1, u2 in row) for s2, row in zip(monitored, free)
            )
            assert_exact_cells(build_sgcm_normal_form(game, cost).cells, expected)


def fraction_bimatrices(seed):
    rng = random.Random(seed)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        cells = tuple(
            tuple(tuple(F(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 10))) for _ in range(2)) for _ in range(cols))
            for _ in range(rows)
        )
        yield BimatrixGame(tuple(range(rows)), tuple(range(cols)), cells)


def assert_integer_view(gamma):
    m, n = gamma.shape
    for player, view in enumerate((gamma.sender_integers, gamma.receiver_integers)):
        assert view.scale == math.lcm(*(cell[player].denominator for row in gamma.cells for cell in row))
        assert all(view.matrix[i][j] == gamma.cells[i][j][player] * view.scale for i in range(m) for j in range(n))
        assert min(map(min, view.matrix)) + view.shift == 1


@pytest.mark.parametrize(
    "forms",
    [lambda: fixture_forms(unreduced=True), lambda: random_games(43), lambda: fraction_bimatrices(47)],
    ids=["fixtures", "random-integer", "random-fraction"],
)
def test_integer_view_scales_each_payoff_exactly(forms):
    for gamma in forms():
        assert_integer_view(gamma)


def test_derived_forms_views_equal_the_views_of_their_cells(beerquiche):
    """Every derived form computes its views from its own cells, and they
    equal the cell-free views that `reduce_at_cost` hands the sweep."""
    base = build_normal_form(beerquiche)
    monitored = monitored_form(beerquiche, base)
    assert set(monitored.receiver_integers.matrix) == set(base.receiver_integers.matrix)
    assert monitored.receiver_integers.scale == base.receiver_integers.scale
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(beerquiche, F(1, 4)))
    # 1/3 and 1/1000 change the scale; at 1/4 the view returns to lowest terms
    costs = (F(1, 3), F(1, 1000), F(1, 4))
    for cost in costs:
        views = reduce_at_cost(monitored, cost)
        gamma = reduced_sgcm(beerquiche, cost)
        assert (gamma.sender_integers, gamma.receiver_integers) == (views.sender_integers, views.receiver_integers)
    derived = [monitored, reduced, reduced_sgcm_at_zero(beerquiche), *(reduced_sgcm(beerquiche, c) for c in costs)]
    for gamma in derived:
        assert_integer_view(gamma)
    free = build_sgcm_normal_form(beerquiche, F(0))
    swapped = replace(free, cells=tuple(tuple((u2, u1) for u1, u2 in row) for row in free.cells))
    assert swapped.receiver_integers == free.sender_integers
    assert swapped.sender_integers == free.receiver_integers


def all_zero_game():
    """Every payoff zero, and actions declared out of alphabetical order: at
    every cost the free classes merge, and at cost zero everything does."""
    types, messages, actions = ("t", "u"), ("m", "n"), ("y", "x", "z")
    payoff = {(t, m, a): (F(0), F(0)) for t in types for m in messages for a in actions}
    return SignalingGame(types, messages, actions, {"t": F(1, 3), "u": F(2, 3)}, payoff)


def test_reduced_monitored_form_matches_the_full_table_reduction():
    """The reduced monitored form built from the base form has the labels,
    the members in their order, the cells and the views of the reduced full
    monitored table, at costs that change the scale and at costs where free
    and monitoring rows merge."""
    games = [
        *fixture_games(),
        *random_signaling_games(13, count=10),
        monitoring_merges_at_one_quarter(),
        all_zero_game(),
    ]
    for game in games:
        for cost in (F(0), F(1, 3), F(1, 20), F(1, 4), F(1, 1024)):
            expected, classes = reduce_normal_form(build_sgcm_normal_form(game, cost))
            built = reduced_sgcm(game, cost)
            assert (built.row_labels, built.col_labels) == (expected.row_labels, expected.col_labels), (game, cost)
            assert [cls.members for cls in built.row_labels + built.col_labels] == [cls.members for cls in classes]
            assert built.cells == expected.cells
            fresh = replace(expected)
            assert (built.sender_integers, built.receiver_integers) == (fresh.sender_integers, fresh.receiver_integers)
    merged = reduced_sgcm(all_zero_game(), F(1, 3)).row_labels[0]
    assert [render_label(s2, classic=False) for s2 in merged.members[:3]] == ["0yyy", "0yyx", "0yyz"]


def test_reduction_classes_match_fraction_grouping():
    """Grouping on the integer views finds the classes that hashing the
    Fraction payoff pairs finds, in the same order; a class of classes lists
    their members."""
    forms = []
    for game in [*fixture_games(), *random_signaling_games(7, count=10)]:
        forms.append(build_normal_form(game))
        for cost in (F(0), F(1, 20), F(1, 4)):
            monitored = build_sgcm_normal_form(game, cost)
            forms += [monitored, reduce_normal_form(monitored)[0]]
    for gamma in forms:
        row_groups, col_groups = reference_classes(gamma)
        reduced, classes = reduce_normal_form(gamma)
        def members(labels, group):
            return tuple(chain.from_iterable(getattr(labels[i], "members", (labels[i],)) for i in group))

        assert [cls.members for cls in classes] == [members(gamma.row_labels, group) for group in row_groups] + [
            members(gamma.col_labels, group) for group in col_groups
        ]
        assert all(not isinstance(m, StrategyClass) for cls in classes for m in cls.members)
        assert reduced.cells == tuple(tuple(gamma.cells[rg[0]][cg[0]] for cg in col_groups) for rg in row_groups)


def test_every_label_of_every_form_has_its_own_representative():
    """`equilibrium.outcome_of_equilibrium` puts each weight on its label's
    `deep_representative` without summing, which is exact because no two row
    labels and no two column labels of a form share one."""
    rng = random.Random(67)
    games = [
        *fixture_games(),
        *(frontier_probe(2, 2, 2, seed, jitter) for seed in range(30) for jitter in (False, True)),
        binary_game(40006),
        *(binary_game(rng.randrange(1 << 16)) for _ in range(66)),
        all_zero_game(),
    ]
    for game in games:
        base = build_normal_form(game)
        forms = [
            base,
            reduce_normal_form(base)[0],
            monitored_form(game, base),
            reduced_sgcm_at_zero(game),
            *(reduced_sgcm(game, cost) for cost in (F(0), F(1, 20), F(1, 4), F(1))),
        ]
        for gamma in forms:
            for labels in (gamma.row_labels, gamma.col_labels):
                assert len({deep_representative(label) for label in labels}) == len(labels), (game, gamma)
