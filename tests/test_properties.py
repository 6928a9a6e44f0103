import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mixed_strategies, random_nondegenerate_games, reference_expected_payoffs

from sigsolve.equilibrium import is_equilibrium
from sigsolve.game import (
    ReceiverStrategyC,
    SignalingGame,
    enumerate_plays,
    outcome_distance,
    outcome_of_profile,
    validate_game,
)
from sigsolve.gamefile import parse_game_file, serialize_game
from sigsolve.normalform import (
    build_sgcm_normal_form,
    reduce_normal_form,
    strategy_spaces,
    strategy_spaces_c,
)

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def small_games(draw):
    n_types = draw(st.integers(1, 3))
    n_messages = draw(st.integers(1, 3))
    n_actions = draw(st.integers(1, 2))
    types = tuple(f"t{i}" for i in range(n_types))
    messages = tuple(f"m{i}" for i in range(n_messages))
    actions = tuple(f"a{i}" for i in range(n_actions))
    weights = draw(st.lists(st.integers(1, 9), min_size=n_types, max_size=n_types))
    total = sum(weights)
    prior = {t: F(w, total) for t, w in zip(types, weights)}
    payoff = {
        (t, m, a): (draw(rationals), draw(rationals))
        for t in types
        for m in messages
        for a in actions
    }
    return SignalingGame(types=types, messages=messages, actions=actions, prior=prior, payoff=payoff)


def draw_mix(draw, items):
    raw = draw(
        st.lists(st.integers(0, 4), min_size=len(items), max_size=len(items)).filter(
            lambda ws: any(ws)
        )
    )
    total = sum(raw)
    return {item: F(w, total) for item, w in zip(items, raw) if w}


@st.composite
def games_with_profiles(draw, monitored=False):
    game = draw(small_games())
    senders, receivers = strategy_spaces(game)
    pool = strategy_spaces_c(game) if monitored else receivers
    return game, draw_mix(draw, senders), draw_mix(draw, pool)


@given(games_with_profiles())
@settings(max_examples=40, deadline=None)
def test_outcome_masses_form_a_distribution(game_profile):
    game, sender, receiver = game_profile
    mu = outcome_of_profile(game, sender, receiver)
    assert list(mu) == enumerate_plays(game)
    assert all(v >= 0 for v in mu.values())
    assert sum(mu.values()) == 1


@given(games_with_profiles(monitored=True))
@settings(max_examples=40, deadline=None)
def test_projection_preserves_mass(game_profile):
    """A monitored profile's mass lands whole on the (type, message, action) plays."""
    game, sender, receiver = game_profile
    mu = outcome_of_profile(game, sender, receiver)
    assert list(mu) == enumerate_plays(game)
    assert all(v >= 0 for v in mu.values())
    assert sum(mu.values()) == 1


@given(games_with_profiles(monitored=True), st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_projection_is_linear(game_profile, numerator):
    """The outcome of a blend of two receiver mixes is the blend of their outcomes."""
    game, sender, receiver = game_profile
    lam = F(numerator, 8)
    flipped = dict(zip(receiver, reversed(receiver.values())))
    blend = {s: lam * receiver[s] + (1 - lam) * flipped[s] for s in receiver}
    mu = outcome_of_profile(game, sender, receiver)
    nu = outcome_of_profile(game, sender, flipped)
    left = outcome_of_profile(game, sender, blend)
    assert left == {p: lam * mu[p] + (1 - lam) * nu[p] for p in mu}


@given(games_with_profiles())
@settings(max_examples=40, deadline=None)
def test_always_monitoring_matches_the_base_game(game_profile):
    game, sender, receiver = game_profile
    lifted = {ReceiverStrategyC(1, s.actions, game.actions[0]): w for s, w in receiver.items()}
    assert outcome_of_profile(game, sender, lifted) == outcome_of_profile(game, sender, receiver)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_distance_axioms(data):
    game = data.draw(small_games())
    senders, receivers = strategy_spaces(game)
    mus = []
    for _ in range(3):
        mus.append(outcome_of_profile(game, draw_mix(data.draw, senders), draw_mix(data.draw, receivers)))
    a, b, c = mus
    ab, ba = outcome_distance(a, b), outcome_distance(b, a)
    assert ab == ba
    assert (ab == 0) == (a == b)
    root = lambda d: math.sqrt(float(d))
    assert root(outcome_distance(a, c)) <= root(ab) + root(outcome_distance(b, c)) + 1e-12


@given(small_games(), st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_reduction_is_idempotent_on_random_monitored_forms(game, cost_num):
    gamma = build_sgcm_normal_form(game, F(cost_num, 40))
    reduced, _ = reduce_normal_form(gamma)
    again, _ = reduce_normal_form(reduced)
    assert again.cells == reduced.cells
    assert again.shape == reduced.shape


@given(small_games())
@settings(max_examples=40, deadline=None)
def test_game_files_round_trip(game):
    assert validate_game(game) == []
    text = serialize_game(game)
    assert parse_game_file(text) == game
    assert serialize_game(parse_game_file(text)) == text


def test_random_small_games_have_odd_regular_equilibrium_sets():
    for gamma, result in random_nondegenerate_games(20, seed=5, max_size=3):
        assert len(result) % 2 == 1
        for eq in result:
            rows = sum(1 for w in eq.row_mix if w > 0)
            cols = sum(1 for w in eq.col_mix if w > 0)
            assert rows == cols
            assert is_equilibrium(gamma, (eq.row_mix, eq.col_mix)).ok


@given(small_games(), st.integers(0, 6))
@settings(max_examples=12, deadline=None)
def test_full_pipeline_runs_on_random_games(game, cost_num):
    """Components of the base and monitored forms always resolve to a clean
    constant-outcome report or a non-constant one with two extremes whose
    outcomes differ."""
    from sigsolve.equilibrium import component_outcome, outcome_of_equilibrium, solve_components
    from sigsolve.normalform import build_normal_form

    # enumeration is exponential; keep both strategy spaces at desk scale
    if len(game.messages) ** len(game.types) > 4 or len(game.actions) ** len(game.messages) > 4:
        return
    for gamma, cost in (
        (build_normal_form(game), F(0)),
        (reduce_normal_form(build_sgcm_normal_form(game, F(cost_num, 12)))[0], F(cost_num, 12)),
    ):
        components = solve_components(gamma)
        assert components
        for component in components:
            report = component_outcome(game, component)
            if report.constant:
                assert sum(report.outcome.values()) == 1
                first = mixed_strategies(gamma, component.extremes[0])
                assert report.payoffs == reference_expected_payoffs(game, *first, cost)
            else:
                first, *rest = (outcome_of_equilibrium(game, component, eq) for eq in component.extremes)
                assert any(mu != first for mu in rest)
