"""Cost sweeps: track the equilibrium nearest a base component as the
monitoring cost varies, locate the survival threshold, and collect the
epsilon-closeness evidence for nonzero-index components.

Survival at cost c means the reduced monitored form has an equilibrium whose
expected payoffs exactly equal the base component's payoffs. Along a family
of equilibria that converges to the component as the cost vanishes, on-path
indifference pins the payoffs to the component values, and the family
disappears exactly at the threshold cost, so this criterion is bisectable.

It is exact only for families that stop monitoring on path. A family that
keeps the outcome by monitoring with probability one pays c on every play:
its payoffs are (u1, u2 - c), so payoff equality misses it. On
games/three_types.sg the hybrid component C0 has such an equilibrium at
squared outcome distance 0 at every sampled cost, yet `survival_threshold`
reports that it survives at no sampled cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equilibrium import (
    Component,
    MixedEquilibrium,
    component_outcome,
    enumerate_extreme_equilibria,
    outcome_of_equilibrium,
    solve_components,
)
from .game import SignalingGame, outcome_distance
from .indices import IndexResult, PerturbationConfig, component_index
from .normalform import BimatrixGame, build_normal_form, monitor_bit, monitored_form, reduce_at_cost

ZERO = Fraction(0)
# `threshold` scans C_MAX, C_MAX/2, ..., C_MAX/2**11 before bisecting to
# BRACKET_TOLERANCE; `theorem` samples C_MAX/2**9, ..., C_MAX
C_MAX = Fraction(1, 4)
THRESHOLD_GRID_STEPS = 12
THEOREM_GRID_STEPS = 10
BRACKET_TOLERANCE = Fraction(1, 1000)
# the most costs a halving grid may hold, so a sweep's work is bounded
MAX_GRID_COSTS = 256


class NoSurvivalError(RuntimeError):
    """No cost on the initial grid kept the component's payoffs alive."""

    def __init__(self, message: str, records: tuple["SweepRecord", ...]):
        super().__init__(message)
        self.records = records


class UnknownComponentError(ValueError):
    pass


@dataclass(frozen=True)
class SweepRecord:
    c: Fraction
    found: bool
    nearest: MixedEquilibrium | None
    monitor_probability: Fraction
    squared_distance: Fraction
    payoffs: tuple[Fraction, Fraction]
    sender_support: tuple[object, ...]
    receiver_support: tuple[object, ...]


@dataclass(frozen=True)
class ThresholdResult:
    last_surviving: Fraction
    first_failing: Fraction | None

    @property
    def bracket_width(self) -> Fraction | None:
        if self.first_failing is None:
            return None
        return self.first_failing - self.last_surviving


@dataclass(frozen=True)
class TheoremEvidence:
    c_epsilon: Fraction | None
    records: tuple[SweepRecord, ...]
    index_result: IndexResult
    index_warning: bool


@dataclass(frozen=True)
class BaseContext:
    gamma: BimatrixGame
    monitored: BimatrixGame  # `monitored_form` of the game, reduced at every cost
    component: Component
    outcome: dict[tuple, Fraction]
    payoffs: tuple[Fraction, Fraction]


def halving_grid(c_max: Fraction, steps: int, c_min: Fraction = ZERO) -> list[Fraction]:
    """c_max, c_max/2, ..., c_max/2**(steps-1), descending, stopping before
    the first cost below c_min. Raises ValueError before a cost past the
    first MAX_GRID_COSTS."""
    grid = []
    for i in range(steps):
        cost = c_max / 2**i
        if cost < c_min:
            break
        if len(grid) == MAX_GRID_COSTS:
            raise ValueError(f"the cost grid exceeds its budget of {MAX_GRID_COSTS} costs; raise c_min or lower steps")
        grid.append(cost)
    return grid


def component_ids(components: tuple[Component, ...]) -> list[str]:
    return [f"C{i}" for i in range(len(components))]


def resolve_base_component(game: SignalingGame, component_id: str) -> BaseContext:
    """Look up a base-game component by its deterministic id."""
    gamma = build_normal_form(game)
    components = solve_components(gamma)
    ids = component_ids(components)
    if component_id not in ids:
        raise UnknownComponentError(f"unknown component id {component_id!r}; known: {', '.join(ids)}")
    component = components[ids.index(component_id)]
    report = component_outcome(game, component)
    if not report.constant:
        raise ValueError(f"component {component_id} has no constant outcome; the game is not generic")
    return BaseContext(
        gamma=gamma,
        monitored=monitored_form(game, gamma),
        component=component,
        outcome=report.outcome,
        payoffs=report.payoffs,
    )


def evaluate_cost(game: SignalingGame, base: BaseContext, cost: Fraction) -> SweepRecord:
    """Reduce the base's monitored form at one cost on its integer views,
    solve it and face it off against the base component's outcome."""
    reduced = reduce_at_cost(base.monitored, cost)
    equilibria = enumerate_extreme_equilibria(reduced)
    squared, eq = min(
        ((outcome_distance(outcome_of_equilibrium(game, reduced, e), base.outcome), e) for e in equilibria),
        key=lambda pair: (pair[0], pair[1].sort_key()),
    )
    rows = list(zip(reduced.row_labels, eq.row_mix))
    return SweepRecord(
        c=cost,
        found=any(e.payoffs == base.payoffs for e in equilibria),
        nearest=eq,
        monitor_probability=sum((w for label, w in rows if monitor_bit(label)), ZERO),
        squared_distance=squared,
        payoffs=eq.payoffs,
        sender_support=tuple(label for label, w in zip(reduced.col_labels, eq.col_mix) if w > 0),
        receiver_support=tuple(label for label, w in rows if w > 0),
    )


def cost_sweep(
    game: SignalingGame, component_id: str, c_min: Fraction, c_max: Fraction, steps: int
) -> list[SweepRecord]:
    """One record per cost of `halving_grid(c_max, steps, c_min)`, ascending."""
    if not (0 <= c_min < c_max):
        raise ValueError("need 0 <= c_min < c_max")
    if steps < 1:
        raise ValueError("need at least one step")
    grid = halving_grid(c_max, steps, c_min)
    base = resolve_base_component(game, component_id)
    return [evaluate_cost(game, base, c) for c in reversed(grid)]


def survival_threshold(game: SignalingGame, base_component_id: str) -> ThresholdResult:
    """Bisect the cost at which the component's payoffs stop being supported,
    to a bracket no wider than BRACKET_TOLERANCE.

    Scans the halving grid from C_MAX down for a surviving/failing pair
    first, stopping at the first surviving cost. A component that survives at
    C_MAX itself (monitoring may simply be worthless) is reported with an open
    bracket after that one evaluation; one that never survives raises
    NoSurvivalError with the grid records attached.
    """
    base = resolve_base_component(game, base_component_id)
    records = []
    surviving = None
    failing = None
    for c in halving_grid(C_MAX, THRESHOLD_GRID_STEPS):
        record = evaluate_cost(game, base, c)
        records.append(record)
        if record.found:
            surviving = c
            break
        failing = c
    if surviving is None:
        raise NoSurvivalError(
            f"component {base_component_id} survives at no sampled cost", tuple(records)
        )
    if failing is None:
        return ThresholdResult(last_surviving=surviving, first_failing=None)
    lo, hi = surviving, failing
    while hi - lo > BRACKET_TOLERANCE:
        mid = (lo + hi) / 2
        if evaluate_cost(game, base, mid).found:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(last_surviving=lo, first_failing=hi)


def verify_theorem_bound(
    game: SignalingGame,
    base_component_id: str,
    epsilon: Fraction,
    index_cfg: PerturbationConfig = PerturbationConfig(),
) -> TheoremEvidence:
    """Largest grid cost below which every sampled cost stays epsilon-close,
    over the halving grid from C_MAX.

    Closeness is exact: squared distance < epsilon^2. The bound only carries
    the survival guarantee for components of non-zero index, so the component
    index is computed and a warning is flagged otherwise.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base = resolve_base_component(game, base_component_id)
    index_result = component_index(base.gamma, base.component, index_cfg)
    index_warning = index_result.value == 0 or index_result.indeterminate
    records = [evaluate_cost(game, base, c) for c in reversed(halving_grid(C_MAX, THEOREM_GRID_STEPS))]
    c_epsilon = None
    for lower, upper in zip(records, records[1:]):  # ascending
        if lower.squared_distance >= epsilon * epsilon:
            break
        c_epsilon = upper.c
    return TheoremEvidence(
        c_epsilon=c_epsilon,
        records=tuple(records),
        index_result=index_result,
        index_warning=index_warning,
    )


def distance_scaling(records: list[SweepRecord]) -> Fraction | None:
    """The constant k with squared distance = k c^2 at every positive sampled
    cost where the component survives, or None if there is no such constant."""
    ratios = {r.squared_distance / (r.c * r.c) for r in records if r.c > 0 and r.found}
    return ratios.pop() if len(ratios) == 1 else None
