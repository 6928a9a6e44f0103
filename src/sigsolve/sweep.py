"""Cost sweeps of a resolved base component: track the equilibrium nearest
it as the monitoring cost varies, locate the survival threshold, and collect
the epsilon-closeness evidence for the small-cost theorem.

`resolve_base_component` looks a component up once and returns its
`BaseContext`; `cost_sweep`, `survival_threshold` and `verify_theorem_bound`
sweep that context and never resolve it again. The theorem's hypothesis, a
nonzero component index, is not decided here: the caller computes it with
`indices.component_index` on the same context.

Survival at cost c means the reduced monitored form has an equilibrium whose
expected payoffs exactly equal the base component's payoffs. Along a family
of equilibria that converges to the component as the cost vanishes, on-path
indifference pins the payoffs to the component values, and the family
disappears exactly at the threshold cost, so this criterion is bisectable.

A payoff match can also be a coincidence: an equilibrium far from the
component may pay its payoffs while the nearest one does not. Such a record
has `coincidence` set. Binary game 40006 (games/binary_40006.sg) is one:
its C1 pools on Y with payoffs (1/2, 1/2), and at every threshold grid cost
the equilibria that pay them pool on X, farther than the nearest one.

It is exact only for families that stop monitoring on path. A family that
keeps the outcome by monitoring with probability one pays c on every play:
its payoffs are (u1, u2 - c), so payoff equality misses it. On
games/three_types.sg the hybrid component C0 has such an equilibrium at
squared outcome distance 0 at every sampled cost, yet `survival_threshold`
finds no surviving cost.
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


class UnknownComponentError(ValueError):
    pass


@dataclass(frozen=True)
class SweepRecord:
    """One cost's verdict. `coincidence`: `found` holds, but no equilibrium
    at the least squared distance has the component's payoffs."""

    c: Fraction
    found: bool
    coincidence: bool
    nearest: MixedEquilibrium
    monitor_probability: Fraction
    squared_distance: Fraction
    sender_support: tuple[object, ...]
    receiver_support: tuple[object, ...]


@dataclass(frozen=True)
class ThresholdResult:
    """`last_surviving` is None when no grid cost survives, and
    `first_failing` is None when C_MAX does. `records` holds every evaluated
    cost, in evaluation order."""

    last_surviving: Fraction | None
    first_failing: Fraction | None
    records: tuple[SweepRecord, ...]

    @property
    def coincidences(self) -> tuple[SweepRecord, ...]:
        """The evaluated costs whose survival was a coincidence."""
        return tuple(r for r in self.records if r.coincidence)

    @property
    def bracket_width(self) -> Fraction | None:
        if self.last_surviving is None or self.first_failing is None:
            return None
        return self.first_failing - self.last_surviving


@dataclass(frozen=True)
class TheoremEvidence:
    c_epsilon: Fraction | None
    records: tuple[SweepRecord, ...]


@dataclass(frozen=True)
class BaseContext:
    gamma: BimatrixGame
    monitored: BimatrixGame  # `monitored_form` of the game, reduced at every cost
    component: Component
    outcome: dict[tuple, Fraction]
    payoffs: tuple[Fraction, Fraction]


def halving_grid(c_max: Fraction, steps: int, c_min: Fraction = ZERO) -> list[Fraction]:
    """c_max, c_max/2, ..., c_max/2**(steps-1), descending, stopping before
    the first cost below c_min. Raises ValueError unless 0 <= c_min < c_max
    and steps >= 1, and before a cost past the first MAX_GRID_COSTS."""
    if not (0 <= c_min < c_max):
        raise ValueError("need 0 <= c_min < c_max")
    if steps < 1:
        raise ValueError("need at least one step")
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
    measured = [
        (outcome_distance(outcome_of_equilibrium(game, reduced, e), base.outcome), e)
        for e in enumerate_extreme_equilibria(reduced)
    ]
    squared, eq = min(measured, key=lambda pair: (pair[0], pair[1].sort_key()))
    paying = [d for d, e in measured if e.payoffs == base.payoffs]
    rows = list(zip(reduced.row_labels, eq.row_mix))
    return SweepRecord(
        c=cost,
        found=bool(paying),
        coincidence=bool(paying) and squared not in paying,
        nearest=eq,
        monitor_probability=sum((w for label, w in rows if monitor_bit(label)), ZERO),
        squared_distance=squared,
        sender_support=tuple(label for label, w in zip(reduced.col_labels, eq.col_mix) if w > 0),
        receiver_support=tuple(label for label, w in rows if w > 0),
    )


def cost_sweep(game: SignalingGame, base: BaseContext, grid: list[Fraction]) -> list[SweepRecord]:
    """One record per cost of the grid, ascending."""
    return [evaluate_cost(game, base, c) for c in sorted(grid)]


def survival_threshold(game: SignalingGame, base: BaseContext) -> ThresholdResult:
    """Bisect the cost at which the component's payoffs stop being supported,
    to a bracket no wider than BRACKET_TOLERANCE.

    Scans the halving grid from C_MAX down for a surviving/failing pair
    first, stopping at the first surviving cost. A component that survives at
    C_MAX itself (monitoring may simply be worthless) is reported with an open
    bracket after that one evaluation; one that survives at no grid cost
    comes back with `last_surviving` None, its smallest grid cost as
    `first_failing` and all 12 grid records. Every evaluated cost whose
    survival was a coincidence is among `coincidences`; the bisection still
    counts it as surviving.
    """
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
    lo, hi = surviving, failing
    while lo is not None and hi is not None and hi - lo > BRACKET_TOLERANCE:
        mid = (lo + hi) / 2
        records.append(evaluate_cost(game, base, mid))
        if records[-1].found:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(last_surviving=lo, first_failing=hi, records=tuple(records))


def verify_theorem_bound(game: SignalingGame, base: BaseContext, epsilon: Fraction) -> TheoremEvidence:
    """Largest grid cost below which every sampled cost stays epsilon-close,
    over the halving grid from C_MAX.

    Closeness is exact: squared distance < epsilon^2. The bound carries the
    survival guarantee only for a component of nonzero index, which the
    caller decides; this is the evidence alone.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    records = cost_sweep(game, base, halving_grid(C_MAX, THEOREM_GRID_STEPS))
    c_epsilon = None
    for lower, upper in zip(records, records[1:]):  # ascending
        if lower.squared_distance >= epsilon * epsilon:
            break
        c_epsilon = upper.c
    return TheoremEvidence(c_epsilon=c_epsilon, records=tuple(records))


def distance_scaling(records: list[SweepRecord]) -> Fraction | None:
    """The constant k with squared distance = k c^2 at every positive sampled
    cost where the component survives other than by coincidence, or None if
    there is no such constant."""
    ratios = {r.squared_distance / (r.c * r.c) for r in records if r.c > 0 and r.found and not r.coincidence}
    return ratios.pop() if len(ratios) == 1 else None
