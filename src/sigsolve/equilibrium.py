"""Exact enumeration of all extreme Nash equilibria of a bimatrix game,
grouping into maximal Nash subsets and connected components, and the
constant-outcome check on components.

The enumeration walks every vertex of the two best-response polytopes (all
square subsystems of tight constraints, solved exactly) and keeps the
completely labeled vertex pairs. This captures degenerate games too: the
extreme points of every equilibrium segment are themselves vertex pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .game import (
    MixedProfile,
    Outcome,
    ReceiverStrategyC,
    SignalingGame,
    classify_outcome,
    expected_payoffs,
    outcome_of_profile,
    project_outcome,
)
from .normalform import BimatrixGame, deep_representative

ZERO = Fraction(0)
ONE = Fraction(1)

Mix = tuple[Fraction, ...]


@dataclass(frozen=True)
class MixedEquilibrium:
    """An extreme equilibrium: exact mixes plus (sender, receiver) payoffs."""

    row_mix: Mix
    col_mix: Mix
    payoffs: tuple[Fraction, Fraction]

    def sort_key(self):
        return (self.row_mix, self.col_mix)


@dataclass(frozen=True)
class EquilibriumCheck:
    ok: bool
    deviations: tuple[tuple[str, int, Fraction], ...]


@dataclass(frozen=True)
class EquilibriumSet:
    """Enumeration result; `degenerate` records an overlabeled polytope vertex."""

    equilibria: tuple[MixedEquilibrium, ...]
    degenerate: bool

    def __iter__(self):
        return iter(self.equilibria)

    def __len__(self):
        return len(self.equilibria)


@dataclass(frozen=True)
class NashSubset:
    """A maximal product of mix sets whose every cross pair is an equilibrium."""

    row_face: tuple[Mix, ...]
    col_face: tuple[Mix, ...]
    extremes: tuple[MixedEquilibrium, ...]


@dataclass(frozen=True)
class Component:
    """A connected union of maximal Nash subsets."""

    subsets: tuple[NashSubset, ...]
    extremes: tuple[MixedEquilibrium, ...]
    row_labels: tuple[object, ...]
    col_labels: tuple[object, ...]

    def row_support(self) -> tuple[object, ...]:
        used = [i for i in range(len(self.row_labels)) if any(eq.row_mix[i] > 0 for eq in self.extremes)]
        return tuple(self.row_labels[i] for i in used)

    def col_support(self) -> tuple[object, ...]:
        used = [j for j in range(len(self.col_labels)) if any(eq.col_mix[j] > 0 for eq in self.extremes)]
        return tuple(self.col_labels[j] for j in used)


@dataclass(frozen=True)
class OutcomeReport:
    """Result of the constant-outcome check on a component."""

    constant: bool
    outcome: Outcome | None
    payoffs: tuple[Fraction, Fraction] | None
    classification: str | None
    witnesses: tuple[tuple[MixedEquilibrium, Outcome], ...] = ()


def _validate_mix(mix, size: int, side: str) -> None:
    if len(mix) != size:
        raise ValueError(f"{side} mix has length {len(mix)}, expected {size}")
    if any(w < 0 for w in mix):
        raise ValueError(f"{side} mix has a negative weight")
    if sum(mix, ZERO) != 1:
        raise ValueError(f"{side} mix does not sum to 1")


def is_equilibrium(gamma: BimatrixGame, profile: tuple[Mix, Mix]) -> EquilibriumCheck:
    """Exact best-response check; deviations list (side, index, gain)."""
    row_mix, col_mix = profile
    m, n = gamma.shape
    _validate_mix(row_mix, m, "row")
    _validate_mix(col_mix, n, "col")
    row_values = [sum(gamma.receiver_payoff(r, c) * col_mix[c] for c in range(n)) for r in range(m)]
    col_values = [sum(gamma.sender_payoff(r, c) * row_mix[r] for r in range(m)) for c in range(n)]
    row_value = sum(row_mix[r] * row_values[r] for r in range(m))
    col_value = sum(col_mix[c] * col_values[c] for c in range(n))
    deviations = []
    for r in range(m):
        if row_values[r] > row_value:
            deviations.append(("row", r, row_values[r] - row_value))
    for c in range(n):
        if col_values[c] > col_value:
            deviations.append(("col", c, col_values[c] - col_value))
    return EquilibriumCheck(ok=not deviations, deviations=tuple(deviations))


def _positive_shift(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    low = min(min(row) for row in matrix)
    shift = ONE - low
    return [[v + shift for v in row] for row in matrix]


def _polytope_vertices(rows: list[list[Fraction]], rhs: list[Fraction], dim: int):
    """Vertices of {x >= 0 : rows . x <= rhs}.

    A basis is a set of free coordinates plus equally many tight payoff
    constraints (the remaining coordinates are pinned at zero), so only small
    square systems over the free coordinates ever get solved. Returns
    (vertices, degenerate) where `degenerate` flags a vertex with more than
    `dim` tight constraints.
    """
    vertices: dict[tuple[Fraction, ...], None] = {}
    degenerate = False
    count = len(rows)
    for size in range(min(dim, count) + 1):
        for free in itertools.combinations(range(dim), size):
            for chosen in itertools.combinations(range(count), size):
                if size == 0:
                    solution = []
                else:
                    matrix = [[rows[c][f] for f in free] for c in chosen]
                    solution = linalg.solve_square(matrix, [rhs[c] for c in chosen])
                    if solution is None:
                        continue
                point = [ZERO] * dim
                for f, v in zip(free, solution):
                    point[f] = v
                if any(v < 0 for v in point):
                    continue
                feasible = True
                tight = dim - size + sum(1 for v in solution if v == 0)
                for r in range(count):
                    value = sum(rows[r][f] * point[f] for f in free)
                    if value > rhs[r]:
                        feasible = False
                        break
                    if value == rhs[r]:
                        tight += 1
                if not feasible:
                    continue
                if tight > dim:
                    degenerate = True
                vertices.setdefault(tuple(point))
    return list(vertices), degenerate


def enumerate_extreme_equilibria(gamma: BimatrixGame) -> EquilibriumSet:
    """All extreme Nash equilibria, exactly, in deterministic order.

    Build the best-response polytopes of both players (payoffs shifted
    positive, which changes no best response), enumerate their vertices, and
    keep the pairs whose tight-constraint labels jointly cover every pure
    strategy. Normalizing those vertex pairs yields precisely the extreme
    equilibria.
    """
    m, n = gamma.shape
    receiver = _positive_shift(gamma.receiver_matrix())  # row player payoffs A
    sender = _positive_shift(gamma.sender_matrix())  # col player payoffs B

    # P = {x >= 0, B^T x <= 1} in R^m, labels: row i tight-at-zero, col j tight-at-one
    p_rows = [[sender[i][j] for i in range(m)] for j in range(n)]
    # Q = {y >= 0, A y <= 1} in R^n
    q_rows = [[receiver[i][j] for j in range(n)] for i in range(m)]
    ones_p = [ONE] * n
    ones_q = [ONE] * m

    p_vertices, p_degenerate = _polytope_vertices(p_rows, ones_p, m)
    q_vertices, q_degenerate = _polytope_vertices(q_rows, ones_q, n)

    def p_labels(x):
        labels = {("row", i) for i in range(m) if x[i] == 0}
        for j in range(n):
            if sum(sender[i][j] * x[i] for i in range(m)) == 1:
                labels.add(("col", j))
        return labels

    def q_labels(y):
        labels = {("col", j) for j in range(n) if y[j] == 0}
        for i in range(m):
            if sum(receiver[i][j] * y[j] for j in range(n)) == 1:
                labels.add(("row", i))
        return labels

    full = {("row", i) for i in range(m)} | {("col", j) for j in range(n)}
    found: dict[tuple[Mix, Mix], MixedEquilibrium] = {}
    q_labeled = [(y, q_labels(y)) for y in q_vertices if any(y)]
    for x in p_vertices:
        if not any(x):
            continue
        lx = p_labels(x)
        missing = full - lx
        for y, ly in q_labeled:
            if missing <= ly:
                xs = sum(x, ZERO)
                ys = sum(y, ZERO)
                row_mix = tuple(v / xs for v in x)
                col_mix = tuple(v / ys for v in y)
                key = (row_mix, col_mix)
                if key not in found:
                    u1 = sum(
                        row_mix[i] * col_mix[j] * gamma.sender_payoff(i, j)
                        for i in range(m)
                        for j in range(n)
                    )
                    u2 = sum(
                        row_mix[i] * col_mix[j] * gamma.receiver_payoff(i, j)
                        for i in range(m)
                        for j in range(n)
                    )
                    found[key] = MixedEquilibrium(row_mix=row_mix, col_mix=col_mix, payoffs=(u1, u2))
    ordered = tuple(sorted(found.values(), key=MixedEquilibrium.sort_key))
    return EquilibriumSet(equilibria=ordered, degenerate=p_degenerate or q_degenerate)


def maximal_nash_subsets(gamma: BimatrixGame, extremes: EquilibriumSet | tuple) -> tuple[NashSubset, ...]:
    """Maximal products X x Y of extreme mixes whose every pair is an equilibrium.

    These are the maximal bicliques of the compatibility graph between extreme
    row mixes and extreme col mixes, found by closure from every subset of the
    smaller side (feasible because extreme mixes are few at desk scale).
    """
    eqs = tuple(extremes)
    if not eqs:
        return ()
    row_mixes = sorted({eq.row_mix for eq in eqs})
    col_mixes = sorted({eq.col_mix for eq in eqs})
    pairs = {(eq.row_mix, eq.col_mix) for eq in eqs}

    def compatible(x: Mix, y: Mix) -> bool:
        if (x, y) in pairs:
            return True
        return is_equilibrium(gamma, (x, y)).ok

    payoff_cache = {(eq.row_mix, eq.col_mix): eq for eq in eqs}

    def as_equilibrium(x: Mix, y: Mix) -> MixedEquilibrium:
        if (x, y) not in payoff_cache:
            m, n = gamma.shape
            u1 = sum(x[i] * y[j] * gamma.sender_payoff(i, j) for i in range(m) for j in range(n))
            u2 = sum(x[i] * y[j] * gamma.receiver_payoff(i, j) for i in range(m) for j in range(n))
            payoff_cache[(x, y)] = MixedEquilibrium(x, y, (u1, u2))
        return payoff_cache[(x, y)]

    seed_side, other_side, seeded_rows = (
        (row_mixes, col_mixes, True) if len(row_mixes) <= len(col_mixes) else (col_mixes, row_mixes, False)
    )
    bicliques: dict[tuple[tuple[Mix, ...], tuple[Mix, ...]], None] = {}
    for size in range(1, len(seed_side) + 1):
        for seed in itertools.combinations(seed_side, size):
            if seeded_rows:
                cols = tuple(y for y in other_side if all(compatible(x, y) for x in seed))
                if not cols:
                    continue
                rows = tuple(x for x in row_mixes if all(compatible(x, y) for y in cols))
            else:
                rows = tuple(x for x in other_side if all(compatible(x, y) for y in seed))
                if not rows:
                    continue
                cols = tuple(y for y in col_mixes if all(compatible(x, y) for x in rows))
            bicliques.setdefault((rows, cols))
    subsets = []
    for rows, cols in sorted(bicliques):
        cross = tuple(
            sorted((as_equilibrium(x, y) for x in rows for y in cols), key=MixedEquilibrium.sort_key)
        )
        subsets.append(NashSubset(row_face=rows, col_face=cols, extremes=cross))
    return tuple(subsets)


def group_components(subsets: tuple[NashSubset, ...], gamma: BimatrixGame) -> tuple[Component, ...]:
    """Connected components of the subset graph.

    Two subsets are adjacent when their products intersect, i.e. they share an
    extreme mix on both coordinates.
    """
    count = len(subsets)
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(count):
        for j in range(i + 1, count):
            share_rows = set(subsets[i].row_face) & set(subsets[j].row_face)
            share_cols = set(subsets[i].col_face) & set(subsets[j].col_face)
            if share_rows and share_cols:
                parent[find(i)] = find(j)

    grouped: dict[int, list[NashSubset]] = {}
    for i, subset in enumerate(subsets):
        grouped.setdefault(find(i), []).append(subset)
    components = []
    for members in grouped.values():
        extremes: dict[tuple[Mix, Mix], MixedEquilibrium] = {}
        for subset in members:
            for eq in subset.extremes:
                extremes[(eq.row_mix, eq.col_mix)] = eq
        ordered = tuple(sorted(extremes.values(), key=MixedEquilibrium.sort_key))
        components.append(
            Component(
                subsets=tuple(members),
                extremes=ordered,
                row_labels=gamma.row_labels,
                col_labels=gamma.col_labels,
            )
        )
    components.sort(key=lambda comp: comp.extremes[0].sort_key())
    return tuple(components)


def solve_components(gamma: BimatrixGame) -> tuple[Component, ...]:
    """Enumerate, group into maximal Nash subsets, and connect into components."""
    extremes = enumerate_extreme_equilibria(gamma)
    subsets = maximal_nash_subsets(gamma, extremes)
    return group_components(subsets, gamma)


def _collapse_to_strategies(labels, mix) -> dict:
    """Weights per underlying strategy; class weights land on representatives."""
    out: dict = {}
    for label, weight in zip(labels, mix):
        if weight > 0:
            strat = deep_representative(label)
            out[strat] = out.get(strat, ZERO) + weight
    return out


def profile_of_equilibrium(gamma: BimatrixGame, eq: MixedEquilibrium) -> MixedProfile:
    """Translate a bimatrix equilibrium back into game strategies.

    Strategy classes contribute through their representatives; class members
    induce the same play distribution, so the choice does not matter.
    """
    return MixedProfile(
        sender=_collapse_to_strategies(gamma.col_labels, eq.col_mix),
        receiver=_collapse_to_strategies(gamma.row_labels, eq.row_mix),
    )


def component_outcome(
    game: SignalingGame, component: Component, projection: bool = False, cost: Fraction = ZERO
) -> OutcomeReport:
    """The common outcome of a component, or a non-constant report.

    Every extreme equilibrium of the component induces an outcome through its
    representative strategies; since the outcome map is bilinear, constancy on
    the extremes implies constancy on the whole component. For monitored
    forms, `projection` first sums out the monitor bit.
    """
    witnessed: list[tuple[MixedEquilibrium, Outcome]] = []
    outcomes: list[Outcome] = []
    payoffs: list[tuple[Fraction, Fraction]] = []
    for eq in component.extremes:
        sender = _collapse_to_strategies(component.col_labels, eq.col_mix)
        receiver = _collapse_to_strategies(component.row_labels, eq.row_mix)
        monitored = any(isinstance(s, ReceiverStrategyC) for s in receiver)
        mu = outcome_of_profile(game, MixedProfile(sender=sender, receiver=receiver), monitored=monitored)
        pays = expected_payoffs(game, mu, cost=cost)
        if monitored and projection:
            mu = project_outcome(mu)
        witnessed.append((eq, mu))
        outcomes.append(mu)
        payoffs.append(pays)
    first = outcomes[0]
    for eq, mu in witnessed[1:]:
        if mu.masses != first.masses:
            return OutcomeReport(
                constant=False,
                outcome=None,
                payoffs=None,
                classification=None,
                witnesses=(witnessed[0], (eq, mu)),
            )
    classification = classify_outcome(game, first) if not first.monitored else None
    return OutcomeReport(
        constant=True,
        outcome=first,
        payoffs=payoffs[0],
        classification=classification,
        witnesses=(),
    )
