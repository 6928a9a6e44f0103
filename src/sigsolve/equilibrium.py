"""Exact enumeration of all extreme Nash equilibria of a bimatrix game,
grouping into maximal Nash subsets and connected components, and the
constant-outcome check on components.

The enumeration reads each player's payoffs from the game's cached integer
view (`BimatrixGame.receiver_integers`, `sender_integers`) and walks every
vertex of the two best-response polytopes by lexicographic pivoting on
`linalg.Tableau`, the package's one integer pivot kernel, which visits only
the feasible bases, one pivot per step. It labels each vertex once with the
bit mask of its zero coordinates and tight constraints, and keeps the vertex
pairs whose masks cover every pure strategy. That integer walk,
`extreme_vertex_pairs`, is shared with the index's perturbation draws;
`enumerate_extreme_equilibria` turns its pairs into `Fraction` mixes and
payoffs. This captures degenerate games too: the extreme points of every
equilibrium segment are themselves vertex pairs.

The extreme equilibria are the edges of a bipartite graph between extreme
row mixes and extreme col mixes (Avis, Rosenberg, Savani & von Stengel 2010,
"Enumeration of Nash equilibria for two-player games", Economic Theory 42).
Its maximal bicliques are the maximal Nash subsets, and its connected
components are the components of equilibria. The label match is the only
test of which pairs are equilibria: a Nash pair of extreme mixes is a
completely labeled vertex pair, so the enumeration already holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .game import MixedProfile, Outcome, SignalingGame, classify_outcome, outcome_of_profile
from .linalg import Tableau
from .normalform import BimatrixGame, IntegerPayoffs, deep_representative, strict_core

ZERO = Fraction(0)

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
    """Enumeration result; `degenerate` records an overlabeled vertex of a
    best-response polytope of the game's strict-dominance core. At any
    equilibrium each dominated strategy has weight 0 and is never a best
    reply, so it adds exactly one label: an equilibrium is as degenerate in
    the core as in the full game."""

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


def _polytope_vertices(rows: list[list[int]], dim: int) -> dict[tuple[int, ...], int]:
    """Vertices of {x >= 0 : rows . x <= 1} for integer rows, each mapped to its labels.

    The walk starts at the all-slack basis of a `linalg.Tableau`, the origin,
    and follows every entering variable out of each basis, leaving by the
    lexicographic min-ratio test. That visits exactly the lexicographically
    feasible bases: the vertices of a perturbed simple polytope whose
    connected graph projects onto every vertex of this one. Bases already
    seen are skipped; keying them by vertex instead would prune the walk at
    degenerate vertices. The variable that just left is not tried: it
    leads straight back to the parent basis. Each step costs one pivot: the
    path stack keeps a `Tableau.snapshot` of every basis to return to.

    A vertex is keyed (den, *nums), the point nums / den in lowest terms with
    den > 0. Its labels are the bit mask of its zero variables: bit v < dim
    for a zero coordinate, bit dim + r for a tight row r; more than `dim`
    labels make it degenerate.
    """
    count = len(rows)
    tableau = Tableau(rows, [1] * count, dim)
    labeled: dict[tuple[int, ...], int] = {}

    def record(basic: int, back: int):
        """Label the current vertex if it is new; yield the nonbasic variables
        other than `back`."""
        numerators = [0] * dim
        positive = 0
        for row, v in zip(tableau.rows, tableau.basis):
            if row[0]:
                positive |= 1 << v
                if v < dim:
                    numerators[v] = row[0]
        # every pivot element is positive, so det > 0; dividing out the gcd makes the key canonical
        g = math.gcd(tableau.det, *numerators)
        key = (tableau.det // g, *(x // g for x in numerators))
        if key not in labeled:
            labeled[key] = everything & ~positive
        return (v for v in range(dim + count) if not basic >> v & 1 and v != back)

    everything = (1 << (dim + count)) - 1
    basic = sum(1 << v for v in tableau.basis)  # each basis as a bit mask of its variables
    seen = {basic}
    path = []  # (entering variables left, tableau snapshot, basic) of each basis on the path
    entering = record(basic, -1)
    while True:
        for v in entering:
            r = tableau.leaving_row(v)
            leaving = tableau.basis[r]
            child = basic ^ (1 << leaving) ^ (1 << v)
            if child in seen:
                continue
            seen.add(child)
            path.append((entering, tableau.snapshot(), basic))
            tableau.pivot(r, v)
            basic = child
            entering = record(basic, leaving)
            break
        else:
            if not path:
                return labeled
            entering, state, basic = path.pop()
            tableau.restore(state)


def _padded(point: tuple[int, ...], kept: list[int], size: int) -> tuple[int, ...]:
    """The point on the kept strategies, 0 on the others."""
    full = [0] * size
    for i, v in zip(kept, point):
        full[i] = v
    return tuple(full)


class VertexPairs(NamedTuple):
    """The extreme equilibria as integer vertex pairs: in each pair (x, y),
    x / sum(x) is the row mix and y / sum(y) the col mix, padded with zeros
    on the strategies outside the strict-dominance core. `degenerate` is as
    in `EquilibriumSet`."""

    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]
    degenerate: bool


def extreme_vertex_pairs(receiver: IntegerPayoffs, sender: IntegerPayoffs) -> VertexPairs:
    """The vertex pairs of the best-response polytopes of the game whose row
    player gets `receiver.matrix` and col player `sender.matrix`.

    Cut the game to its strict-dominance core (`normalform.strict_core`),
    build the core's polytopes from the payoffs lifted by each view's
    `shift`, enumerate their labeled vertices, and keep the pairs whose
    labels jointly cover every pure strategy of the core. No equilibrium
    plays a dominated strategy, and where none is played, every dominated
    strategy's constraint is slack, so that face of each full polytope is
    the core's polytope. A positive rescaling or another lifting to positive
    payoffs keeps every label, so any common denominator and shift give the
    same pairs once normalized. Row i is label bit i and col j bit m + j,
    so a pair matches when the col vertex holds every label the row vertex
    lacks (a superset test, as degenerate vertices carry extra labels).
    """
    full_m, full_n = len(receiver.matrix), len(receiver.matrix[0])
    kept_rows, kept_cols = strict_core(receiver.matrix, sender.matrix)
    m, n = len(kept_rows), len(kept_cols)

    # P = {x >= 0, B^T x <= 1} in R^m: bit i says row i is at zero, bit m + j that col j is tight
    p_rows = [[sender.matrix[i][j] + sender.shift for i in kept_rows] for j in kept_cols]
    # Q = {y >= 0, A y <= 1} in R^n: bit j says col j is at zero, bit n + i that row i is tight
    q_rows = [[receiver.matrix[i][j] + receiver.shift for j in kept_cols] for i in kept_rows]
    p_vertices = _polytope_vertices(p_rows, m)
    q_vertices = _polytope_vertices(q_rows, n)
    degenerate = any(lx.bit_count() > m for lx in p_vertices.values()) or any(
        ly.bit_count() > n for ly in q_vertices.values()
    )

    full = (1 << (m + n)) - 1
    cols = (1 << n) - 1
    q_labeled = [(key[1:], (ly >> n) | (ly & cols) << m) for key, ly in q_vertices.items()]  # P's bit order
    pairs = []
    for key, lx in p_vertices.items():
        x = key[1:]
        if not any(x):  # the origin matches only the other origin, which is no equilibrium
            continue
        need = full & ~lx
        matched = [y for y, ly in q_labeled if ly & need == need]
        if matched:
            x = _padded(x, kept_rows, full_m)
            pairs += ((x, _padded(y, kept_cols, full_n)) for y in matched)
    return VertexPairs(pairs=pairs, degenerate=degenerate)


def _bilinear(matrix: tuple[tuple[int, ...], ...], x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """x . matrix . y over the supports of x and y."""
    return sum(xi * sum(a * yj for a, yj in zip(row, y) if yj) for xi, row in zip(x, matrix) if xi)


def enumerate_extreme_equilibria(gamma: BimatrixGame) -> EquilibriumSet:
    """All extreme Nash equilibria, exactly, in deterministic order.

    The vertex pairs of `extreme_vertex_pairs` on the game's integer views,
    normalized into `Fraction` mixes; each pair's payoffs are integer sums
    over the supports divided by the mix totals and the view's scale.
    `degenerate` describes the core's polytopes (see `EquilibriumSet`).
    """
    receiver, sender = gamma.receiver_integers, gamma.sender_integers  # row player A, col player B
    walk = extreme_vertex_pairs(receiver, sender)
    found = []
    for x, y in walk.pairs:
        sx, sy = sum(x), sum(y)
        found.append(
            MixedEquilibrium(
                row_mix=tuple(Fraction(v, sx) if v else ZERO for v in x),
                col_mix=tuple(Fraction(v, sy) if v else ZERO for v in y),
                payoffs=(
                    Fraction(_bilinear(sender.matrix, x, y), sx * sy * sender.scale),
                    Fraction(_bilinear(receiver.matrix, x, y), sx * sy * receiver.scale),
                ),
            )
        )
    found.sort(key=MixedEquilibrium.sort_key)
    return EquilibriumSet(equilibria=tuple(found), degenerate=walk.degenerate)


def maximal_nash_subsets(extremes: EquilibriumSet) -> tuple[NashSubset, ...]:
    """Maximal products X x Y of extreme mixes whose every pair is an equilibrium.

    These are the maximal bicliques of the graph whose edges are the extreme
    equilibria (Avis et al. 2010). A row mix's neighborhood is the set of col
    mixes it is enumerated with; the col sides are exactly the nonempty
    intersections of those neighborhoods, built one row at a time as in the
    clique step of lrsnash, and each side's rows are the rows whose
    neighborhood contains it.
    """
    known = {(eq.row_mix, eq.col_mix): eq for eq in extremes}
    neighbors: dict[Mix, set[Mix]] = {}
    for x, y in known:
        neighbors.setdefault(x, set()).add(y)
    row_mixes = sorted(neighbors)
    col_sides: set[frozenset] = set()
    for x in row_mixes:
        col_sides |= {side & neighbors[x] for side in col_sides} | {frozenset(neighbors[x])}
    bicliques = sorted(
        (tuple(x for x in row_mixes if side <= neighbors[x]), tuple(sorted(side))) for side in col_sides if side
    )
    # rows and cols are sorted, so their product comes out in sort_key order
    return tuple(
        NashSubset(row_face=rows, col_face=cols, extremes=tuple(known[(x, y)] for x in rows for y in cols))
        for rows, cols in bicliques
    )


def group_components(subsets: tuple[NashSubset, ...], gamma: BimatrixGame) -> tuple[Component, ...]:
    """Connected components of the graph whose edges are the extreme equilibria.

    A union-find over the row and col mixes joins the two ends of every
    extreme; each subset then belongs to the component of its mixes, and the
    components keep the subsets in their given order.
    """
    parent: dict[tuple[int, Mix], tuple[int, Mix]] = {}  # row mix x is node (0, x), col mix y is (1, y)

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for subset in subsets:
        for eq in subset.extremes:
            parent[find((0, eq.row_mix))] = find((1, eq.col_mix))

    grouped: dict[tuple[int, Mix], list[NashSubset]] = {}
    for subset in subsets:
        grouped.setdefault(find((0, subset.row_face[0])), []).append(subset)
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
    return group_components(maximal_nash_subsets(enumerate_extreme_equilibria(gamma)), gamma)


def _collapse_to_strategies(labels, mix) -> dict:
    """Weights per underlying strategy; class weights land on representatives."""
    out: dict = {}
    for label, weight in zip(labels, mix):
        if weight > 0:
            strat = deep_representative(label)
            out[strat] = out.get(strat, ZERO) + weight
    return out


def profile_of_equilibrium(gamma: BimatrixGame | Component, eq: MixedEquilibrium) -> MixedProfile:
    """Translate a bimatrix equilibrium back into game strategies.

    Strategy classes contribute through their representatives; class members
    induce the same play distribution, so the choice does not matter.
    """
    return MixedProfile(
        sender=_collapse_to_strategies(gamma.col_labels, eq.col_mix),
        receiver=_collapse_to_strategies(gamma.row_labels, eq.row_mix),
    )


def outcome_of_equilibrium(game: SignalingGame, gamma: BimatrixGame | Component, eq: MixedEquilibrium) -> Outcome:
    """The outcome of an equilibrium of a base or monitored form (or of one of
    its components)."""
    return outcome_of_profile(game, profile_of_equilibrium(gamma, eq))


def component_outcome(game: SignalingGame, component: Component) -> OutcomeReport:
    """The common outcome of a component, or a non-constant report.

    Every extreme equilibrium of the component induces an outcome through its
    representative strategies; since the outcome map is bilinear, constancy on
    the extremes implies constancy on the whole component. Outcomes of
    monitored forms live on the same (type, message, action) plays as base
    ones. The payoffs are those the bimatrix priced the first extreme at,
    monitoring cost included.
    """
    witnessed = [(eq, outcome_of_equilibrium(game, component, eq)) for eq in component.extremes]
    first = witnessed[0][1]
    for eq, mu in witnessed[1:]:
        if mu.masses != first.masses:
            return OutcomeReport(
                constant=False,
                outcome=None,
                payoffs=None,
                classification=None,
                witnesses=(witnessed[0], (eq, mu)),
            )
    return OutcomeReport(
        constant=True,
        outcome=first,
        payoffs=component.extremes[0].payoffs,
        classification=classify_outcome(game, first),
        witnesses=(),
    )
