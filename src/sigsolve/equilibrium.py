"""Exact enumeration of all extreme Nash equilibria of a bimatrix game,
grouping into connected components, the maximal Nash subsets of a set of
extremes, and the constant-outcome check on components.

The enumeration reads each player's payoffs from the game's cached integer
view (`BimatrixGame.receiver_integers`, `sender_integers`), cuts the game to
its strict-dominance core and walks every vertex of one best-response
polytope, the one in fewer dimensions, by lexicographic pivoting on
`linalg.Tableau`, the package's one integer pivot kernel, which visits only
the feasible bases, one pivot per step. It labels each vertex once with the
bit mask of its zero coordinates and tight constraints. A vertex's partners
are the vertices of the other polytope that carry every label it lacks: the
vertices of one face, found by one fraction-free solve when the face is a
point and by walking the face otherwise (von Stengel 2002, "Computing
equilibria for two-person games", Handbook of Game Theory 3, ch. 45). This
captures degenerate games too: the extreme points of every equilibrium
segment are themselves vertex pairs. The walk is also the one place that
decides whether an equilibrium is regular: it flags each vertex pair as it
finds it. That integer walk, `extreme_vertex_pairs`, is shared with the
index's perturbation draws; `enumerate_extreme_equilibria` turns its pairs
into `Fraction` mixes and payoffs and keeps each flag as
`MixedEquilibrium.regular`.

The extreme equilibria are the edges of a bipartite graph between extreme
row mixes and extreme col mixes (Avis, Rosenberg, Savani & von Stengel 2010,
"Enumeration of Nash equilibria for two-player games", Economic Theory 42).
Its connected components are the components of equilibria, grouped straight
from the edges (`group_components`). Its maximal bicliques are the maximal
Nash subsets; only the sampling index reads them, and it builds them one
component at a time (`maximal_nash_subsets`). The partner faces are the only
test of which pairs are equilibria: a Nash pair of extreme mixes is a
completely labeled vertex pair, so the enumeration already holds it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .game import SignalingGame, classify_outcome, outcome_of_profile
from .linalg import Tableau, bareiss
from .normalform import BimatrixGame, IntegerPayoffs, ReducedViews, deep_representative, strict_core

ZERO = Fraction(0)

Mix = tuple[Fraction, ...]


@dataclass(frozen=True)
class MixedEquilibrium:
    """An extreme equilibrium: exact mixes, (sender, receiver) payoffs, and
    whether it is regular: equal support sizes, each player's best replies
    exactly its support, and nonsingular support blocks of both players'
    payoffs. The walk that found it decides `regular` (`_partner_pairs`);
    the determinant index reads it and decides nothing itself."""

    row_mix: Mix
    col_mix: Mix
    payoffs: tuple[Fraction, Fraction]
    regular: bool

    def sort_key(self):
        return (self.row_mix, self.col_mix)


@dataclass(frozen=True)
class EquilibriumCheck:
    ok: bool
    deviations: tuple[tuple[str, int, Fraction], ...]


@dataclass(frozen=True)
class EquilibriumSet:
    """Enumeration result; `degenerate` says that some extreme equilibrium is
    not regular, read off their `regular` flags. At any equilibrium each
    strictly dominated strategy has weight 0 and is never a best reply, so
    an equilibrium is regular in the strict-dominance core, where the walk
    flags it, exactly when it is regular in the full game. An overlabeled
    vertex that is part of no equilibrium does not count."""

    equilibria: tuple[MixedEquilibrium, ...]

    @property
    def degenerate(self) -> bool:
        return not all(eq.regular for eq in self.equilibria)

    def __iter__(self):
        return iter(self.equilibria)

    def __len__(self):
        return len(self.equilibria)


@dataclass(frozen=True)
class NashSubset:
    """A maximal product of extreme mixes whose every cross pair is an
    extreme equilibrium: a maximal biclique of the equilibrium graph. Its
    cross pairs are its extreme equilibria."""

    row_face: tuple[Mix, ...]
    col_face: tuple[Mix, ...]


@dataclass(frozen=True)
class Component:
    """A connected component of the equilibrium graph: its extreme
    equilibria, in `sort_key` order. Its maximal Nash subsets are
    `maximal_nash_subsets(extremes)`, built only by the sampling index."""

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
    outcome: dict[tuple, Fraction] | None
    payoffs: tuple[Fraction, Fraction] | None
    classification: str | None


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
    row_values = [sum(gamma.cells[r][c][1] * col_mix[c] for c in range(n)) for r in range(m)]
    col_values = [sum(gamma.cells[r][c][0] * row_mix[r] for r in range(m)) for c in range(n)]
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


def _padded(point, kept: list[int], size: int) -> tuple[int, ...]:
    """The point on the kept strategies, 0 on the others."""
    full = [0] * size
    for i, v in zip(kept, point):
        full[i] = v
    return tuple(full)


def _solve_ones(block: list[list[int]]) -> tuple[int, list[int]] | None:
    """The solution y = nums / det of block . y = 1 for a square integer
    block, as (det, nums) with det > 0; None when the block is singular.

    Bareiss elimination of [block | 1] (`linalg.bareiss`) leaves +-det(block)
    as the last pivot; back substitution then finds each y_k times it
    (Cramer's rule), again by exact division.
    """
    k = len(block)
    aug = [row + [1] for row in block]
    if not bareiss(aug):
        return None
    last = aug[-1][k - 1]
    nums = [0] * k
    for c in range(k - 1, -1, -1):
        row = aug[c]
        nums[c] = (row[k] * last - sum(row[j] * nums[j] for j in range(c + 1, k))) // row[c]
    if last < 0:
        return -last, [-v for v in nums]
    return last, nums


def _partner_pairs(walked: list[list[int]], other: list[list[int]]) -> list:
    """The vertex pairs (x, y, regular) of the best-response polytopes
    X = {x >= 0 : walked . x <= 1} and Y = {y >= 0 : other . y <= 1} of a
    game with positive integer payoffs, found by walking only X, each flagged
    with whether it is regular (see `MixedEquilibrium`). Row j of `walked`
    holds the payoffs of the opponent's strategy j against each of the m own
    strategies, and row i of `other` the payoffs of own strategy i against
    each opponent strategy.

    A nonzero vertex x with support S makes tight the opponent strategies T.
    Its partners are the vertices of Y with the labels x lacks: zero off T
    and tight on the rows in S. When |S| = |T| (x then has exactly m labels,
    so its own block is nonsingular) and other[S,T] is nonsingular, that face
    is at most the one point solving other[S,T] y = 1: a partner when y >= 0
    and other . y <= 1 on the other rows, and regular exactly when y > 0 and
    no other row is tight. Otherwise the face is walked as the vertices of
    {y_T >= 0 : other[:,T] y_T <= 1}, once per T, that are tight on S, and
    no partner found there is regular: its supports differ in size or its
    support block is singular. x and y are integer points.
    """
    m, n = len(other), len(walked)
    faces: dict[int, list] = {}  # tight T as a bit mask -> the labeled vertices of other[:,T] y_T <= 1
    pairs = []
    for key, labels in _polytope_vertices(walked, m).items():
        held = ~labels & ((1 << m) - 1)  # the own strategies in x's support
        if not held:  # the origin matches only the other origin, which is no equilibrium
            continue
        x = key[1:]
        support = [i for i in range(m) if held >> i & 1]
        tight = [j for j in range(labels.bit_length() - m) if labels >> (m + j) & 1]
        if len(support) == len(tight):
            solved = _solve_ones([[other[i][j] for j in tight] for i in support])
            if solved is not None:
                det, nums = solved
                if min(nums) < 0:
                    continue
                values = [sum(row[j] * v for j, v in zip(tight, nums)) for row in other]
                if max(values) > det:
                    continue
                regular = min(nums) > 0 and values.count(det) == len(support)
                pairs.append((x, _padded(nums, tight, n), regular))
                continue
        face = labels >> m
        if face not in faces:
            walked_face = _polytope_vertices([[row[j] for j in tight] for row in other], len(tight))
            faces[face] = [(y[1:], ly) for y, ly in walked_face.items()]
        need = held << len(tight)
        pairs.extend((x, _padded(y, tight, n), False) for y, ly in faces[face] if ly & need == need)
    return pairs


def extreme_vertex_pairs(receiver: IntegerPayoffs, sender: IntegerPayoffs) -> list:
    """The extreme equilibria of the game whose row player gets
    `receiver.matrix` and col player `sender.matrix`, as flagged integer
    vertex pairs (x, y, regular) of the best-response polytopes: x / sum(x)
    the row mix and y / sum(y) the col mix, zero outside the strict-dominance
    core, and whether the equilibrium is regular (it does not depend on which
    polytope was walked).

    Cut the game to its strict-dominance core (`normalform.strict_core`),
    build the core's polytopes P = {x >= 0 : B^T x <= 1} and
    Q = {y >= 0 : A y <= 1} from the payoffs lifted by each view's `shift`,
    walk the one in fewer dimensions (P on a tie) and solve each of its
    vertices' partner faces on the other (`_partner_pairs`). No equilibrium
    plays a dominated strategy, and where none is played, every dominated
    strategy's constraint is slack, so that face of each full polytope is
    the core's polytope. A positive rescaling or another lifting to positive payoffs
    keeps every label, so any common denominator and shift give the same
    pairs once normalized.
    """
    full_m, full_n = len(receiver.matrix), len(receiver.matrix[0])
    kept_rows, kept_cols = strict_core(receiver.matrix, sender.matrix)
    p_rows = [[sender.matrix[i][j] + sender.shift for i in kept_rows] for j in kept_cols]
    q_rows = [[receiver.matrix[i][j] + receiver.shift for j in kept_cols] for i in kept_rows]
    if len(kept_rows) <= len(kept_cols):
        pairs = _partner_pairs(p_rows, q_rows)
    else:
        pairs = [(x, y, regular) for y, x, regular in _partner_pairs(q_rows, p_rows)]
    return [(_padded(x, kept_rows, full_m), _padded(y, kept_cols, full_n), regular) for x, y, regular in pairs]


def _bilinear(matrix: tuple[tuple[int, ...], ...], x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """x . matrix . y over the supports of x and y."""
    return sum(xi * sum(a * yj for a, yj in zip(row, y) if yj) for xi, row in zip(x, matrix) if xi)


def enumerate_extreme_equilibria(gamma: BimatrixGame | ReducedViews) -> EquilibriumSet:
    """All extreme Nash equilibria, exactly, in deterministic order.

    The vertex pairs of `extreme_vertex_pairs` on the game's integer views,
    normalized into `Fraction` mixes; each pair's payoffs are integer sums
    over the supports divided by the mix totals and the view's scale, and
    its flag is the equilibrium's `regular`. The views are all it reads, so
    a reduction without cells will do.
    """
    receiver, sender = gamma.receiver_integers, gamma.sender_integers  # row player A, col player B
    found = []
    for x, y, regular in extreme_vertex_pairs(receiver, sender):
        sx, sy = sum(x), sum(y)
        found.append(
            MixedEquilibrium(
                row_mix=tuple(Fraction(v, sx) if v else ZERO for v in x),
                col_mix=tuple(Fraction(v, sy) if v else ZERO for v in y),
                payoffs=(
                    Fraction(_bilinear(sender.matrix, x, y), sx * sy * sender.scale),
                    Fraction(_bilinear(receiver.matrix, x, y), sx * sy * receiver.scale),
                ),
                regular=regular,
            )
        )
    found.sort(key=MixedEquilibrium.sort_key)
    return EquilibriumSet(equilibria=tuple(found))


def maximal_nash_subsets(extremes: Iterable[MixedEquilibrium]) -> tuple[NashSubset, ...]:
    """Maximal products X x Y of extreme mixes whose every pair is one of
    `extremes`, in (row face, col face) order.

    These are the maximal bicliques of the graph whose edges are the extreme
    equilibria (Avis et al. 2010). A row mix's neighborhood is the set of col
    mixes it is enumerated with; the col sides are exactly the nonempty
    intersections of those neighborhoods, built one row at a time as in the
    clique step of lrsnash, and each side's rows are the rows whose
    neighborhood contains it. A biclique is connected, so the subsets of one
    component's extremes are the game's subsets that lie in it.
    """
    neighbors: dict[Mix, set[Mix]] = {}
    for eq in extremes:
        neighbors.setdefault(eq.row_mix, set()).add(eq.col_mix)
    row_mixes = sorted(neighbors)
    col_sides: set[frozenset] = set()
    for x in row_mixes:
        col_sides |= {side & neighbors[x] for side in col_sides} | {frozenset(neighbors[x])}
    bicliques = sorted(
        (tuple(x for x in row_mixes if side <= neighbors[x]), tuple(sorted(side))) for side in col_sides if side
    )
    return tuple(NashSubset(row_face=rows, col_face=cols) for rows, cols in bicliques)


def group_components(extremes: EquilibriumSet, gamma: BimatrixGame | ReducedViews) -> tuple[Component, ...]:
    """Connected components of the graph whose edges are the extreme equilibria.

    A union-find over the row and col mixes joins the two ends of every
    extreme; each extreme then belongs to the component of its row mix. The
    extremes arrive in `sort_key` order, so each component keeps them in that
    order, and the components come out ordered by their first extremes.
    """
    parent: dict[tuple[int, Mix], tuple[int, Mix]] = {}  # row mix x is node (0, x), col mix y is (1, y)

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for eq in extremes:
        parent[find((0, eq.row_mix))] = find((1, eq.col_mix))
    grouped: dict[tuple[int, Mix], list[MixedEquilibrium]] = {}
    for eq in extremes:
        grouped.setdefault(find((0, eq.row_mix)), []).append(eq)
    return tuple(
        Component(extremes=tuple(members), row_labels=gamma.row_labels, col_labels=gamma.col_labels)
        for members in grouped.values()
    )


def solve_components(gamma: BimatrixGame) -> tuple[Component, ...]:
    """Enumerate the extreme equilibria and group them into components."""
    return group_components(enumerate_extreme_equilibria(gamma), gamma)


def outcome_of_equilibrium(
    game: SignalingGame, gamma: BimatrixGame | Component | ReducedViews, eq: MixedEquilibrium
) -> dict[tuple, Fraction]:
    """The outcome of an equilibrium of a base or monitored form (or of one of
    its components or reductions).

    Each weight lands on its label's strategy, a class's on its
    representative: class members induce the same play distribution, and no
    two labels of a form share a representative.
    """
    return outcome_of_profile(
        game,
        {deep_representative(label): w for label, w in zip(gamma.col_labels, eq.col_mix) if w},
        {deep_representative(label): w for label, w in zip(gamma.row_labels, eq.row_mix) if w},
    )


def component_outcome(game: SignalingGame, component: Component) -> OutcomeReport:
    """The common outcome of a component, or a non-constant report.

    Every extreme equilibrium of the component induces an outcome through its
    representative strategies; since the outcome map is bilinear, constancy on
    the extremes implies constancy on the whole component. Outcomes of
    monitored forms live on the same (type, message, action) plays as base
    ones. The payoffs are those the bimatrix priced the first extreme at,
    monitoring cost included.
    """
    first, *rest = (outcome_of_equilibrium(game, component, eq) for eq in component.extremes)
    if any(mu != first for mu in rest):
        return OutcomeReport(constant=False, outcome=None, payoffs=None, classification=None)
    return OutcomeReport(
        constant=True,
        outcome=first,
        payoffs=component.extremes[0].payoffs,
        classification=classify_outcome(game, first),
    )
