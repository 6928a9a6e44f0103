"""Equilibrium and component indices.

Regular equilibria get the determinant index: the sign of the product of the
two support-restricted payoff determinants, read on the game's cached integer
view of each player's payoffs (the one the enumerator read) shifted to at
least 1, times (-1)^(k+1) for support size k. The sign convention makes every
pure strict equilibrium +1 and the indices of a nondegenerate game sum to +1.

Components get a sampling index by one fixed procedure: in each of 20
replications, add to every payoff a multiple of 1/10^6 drawn uniformly from
[-1/1000, 1/1000], re-enumerate, and sum the determinant indices of the
perturbed equilibria within max-norm distance 1/20 of the component. A draw
stays in integers from the payoffs to the index: it perturbs the game's
integer views on the common denominator scale * 10^6, walks them with
`equilibrium.extreme_vertex_pairs`, and keeps each equilibrium as a pair of
unnormalized integer points. A perturbed equilibrium is far from a Nash
subset when it lies more than 1/20 outside the box around either face
(each coordinate's range over the face's vertices), tested by
cross-multiplying; only the others become `Fraction` mixes, whose distance
comes from hull-distance LPs. A draw whose strict-dominance core or nearby
equilibria are degenerate is redrawn, up to 16 draws per replication. Only
the seed is settable. The draws do not depend on the component, so the
components of one game, indexed in one call, share them through a
`DrawStore`: each draw is perturbed and walked once, and each nearby
equilibrium's determinant index is computed once, by the integer routine
`equilibrium_index` uses. Components with non-zero index are essential, so
the replication sums agree for small enough perturbations; disagreement is
reported, never papered over.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

# The draws walk with `extreme_vertex_pairs`; `enumerate_extreme_equilibria`
# is not called here, but perfbench/selftest.py counts this module among the
# ones that bind it.
from .equilibrium import (  # noqa: F401
    Component,
    Mix,
    MixedEquilibrium,
    enumerate_extreme_equilibria,
    extreme_vertex_pairs,
    solve_components,
)
from .linalg import determinant, linf_distance_to_hull
from .normalform import BimatrixGame, EmbedMap, IntegerPayoffs, deep_representative

ONE = Fraction(1)


class DegenerateEquilibriumError(ValueError):
    """Raised when the determinant index is asked about a non-regular equilibrium."""


class DegenerateDrawsError(RuntimeError):
    """Raised when every perturbation draw of a replication gives a degenerate game."""


@dataclass(frozen=True)
class PerturbationConfig:
    """Sampling parameters for the component index; only `seed` is settable.

    `magnitude` bounds each payoff perturbation, `neighborhood` is the
    max-norm radius around the component within which perturbed equilibria
    are attributed to it, `replications` the number of independent draws and
    `attempts` the draws a replication may spend on degenerate games.
    """

    magnitude: ClassVar[Fraction] = Fraction(1, 1000)
    neighborhood: ClassVar[Fraction] = Fraction(1, 20)
    replications: ClassVar[int] = 20
    attempts: ClassVar[int] = 16
    seed: int = 1729


@dataclass(frozen=True)
class IndexResult:
    value: int
    method: str
    replications: int
    agreement: Fraction

    @property
    def indeterminate(self) -> bool:
        return self.agreement != 1


@dataclass(frozen=True)
class IndexSumReport:
    per_component: tuple[IndexResult, ...]
    total: int
    ok: bool


@dataclass(frozen=True)
class ContainmentEntry:
    duplicate_index: IndexResult
    image_rows: tuple[object, ...]
    image_cols: tuple[object, ...]
    base_index: IndexResult | None
    contained: bool


@dataclass(frozen=True)
class ContainmentReport:
    entries: tuple[ContainmentEntry, ...]
    ok: bool


def _integer_mix(mix) -> list[int]:
    """A mix times the lcm of its denominators."""
    scale = math.lcm(*(w.denominator for w in mix))
    return [w.numerator * (scale // w.denominator) for w in mix]


def _determinant_index(receiver: IntegerPayoffs, sender: IntegerPayoffs, x, y) -> int:
    """The determinant index of the equilibrium (x / sum(x), y / sum(y)) of
    the game with these integer views, for nonnegative integer points x and y.

    Regularity is enforced: equal support sizes, best-response sets equal to
    the supports, and nonsingular support-restricted payoff blocks. Scaling
    keeps the best responses, so they are compared in integers against the
    unnormalized points; at value v > 0, det(A_ST + sJ) = det(A_ST)(v + s)/v,
    so no positive shift s changes a sign or makes a block singular (Shapley
    1974), and neither does a positive scale.
    """
    rows = [i for i, w in enumerate(x) if w > 0]
    cols = [j for j, w in enumerate(y) if w > 0]
    if len(rows) != len(cols):
        raise DegenerateEquilibriumError(
            f"support sizes differ ({len(rows)} rows vs {len(cols)} cols); use component_index"
        )
    row_values = [sum(a * yj for a, yj in zip(row, y) if yj) for row in receiver.matrix]
    col_values = [sum(row[j] * xi for row, xi in zip(sender.matrix, x) if xi) for j in range(len(y))]
    best_row, best_col = max(row_values), max(col_values)
    if rows != [i for i, value in enumerate(row_values) if value == best_row]:
        raise DegenerateEquilibriumError("row best responses extend beyond the support")
    if cols != [j for j, value in enumerate(col_values) if value == best_col]:
        raise DegenerateEquilibriumError("col best responses extend beyond the support")
    det_receiver = determinant([[receiver.matrix[i][j] + receiver.shift for j in cols] for i in rows])
    det_sender = determinant([[sender.matrix[i][j] + sender.shift for j in cols] for i in rows])
    if det_receiver == 0 or det_sender == 0:
        raise DegenerateEquilibriumError("singular support-restricted payoff block")
    sign = 1 if det_receiver * det_sender > 0 else -1
    return sign * (-1 if len(rows) % 2 == 0 else 1)


def equilibrium_index(gamma: BimatrixGame, eq: MixedEquilibrium) -> IndexResult:
    """Determinant index of a regular equilibrium, read on the game's integer
    views, which enumerating it already computed, against each mix times the
    lcm of its denominators (see `_determinant_index`)."""
    value = _determinant_index(
        gamma.receiver_integers, gamma.sender_integers, _integer_mix(eq.row_mix), _integer_mix(eq.col_mix)
    )
    return IndexResult(value=value, method="determinant", replications=0, agreement=ONE)


def _box(face: tuple[Mix, ...], radius: Fraction) -> tuple[int, list[int], list[int]]:
    """The box around a face's vertices (each coordinate's least and greatest
    weight over them) widened by `radius` on every side, as (L, lows, highs):
    its corners times L, the lcm of their denominators."""
    lows = [min(c) - radius for c in zip(*face)]
    highs = [max(c) + radius for c in zip(*face)]
    scale = math.lcm(*(w.denominator for w in lows + highs))
    return (
        scale,
        [w.numerator * (scale // w.denominator) for w in lows],
        [w.numerator * (scale // w.denominator) for w in highs],
    )


def _outside(point: tuple[int, ...], total: int, box: tuple[int, list[int], list[int]]) -> bool:
    """Whether the point point / total (total > 0) lies strictly outside a
    widened `_box`, compared in integers: w < low is point * L < low * total.
    The face's hull lies in its box, so a point outside the box widened by r
    is more than r from the hull in the max norm."""
    scale, lows, highs = box
    for v, lo, hi in zip(point, lows, highs):
        v *= scale
        if v < lo * total or v > hi * total:
            return True
    return False


def _near(point: tuple, screens, radius: Fraction) -> bool:
    """Whether the draw's equilibrium `point`, (x, sum(x), y, sum(y)), lies
    within max-norm `radius` of a Nash subset.

    `screens` pairs each subset with the boxes around its faces widened by
    the radius. A subset that the point lies outside of on either side is
    far without an LP. For the others the row hull LP runs first, on the
    point's Fraction mixes, the col LP only when the row side is within
    range, and the first subset within range settles it.
    """
    x, sx, y, sy = point
    for subset, row_box, col_box in screens:
        if _outside(x, sx, row_box) or _outside(y, sy, col_box):
            continue
        if linf_distance_to_hull([Fraction(v, sx) for v in x], subset.row_face) > radius:
            continue
        if linf_distance_to_hull([Fraction(v, sy) for v in y], subset.col_face) <= radius:
            return True
    return False


def _perturbed_views(gamma: BimatrixGame, rng: random.Random) -> tuple[IntegerPayoffs, IntegerPayoffs]:
    """The receiver and sender views of `gamma` with k/10^6 added to every
    payoff, k drawn uniformly from [-1000, 1000]: u1 then u2 of each cell,
    row by row. Entry M[i][j] of a view with scale s becomes
    M[i][j] * 10^6 + k * s, on the common denominator s * 10^6."""
    grid = 10**6
    bound = int(PerturbationConfig.magnitude * grid)
    receiver, sender = gamma.receiver_integers, gamma.sender_integers
    a_scale, b_scale = receiver.scale, sender.scale
    draw = rng.randint
    a_rows, b_rows = [], []
    for a_row, b_row in zip(receiver.matrix, sender.matrix):
        a_out, b_out = [], []
        for a, b in zip(a_row, b_row):
            b_out.append(b * grid + draw(-bound, bound) * b_scale)
            a_out.append(a * grid + draw(-bound, bound) * a_scale)
        a_rows.append(tuple(a_out))
        b_rows.append(tuple(b_out))
    return IntegerPayoffs.of(tuple(a_rows), a_scale * grid), IntegerPayoffs.of(tuple(b_rows), b_scale * grid)


class _Draw:
    """The integer views of a perturbed game whose strict-dominance core is
    nondegenerate, its extreme equilibria as integer points
    (x, sum(x), y, sum(y)), and the determinant index of each one asked
    about."""

    def __init__(self, receiver: IntegerPayoffs, sender: IntegerPayoffs, pairs):
        self.receiver = receiver
        self.sender = sender
        self.points = [(x, sum(x), y, sum(y)) for x, y in pairs]
        self._indices: dict[int, int | None] = {}

    def index(self, k: int) -> int | None:
        """The determinant index of equilibrium k; None when it is not regular."""
        if k not in self._indices:
            x, _, y, _ = self.points[k]
            try:
                self._indices[k] = _determinant_index(self.receiver, self.sender, x, y)
            except DegenerateEquilibriumError:
                self._indices[k] = None
        return self._indices[k]

    def near_sum(self, screens, radius: Fraction) -> int | None:
        """The sum of the indices of the equilibria within `radius` of the
        screened subsets; None at the first of them that is not regular."""
        total = 0
        for k, point in enumerate(self.points):
            if _near(point, screens, radius):
                value = self.index(k)
                if value is None:
                    return None
                total += value
        return total


class DrawStore:
    """The perturbation draws of one game under one config, for one call.

    Draw (rep, attempt) is seeded by `Random(f"{seed}:{rep}:{attempt}")`,
    which does not depend on the component, so every component of the game
    reads the same draws. The store perturbs and walks each draw at most
    once, when a component first asks for it, and keeps it for as long as
    the store lives: a caller that indexes several components of one game
    passes one store to each `component_index` call and then drops it.
    """

    def __init__(self, gamma: BimatrixGame, cfg: PerturbationConfig):
        self.gamma = gamma
        self.cfg = cfg
        self._draws: dict[tuple[int, int], _Draw | None] = {}

    def draw(self, rep: int, attempt: int) -> _Draw | None:
        """The draw, or None when its strict-dominance core is degenerate."""
        key = (rep, attempt)
        if key not in self._draws:
            receiver, sender = _perturbed_views(self.gamma, random.Random(f"{self.cfg.seed}:{rep}:{attempt}"))
            walk = extreme_vertex_pairs(receiver, sender)
            self._draws[key] = None if walk.degenerate else _Draw(receiver, sender, walk.pairs)
        return self._draws[key]


def component_index(
    gamma: BimatrixGame,
    component: Component,
    cfg: PerturbationConfig = PerturbationConfig(),
    draws: DrawStore | None = None,
) -> IndexResult:
    """Index of a component: the determinant index when it is a single
    regular equilibrium, the perturbation index otherwise. The components of
    one game share their perturbation draws through `draws`, a `DrawStore`
    of `gamma` and `cfg`; without one the call makes its own."""
    if len(component.extremes) == 1:
        try:
            return equilibrium_index(gamma, component.extremes[0])
        except DegenerateEquilibriumError:
            pass
    return _perturbation_index(gamma, component, cfg, draws)


def _perturbation_index(
    gamma: BimatrixGame, component: Component, cfg: PerturbationConfig, draws: DrawStore | None = None
) -> IndexResult:
    """The modal sum, over replications, of the determinant indices of the
    perturbed equilibria within `cfg.neighborhood` of the component."""
    if draws is None:
        draws = DrawStore(gamma, cfg)
    elif draws.gamma is not gamma or draws.cfg != cfg:
        raise ValueError("the draw store belongs to another game or config")
    radius = cfg.neighborhood
    screens = [(subset, _box(subset.row_face, radius), _box(subset.col_face, radius)) for subset in component.subsets]
    sums = []
    for rep in range(cfg.replications):
        for attempt in range(cfg.attempts):
            draw = draws.draw(rep, attempt)
            total = None if draw is None else draw.near_sum(screens, radius)
            if total is not None:
                break
        else:
            raise DegenerateDrawsError(
                f"replication {rep}: all {cfg.attempts} perturbation draws hit degenerate games"
            )
        sums.append(total)
    counts = Counter(sums)
    value, hits = max(counts.items(), key=lambda item: (item[1], -abs(item[0])))
    return IndexResult(
        value=value,
        method="perturbation",
        replications=cfg.replications,
        agreement=Fraction(hits, cfg.replications),
    )


def index_sum_ok(results) -> bool:
    """The verdict on a game's component indices: all determinate, summing to +1."""
    return sum(r.value for r in results) == 1 and not any(r.indeterminate for r in results)


def index_sum_check(gamma: BimatrixGame, cfg: PerturbationConfig = PerturbationConfig()) -> IndexSumReport:
    """Component indices must sum to +1 over the whole game."""
    draws = DrawStore(gamma, cfg)
    results = tuple(component_index(gamma, comp, cfg, draws) for comp in solve_components(gamma))
    return IndexSumReport(per_component=results, total=sum(r.value for r in results), ok=index_sum_ok(results))


def duplicate_containment_check(
    gamma0: BimatrixGame,
    gamma_base: BimatrixGame,
    embedding: EmbedMap,
    cfg: PerturbationConfig = PerturbationConfig(),
) -> ContainmentReport:
    """Every non-zero-index component of the duplicate-strategy game must map
    onto a non-zero-index component of the base game.

    The image of a component is the set of base strategies reached by mapping
    its row support through the embedding (columns map by representative).
    """
    base_components = solve_components(gamma_base)
    base_draws = DrawStore(gamma_base, cfg)
    base_results = [component_index(gamma_base, comp, cfg, base_draws) for comp in base_components]
    draws = DrawStore(gamma0, cfg)
    entries = []
    for comp in solve_components(gamma0):
        result = component_index(gamma0, comp, cfg, draws)
        if result.value == 0 and not result.indeterminate:
            continue
        image_rows = tuple(sorted({embedding.map_row(lbl) for lbl in comp.row_support()}, key=repr))
        image_cols = tuple(
            sorted({deep_representative(lbl) for lbl in comp.col_support()}, key=repr)
        )
        match = None
        match_result = None
        for base_comp, base_result in zip(base_components, base_results):
            rows = tuple(sorted(set(base_comp.row_support()), key=repr))
            cols = tuple(sorted({deep_representative(l) for l in base_comp.col_support()}, key=repr))
            if rows == image_rows and cols == image_cols:
                match = base_comp
                match_result = base_result
                break
        contained = match is not None and match_result.value != 0
        entries.append(
            ContainmentEntry(
                duplicate_index=result,
                image_rows=image_rows,
                image_cols=image_cols,
                base_index=match_result,
                contained=contained,
            )
        )
    return ContainmentReport(entries=tuple(entries), ok=all(e.contained for e in entries))
