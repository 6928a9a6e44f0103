"""Equilibrium and component indices.

Regular equilibria get the determinant index: the sign of the product of the
two support-restricted payoff determinants, read on the game's cached integer
view of each player's payoffs (the one the enumerator read) shifted to at
least 1, times (-1)^(k+1) for support size k. The sign convention makes every
pure strict equilibrium +1 and the indices of a nondegenerate game sum to +1.

Components get a sampling index by one fixed procedure: in each of 20
replications, add to every payoff a multiple of 1/10^6 drawn uniformly from
[-1/1000, 1/1000], each perturbed payoff built as one Fraction, re-enumerate,
and sum the determinant indices of the perturbed equilibria within max-norm
distance 1/20 of the component. A perturbed equilibrium is far from a Nash
subset when it lies more than 1/20 outside the box around either face
(each coordinate's range over the face's vertices); otherwise its distance
comes from hull-distance LPs on the integer-scaled mixes. A draw whose
strict-dominance core or nearby equilibria are degenerate is redrawn, up to
16 draws per replication. Only the seed is settable. The draws do not depend
on the component, so the components of one game, indexed in one call, share
them through a `DrawStore`: each draw is perturbed and enumerated once, and
each nearby equilibrium's determinant index is computed once. Components
with non-zero index are essential, so the replication sums agree for small
enough perturbations; disagreement is reported, never papered over.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar

from .equilibrium import (
    Component,
    Mix,
    MixedEquilibrium,
    enumerate_extreme_equilibria,
    solve_components,
)
from .linalg import determinant, linf_distance_to_hull
from .normalform import BimatrixGame, EmbedMap, deep_representative

ZERO = Fraction(0)
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


def equilibrium_index(gamma: BimatrixGame, eq: MixedEquilibrium) -> IndexResult:
    """Determinant index of a regular equilibrium.

    Regularity is enforced: equal support sizes, best-response sets equal to
    the supports, and nonsingular support-restricted payoff blocks, all on
    the game's integer views, which enumerating it already computed. Scaling
    keeps the best responses, so they are compared in integers against each
    mix times the lcm of its denominators; at value v > 0, det(A_ST + sJ) = det(A_ST)(v + s)/v, so no
    positive shift s changes a sign or makes a block singular (Shapley 1974).
    """
    m, n = gamma.shape
    rows = [i for i in range(m) if eq.row_mix[i] > 0]
    cols = [j for j in range(n) if eq.col_mix[j] > 0]
    if len(rows) != len(cols):
        raise DegenerateEquilibriumError(
            f"support sizes differ ({len(rows)} rows vs {len(cols)} cols); use component_index"
        )
    receiver, _, a_shift = gamma.receiver_integers
    sender, _, b_shift = gamma.sender_integers
    x, y = _integer_mix(eq.row_mix), _integer_mix(eq.col_mix)
    row_values = [sum(a * yj for a, yj in zip(row, y) if yj) for row in receiver]
    col_values = [sum(row[j] * xi for row, xi in zip(sender, x) if xi) for j in range(n)]
    if set(rows) != {i for i in range(m) if row_values[i] == max(row_values)}:
        raise DegenerateEquilibriumError("row best responses extend beyond the support")
    if set(cols) != {j for j in range(n) if col_values[j] == max(col_values)}:
        raise DegenerateEquilibriumError("col best responses extend beyond the support")
    det_receiver = determinant([[receiver[i][j] + a_shift for j in cols] for i in rows])
    det_sender = determinant([[sender[i][j] + b_shift for j in cols] for i in rows])
    if det_receiver == 0 or det_sender == 0:
        raise DegenerateEquilibriumError("singular support-restricted payoff block")
    sign = 1 if det_receiver * det_sender > 0 else -1
    value = sign * (-1 if len(rows) % 2 == 0 else 1)
    return IndexResult(value=value, method="determinant", replications=0, agreement=ONE)


def _box(face: tuple[Mix, ...]) -> tuple[Mix, Mix]:
    """The least and the greatest weight of each coordinate over a face's vertices."""
    coordinates = list(zip(*face))
    return tuple(map(min, coordinates)), tuple(map(max, coordinates))


def _box_distance(point: Mix, box: tuple[Mix, Mix]) -> Fraction:
    """The most any coordinate of a point lies outside the box [lows, highs]
    around a face (at most 0 inside it). The face's hull lies in its box, so
    the point's distance to the hull is at least this."""
    lows, highs = box
    return max(max(lo - w, w - hi) for w, lo, hi in zip(point, lows, highs))


def _near(eq: MixedEquilibrium, screens, radius: Fraction) -> bool:
    """Whether an equilibrium lies within max-norm `radius` of a Nash subset.

    `screens` pairs each subset with the boxes around its faces. A subset
    whose box bound exceeds the radius on either side is far without an LP.
    For the others the row hull LP runs first, the col LP only when the row
    side is within range, and the first subset within range settles it.
    """
    for subset, row_box, col_box in screens:
        if _box_distance(eq.row_mix, row_box) > radius or _box_distance(eq.col_mix, col_box) > radius:
            continue
        if linf_distance_to_hull(eq.row_mix, subset.row_face) > radius:
            continue
        if linf_distance_to_hull(eq.col_mix, subset.col_face) <= radius:
            return True
    return False


def _perturbed_game(gamma: BimatrixGame, rng: random.Random) -> BimatrixGame:
    """`gamma` with k/10^6 added to every payoff, k drawn uniformly from
    [-1000, 1000]: u1 then u2 of each cell, row by row."""
    scale = 10**6
    bound = int(PerturbationConfig.magnitude * scale)

    def shifted(u: Fraction) -> Fraction:
        return Fraction(u.numerator * scale + rng.randint(-bound, bound) * u.denominator, u.denominator * scale)

    return replace(gamma, cells=tuple(tuple((shifted(u1), shifted(u2)) for (u1, u2) in row) for row in gamma.cells))


class _Draw:
    """A perturbed game whose strict-dominance core is nondegenerate, its
    extreme equilibria, and the determinant index of each one asked about."""

    def __init__(self, perturbed: BimatrixGame, equilibria: tuple[MixedEquilibrium, ...]):
        self.perturbed = perturbed
        self.equilibria = equilibria
        self._indices: dict[int, int | None] = {}

    def index(self, k: int) -> int | None:
        """The determinant index of equilibrium k; None when it is not regular."""
        if k not in self._indices:
            try:
                self._indices[k] = equilibrium_index(self.perturbed, self.equilibria[k]).value
            except DegenerateEquilibriumError:
                self._indices[k] = None
        return self._indices[k]

    def near_sum(self, screens, radius: Fraction) -> int | None:
        """The sum of the indices of the equilibria within `radius` of the
        screened subsets; None at the first of them that is not regular."""
        total = 0
        for k, eq in enumerate(self.equilibria):
            if _near(eq, screens, radius):
                value = self.index(k)
                if value is None:
                    return None
                total += value
        return total


class DrawStore:
    """The perturbation draws of one game under one config, for one call.

    Draw (rep, attempt) is seeded by `Random(f"{seed}:{rep}:{attempt}")`,
    which does not depend on the component, so every component of the game
    reads the same draws. The store perturbs and enumerates each draw at
    most once, when a component first asks for it, and keeps it for as long
    as the store lives: a caller that indexes several components of one game
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
            perturbed = _perturbed_game(self.gamma, random.Random(f"{self.cfg.seed}:{rep}:{attempt}"))
            result = enumerate_extreme_equilibria(perturbed)
            self._draws[key] = None if result.degenerate else _Draw(perturbed, result.equilibria)
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
    screens = [(subset, _box(subset.row_face), _box(subset.col_face)) for subset in component.subsets]
    sums = []
    for rep in range(cfg.replications):
        for attempt in range(cfg.attempts):
            draw = draws.draw(rep, attempt)
            total = None if draw is None else draw.near_sum(screens, cfg.neighborhood)
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
