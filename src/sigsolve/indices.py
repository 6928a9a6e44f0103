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
distance 1/20 of the component, measured by hull-distance LPs on the
integer-scaled mixes. A draw whose strict-dominance core or nearby equilibria
are degenerate is redrawn, up to 16 draws per replication. Only the seed is
settable. Components with non-zero index are essential, so the replication
sums agree for small enough perturbations; disagreement is reported, never
papered over.
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


def _distance_to_component(eq: MixedEquilibrium, component: Component) -> Fraction:
    best = None
    for subset in component.subsets:
        d_row = linf_distance_to_hull(eq.row_mix, subset.row_face)
        d_col = linf_distance_to_hull(eq.col_mix, subset.col_face)
        dist = max(d_row, d_col)
        if best is None or dist < best:
            best = dist
    return best


def _perturbed_game(gamma: BimatrixGame, rng: random.Random) -> BimatrixGame:
    """`gamma` with k/10^6 added to every payoff, k drawn uniformly from
    [-1000, 1000]: u1 then u2 of each cell, row by row."""
    scale = 10**6
    bound = int(PerturbationConfig.magnitude * scale)

    def shifted(u: Fraction) -> Fraction:
        return Fraction(u.numerator * scale + rng.randint(-bound, bound) * u.denominator, u.denominator * scale)

    return replace(gamma, cells=tuple(tuple((shifted(u1), shifted(u2)) for (u1, u2) in row) for row in gamma.cells))


def component_index(
    gamma: BimatrixGame,
    component: Component,
    cfg: PerturbationConfig = PerturbationConfig(),
) -> IndexResult:
    """Index of a component: the determinant index when it is a single
    regular equilibrium, the perturbation index otherwise."""
    if len(component.extremes) == 1:
        try:
            return equilibrium_index(gamma, component.extremes[0])
        except DegenerateEquilibriumError:
            pass
    return _perturbation_index(gamma, component, cfg)


def _perturbation_index(gamma: BimatrixGame, component: Component, cfg: PerturbationConfig) -> IndexResult:
    """The modal sum, over replications, of the determinant indices of the
    perturbed equilibria within `cfg.neighborhood` of the component."""
    sums = []
    for rep in range(cfg.replications):
        total = None
        for attempt in range(cfg.attempts):
            rng = random.Random(f"{cfg.seed}:{rep}:{attempt}")
            perturbed = _perturbed_game(gamma, rng)
            result = enumerate_extreme_equilibria(perturbed)
            if result.degenerate:
                continue
            try:
                total = sum(
                    equilibrium_index(perturbed, eq).value
                    for eq in result
                    if _distance_to_component(eq, component) <= cfg.neighborhood
                )
            except DegenerateEquilibriumError:
                continue
            break
        if total is None:
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
    components = solve_components(gamma)
    results = tuple(component_index(gamma, comp, cfg) for comp in components)
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
    base_results = [component_index(gamma_base, comp, cfg) for comp in base_components]
    entries = []
    for comp in solve_components(gamma0):
        result = component_index(gamma0, comp, cfg)
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
