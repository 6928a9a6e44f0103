#!/usr/bin/env python3
"""End-to-end beer-quiche run: tables, components, indices, cost sweep,
survival threshold, and the small-cost closeness bound.

Writes the sweep CSV next to the chosen output directory and prints every
table and report to stdout. Deterministic: the index draws use the default seed.
"""

import argparse
from fractions import Fraction
from pathlib import Path

from sigsolve.catalog import beer_quiche
from sigsolve.cli import render_outcome, render_table, write_sweep_csv
from sigsolve.equilibrium import component_outcome, solve_components
from sigsolve.indices import DrawStore, PerturbationConfig, component_index, duplicate_containment_check
from sigsolve.normalform import build_normal_form, embed_map, monitored_form, reduced_sgcm
from sigsolve.rational import sqrt_decimal
from sigsolve.sweep import (
    component_ids,
    cost_sweep,
    distance_scaling,
    survival_threshold,
    verify_theorem_bound,
)

COST = Fraction(1, 20)  # the showcase cost of the reduced table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=".", help="where to write sweep.csv")
    args = parser.parse_args()
    game = beer_quiche()
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out-dir {args.out_dir}: {exc.strerror}")

    cfg = PerturbationConfig()

    print("== base normal form ==")
    gamma = build_normal_form(game)
    print(render_table(gamma, classic=True))

    print(f"\n== reduced monitored form at c={COST} ==")
    print(render_table(reduced_sgcm(game, COST), classic=True, cost=COST))

    print("\n== components of the base game ==")
    components = solve_components(gamma)
    draws = DrawStore(gamma, cfg)
    for cid, comp in zip(component_ids(components), components):
        report = component_outcome(game, comp)
        index = component_index(gamma, comp, cfg, draws)
        print(
            f"{cid}: {report.classification}, outcome {render_outcome(report.outcome)}, payoffs "
            f"({report.payoffs[0]}, {report.payoffs[1]}), "
            f"index {index.value:+d} (agreement {index.agreement})"
        )

    print("\n== zero-cost duplicate containment ==")
    gamma0 = monitored_form(game, gamma)
    containment = duplicate_containment_check(gamma0, gamma, embed_map(gamma0), cfg)
    for entry in containment.entries:
        print(
            f"duplicate-game index {entry.duplicate_index.value:+d} maps onto base index "
            f"{entry.base_index.value:+d}: {'contained' if entry.contained else 'MISSING'}"
        )

    print("\n== cost sweep toward zero ==")
    records = cost_sweep(game, "C0", c_min=Fraction(0), c_max=Fraction(1, 8), steps=8)
    out_path = out_dir / "sweep.csv"
    write_sweep_csv(records, str(out_path), classic=True)
    for rec in records:
        print(
            f"c={rec.c!s:>7}: found={int(rec.found)} monitor={rec.monitor_probability!s:>3} "
            f"distance={sqrt_decimal(rec.squared_distance)}"
        )
    scaling = distance_scaling(records)
    print(f"squared distance / c^2 = {scaling}")
    print(f"sweep written to {out_path}")

    print("\n== survival threshold of the beer component ==")
    threshold = survival_threshold(game, "C0")
    print(
        f"bracket [{threshold.last_surviving}, "
        f"{threshold.first_failing}], width {threshold.bracket_width}"
    )

    print("\n== closeness bound at epsilon = 1/20 ==")
    evidence = verify_theorem_bound(game, "C0", Fraction(1, 20), index_cfg=cfg)
    print(f"c_epsilon = {evidence.c_epsilon}")


if __name__ == "__main__":
    main()
