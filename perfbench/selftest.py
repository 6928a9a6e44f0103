#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and checks on the beer-quiche workload.

    python3 perfbench/selftest.py

Checks that:
- the tracer sees calls made through every binding of a traced function,
  with exact counts that follow from the commands' definitions (for example
  8 `sweep.evaluate_cost` calls for an 8-step sweep);
- two traced passes give identical counts;
- each command's output is byte-identical with tracing on and off;
- uninstalling the tracer restores every original binding;
- a degenerate random-bimatrix draw is detected and redrawn, and digests
  recorded after a redraw match a later run that redraws.

Exits 0 when every check holds and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import sigsolve  # noqa: E402
from sigsolve import equilibrium, indices, normalform  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, counts  # noqa: E402

SEED = 1
REPLICATIONS = indices.PerturbationConfig().replications

# Exact counts per beer-quiche op that follow from the command definitions.
EXPECTED = {
    "solve_index": {"indices.component_index_calls": 2, "sweep.evaluate_cost_calls": 0},
    "solve_cost": {"indices.component_index_calls": 1, "indices.perturbed_enumerations": 0,
                   "linalg.determinant_calls": 2},
    # 8 grid costs, each priced once.
    "sweep": {"sweep.evaluate_cost_calls": 8, "sweep.resolve_base_calls": 1,
              "indices.component_index_calls": 0},
    # Halving grid from 1/4: fails at 1/4 and 1/8, survives at 1/16; then six
    # bisection steps shrink the bracket from 1/16 to 1/1024 <= 1/1000.
    "threshold": {"sweep.evaluate_cost_calls": 9, "sweep.resolve_base_calls": 1},
    "theorem_C0": {"sweep.evaluate_cost_calls": 10, "indices.component_index_calls": 1},
    "theorem_C1": {"sweep.evaluate_cost_calls": 10, "indices.component_index_calls": 1},
}
# Perturbation indices computed by each op; each takes at least one perturbed
# enumeration per replication, and more only for redraws.
PERTURBATION_INDICES = {"solve_index": 2, "theorem_C0": 1, "theorem_C1": 1}


class Failures(list):
    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)


def traced_pass(workload, tracer: Tracer) -> tuple[dict, dict]:
    """Per-op metrics and output digests of one traced pass."""
    per_op, digests = {}, {}
    for op in workload.ops:
        tracer.reset()
        output = op.run()
        per_op[op.slot] = counts(tracer.layer_metrics())
        digests[op.slot] = op.digest(output)
    return per_op, digests


def check_counts(per_op: dict, failures: Failures) -> None:
    for slot, expected in EXPECTED.items():
        for name, value in expected.items():
            got = per_op[slot][name]
            failures.expect(got == value, f"{slot}: {name} = {got}, expected {value}")
    for slot, count in PERTURBATION_INDICES.items():
        metrics = per_op[slot]
        failures.expect(
            metrics["indices.perturbed_enumerations"] == count * REPLICATIONS + metrics["indices.redraws"],
            f"{slot}: perturbed enumerations {metrics['indices.perturbed_enumerations']} are not "
            f"{count} x {REPLICATIONS} plus {metrics['indices.redraws']} redraws",
        )
        # Calls through the bindings that `indices` imported from other modules.
        failures.expect(metrics["linalg.hull_lp_calls"] > 0, f"{slot}: no hull LP calls traced")
    # `sqrt_decimal` is reached only through the `game` and `sweep` bindings.
    failures.expect(per_op["sweep"]["rational.sqrt_decimal_calls"] >= 8,
                    f"sweep: {per_op['sweep']['rational.sqrt_decimal_calls']} sqrt_decimal calls, expected >= 8")


def degenerate_first_game(work: Path):
    """A random-bimatrix workload cut to its first op, whose game is degenerate."""
    workload = workloads.random_games(0, work)
    workload.ops = workload.ops[:1]
    flat = (Fraction(1), Fraction(1))
    workload.games[workload.ops[0].slot] = normalform.BimatrixGame(
        ("r0", "r1"), ("c0", "c1"), ((flat, flat), (flat, flat)))
    return workload


def check_redraw(work: Path, failures: Failures) -> None:
    workload = degenerate_first_game(work)
    before = workload.inputs_sha256
    session = run.Session(workload, None)
    run.first_pass(session)
    failures.expect(workload.notes["redraws"] == 1, "the degenerate draw was not redrawn once")
    failures.expect(workload.inputs_sha256 != before, "the redraw did not change the recorded inputs")
    failures.expect(not session.failed, f"the redrawn game fails its checks: {session.problems}")
    # A reference recorded after a redraw must match a later run that redraws.
    recorded = {"inputs": workload.inputs_sha256, "outputs": session.digests}
    again = run.Session(degenerate_first_game(work), recorded)
    run.first_pass(again)
    failures.expect(not again.failed, f"a redrawn run does not match its recorded digests: {again.problems}")


def main() -> int:
    os.chdir(ROOT)
    work = Path(".perfbench_work") / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    failures = Failures()

    workload = workloads.beerquiche(SEED, work)
    untraced = {op.slot: op.digest(op.run()) for op in workload.ops}

    original = equilibrium.enumerate_extreme_equilibria
    tracer = Tracer()
    tracer.install()
    try:
        first, first_digests = traced_pass(workload, tracer)
        second, second_digests = traced_pass(workload, tracer)
    finally:
        tracer.uninstall()

    check_counts(first, failures)
    failures.expect(first == second, "two traced passes gave different counts")
    for slot, digest in untraced.items():
        failures.expect(first_digests[slot] == digest, f"{slot}: traced output differs from untraced output")
        failures.expect(second_digests[slot] == digest, f"{slot}: second traced output differs")
    failures.expect(
        tracer.wrapped["equilibrium.enumerate_extreme_equilibria"] >= 5,
        "enumerate_extreme_equilibria was not patched at every binding",
    )
    for module in (sigsolve, equilibrium, indices, sys.modules["sigsolve.sweep"], sys.modules["sigsolve.cli"]):
        failures.expect(
            module.enumerate_extreme_equilibria is original,
            f"{module.__name__}.enumerate_extreme_equilibria was not restored",
        )
    check_redraw(work, failures)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{'ok' if not failures else 'failed'}: {len(EXPECTED)} ops, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
