"""Command line front end: table rendering, sweep CSVs and the subcommands,
which read game files through `gamefile`.

Subcommands: validate, nf, sgcm, solve, sweep, threshold, theorem.
Exit status: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .equilibrium import (
    component_outcome,
    enumerate_extreme_equilibria,
    group_components,
    maximal_nash_subsets,
)
from .game import ReceiverStrategy, ReceiverStrategyC, SenderStrategy, SignalingGame
from .gamefile import GameFileError, load_game

# Nothing here serializes a game; perfbench/workloads.py reads
# `cli.serialize_game`.
from .gamefile import serialize_game  # noqa: F401
from .indices import DegenerateDrawsError, DrawStore, PerturbationConfig, component_index, index_sum_ok
from .normalform import (
    BimatrixGame,
    StrategyClass,
    build_normal_form,
    build_sgcm_normal_form,
    monitor_bit,
    reduce_normal_form,
    reduced_sgcm,
)
from .rational import format_compact, parse_rational, sqrt_decimal
from .sweep import (
    NoSurvivalError,
    SweepRecord,
    UnknownComponentError,
    component_ids,
    cost_sweep,
    distance_scaling,
    survival_threshold,
    verify_theorem_bound,
)


@dataclass(frozen=True)
class CommandResult:
    status: int
    text: str
    summary: dict


# --- label rendering -------------------------------------------------------

_CLASSIC_SHAPE = (("S", "W"), ("B", "Q"), ("F", "N"))


def _classic_labels(game: SignalingGame) -> bool:
    return (game.types, game.messages, game.actions) == _CLASSIC_SHAPE


def render_label(label: object, classic: bool) -> str:
    """The text of a strategy or class label, the only place one is made.

    A strategy lists its choices, comma-separated when some name is longer
    than one letter; a monitored receiver strategy lists its monitor bit,
    replies and default the same way. A class shows its representative with
    '*' for the choices that never reach play: the default of a monitoring
    class, the replies of a free one; a class without a common monitor bit
    shows it whole. Any other label prints as itself.

    The classic beer-quiche convention lists the quiche action before the
    beer action, with the unmonitored default squeezed between the monitor
    flag (C or 0) and the action pair.
    """
    if isinstance(label, StrategyClass):
        rep, bit = label.representative, monitor_bit(label)
        if bit is None:
            return render_label(rep, classic)
        if bit:
            return _monitored(bit, rep.on_message, "*", classic)
        return _monitored(bit, ("*",) * len(rep.on_message), rep.default, classic)
    if isinstance(label, ReceiverStrategyC):
        return _monitored(label.monitor, label.on_message, label.default, classic)
    if isinstance(label, ReceiverStrategy):
        return _joined(label.actions[::-1] if classic else label.actions)
    if isinstance(label, SenderStrategy):
        return _joined(label.messages)
    return str(label)


def _joined(names: tuple[str, ...]) -> str:
    return "".join(names) if all(len(n) == 1 for n in names) else ",".join(names)


def _monitored(bit: int, on_message: tuple[str, ...], default: str, classic: bool) -> str:
    if classic:
        return f"{'C' if bit else '0'}{default}{''.join(on_message[::-1])}"
    return _joined((str(bit), *on_message, default))


def render_table(gamma: BimatrixGame, classic: bool, cost: Fraction | None = None) -> str:
    """Aligned grid of (sender, receiver) payoff cells; given the monitoring
    cost, the rows that pay it show the receiver payoff as 'base-c'."""
    col_names = [render_label(lbl, classic) for lbl in gamma.col_labels]
    row_names = [render_label(lbl, classic) for lbl in gamma.row_labels]
    rows = []
    for i in range(len(gamma.row_labels)):
        pays_cost = cost is not None and monitor_bit(gamma.row_labels[i])
        cells = []
        for j in range(len(gamma.col_labels)):
            u1, u2 = gamma.cells[i][j]
            if pays_cost:
                base = u2 + cost
                shown = "-c" if base == 0 else f"{format_compact(base)}-c"
                cells.append(f"({format_compact(u1)}, {shown})")
            else:
                cells.append(f"({format_compact(u1)}, {format_compact(u2)})")
        rows.append(cells)
    widths = [
        max(len(col_names[j]), max(len(rows[i][j]) for i in range(len(rows))))
        for j in range(len(col_names))
    ]
    name_width = max(len(name) for name in row_names)
    lines = [" " * name_width + "  " + "  ".join(n.rjust(widths[j]) for j, n in enumerate(col_names))]
    for name, cells in zip(row_names, rows):
        lines.append(name.ljust(name_width) + "  " + "  ".join(c.rjust(widths[j]) for j, c in enumerate(cells)))
    return "\n".join(lines)


def render_mix(mix, labels, classic: bool) -> str:
    parts = [
        f"{w}*{render_label(lbl, classic)}"
        for lbl, w in zip(labels, mix)
        if w > 0
    ]
    return " + ".join(parts)


def render_outcome(outcome: dict[tuple, Fraction]) -> str:
    parts = []
    for play, mass in outcome.items():
        if mass > 0:
            parts.append(f"{mass}*({','.join(str(x) for x in play)})")
    return " + ".join(parts)


def write_sweep_csv(records: list[SweepRecord], path: str, classic: bool = False) -> None:
    """Header plus one row per cost; rationals as 'p/q', roots to 12 digits."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "c",
                "found",
                "monitor_prob",
                "squared_distance",
                "distance_decimal",
                "u1",
                "u2",
                "sender_support",
                "receiver_support",
            ]
        )
        for rec in records:
            writer.writerow(
                [
                    rec.c,
                    "1" if rec.found else "0",
                    rec.monitor_probability,
                    rec.squared_distance,
                    sqrt_decimal(rec.squared_distance),
                    rec.payoffs[0],
                    rec.payoffs[1],
                    "+".join(render_label(l, classic) for l in rec.sender_support),
                    "+".join(render_label(l, classic) for l in rec.receiver_support),
                ]
            )


# --- subcommands -----------------------------------------------------------


def _cmd_validate(args) -> CommandResult:
    try:
        game = load_game(args.game)
    except GameFileError as exc:
        return CommandResult(1, f"invalid: {exc}", {"ok": False, "error": str(exc)})
    return CommandResult(0, "ok", {"ok": True, "types": list(game.types)})


def _cmd_nf(args) -> CommandResult:
    game = load_game(args.game)
    classic = _classic_labels(game)
    gamma = build_normal_form(game)
    lines = []
    if args.reduce:
        gamma, _ = reduce_normal_form(gamma)
        lines.append(f"reduced normal form ({len(gamma.row_labels)}x{len(gamma.col_labels)})")
    else:
        lines.append(f"normal form ({len(gamma.row_labels)}x{len(gamma.col_labels)})")
    lines.append(render_table(gamma, classic))
    return CommandResult(0, "\n".join(lines), {"rows": len(gamma.row_labels), "cols": len(gamma.col_labels)})


def _cmd_sgcm(args) -> CommandResult:
    game = load_game(args.game)
    classic = _classic_labels(game)
    cost = parse_rational(args.cost)
    lines = []
    if args.reduce:
        gamma = reduced_sgcm(game, cost)
        lines.append(f"reduced monitored normal form at c={cost} ({len(gamma.row_labels)} rows)")
        for cls in gamma.row_labels:
            members = ", ".join(render_label(m, classic) for m in cls.members)
            lines.append(f"  class {render_label(cls, classic)} <- {members}")
    else:
        gamma = build_sgcm_normal_form(game, cost)
        lines.append(f"monitored normal form at c={cost} ({len(gamma.row_labels)} rows)")
    lines.append(render_table(gamma, classic, cost if args.symbolic else None))
    return CommandResult(0, "\n".join(lines), {"rows": len(gamma.row_labels), "cost": str(cost)})


def _cmd_solve(args) -> CommandResult:
    game = load_game(args.game)
    classic = _classic_labels(game)
    cost = parse_rational(args.cost) if args.cost is not None else None
    if cost is None:
        gamma = build_normal_form(game)
    else:
        gamma = reduced_sgcm(game, cost)
    lines = []
    summary: dict = {"cost": str(cost) if cost is not None else None}
    equilibria = enumerate_extreme_equilibria(gamma)
    lines.append(f"extreme equilibria: {len(equilibria)}")
    for k, eq in enumerate(equilibria):
        lines.append(
            f"  E{k}: sender {render_mix(eq.col_mix, gamma.col_labels, classic)}"
            f" | receiver {render_mix(eq.row_mix, gamma.row_labels, classic)}"
            f" | payoffs ({eq.payoffs[0]}, {eq.payoffs[1]})"
        )
    if args.components or args.index:
        components = group_components(maximal_nash_subsets(equilibria), gamma)
        ids = component_ids(components)
        summary["components"] = len(components)
        if args.index:
            cfg = PerturbationConfig(seed=args.seed)
            draws = DrawStore(gamma, cfg)
            results = []
        for cid, comp in zip(ids, components):
            report = component_outcome(game, comp)
            lines.append(f"component {cid}:")
            lines.append(f"  sender support: {', '.join(render_label(l, classic) for l in comp.col_support())}")
            lines.append(f"  receiver support: {', '.join(render_label(l, classic) for l in comp.row_support())}")
            if report.constant:
                lines.append(f"  outcome: {render_outcome(report.outcome)}")
                if report.classification:
                    lines.append(f"  classification: {report.classification}")
                lines.append(
                    f"  payoffs: ({report.payoffs[0]}, {report.payoffs[1]})"
                )
            else:
                lines.append("  outcome: NOT CONSTANT (game is not generic)")
            if args.index:
                result = component_index(gamma, comp, cfg, draws)
                results.append(result)
                flag = " INDETERMINATE" if result.indeterminate else ""
                lines.append(
                    f"  index: {result.value:+d} ({result.method}, R={result.replications},"
                    f" agreement={result.agreement}, seed={cfg.seed}){flag}"
                )
        if args.index:
            total = sum(r.value for r in results)
            lines.append(f"index sum: {total:+d} ({'ok' if index_sum_ok(results) else 'UNEXPECTED'})")
            summary["indices"] = [r.value for r in results]
            summary["index_sum"] = total
    return CommandResult(0, "\n".join(lines), summary)


def _cmd_sweep(args) -> CommandResult:
    game = load_game(args.game)
    classic = _classic_labels(game)
    c_min, c_max = parse_rational(args.cmin), parse_rational(args.cmax)
    expected = parse_rational(args.check_coefficient) if args.check_coefficient is not None else None
    open(args.out, "a").close()  # fail on an unwritable --out before solving; append mode truncates nothing
    records = cost_sweep(game, args.component, c_min, c_max, args.steps)
    write_sweep_csv(records, args.out, classic)
    lines = [f"wrote {len(records)} records to {args.out}"]
    scaling = distance_scaling(records)
    if scaling is not None:
        lines.append(f"distance scaling: squared_distance = {scaling} * c^2")
    else:
        lines.append("distance scaling: not a constant multiple of c^2 over this grid")
    if expected is not None:
        if scaling == expected:
            lines.append(f"scaling coefficient matches {expected}")
        elif scaling is None:
            lines.append(f"DISCREPANCY: no constant squared_distance/c^2 to compare with the stated {expected}")
        else:
            lines.append(
                "DISCREPANCY: measured squared-distance coefficient "
                f"{scaling} differs from the stated {expected}"
            )
    summary = {
        "records": len(records),
        "out": args.out,
        "scaling_constant": str(scaling) if scaling is not None else None,
    }
    return CommandResult(0, "\n".join(lines), summary)


def _cmd_threshold(args) -> CommandResult:
    game = load_game(args.game)
    try:
        result = survival_threshold(game, args.component)
    except NoSurvivalError as exc:
        lines = [str(exc)]
        for rec in exc.records:
            lines.append(
                f"  c={rec.c}: payoffs ({rec.payoffs[0]}, {rec.payoffs[1]}), squared distance {rec.squared_distance}"
            )
        return CommandResult(1, "\n".join(lines), {"survives": False})
    if result.first_failing is None:
        text = f"survives at c = {result.last_surviving}, the largest grid cost; smaller costs were not checked"
    else:
        text = (
            f"last surviving c = {result.last_surviving}\n"
            f"first failing c = {result.first_failing}\n"
            f"bracket width = {result.bracket_width}"
        )
    summary = {
        "last_surviving": str(result.last_surviving),
        "first_failing": str(result.first_failing) if result.first_failing is not None else None,
    }
    return CommandResult(0, text, summary)


def _cmd_theorem(args) -> CommandResult:
    game = load_game(args.game)
    epsilon = parse_rational(args.epsilon)
    evidence = verify_theorem_bound(game, args.component, epsilon, index_cfg=PerturbationConfig(seed=args.seed))
    lines = [
        f"component index: {evidence.index_result.value:+d}"
        f" (agreement={evidence.index_result.agreement}, seed={args.seed})"
    ]
    if evidence.index_warning:
        lines.append("warning: zero or indeterminate index; no survival guarantee applies")
    if evidence.c_epsilon is None:
        lines.append(f"no cost bound found: sampled costs violate distance < {args.epsilon}")
        status = 0 if evidence.index_warning else 1
    else:
        lines.append(f"c_epsilon = {evidence.c_epsilon}")
        status = 0
    for rec in evidence.records:
        marker = "pass" if rec.squared_distance < epsilon * epsilon else "fail"
        lines.append(
            f"  c={rec.c}: distance {sqrt_decimal(rec.squared_distance)} [{marker}]"
        )
    summary = {
        "c_epsilon": str(evidence.c_epsilon) if evidence.c_epsilon is not None else None,
        "index": evidence.index_result.value,
    }
    return CommandResult(status, "\n".join(lines), summary)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="sigsolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file against the model invariants")
    p.add_argument("game")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("nf", help="normal form table")
    p.add_argument("game")
    p.add_argument("--reduce", action="store_true")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("sgcm", help="monitored normal form table at a cost")
    p.add_argument("game")
    p.add_argument("--cost", required=True, help="monitoring cost, e.g. 1/20")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--symbolic", action="store_true", help="show monitoring rows as 'base-c'")
    p.set_defaults(func=_cmd_sgcm)

    p = sub.add_parser("solve", help="enumerate equilibria, components, indices")
    p.add_argument("game")
    p.add_argument("--cost", help="solve the reduced monitored form at this cost")
    p.add_argument("--components", action="store_true")
    p.add_argument("--index", action="store_true")
    p.add_argument("--seed", type=int, default=PerturbationConfig().seed)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="cost sweep against a base component")
    p.add_argument("game")
    p.add_argument("--component", required=True)
    p.add_argument("--cmin", required=True)
    p.add_argument("--cmax", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check-coefficient", help="flag a discrepancy unless squared_distance/c^2 equals this")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="bisect the survival threshold of a component")
    p.add_argument("game")
    p.add_argument("--component", required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("theorem", help="epsilon-closeness evidence for small costs")
    p.add_argument("game")
    p.add_argument("--component", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--seed", type=int, default=PerturbationConfig().seed)
    p.set_defaults(func=_cmd_theorem)
    return parser


def run_command(argv: list[str]) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, "", {"error": "usage"} if code else {})
    try:
        return args.func(args)
    except UnknownComponentError as exc:
        return CommandResult(2, f"usage error: {exc}", {"error": str(exc)})
    except GameFileError as exc:
        return CommandResult(1, f"game file error: {exc}", {"error": str(exc)})
    except (ValueError, OSError, DegenerateDrawsError) as exc:
        return CommandResult(1, f"error: {exc}", {"error": str(exc)})


def main(argv: list[str] | None = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.text:
        try:
            print(result.text, flush=True)
        except BrokenPipeError:  # the reader left (`| head`); the exit flush must not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return result.status


if __name__ == "__main__":
    sys.exit(main())
