"""Benchmark workloads: seeded input generators, operations and output checks.

A workload is built from a seed and a work directory. Paths are relative to
the checkout root, which is the working directory, so outputs that echo a
path do not depend on where the checkout lives. Building it generates
the inputs, writes them into the work directory and records their digest.
Its `ops` form one pass. Each op has a `run` step, which is the timed call
into sigsolve, and a `check` step, which runs outside the timed section and
returns the problems found in the output.

The workloads call sigsolve through module attributes, such as
`cli.run_command` and `equilibrium.enumerate_extreme_equilibria`, so a
tracer that rebinds those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from sigsolve import cli, equilibrium, indices, normalform
from sigsolve.game import SignalingGame

ONE_TENTH = Fraction(1, 10)
_SEED_FIELD = re.compile(r"seed=\d+")


@dataclass
class Op:
    """One operation of a pass. `stage` names the kind of work it does."""

    slot: str
    stage: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]


@dataclass
class Workload:
    name: str
    seed: int
    inputs_sha256: str
    ops: list[Op]
    notes: dict = field(default_factory=dict)
    games: dict = field(default_factory=dict)  # slot -> game, for inputs built in memory
    redraw: Callable[[str], None] | None = None  # replaces a degenerate draw


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- CLI operations ----------------------------------------------------------


@dataclass(frozen=True)
class CliOutput:
    status: int
    text: str
    summary: dict
    files: tuple[str, ...]


def _cli_op(slot: str, stage: str, argv: list[str], check, out_file: Path | None = None) -> Op:
    def run() -> CliOutput:
        result = cli.run_command(argv)
        files = (out_file.read_text(encoding="utf-8"),) if out_file is not None else ()
        return CliOutput(result.status, result.text, result.summary, files)

    def checked(output: CliOutput) -> list[str]:
        if output.status != 0:
            return [f"{slot}: exit status {output.status}: {output.text[:200]}"]
        return [f"{slot}: {problem}" for problem in check(output)]

    def digest(output: CliOutput) -> str:
        # The perturbation seed is echoed in the text; the results do not
        # depend on it, so it is masked before hashing.
        parts = [str(output.status), _SEED_FIELD.sub("seed=*", output.text), *output.files]
        return sha256_text("\x00".join(parts))

    return Op(slot, stage, run, checked, digest)


def _no_check(output: CliOutput) -> list[str]:
    return []


_INDEX_LINE = re.compile(r"index: ([+-]\d+) \((\w+), R=\d+, agreement=([0-9/]+), seed=\d+\)")
_THEOREM_LINE = re.compile(r"component index: ([+-]\d+) \(agreement=([0-9/]+), seed=\d+\)")


def _component_indices(text: str) -> list[tuple[int, Fraction]]:
    return [(int(v), Fraction(a)) for v, _method, a in _INDEX_LINE.findall(text)]


# --- beerquiche ------------------------------------------------------------


def _expect_indices(expected: list[int]):
    def check(output: CliOutput) -> list[str]:
        found = _component_indices(output.text)
        problems = []
        if [value for value, _ in found] != expected:
            problems.append(f"component indices {[v for v, _ in found]}, expected {expected}")
        if any(agreement != 1 for _, agreement in found):
            problems.append(f"index agreement below 1: {[str(a) for _, a in found]}")
        return problems

    return check


def _expect_theorem_index(expected: int):
    def check(output: CliOutput) -> list[str]:
        match = _THEOREM_LINE.search(output.text)
        if match is None:
            return ["no component index line"]
        value, agreement = int(match.group(1)), Fraction(match.group(2))
        if value != expected or agreement != 1:
            return [f"index {value:+d} with agreement {agreement}, expected {expected:+d} with 1"]
        return []

    return check


def _check_scaling(output: CliOutput) -> list[str]:
    problems = []
    if output.summary.get("records") != 8:
        problems.append(f"{output.summary.get('records')} sweep records, expected 8")
    if output.summary.get("scaling_constant") != "3/2":
        problems.append(f"scaling constant {output.summary.get('scaling_constant')}, expected 3/2")
    return problems


def _check_threshold(output: CliOutput) -> list[str]:
    low = output.summary.get("last_surviving")
    high = output.summary.get("first_failing")
    if low is None or high is None or not Fraction(low) <= ONE_TENTH <= Fraction(high):
        return [f"threshold bracket [{low}, {high}] does not contain 1/10"]
    return []


def beerquiche(seed: int, work: Path) -> Workload:
    """The bundled beer-quiche game through the CLI pipeline."""
    game_path = work / "beerquiche.sg"
    shutil.copyfile(Path("games") / "beerquiche.sg", game_path)
    game = str(game_path)
    csv_path = work / "beerquiche-sweep.csv"
    s = str(seed)
    ops = [
        _cli_op("solve_index", "index_solve", ["solve", game, "--components", "--index", "--seed", s],
                _expect_indices([1, 0])),
        _cli_op("solve_cost", "cost_solve",
                ["solve", game, "--cost", "1/20", "--components", "--index", "--seed", s], _no_check),
        _cli_op("sweep", "sweep",
                ["sweep", game, "--component", "C0", "--cmin", "0", "--cmax", "1/8", "--steps", "8",
                 "--out", str(csv_path)], _check_scaling, out_file=csv_path),
        _cli_op("threshold", "threshold", ["threshold", game, "--component", "C0"], _check_threshold),
        _cli_op("theorem_C0", "theorem",
                ["theorem", game, "--component", "C0", "--epsilon", "1/20", "--seed", s],
                _expect_theorem_index(1)),
        _cli_op("theorem_C1", "theorem",
                ["theorem", game, "--component", "C1", "--epsilon", "1/20", "--seed", s],
                _expect_theorem_index(0)),
    ]
    return Workload("beerquiche", seed, sha256_text(game_path.read_text(encoding="utf-8")), ops)


# --- random-bimatrix ---------------------------------------------------------

# Games per size k (a k x k game). k = 7 dominates the pass; the small sizes
# show fixed costs per call.
RANDOM_SIZES = {3: 4, 4: 4, 5: 3, 6: 2, 7: 2}


def random_bimatrix(seed: int, size: int, number: int, attempt: int) -> normalform.BimatrixGame:
    """Integer payoffs drawn without replacement per player, as in the tests."""
    rng = random.Random(f"random-bimatrix:{seed}:{size}:{number}:{attempt}")
    u1 = rng.sample(range(1000), size * size)
    u2 = rng.sample(range(1000), size * size)
    cells = tuple(
        tuple((Fraction(u1[r * size + c]), Fraction(u2[r * size + c])) for c in range(size))
        for r in range(size)
    )
    return normalform.BimatrixGame(
        row_labels=tuple(f"r{i}" for i in range(size)),
        col_labels=tuple(f"c{j}" for j in range(size)),
        cells=cells,
    )


class DegenerateDraw(Exception):
    """The drawn game is degenerate; the generator draws a replacement."""


@dataclass(frozen=True)
class BimatrixOutput:
    equilibria: tuple
    indices: tuple[int, ...]


def _bimatrix_op(games: dict, size: int, number: int) -> Op:
    slot = f"k{size}_{number}"

    def run() -> BimatrixOutput:
        gamma = games[slot]
        result = equilibrium.enumerate_extreme_equilibria(gamma)
        if result.degenerate:
            raise DegenerateDraw(slot)
        values = tuple(indices.equilibrium_index(gamma, eq).value for eq in result)
        return BimatrixOutput(result.equilibria, values)

    def check(output: BimatrixOutput) -> list[str]:
        gamma = games[slot]
        problems = []
        for eq in output.equilibria:
            if not equilibrium.is_equilibrium(gamma, (eq.row_mix, eq.col_mix)).ok:
                problems.append(f"{slot}: {eq} is not an equilibrium")
        if len(output.equilibria) % 2 != 1:
            problems.append(f"{slot}: {len(output.equilibria)} equilibria, expected an odd count")
        if sum(output.indices) != 1:
            problems.append(f"{slot}: indices sum to {sum(output.indices)}, expected +1")
        return problems

    def digest(output: BimatrixOutput) -> str:
        rows = [(repr(eq.row_mix), repr(eq.col_mix), value) for eq, value in zip(output.equilibria, output.indices)]
        return sha256_text(repr(rows))

    stage = "k7" if size == 7 else "small" if size <= 5 else f"k{size}"
    return Op(slot, stage, run, check, digest)


def _bimatrix_table(gamma: normalform.BimatrixGame) -> list:
    return [[[str(u1), str(u2)] for u1, u2 in row] for row in gamma.cells]


def random_games(seed: int, work: Path) -> Workload:
    """Seeded random k x k games, k = 3..7, enumerated and indexed directly,
    as scripts/random_game_audit.py does.

    The games skip `solve_components`: on a nondegenerate game each
    equilibrium is its own component, and `maximal_nash_subsets` closes over
    every subset of the extreme mixes, so a draw with 11 equilibria takes 8x
    as long as its enumeration. That would make the workload's time depend
    on the draw rather than on the enumerator it is meant to measure.

    A degenerate draw is replaced by the next attempt through `redraw`, as
    the test suite's generator does. Distinct integer payoffs make such
    draws very rare, so the check happens on the first solve rather than as
    an extra enumeration during set-up.
    """
    games: dict = {}
    attempts: dict = {}
    ops = []
    for size, count in RANDOM_SIZES.items():
        for number in range(count):
            slot = f"k{size}_{number}"
            games[slot] = random_bimatrix(seed, size, number, 0)
            attempts[slot] = 0
            ops.append(_bimatrix_op(games, size, number))
    inputs_path = work / "random-bimatrix.json"

    def write_inputs() -> str:
        text = json.dumps({slot: _bimatrix_table(g) for slot, g in games.items()}, sort_keys=True)
        inputs_path.write_text(text, encoding="utf-8")
        return sha256_text(text)

    workload = Workload("random-bimatrix", seed, write_inputs(), ops, notes={"redraws": 0}, games=games)

    def redraw(slot: str) -> None:
        attempts[slot] += 1
        size, number = (int(part) for part in slot[1:].split("_"))
        games[slot] = random_bimatrix(seed, size, number, attempts[slot])
        workload.notes["redraws"] += 1
        workload.inputs_sha256 = write_inputs()

    workload.redraw = redraw
    return workload


# --- monitored-3type -------------------------------------------------------

TYPES = ("A", "B", "C")
MESSAGES = ("X", "Y")
ACTIONS = ("U", "V")

# Generic 3-type/2-message/2-action games drawn once from a uniform
# distribution (distinct integer payoffs per player). The seed jitters each
# template; the signature pins what the jittered game must keep: the number
# of extreme equilibria per base component, which components need the
# perturbation index, a constant outcome on C0 and the reduced SGCM shape.
TEMPLATES = (
    {
        "name": "pooling",
        "prior": (9, 2, 5),
        "sender": (40, 97, 29, 65, 36, 3, 8, 72, 98, 13, 51, 37),
        "receiver": (49, 8, 2, 87, 0, 27, 26, 6, 60, 48, 90, 50),
        "signature": {
            "extremes": [1, 2],
            "perturbation": [False, True],
            "c0_constant": True,
            "sgcm_shape": [6, 8],
        },
    },
    {
        "name": "regular",
        "prior": (1, 9, 3),
        "sender": (60, 63, 54, 73, 81, 49, 28, 30, 29, 93, 71, 59),
        "receiver": (38, 93, 77, 86, 52, 33, 73, 74, 65, 15, 97, 96),
        "signature": {
            "extremes": [1, 1, 1],
            "perturbation": [False, False, False],
            "c0_constant": True,
            "sgcm_shape": [6, 8],
        },
    },
)

MAX_JITTER_ATTEMPTS = 64


def jittered_game(template: dict, seed: int, attempt: int) -> SignalingGame:
    """Payoffs 10*u + j and prior weights 10*w + j with |j| <= 4.

    Jittered payoffs stay distinct, because template payoffs differ by at
    least 1 before scaling.
    """
    rng = random.Random(f"monitored-3type:{seed}:{template['name']}:{attempt}")
    weights = [10 * w + rng.randint(-4, 4) for w in template["prior"]]
    total = sum(weights)
    payoff = {}
    plays = [(t, m, a) for t in TYPES for m in MESSAGES for a in ACTIONS]
    for k, play in enumerate(plays):
        u1 = 10 * template["sender"][k] + rng.randint(-4, 4)
        u2 = 10 * template["receiver"][k] + rng.randint(-4, 4)
        payoff[play] = (Fraction(u1), Fraction(u2))
    return SignalingGame(
        types=TYPES,
        messages=MESSAGES,
        actions=ACTIONS,
        prior={t: Fraction(w, total) for t, w in zip(TYPES, weights)},
        payoff=payoff,
    )


def signature(game: SignalingGame) -> dict:
    """What a jittered game must share with its template."""
    gamma = normalform.build_normal_form(game)
    components = equilibrium.solve_components(gamma)
    perturbation = []
    for comp in components:
        needs = len(comp.extremes) > 1
        if not needs:
            try:
                indices.equilibrium_index(gamma, comp.extremes[0])
            except indices.DegenerateEquilibriumError:
                needs = True
        perturbation.append(needs)
    reduced, _ = normalform.reduce_normal_form(normalform.build_sgcm_normal_form(game, Fraction(1, 20)))
    return {
        "extremes": [len(comp.extremes) for comp in components],
        "perturbation": perturbation,
        "c0_constant": equilibrium.component_outcome(game, components[0]).constant,
        "sgcm_shape": list(reduced.shape),
    }


def _check_index_sum(notes: dict, slot: str):
    def check(output: CliOutput) -> list[str]:
        found = _component_indices(output.text)
        if not found:
            return ["no component index lines"]
        if any(agreement != 1 for _, agreement in found):
            notes["indeterminate"].add(slot)
            return []
        total = sum(value for value, _ in found)
        return [] if total == 1 else [f"index sum {total:+d}, expected +1"]

    return check


def _check_records(expected: int):
    def check(output: CliOutput) -> list[str]:
        records = output.summary.get("records")
        return [] if records == expected else [f"{records} sweep records, expected {expected}"]

    return check


def monitored_games(seed: int, work: Path) -> Workload:
    """Jittered 3-type/2-message/2-action games through the CLI pipeline."""
    ops = []
    texts = []
    notes: dict = {"indeterminate": set(), "jitter_attempts": []}
    s = str(seed)
    for number, template in enumerate(TEMPLATES):
        for attempt in range(MAX_JITTER_ATTEMPTS):
            game = jittered_game(template, seed, attempt)
            if signature(game) == template["signature"]:
                break
        else:
            raise RuntimeError(f"no jitter of template {template['name']} keeps its signature")
        notes["jitter_attempts"].append(attempt + 1)
        text = cli.serialize_game(game)
        texts.append(text)
        path = work / f"monitored-{number}.sg"
        path.write_text(text, encoding="utf-8")
        csv_path = work / f"monitored-{number}-sweep.csv"
        g = str(path)
        ops += [
            _cli_op(f"g{number}_solve_index", "index_solve",
                    ["solve", g, "--components", "--index", "--seed", s],
                    _check_index_sum(notes, f"g{number}_solve_index")),
            _cli_op(f"g{number}_solve_cost", "cost_solve",
                    ["solve", g, "--cost", "1/20", "--components"], _no_check),
            _cli_op(f"g{number}_sweep", "sweep",
                    ["sweep", g, "--component", "C0", "--cmin", "0", "--cmax", "1/8", "--steps", "2",
                     "--out", str(csv_path)], _check_records(2), out_file=csv_path),
        ]
    return Workload("monitored-3type", seed, sha256_text("\n".join(texts)), ops, notes)


WORKLOADS = {
    "beerquiche": beerquiche,
    "random-bimatrix": random_games,
    "monitored-3type": monitored_games,
}
