"""Byte-for-byte CLI output on the bundled fixtures.

Each case compares `run_command` text (and a sweep's CSV) with files under
tests/golden/, named after the fixture and the case, and checks the exit
status the fixture's case table expects.
"""

from pathlib import Path

import pytest

from sigsolve.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "nf": ["nf"],
    "nf_reduce": ["nf", "--reduce"],
    "sgcm": ["sgcm", "--cost", "1/20"],
    "sgcm_reduce_symbolic": ["sgcm", "--cost", "1/20", "--reduce", "--symbolic"],
    "sgcm_zero_reduce": ["sgcm", "--cost", "0", "--reduce"],
    "sgcm_zero_reduce_symbolic": ["sgcm", "--cost", "0", "--reduce", "--symbolic"],
    "solve_components": ["solve", "--components"],
    "solve_cost_components": ["solve", "--cost", "1/20", "--components"],
    # index lines read each component's Nash-subset faces through the hull LPs
    "solve_components_index": ["solve", "--components", "--index"],
    "sweep": ["sweep", "--component", "C0", "--cmin", "0", "--cmax", "1/20", "--steps", "2", "--out", "sweep.csv"],
    "theorem": ["theorem", "--component", "C0", "--epsilon", "1/20"],
    "threshold": ["threshold", "--component", "C0"],
    # binary game 40006's C0 has no constant outcome; its C1 survives only by coincidence
    "sweep_c1": ["sweep", "--component", "C1", "--cmin", "0", "--cmax", "1/20", "--steps", "2", "--out", "sweep.csv"],
    "threshold_c1": ["threshold", "--component", "C1"],
}
SOLVE_CASES = ("solve_components", "solve_cost_components", "solve_components_index")
C0_CASES = tuple(case for case in CASES if not case.endswith("_c1"))
# expected exit status per fixture and case
FIXTURES = {
    "beerquiche": dict.fromkeys(C0_CASES, 0),
    # C0 keeps its outcome only by monitoring, so `threshold` finds no surviving cost
    "three_types": {**dict.fromkeys(C0_CASES, 0), "threshold": 1},
    "two_types_three_messages": dict.fromkeys(SOLVE_CASES, 0),
    "binary_40006": dict.fromkeys(SOLVE_CASES + ("sweep_c1", "threshold_c1"), 0),
}


def game_path(fixture: str) -> str:
    return str(ROOT / "games" / f"{fixture}.sg")


def run_case(fixture: str, case: str) -> str:
    """Run one case in the current directory; the sweep writes sweep.csv there."""
    argv = CASES[case]
    result = run_command([argv[0], game_path(fixture), *argv[1:]])
    assert result.status == FIXTURES[fixture][case], result.text
    return result.text + "\n"


@pytest.mark.parametrize(
    "case, fixture", [(case, fixture) for case in CASES for fixture, cases in FIXTURES.items() if case in cases]
)
def test_cli_output_matches_golden(fixture, case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(fixture, case) == (GOLDEN / f"{fixture}.{case}.txt").read_text(encoding="utf-8")
    if CASES[case][0] == "sweep":
        csv_text = (tmp_path / "sweep.csv").read_bytes()
        assert csv_text == (GOLDEN / f"{fixture}.{case}.csv").read_bytes()


def test_usage_error_leaves_the_parser_reusable():
    """The parser is built once per process; a usage error must not leave
    state behind that changes the next command's output."""
    assert run_command(["solve"]).status == 2
    expected = (GOLDEN / "beerquiche.solve_components_index.txt").read_text(encoding="utf-8")
    assert run_case("beerquiche", "solve_components_index") == expected
