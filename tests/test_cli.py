import csv
import tempfile
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import message_blind_receiver_game

from sigsolve import cli, indices, sweep
from sigsolve.catalog import BEER_QUICHE_TEXT, beer_quiche
from sigsolve.equilibrium import VertexPairs
from sigsolve.cli import (
    GameFileSemanticError,
    GameFileSyntaxError,
    load_game,
    parse_game_file,
    run_command,
    serialize_game,
    write_sweep_csv,
)


def test_parse_beer_quiche_fixture():
    game = parse_game_file(BEER_QUICHE_TEXT)
    assert game.prior["S"] == F(9, 10)
    assert game.types == ("S", "W")
    assert game.payoff[("W", "Q", "F")] == (F(1), F(1))


def test_catalog_beer_quiche_matches_the_fixture_file():
    assert load_game(str(Path(__file__).resolve().parent.parent / "games" / "beerquiche.sg")) == beer_quiche()


def test_parse_missing_payoff_names_the_triple():
    broken = BEER_QUICHE_TEXT.replace("W Q N 3 0\n", "")
    with pytest.raises(GameFileSemanticError) as err:
        parse_game_file(broken)
    assert "('W', 'Q', 'N')" in str(err.value)


def test_parse_bad_prior_sum_reports_total():
    broken = BEER_QUICHE_TEXT.replace("types: S:9/10 W:1/10", "types: S:1/2 W:1/2 X:1/2")
    with pytest.raises(GameFileSemanticError) as err:
        parse_game_file(broken)
    assert "3/2" in str(err.value)


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(GameFileSyntaxError) as err:
        parse_game_file("types: S:1\nmessages B Q\n")
    assert err.value.line_no == 2


def test_round_trip_is_stable():
    game = parse_game_file(BEER_QUICHE_TEXT)
    text = serialize_game(game)
    again = parse_game_file(text)
    assert again == game
    assert serialize_game(again) == text


def test_comments_and_blank_lines_ignored():
    text = "# breakfast game\n" + BEER_QUICHE_TEXT.replace(
        "payoffs:", "\npayoffs:  # table follows"
    )
    assert parse_game_file(text) == parse_game_file(BEER_QUICHE_TEXT)


def test_validate_command(beerquiche_file):
    result = run_command(["validate", beerquiche_file])
    assert result.status == 0
    assert result.text == "ok"


def test_validate_command_rejects_bad_file(tmp_path):
    path = tmp_path / "bad.sg"
    path.write_text(BEER_QUICHE_TEXT.replace("S:9/10", "S:8/10"))
    result = run_command(["validate", str(path)])
    assert result.status == 1
    assert "prior sums" in result.text


def test_nf_command_prints_table_one_values(beerquiche_file):
    result = run_command(["nf", beerquiche_file])
    assert result.status == 0
    assert "(2.9, 0.9)" in result.text
    assert "FN" in result.text and "BB" in result.text


def test_sgcm_command_reduces_to_six_rows(beerquiche_file):
    result = run_command(["sgcm", beerquiche_file, "--cost", "1/20", "--reduce"])
    assert result.status == 0
    assert "6 rows" in result.text
    assert "C*FN" in result.text and "0N**" in result.text


def test_sgcm_symbolic_rendering(beerquiche_file):
    result = run_command(
        ["sgcm", beerquiche_file, "--cost", "1/20", "--reduce", "--symbolic"]
    )
    assert "(2.9, 0.9-c)" in result.text
    assert "(0.2, -c)" in result.text


def test_solve_command_components_and_indices(beerquiche_file):
    result = run_command(["solve", beerquiche_file, "--components", "--index"])
    assert result.status == 0
    assert "component C0" in result.text and "component C1" in result.text
    assert result.summary["indices"] == [1, 0]
    assert result.summary["index_sum"] == 1
    assert "index sum: +1 (ok)" in result.text


def test_index_sum_with_an_indeterminate_component_is_unexpected(beerquiche_file, monkeypatch):
    # the sum is still +1, but a component whose replications disagree leaves it unconfirmed
    component_index = cli.component_index

    def half_agreeing(gamma, component, cfg, draws):
        result = component_index(gamma, component, cfg, draws)
        return replace(result, agreement=F(1, 2)) if result.value == 0 else result

    monkeypatch.setattr(cli, "component_index", half_agreeing)
    result = run_command(["solve", beerquiche_file, "--index"])
    assert result.status == 0
    assert result.text.count("INDETERMINATE") == 1
    assert result.summary["index_sum"] == 1
    assert result.text.endswith("\nindex sum: +1 (UNEXPECTED)")


def test_solve_command_is_byte_deterministic(beerquiche_file):
    first = run_command(["solve", beerquiche_file, "--components", "--index"])
    second = run_command(["solve", beerquiche_file, "--components", "--index"])
    assert first.text == second.text


def test_solve_at_cost_lists_the_mixed_equilibrium(beerquiche_file):
    result = run_command(["solve", beerquiche_file, "--cost", "1/20"])
    assert "1/2*BB + 1/2*BQ" in result.text
    assert "1/2*0N** + 1/2*C*FN" in result.text


def test_sweep_command_writes_csv(beerquiche_file, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_command(
        [
            "sweep",
            beerquiche_file,
            "--component",
            "C0",
            "--cmin",
            "0",
            "--cmax",
            "1/20",
            "--steps",
            "3",
            "--out",
            str(out),
        ]
    )
    assert result.status == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    at_twentieth = next(r for r in rows if r["c"] == "1/20")
    assert at_twentieth["monitor_prob"] == "1/2"
    assert at_twentieth["u1"] == "29/10"
    assert at_twentieth["found"] == "1"
    assert at_twentieth["sender_support"] == "BB+BQ"


def test_sweep_discrepancy_report(beerquiche_file, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_command(
        [
            "sweep",
            beerquiche_file,
            "--component",
            "C0",
            "--cmin",
            "0",
            "--cmax",
            "1/100",
            "--steps",
            "3",
            "--out",
            str(out),
            "--check-coefficient",
            "123",
        ]
    )
    assert "DISCREPANCY" in result.text
    assert result.summary["scaling_constant"] == "3/2"


def test_sweep_rejects_a_bad_coefficient_before_sweeping(beerquiche_file, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_command(
        [
            "sweep",
            beerquiche_file,
            "--component",
            "C0",
            "--cmin",
            "0",
            "--cmax",
            "1/100",
            "--steps",
            "3",
            "--out",
            str(out),
            "--check-coefficient",
            "abc",
        ]
    )
    assert result.status == 1
    assert "not a rational" in result.text
    assert not out.exists()


def test_empty_record_list_gives_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_sweep_csv([], str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("c,found,monitor_prob")


def test_threshold_command(beerquiche_file):
    result = run_command(["threshold", beerquiche_file, "--component", "C0"])
    assert result.status == 0
    lo = F(result.summary["last_surviving"])
    hi = F(result.summary["first_failing"])
    assert lo <= F(1, 10) <= hi
    assert hi - lo <= F(1, 1000)


def test_threshold_command_rejects_zero_tolerance(beerquiche_file, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a cost was evaluated")

    monkeypatch.setattr(sweep, "evaluate_cost", unreachable)
    result = run_command(["threshold", beerquiche_file, "--component", "C0", "--tolerance", "0"])
    assert result.status == 1
    assert "tolerance must be positive" in result.text


def test_threshold_command_reports_quiche_failure(beerquiche_file):
    result = run_command(["threshold", beerquiche_file, "--component", "C1"])
    assert result.status == 1
    assert "survives at no sampled cost" in result.text


def test_threshold_command_claims_only_the_cost_it_checked(tmp_path):
    # the first grid cost C_MAX already survives, so no smaller cost is evaluated
    path = tmp_path / "blind.sg"
    path.write_text(serialize_game(message_blind_receiver_game()))
    result = run_command(["threshold", str(path), "--component", "C0"])
    assert result.status == 0
    assert result.text == "survives at c = 1/4, the largest grid cost; smaller costs were not checked"
    assert result.summary == {"last_surviving": "1/4", "first_failing": None}


def test_theorem_command(beerquiche_file):
    result = run_command(["theorem", beerquiche_file, "--component", "C0", "--epsilon", "1/20"])
    assert result.status == 0
    assert result.summary["c_epsilon"] is not None
    assert result.summary["index"] == 1


def test_theorem_command_quiche_warns(beerquiche_file):
    result = run_command(["theorem", beerquiche_file, "--component", "C1", "--epsilon", "1/20"])
    assert result.status == 0
    assert result.summary["c_epsilon"] is None
    assert "warning" in result.text


def test_unknown_component_is_usage_error(beerquiche_file):
    result = run_command(["threshold", beerquiche_file, "--component", "C9"])
    assert result.status == 2


def test_unknown_subcommand_is_usage_error():
    result = run_command(["frobnicate"])
    assert result.status == 2


def test_missing_file_is_computation_error():
    result = run_command(["nf", "/nonexistent/game.sg"])
    assert result.status == 1


def test_all_degenerate_perturbation_draws_are_a_computation_error(beerquiche_file, monkeypatch):
    monkeypatch.setattr(
        indices, "extreme_vertex_pairs", lambda receiver, sender: VertexPairs(pairs=[], degenerate=True)
    )
    result = run_command(["solve", beerquiche_file, "--index"])
    assert result.status == 1
    assert result.text == "error: replication 0: all 16 perturbation draws hit degenerate games"


@st.composite
def small_game_files(draw):
    """Game files with 1-2 types, messages and actions and payoffs in {-1, 0, 1}."""
    types = [f"t{i}" for i in range(draw(st.integers(1, 2)))]
    messages = [f"m{i}" for i in range(draw(st.integers(1, 2)))]
    actions = [f"a{i}" for i in range(draw(st.integers(1, 2)))]
    first = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3)]))
    priors = [first, 1 - first] if len(types) == 2 else [F(1)]
    lines = [
        "types: " + " ".join(f"{t}:{p}" for t, p in zip(types, priors)),
        "messages: " + " ".join(messages),
        "actions: " + " ".join(actions),
        "payoffs:",
    ]
    for t in types:
        for m in messages:
            for a in actions:
                u1, u2 = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
                lines.append(f"{t} {m} {a} {u1} {u2}")
    return "\n".join(lines) + "\n"


@settings(max_examples=20, deadline=None)
@given(text=small_game_files())
def test_commands_on_small_games_end_in_a_status(text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "game.sg"
        path.write_text(text)
        for argv in (
            ["solve", str(path), "--components", "--index"],
            ["threshold", str(path), "--component", "C0"],
            ["sweep", str(path), "--component", "C0", "--cmin", "0", "--cmax", "1/8", "--steps", "2",
             "--out", str(Path(work) / "sweep.csv")],
            ["theorem", str(path), "--component", "C0", "--epsilon", "1/20"],
        ):
            assert run_command(argv).status in {0, 1, 2}
