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
from sigsolve.cli import run_command, write_sweep_csv
from sigsolve.equilibrium import VertexPairs
from sigsolve.game import ReceiverStrategy, ReceiverStrategyC, SenderStrategy
from sigsolve.normalform import StrategyClass
from sigsolve.gamefile import (
    GameFileSemanticError,
    GameFileSyntaxError,
    load_game,
    parse_game_file,
    serialize_game,
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


def test_validate_command_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.sg"
    path.write_bytes(b"\xef\xbb\xbf" + BEER_QUICHE_TEXT.encode("utf-8"))
    result = run_command(["validate", str(path)])
    assert (result.status, result.text) == (0, "ok")
    assert load_game(str(path)) == beer_quiche()


def test_file_that_is_not_utf8_is_a_game_file_error(tmp_path):
    path = tmp_path / "latin1.sg"
    path.write_bytes(b"\xff" + BEER_QUICHE_TEXT.encode("utf-8"))
    result = run_command(["validate", str(path)])
    assert result.status == 1
    assert result.text.startswith("invalid: not UTF-8 text: ")
    result = run_command(["solve", str(path)])
    assert result.status == 1
    assert result.text.startswith("game file error: not UTF-8 text: ")


def _receiver_class(*members):
    return StrategyClass(tuple(ReceiverStrategyC(*m) for m in members))


@pytest.mark.parametrize(
    "label, classic, expected",
    [
        (SenderStrategy(("B", "Q")), False, "BQ"),
        (SenderStrategy(("B", "Q")), True, "BQ"),
        (SenderStrategy(("m1", "m2", "m1")), False, "m1,m2,m1"),
        (ReceiverStrategy(("F", "N")), False, "FN"),
        (ReceiverStrategy(("F", "N")), True, "NF"),
        (ReceiverStrategy(("x", "yes", "x")), False, "x,yes,x"),
        (ReceiverStrategyC(1, ("F", "N"), "N"), False, "1FNN"),
        (ReceiverStrategyC(1, ("F", "N"), "N"), True, "CNNF"),
        (ReceiverStrategyC(0, ("N", "F"), "F"), True, "0FFN"),
        # a monitoring class never plays its default, a free class never its replies
        (_receiver_class((1, ("F", "N"), "F"), (1, ("F", "N"), "N")), False, "1FN*"),
        (_receiver_class((1, ("F", "N"), "F"), (1, ("F", "N"), "N")), True, "C*NF"),
        (_receiver_class((0, ("F", "F"), "N"), (0, ("F", "N"), "N")), False, "0**N"),
        (_receiver_class((0, ("F", "F"), "N"), (0, ("F", "N"), "N")), True, "0N**"),
        # members that disagree on the monitor bit show the representative whole
        (_receiver_class((0, ("F", "F"), "F"), (1, ("F", "F"), "F")), False, "0FFF"),
        (_receiver_class((0, ("N", "F"), "N"), (1, ("N", "F"), "F")), True, "0NFN"),
        (StrategyClass((ReceiverStrategy(("F", "N")), ReceiverStrategy(("N", "N")))), True, "NF"),
        (StrategyClass((SenderStrategy(("Q", "B")), SenderStrategy(("Q", "Q")))), False, "QB"),
        ("r0", False, "r0"),
        ("r0", True, "r0"),
        # multi-letter actions: bit, replies and default comma-separated too
        (ReceiverStrategyC(1, ("a0", "a1"), "a0"), False, "1,a0,a1,a0"),
        (_receiver_class((1, ("a0", "a1"), "a0"), (1, ("a0", "a1"), "a1")), False, "1,a0,a1,*"),
        (_receiver_class((0, ("a0", "a0"), "a0"), (0, ("a0", "a1"), "a0")), False, "0,*,*,a0"),
    ],
)
def test_render_label(label, classic, expected):
    assert cli.render_label(label, classic) == expected


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


def test_sweep_discrepancy_report_without_a_constant_coefficient(beerquiche_file, tmp_path):
    """C1 survives at no cost of this grid, so no coefficient is measured;
    the stated one is still flagged."""
    out = tmp_path / "sweep.csv"
    result = run_command(
        ["sweep", beerquiche_file, "--component", "C1", "--cmin", "0", "--cmax", "1/8", "--steps", "6",
         "--out", str(out), "--check-coefficient", "3/2"]
    )
    assert result.status == 0
    assert result.summary["scaling_constant"] is None
    assert result.text.splitlines()[1:] == [
        "distance scaling: not a constant multiple of c^2 over this grid",
        "DISCREPANCY: no constant squared_distance/c^2 to compare with the stated 3/2",
    ]


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


def test_sweep_checks_its_output_path_before_solving(beerquiche_file, tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("solved a cost for an output it cannot write")

    monkeypatch.setattr(cli, "cost_sweep", unreachable)
    out = tmp_path / "missing" / "x.csv"
    result = run_command(
        ["sweep", beerquiche_file, "--component", "C0", "--cmin", "0", "--cmax", "1/8", "--steps", "3000",
         "--out", str(out)]
    )
    assert result.status == 1
    assert result.text.startswith("error: [Errno 2]")


def test_sweep_past_the_grid_budget_fails_before_solving(beerquiche_file, tmp_path, monkeypatch):
    """With --cmin 0 every step is a cost to solve; past the grid's budget
    the sweep exits 1 before it solves the base game or any cost."""
    def unreachable(*args):
        raise AssertionError("solved a game past the budget")

    monkeypatch.setattr(sweep, "resolve_base_component", unreachable)
    monkeypatch.setattr(sweep, "evaluate_cost", unreachable)
    result = run_command(
        ["sweep", beerquiche_file, "--component", "C0", "--cmin", "0", "--cmax", "1/8", "--steps", "1000000000",
         "--out", str(tmp_path / "budget.csv")]
    )
    assert result.status == 1
    assert result.text.startswith("error: ") and f"budget of {sweep.MAX_GRID_COSTS} costs" in result.text


def test_sweep_usage_error_leaves_an_existing_output_alone(beerquiche_file, tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"earlier,run\r\n")
    result = run_command(
        ["sweep", beerquiche_file, "--component", "C9", "--cmin", "0", "--cmax", "1/8", "--steps", "3",
         "--out", str(out)]
    )
    assert result.status == 2
    assert out.read_bytes() == b"earlier,run\r\n"


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
