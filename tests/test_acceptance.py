"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS` line (visible with `pytest -s` or
`-rP`); any assertion failure marks the criterion red. All comparisons are
exact rational equalities unless stated otherwise.
"""

from fractions import Fraction as F

import pytest

from helpers import (
    TABLE_ONE,
    TABLE_THREE,
    TABLE_TWO,
    brute_force_equilibria,
    random_nondegenerate_games,
)

from sigsolve.catalog import beer_quiche
from sigsolve.cli import render_label, run_command
from sigsolve.equilibrium import (
    component_outcome,
    enumerate_extreme_equilibria,
    is_equilibrium,
    solve_components,
)
from sigsolve.indices import (
    PerturbationConfig,
    _perturbation_index,
    duplicate_containment_check,
    equilibrium_index,
)
from sigsolve.normalform import (
    build_normal_form,
    build_sgcm_normal_form,
    embed_map,
    monitored_form,
    reduce_normal_form,
)
from sigsolve.sweep import (
    cost_sweep,
    evaluate_cost,
    resolve_base_component,
    survival_threshold,
    verify_theorem_bound,
)

# squared-distance growth of the surviving equilibrium family, derived by hand
# from the analytic family (pooling weight 1-10c, monitor probability 1/2)
# before the solver was built; the traditionally quoted coefficient 123
# disagrees with that family and is flagged, not asserted
ORACLE_SQUARED_COEFFICIENT = F(3, 2)
STATED_SQUARED_COEFFICIENT = F(123)


@pytest.fixture(scope="module")
def game():
    return beer_quiche()


@pytest.fixture(scope="module")
def rows_by_label(game):
    def index(gamma):
        return {render_label(lbl, classic=True): i for i, lbl in enumerate(gamma.row_labels)}

    return index


def test_criterion_01_normal_form_table(game, rows_by_label, beerquiche_file):
    gamma = build_normal_form(game)
    idx = rows_by_label(gamma)
    checked = 0
    for label, row in TABLE_ONE.items():
        for j, cell in enumerate(row):
            assert gamma.cells[idx[label]][j] == cell
            checked += 1
    assert checked == 16
    result = run_command(["nf", beerquiche_file])
    assert result.status == 0
    assert "(2.9, 0.9)" in result.text and "(1.8, 1)" in result.text
    print("ACCEPTANCE 1: PASS | 4x4 normal form matches all 16 printed cells exactly")


def test_criterion_02_monitored_table_at_symbolic_cost(game, rows_by_label):
    for cost in (F(1, 20), F(2, 7), F(0)):
        gamma = build_sgcm_normal_form(game, cost)
        idx = rows_by_label(gamma)
        for label, (row, monitors) in TABLE_TWO.items():
            if label == "CNFN":
                continue
            for j, (u1, u2) in enumerate(row):
                expected = (u1, u2 - cost) if monitors else (u1, u2)
                assert gamma.cells[idx[label]][j] == expected
        # the printed CNFN row contradicts strategic equivalence; ours equals CFFN
        assert gamma.cells[idx["CNFN"]] == gamma.cells[idx["CFFN"]]
    print("ACCEPTANCE 2: PASS | 16-row monitored table matches with cost substituted; CNFN == CFFN")


def test_criterion_03_reduction_to_six_then_four(game, rows_by_label):
    cost = F(1, 20)
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(game, cost))
    assert len(reduced.row_labels) == 6
    idx = rows_by_label(reduced)
    for label, (row, monitors) in TABLE_THREE.items():
        for j, (u1, u2) in enumerate(row):
            expected = (u1, u2 - cost) if monitors else (u1, u2)
            assert reduced.cells[idx[label]][j] == expected
    # documented misprint check: C*FF against QB carries the class value 1/10-c
    assert reduced.cells[idx["C*FF"]][2] == (F(0), F(1, 10) - cost)
    at_zero, _ = reduce_normal_form(monitored_form(game, build_normal_form(game)))
    assert len(at_zero.row_labels) == 4
    print("ACCEPTANCE 3: PASS | 16 receiver strategies reduce to 6 classes, then to 4 at zero cost")


def test_criterion_04_two_pooling_components(game):
    gamma = build_normal_form(game)
    components = solve_components(gamma)
    assert len(components) == 2
    by_sender = {render_label(c.col_support()[0], True): c for c in components}
    beer = component_outcome(game, by_sender["BB"])
    assert beer.constant and beer.classification == "pooling"
    assert beer.payoffs == (F(29, 10), F(9, 10))
    assert beer.outcome[("S", "B", "N")] == F(9, 10)
    assert beer.outcome[("W", "B", "N")] == F(1, 10)
    quiche = component_outcome(game, by_sender["QQ"])
    assert quiche.constant and quiche.classification == "pooling"
    assert quiche.payoffs == (F(21, 10), F(9, 10))
    assert quiche.outcome[("S", "Q", "N")] == F(9, 10)
    assert quiche.outcome[("W", "Q", "N")] == F(1, 10)
    # receiver segments end where the threat mixes exactly one half
    for component in components:
        weights = sorted(max(eq.row_mix) for eq in component.extremes)
        assert weights == [F(1, 2), F(1)]
    print("ACCEPTANCE 4: PASS | exactly two pooling components with the stated outcomes and endpoints")


def test_criterion_05_component_indices(game):
    gamma = build_normal_form(game)
    components = solve_components(gamma)
    cfg = PerturbationConfig()
    assert cfg.replications == 20
    results = {
        render_label(c.col_support()[0], True): _perturbation_index(gamma, c, cfg)
        for c in components
    }
    assert results["BB"].value == 1
    assert results["QQ"].value == 0
    for result in results.values():
        assert result.method == "perturbation"
        assert result.replications == 20
        assert result.agreement == 1
    assert sum(r.value for r in results.values()) == 1
    print("ACCEPTANCE 5: PASS | indices +1 (BB) and 0 (QQ) with full 20-replication agreement; sum +1")


def test_criterion_06_mixed_equilibrium_at_one_twentieth(game):
    cost = F(1, 20)
    reduced, _ = reduce_normal_form(build_sgcm_normal_form(game, cost))
    labels = [render_label(lbl, classic=True) for lbl in reduced.row_labels]
    result = enumerate_extreme_equilibria(reduced)
    target = None
    for eq in result:
        senders = {
            render_label(lbl, True): w
            for lbl, w in zip(reduced.col_labels, eq.col_mix)
            if w > 0
        }
        receivers = {lab: w for lab, w in zip(labels, eq.row_mix) if w > 0}
        if senders == {"BB": F(1, 2), "BQ": F(1, 2)} and receivers == {
            "C*FN": F(1, 2),
            "0N**": F(1, 2),
        }:
            target = eq
    assert target is not None
    assert target.payoffs == (F(29, 10), F(9, 10))
    monitor_weight = sum(
        w for lab, w in zip(labels, target.row_mix) if lab.startswith("C")
    )
    assert monitor_weight == F(1, 2)
    assert 1 - 10 * cost == F(1, 2)  # pooling weight equals the indifference value
    print("ACCEPTANCE 6: PASS | at c=1/20 the mixed equilibrium is (BB+BQ)/2 vs (C*FN+0N**)/2, payoffs (2.9, 0.9)")


def test_criterion_07_survival_threshold(game):
    result = survival_threshold(game, "C0")
    assert result.first_failing is not None
    assert result.bracket_width <= F(1, 1000)
    assert result.last_surviving <= F(1, 10) <= result.first_failing
    base = resolve_base_component(game, "C0")
    record = evaluate_cost(game, base, F(1, 5))
    assert not record.found
    assert record.payoffs == (F(3), F(9, 10))
    assert [render_label(l, True) for l in record.sender_support] == ["BQ"]
    assert [render_label(l, True) for l in record.receiver_support] == ["0N**"]
    assert record.monitor_probability == 0
    print("ACCEPTANCE 7: PASS | threshold bracketed at 1/10 within 1/1000; at c=1/5 play separates on (BQ, 0N**)")


def test_criterion_08_distance_scaling(game, beerquiche_file, tmp_path):
    records = cost_sweep(game, "C0", c_min=F(0), c_max=F(1, 100), steps=3)
    assert [r.c for r in records] == [F(1, 400), F(1, 200), F(1, 100)]
    ratios = {r.squared_distance / (r.c * r.c) for r in records}
    assert ratios == {ORACLE_SQUARED_COEFFICIENT}
    assert ORACLE_SQUARED_COEFFICIENT != STATED_SQUARED_COEFFICIENT
    out = tmp_path / "scaling.csv"
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
            str(STATED_SQUARED_COEFFICIENT),
        ]
    )
    assert "DISCREPANCY" in result.text
    print(
        "ACCEPTANCE 8: PASS | squared distance is exactly (3/2)c^2 on {1/100,1/200,1/400};"
        " stated coefficient 123 flagged as discrepancy"
    )


def test_criterion_09_theorem_harness(game):
    epsilon = F(1, 20)
    beer = verify_theorem_bound(game, "C0", epsilon)
    assert beer.c_epsilon is not None and beer.c_epsilon > 0
    assert not beer.index_warning
    below = [r for r in beer.records if r.c < beer.c_epsilon]
    assert below and all(r.squared_distance < epsilon**2 for r in below)
    quiche = verify_theorem_bound(game, "C1", epsilon)
    assert quiche.c_epsilon is None
    assert quiche.index_warning and quiche.index_result.value == 0
    print("ACCEPTANCE 9: PASS | epsilon=1/20 bound holds below c_eps>0 for BB; QQ reports failure")


def test_criterion_10_property_suite(game):
    checked = 0
    for gamma, result in random_nondegenerate_games(50, seed=2024, max_size=4):
        mine = {(eq.row_mix, eq.col_mix) for eq in result}
        for eq in result:
            assert is_equilibrium(gamma, (eq.row_mix, eq.col_mix)).ok
        assert brute_force_equilibria(gamma) == mine
        assert len(mine) % 2 == 1
        assert sum(equilibrium_index(gamma, eq).value for eq in result) == 1
        checked += 1
    assert checked == 50
    base = build_normal_form(game)
    gamma0 = monitored_form(game, base)
    report = duplicate_containment_check(gamma0, base, embed_map(gamma0))
    assert report.ok
    assert len(report.entries) == 1
    assert report.entries[0].duplicate_index.value != 0
    assert report.entries[0].base_index.value == 1
    print(
        "ACCEPTANCE 10: PASS | 50 random games: exact, complete, odd, index sum +1;"
        " zero-cost duplicate component contains the base BB component"
    )
