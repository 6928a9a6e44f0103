"""Shared test utilities: random game generation and independent oracles.

Two oracles cross-check equilibria: a brute-force support enumeration built on
sympy (deliberately not the package's own linear algebra), and a `Fraction`
enumerator on the exhaustive basis search that `equilibrium._polytope_vertices`
replaced, which shifts the payoffs, crosses label sets and prices each pair in
`Fraction`s. It searches every basis of the full game, not the
strict-dominance core the package enumerates on, and solves each basis system
exactly in integers (`solve_square`). A Fraction two-phase simplex, the LP
engine that `linalg.Tableau` replaced, is the oracle for
`linalg.linf_distance_to_hull`. The `Fraction` pricing loop and the
`Fraction`-pair grouping that `normalform` replaced with integer sums and
integer views are the oracles for its cells and its strategy classes, and
the generator form of `strict_core` is the oracle for its plain loops.
Expected payoffs of a profile are priced play by play from the payoff
table, apart from the normal forms and the enumerator; `mixed_strategies`
reads a profile off an equilibrium by summing each class's weight onto its
representative, which `equilibrium.outcome_of_equilibrium` skips because
no two labels of a form share one. The sampling index
of one component on draws of its own, each a game of perturbed `Fraction`
payoffs enumerated afresh and each perturbed equilibrium measured by both
hull LPs, is the oracle for the integer draws that `indices.DrawStore`
shares between components and for the far screen in front of the LPs.
Walking both best-response polytopes in full and matching labels, which
`equilibrium.extreme_vertex_pairs` replaced with one walk and partner faces,
is the oracle for its pairs, and a sympy regularity check for its
`degenerate` flag. `reference_sgcm_normal_form` prices every monitored
receiver strategy by its own replies, apart from `monitored_form`, and is
the oracle for the full monitored table read off it. The `Fraction` path of
a cost sweep, which reduces that priced table and recomputes each form's
views from its cells, with outcomes and distances summed in `Fraction`s, is
the oracle for `sweep.evaluate_cost` on the integer views of the form built
from the base form. `lexicographic_component_indices` is the exact oracle for the
sampling index `indices.component_index` wherever its replications agree:
each component's index is the sum of the determinant indices of the
complementary pairs of lexicographically feasible bases, walked on both
best-response polytopes of the full game, whose vertex pairs lie in it.
`frontier_probe` builds the seeded frontier games, `binary_game` the binary
2-type, 2-message, 2-action games by number, and `dominance_filter` the
strict-dominance core as a game. `matching_pennies` and `coordination_2x2`
are small bimatrix fixtures, and `component_indices` indexes every
component of a game as `solve --index` does."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import sympy

from sigsolve.catalog import random_bimatrix
from sigsolve.equilibrium import (
    EquilibriumSet,
    Mix,
    MixedEquilibrium,
    VertexPairs,
    _padded,
    _polytope_vertices,
    enumerate_extreme_equilibria,
    solve_components,
)
from sigsolve.game import ReceiverStrategyC, SignalingGame, enumerate_plays, strategy_spaces, strategy_spaces_c
from sigsolve.indices import (
    DegenerateDrawsError,
    DegenerateEquilibriumError,
    DrawStore,
    IndexResult,
    PerturbationConfig,
    component_index,
    equilibrium_index,
)
from sigsolve.linalg import Tableau, determinant, linf_distance_to_hull
from sigsolve.normalform import (
    BimatrixGame,
    IntegerPayoffs,
    deep_representative,
    monitor_bit,
    reduce_normal_form,
    strict_core,
)
from sigsolve.sweep import BaseContext, SweepRecord

F = Fraction

# Golden payoff pairs (sender, receiver-before-cost) for the beer-quiche
# tables, keyed by the classic row labels; columns are BB, BQ, QB, QQ.
TABLE_ONE = {
    "FF": ((F("0.9"), F("0.1")), (F(1), F("0.1")), (F(0), F("0.1")), (F("0.1"), F("0.1"))),
    "FN": ((F("2.9"), F("0.9")), (F("2.8"), F(1)), (F("0.2"), F(0)), (F("0.1"), F("0.1"))),
    "NF": ((F("0.9"), F("0.1")), (F("1.2"), F(0)), (F("1.8"), F(1)), (F("2.1"), F("0.9"))),
    "NN": ((F("2.9"), F("0.9")), (F(3), F("0.9")), (F(2), F("0.9")), (F("2.1"), F("0.9"))),
}

# Monitored game rows: (payoff row, pays-the-cost flag). The CNFN row is
# derived from the strategic-equivalence rule (it must equal CFFN); the
# classic printed table disagrees with itself there.
TABLE_TWO = {}
for _default in "FN":
    for _qb, _row in TABLE_ONE.items():
        TABLE_TWO[f"C{_default}{_qb}"] = (_row, True)
for _quiche in "FN":
    for _beer in "FN":
        TABLE_TWO[f"0F{_quiche}{_beer}"] = (TABLE_ONE["FF"], False)
        TABLE_TWO[f"0N{_quiche}{_beer}"] = (TABLE_ONE["NN"], False)

# Reduced monitored game. The C*FF row equals its class members CFFF/CNFF
# cell for cell (the printed reduced table carries a stray 1-c at C*FF/QB
# where the class members and the game rules force 0.1-c).
TABLE_THREE = {
    "C*FF": (TABLE_ONE["FF"], True),
    "C*FN": (TABLE_ONE["FN"], True),
    "C*NF": (TABLE_ONE["NF"], True),
    "C*NN": (TABLE_ONE["NN"], True),
    "0F**": (TABLE_ONE["FF"], False),
    "0N**": (TABLE_ONE["NN"], False),
}


def matching_pennies() -> BimatrixGame:
    """Row wants to match, column wants to mismatch; unique mixed equilibrium."""
    cells = (
        ((F(-1), F(1)), (F(1), F(-1))),
        ((F(1), F(-1)), (F(-1), F(1))),
    )
    return BimatrixGame(row_labels=("H", "T"), col_labels=("h", "t"), cells=cells)


def coordination_2x2() -> BimatrixGame:
    """Two strict pure equilibria on the diagonal plus one mixed equilibrium."""
    cells = (
        ((F(3), F(3)), (F(0), F(1))),
        ((F(1), F(0)), (F(2), F(2))),
    )
    return BimatrixGame(row_labels=("A", "B"), col_labels=("a", "b"), cells=cells)


def component_indices(gamma: BimatrixGame, cfg: PerturbationConfig = PerturbationConfig()) -> list[IndexResult]:
    """The index of every component of `gamma`, in component order, sharing
    one draw store as `solve --index` does."""
    draws = DrawStore(gamma, cfg)
    return [component_index(gamma, comp, cfg, draws) for comp in solve_components(gamma)]


def _lexicographic_bases(rows: list[list[int]], dim: int, label) -> dict[int, tuple[int, ...]]:
    """Every lexicographically feasible basis of {x >= 0 : rows . x <= 1},
    as the label mask of its nonbasic variables (variable v is label bit
    `label(v)`) mapped to its vertex key (det, *nums), the point nums / det
    in lowest terms.

    The walk starts at the all-slack basis of a `linalg.Tableau`, follows
    every entering variable out of each basis and leaves by `leaving_row`.
    Bases, not vertices, are the walk's nodes: a degenerate vertex has
    several bases, and pruning at the vertex would miss some.
    """
    count = len(rows)
    tableau = Tableau(rows, [1] * count, dim)
    seen = {sum(1 << v for v in tableau.basis)}
    stack = [tableau.snapshot()]
    found = {}
    while stack:
        tableau.restore(stack.pop())
        basic = sum(1 << v for v in tableau.basis)
        nums = [0] * dim
        for row, v in zip(tableau.rows, tableau.basis):
            if v < dim:
                nums[v] = row[0]
        g = math.gcd(tableau.det, *nums)
        nonbasic = sum(1 << label(v) for v in range(dim + count) if not basic >> v & 1)
        found[nonbasic] = (tableau.det // g, *(x // g for x in nums))
        for v in range(dim + count):
            if basic >> v & 1:
                continue
            r = tableau.leaving_row(v)
            child = basic ^ (1 << tableau.basis[r]) ^ (1 << v)
            if child not in seen:
                seen.add(child)
                state = tableau.snapshot()
                tableau.pivot(r, v)
                stack.append(tableau.snapshot())
                tableau.restore(state)
    return found


def lexicographic_component_indices(gamma: BimatrixGame) -> list[int]:
    """The exact index of each component of `solve_components(gamma)`, in
    that order, read off the lexicographic walks of both best-response
    polytopes P = {x >= 0 : B^T x <= 1} and Q = {y >= 0 : A y <= 1} of the
    full game, A and B the integer views lifted by their shifts.

    Why it is exact: the lexicographic rhs 1 + (eps, eps^2, ...) rescales
    each row of A and each column of B by a positive factor, a nondegenerate
    game arbitrarily close to `gamma` whose equilibria are exactly the
    complementary pairs of lexicographically feasible bases, the origin pair
    aside (Shapley 1974; von Stengel 2002, Handbook of Game Theory 3, ch.
    45). A pair with basic rows S and cols T has the determinant index
    (-1)^(k+1) sign det A[S,T] sign det B[S,T], k = |S| = |T|, which the
    positive rescaling keeps, and converges to the vertex pair read off its
    rhs column. A component's index is the sum over the nearby equilibria
    that converge into it. Row i is label bit i and col j bit m + j.
    """
    m, n = gamma.shape
    receiver, sender = gamma.receiver_integers, gamma.sender_integers
    a = [[v + receiver.shift for v in row] for row in receiver.matrix]
    b = [[v + sender.shift for v in row] for row in sender.matrix]
    p = _lexicographic_bases([[b[i][j] for i in range(m)] for j in range(n)], m, lambda v: v)
    q = _lexicographic_bases(a, n, lambda v: m + v if v < n else v - n)
    components = solve_components(gamma)
    owner = {(eq.row_mix, eq.col_mix): k for k, comp in enumerate(components) for eq in comp.extremes}
    everything, origin = (1 << (m + n)) - 1, (1 << m) - 1
    indices = [0] * len(components)
    for labels, x in p.items():
        y = q.get(everything ^ labels)
        if y is None or labels == origin:
            continue
        rows = [i for i in range(m) if not labels >> i & 1]
        cols = [j for j in range(n) if labels >> (m + j) & 1]
        assert len(rows) == len(cols), (rows, cols)
        det_a = determinant([[a[i][j] for j in cols] for i in rows])
        det_b = determinant([[b[i][j] for j in cols] for i in rows])
        assert det_a and det_b, "a feasible basis is nonsingular"
        sign = (-1) ** (len(rows) + 1) * (1 if det_a * det_b > 0 else -1)
        limit = (tuple(F(v, sum(x[1:])) for v in x[1:]), tuple(F(v, sum(y[1:])) for v in y[1:]))
        if limit not in owner:
            raise ValueError(f"the limit {limit} of a complementary pair lies in no component")
        indices[owner[limit]] += sign
    return indices


def binary_game(number: int) -> SignalingGame:
    """The binary signaling game `number` in [0, 2^16): types A B with a
    uniform prior, messages X Y, actions U V, and every payoff 0 or 1. For
    each (type, message, action) in that order, the sender's payoff and then
    the receiver's are the next bits of `number`, least significant first.
    Game 40006 has a zero-index component pooling on Y whose payoffs
    (1/2, 1/2) some equilibrium pooling on X also pays."""
    bits = iter(number >> k & 1 for k in range(16))
    table = {(t, m, a): (F(next(bits)), F(next(bits))) for t in "AB" for m in "XY" for a in "UV"}
    return SignalingGame(("A", "B"), ("X", "Y"), ("U", "V"), {"A": F(1, 2), "B": F(1, 2)}, table)


def random_nondegenerate_games(count: int, seed: int, max_size: int = 4):
    """Yield `count` games whose full best-response polytopes have simple
    vertices, each with its `enumerate_extreme_equilibria`. The filter reads
    the full-game flag of `reference_extreme_equilibria`, not the
    enumerator's, which describes only the strict-dominance core."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        rows = rng.randint(2, max_size)
        cols = rng.randint(2, max_size)
        gamma = random_bimatrix(rng, rows, cols)
        if reference_extreme_equilibria(gamma).degenerate:
            continue
        produced += 1
        yield gamma, enumerate_extreme_equilibria(gamma)


def monitoring_merges_at_one_quarter():
    """One type, whose sender payoff ignores the action. The receiver values
    x at 1 and y at 3/4, so the monitoring class that always plays x and the
    free class whose default is y are payoff-equal exactly at cost 1/4."""
    return merging_game(F(3, 4))


def merging_game(y_value):
    """`monitoring_merges_at_one_quarter` with y valued at `y_value`: the
    always-x monitoring class and the free y class merge at cost 1 - y_value."""
    sender, receiver = {"m1": F(1), "m2": F(0)}, {"x": F(1), "y": y_value}
    payoff = {("t", m, a): (sender[m], receiver[a]) for m in ("m1", "m2") for a in ("x", "y")}
    return SignalingGame(("t",), ("m1", "m2"), ("x", "y"), {"t": F(1)}, payoff)


def message_blind_receiver_game():
    """One type only, so the receiver's best reply never depends on the
    message: monitoring is worthless and the base equilibrium replicates at
    every cost through the never-monitor strategy."""
    payoff = {
        ("t", "m1", "good"): (F(2), F(1)),
        ("t", "m1", "bad"): (F(2), F(0)),
        ("t", "m2", "good"): (F(1), F(1)),
        ("t", "m2", "bad"): (F(1), F(0)),
    }
    return SignalingGame(
        types=("t",),
        messages=("m1", "m2"),
        actions=("good", "bad"),
        prior={"t": F(1)},
        payoff=payoff,
    )


def frontier_probe(types: int, messages: int, actions: int, seed: int, jitter: bool) -> SignalingGame:
    """A seeded probe game of the solver's frontier: types `A B C D`[:types]
    with a uniform prior, messages `X Y Z W`[:messages], actions
    `U V S T`[:actions]. For each (type, message, action) in that order,
    `Random(seed)` draws the sender's payoff and then the receiver's, each
    `randint(0, 9)`; when jittered, `randint(-50, 50)/1000` is added right
    after each payoff is drawn."""
    rng = random.Random(seed)

    def payoff() -> Fraction:
        value = F(rng.randint(0, 9))
        return value + F(rng.randint(-50, 50), 1000) if jitter else value

    names = ("ABCD"[:types], "XYZW"[:messages], "UVST"[:actions])
    table = {}
    for t in names[0]:
        for m in names[1]:
            for a in names[2]:
                sender = payoff()
                table[(t, m, a)] = (sender, payoff())
    return SignalingGame(
        types=tuple(names[0]),
        messages=tuple(names[1]),
        actions=tuple(names[2]),
        prior={t: F(1, types) for t in names[0]},
        payoff=table,
    )


def reference_payoff_cells(game: SignalingGame, senders: tuple, receivers: tuple) -> tuple:
    """`normalform._payoff_cells` summed in `Fraction`s, for base and
    monitored receiver strategies alike, each by its replies: receiver rows
    by sender columns, before any monitoring cost."""
    cells = []
    for s2 in receivers:
        replies = {m: s2.reply(i) for i, m in enumerate(game.messages)}
        row = []
        for s1 in senders:
            u1 = u2 = Fraction(0)
            for t, m in zip(game.types, s1.messages):
                p1, p2 = game.payoff[(t, m, replies[m])]
                u1 += game.prior[t] * p1
                u2 += game.prior[t] * p2
            row.append((u1, u2))
        cells.append(tuple(row))
    return tuple(cells)


def reference_sgcm_normal_form(game: SignalingGame, cost: Fraction) -> BimatrixGame:
    """`normalform.build_sgcm_normal_form` priced strategy by strategy: each
    row of `strategy_spaces_c` from its own replies in `Fraction`s, less
    `cost` when it monitors, without `monitored_form`."""
    senders, _ = strategy_spaces(game)
    receivers = strategy_spaces_c(game)
    cells = reference_payoff_cells(game, senders, receivers)
    priced = tuple(tuple((u1, u2 - cost * s2.monitor) for u1, u2 in row) for s2, row in zip(receivers, cells))
    return BimatrixGame(receivers, senders, priced)


def mixed_strategies(gamma: BimatrixGame, eq: MixedEquilibrium) -> tuple[dict, dict]:
    """The sender's and the receiver's strategy -> weight mappings of an
    equilibrium of a form, each class's weight summed onto its representative."""
    sender: dict = {}
    receiver: dict = {}
    for mixed, labels, mix in ((sender, gamma.col_labels, eq.col_mix), (receiver, gamma.row_labels, eq.row_mix)):
        for label, weight in zip(labels, mix):
            if weight:
                strategy = deep_representative(label)
                mixed[strategy] = mixed.get(strategy, Fraction(0)) + weight
    return sender, receiver


def reference_expected_payoffs(
    game: SignalingGame, sender: dict, receiver: dict, cost: Fraction
) -> tuple[Fraction, Fraction]:
    """Expected (sender, receiver) payoffs of a mixed profile, priced play by
    play from the payoff table; the receiver pays `cost` under every
    monitored strategy that monitors."""
    u1 = u2 = Fraction(0)
    for s1, w1 in sender.items():
        for s2, w2 in receiver.items():
            monitored = isinstance(s2, ReceiverStrategyC)
            pays = monitored and s2.monitor == 1
            for t, m in zip(game.types, s1.messages):
                i = game.messages.index(m)
                if not monitored:
                    a = s2.actions[i]
                else:
                    a = s2.on_message[i] if s2.monitor else s2.default
                p1, p2 = game.payoff[(t, m, a)]
                weight = game.prior[t] * w1 * w2
                u1 += weight * p1
                u2 += weight * (p2 - cost if pays else p2)
    return u1, u2


def reference_outcome(game: SignalingGame, sender: dict, receiver: dict) -> dict:
    """`game.outcome_of_profile` summed in `Fraction`s, one term per type,
    sender strategy and receiver strategy."""
    masses = dict.fromkeys(enumerate_plays(game), Fraction(0))
    for ti, t in enumerate(game.types):
        for s1, w1 in sender.items():
            m = s1.messages[ti]
            for s2, w2 in receiver.items():
                masses[(t, m, s2.reply(game.messages.index(m)))] += game.prior[t] * w1 * w2
    return masses


def reference_evaluate_cost(game: SignalingGame, base: BaseContext, cost: Fraction) -> SweepRecord:
    """`sweep.evaluate_cost` on the `Fraction` path: reduce
    `reference_sgcm_normal_form` at `cost` with `reduce_normal_form`,
    recompute the reduced form's views from its cells (a `replace` copy has
    none cached), enumerate, and sum outcomes and squared distances in
    `Fraction`s."""
    reduced = replace(reduce_normal_form(reference_sgcm_normal_form(game, cost))[0])
    equilibria = enumerate_extreme_equilibria(reduced)

    def squared_distance(eq):
        masses = reference_outcome(game, *mixed_strategies(reduced, eq))
        return sum(((v - base.outcome[play]) ** 2 for play, v in masses.items()), Fraction(0))

    squared, eq = min(((squared_distance(e), e) for e in equilibria), key=lambda pair: (pair[0], pair[1].sort_key()))
    return SweepRecord(
        c=cost,
        found=any(e.payoffs == base.payoffs for e in equilibria),
        nearest=eq,
        monitor_probability=sum((w for label, w in zip(reduced.row_labels, eq.row_mix) if monitor_bit(label)), F(0)),
        squared_distance=squared,
        payoffs=eq.payoffs,
        sender_support=tuple(label for label, w in zip(reduced.col_labels, eq.col_mix) if w > 0),
        receiver_support=tuple(label for label, w in zip(reduced.row_labels, eq.row_mix) if w > 0),
    )


def reference_strict_core(row_payoffs, col_payoffs) -> tuple[list[int], list[int]]:
    """`normalform.strict_core` with nested `all`/`any` generators, the
    form it had before its plain loops."""
    rows = list(range(len(row_payoffs)))
    cols = list(range(len(row_payoffs[0])))
    while True:
        kept_rows = [
            r for r in rows if not any(all(row_payoffs[o][c] > row_payoffs[r][c] for c in cols) for o in rows)
        ]
        kept_cols = [
            c for c in cols if not any(all(col_payoffs[r][o] > col_payoffs[r][c] for r in rows) for o in cols)
        ]
        if (kept_rows, kept_cols) == (rows, cols):
            return rows, cols
        rows, cols = kept_rows, kept_cols


def dominance_filter(gamma: BimatrixGame) -> BimatrixGame:
    """The strict-dominance core of `gamma` as a game (see
    `normalform.strict_core`), read on its integer views; the enumerator
    walks the same core."""
    rows, cols = strict_core(gamma.receiver_integers.matrix, gamma.sender_integers.matrix)
    return BimatrixGame(
        row_labels=tuple(gamma.row_labels[r] for r in rows),
        col_labels=tuple(gamma.col_labels[c] for c in cols),
        cells=tuple(tuple(gamma.cells[r][c] for c in cols) for r in rows),
    )


def reference_classes(gamma: BimatrixGame) -> tuple[list[list[int]], list[list[int]]]:
    """The row and col index groups of `normalform.reduce_normal_form`, by
    hashing each strategy's `Fraction` payoff pairs, in first-seen order."""
    m, n = gamma.shape
    groups = []
    for vectors in ([tuple(row) for row in gamma.cells], [tuple(gamma.cells[r][c] for r in range(m)) for c in range(n)]):
        grouped: dict[tuple, list[int]] = {}
        for idx, vec in enumerate(vectors):
            grouped.setdefault(vec, []).append(idx)
        groups.append(list(grouped.values()))
    return groups[0], groups[1]


def _to_sympy(value: Fraction):
    return sympy.Rational(value.numerator, value.denominator)


def positive_payoffs(gamma: BimatrixGame, player: int) -> list[list[Fraction]]:
    """One player's payoffs (0 sender, 1 receiver) shifted in `Fraction`s so
    that the least is 1; independent of the package's integer payoffs."""
    matrix = [[cell[player] for cell in row] for row in gamma.cells]
    shift = 1 - min(min(row) for row in matrix)
    return [[v + shift for v in row] for row in matrix]


def reference_determinant_index(gamma: BimatrixGame, eq: MixedEquilibrium) -> int:
    """`indices.equilibrium_index` of a regular equilibrium from sympy
    determinants of both players' support blocks, shifted by `positive_payoffs`."""
    rows = [i for i, w in enumerate(eq.row_mix) if w > 0]
    cols = [j for j, w in enumerate(eq.col_mix) if w > 0]
    sign = (-1) ** (len(rows) + 1)
    for player in (0, 1):
        shifted = positive_payoffs(gamma, player)
        sign *= int(sympy.sign(sympy.Matrix([[_to_sympy(shifted[i][j]) for j in cols] for i in rows]).det()))
    return sign


def is_regular(gamma: BimatrixGame, eq: MixedEquilibrium) -> bool:
    """Whether an equilibrium is regular: equal support sizes, each player's
    best replies exactly its support, and nonzero sympy determinants of both
    players' support blocks, shifted by `positive_payoffs`. Priced in
    `Fraction`s on the full game, apart from the enumerator."""
    m, n = gamma.shape
    rows = [i for i, w in enumerate(eq.row_mix) if w > 0]
    cols = [j for j, w in enumerate(eq.col_mix) if w > 0]
    if len(rows) != len(cols):
        return False
    row_values = [sum(gamma.receiver_payoff(i, j) * eq.col_mix[j] for j in range(n)) for i in range(m)]
    col_values = [sum(gamma.sender_payoff(i, j) * eq.row_mix[i] for i in range(m)) for j in range(n)]
    if rows != [i for i, v in enumerate(row_values) if v == max(row_values)]:
        return False
    if cols != [j for j, v in enumerate(col_values) if v == max(col_values)]:
        return False
    for player in (0, 1):
        shifted = positive_payoffs(gamma, player)
        if sympy.Matrix([[_to_sympy(shifted[i][j]) for j in cols] for i in rows]).det() == 0:
            return False
    return True


def brute_force_equilibria(gamma: BimatrixGame) -> set:
    """All equilibria with equal-size supports, via sympy linear solves.

    Complete for nondegenerate games, where every equilibrium has equal
    support sizes and each support pair admits at most one solution.
    """
    m, n = gamma.shape
    A = [[_to_sympy(gamma.receiver_payoff(i, j)) for j in range(n)] for i in range(m)]
    B = [[_to_sympy(gamma.sender_payoff(i, j)) for j in range(n)] for i in range(m)]
    found = set()
    for size in range(1, min(m, n) + 1):
        for I in itertools.combinations(range(m), size):
            for J in itertools.combinations(range(n), size):
                # x on I keeps the column player indifferent across J
                rows = [[B[i][j] for i in I] + [sympy.Integer(-1)] for j in J]
                rows.append([sympy.Integer(1)] * size + [sympy.Integer(0)])
                rhs = [sympy.Integer(0)] * size + [sympy.Integer(1)]
                try:
                    x_sol = sympy.Matrix(rows).solve(sympy.Matrix(rhs))
                except Exception:
                    continue
                cols = [[A[i][j] for j in J] + [sympy.Integer(-1)] for i in I]
                cols.append([sympy.Integer(1)] * size + [sympy.Integer(0)])
                try:
                    y_sol = sympy.Matrix(cols).solve(sympy.Matrix(rhs))
                except Exception:
                    continue
                xs = list(x_sol[:size])
                ys = list(y_sol[:size])
                if any(v <= 0 for v in xs) or any(v <= 0 for v in ys):
                    continue
                x_full = [sympy.Integer(0)] * m
                y_full = [sympy.Integer(0)] * n
                for idx, i in enumerate(I):
                    x_full[i] = xs[idx]
                for idx, j in enumerate(J):
                    y_full[j] = ys[idx]
                best_row = max(sum(A[i][j] * y_full[j] for j in range(n)) for i in range(m))
                best_col = max(sum(B[i][j] * x_full[i] for i in range(m)) for j in range(n))
                if any(sum(A[i][j] * y_full[j] for j in range(n)) != best_row for i in I):
                    continue
                if any(sum(B[i][j] * x_full[i] for i in range(m)) != best_col for j in J):
                    continue
                key = (
                    tuple(F(int(v.p), int(v.q)) for v in x_full),
                    tuple(F(int(v.p), int(v.q)) for v in y_full),
                )
                found.add(key)
    return found


def solve_square(matrix, rhs):
    """Solve M x = b exactly for int or Fraction entries; None when M is singular.

    The entries are scaled to integers by their common denominator. Gaussian
    elimination with row swaps keeps them integers by dividing each update
    exactly by the previous pivot (Bareiss), which leaves the determinant
    d = ±det M as the last pivot. Back substitution then finds the integers
    x_k * d (Cramer's rule), again by exact division.
    """
    n = len(matrix)
    scale = math.lcm(*(v.denominator for row in matrix for v in row), *(b.denominator for b in rhs))
    aug = [[v.numerator * (scale // v.denominator) for v in (*row, b)] for row, b in zip(matrix, rhs)]
    previous = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            return None
        aug[k], aug[pivot] = aug[pivot], aug[k]
        top = aug[k]
        for r in range(k + 1, n):
            row = aug[r]
            aug[r] = [(top[k] * row[c] - row[k] * top[c]) // previous for c in range(n + 1)]
        previous = top[k]
    scaled = [0] * n
    for k in range(n - 1, -1, -1):
        row = aug[k]
        scaled[k] = (row[n] * previous - sum(row[c] * scaled[c] for c in range(k + 1, n))) // row[k]
    return [F(v, previous) for v in scaled]


def exhaustive_polytope_vertices(rows, dim, sides):
    """`equilibrium._polytope_vertices` by solving every nonsingular square
    basis system.

    A basis is a set of free coordinates plus equally many tight payoff
    constraints (the remaining coordinates are pinned at zero). Each feasible
    solution is a vertex, labeled with its zero coordinates (`sides[0]`) and
    tight constraints (`sides[1]`). For each set of free coordinates the
    constraints are chosen depth-first in increasing order. Choosing one
    eliminates it from every later constraint (Bareiss, pivoting on the
    chosen row's first nonzero column), so systems that share a prefix share
    its elimination. A constraint that eliminates to zero would make the
    system singular, so it is dropped from every extension of the prefix.
    The search then solves each system exactly in integers by back
    substitution (Cramer) and tests the solution in integers.
    """
    zero_side, tight_side = sides
    vertices = {}
    count = len(rows)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    scaled = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]  # rows * scale . x <= scale

    def record(free, echelon):
        """Keep the basis solution x = nums / det if it is a new vertex."""
        det = echelon[-1][0][echelon[-1][1]] if echelon else 1
        nums = {}  # pivot column -> its coordinate times det
        for row, col in reversed(echelon):
            nums[col] = (row[-1] * det - sum(row[c] * v for c, v in nums.items())) // row[col]
        if det < 0:
            det, nums = -det, {col: -v for col, v in nums.items()}
        if any(v < 0 for v in nums.values()):
            return
        tight = []
        for r in range(count):
            value = sum(scaled[r][free[col]] * v for col, v in nums.items())
            if value > scale * det:
                return
            if value == scale * det:
                tight.append((tight_side, r))
        point = [Fraction(0)] * dim
        for col, v in nums.items():
            point[free[col]] = Fraction(v, det)
        if tuple(point) not in vertices:
            zeros = [(zero_side, i) for i, v in enumerate(point) if v == 0]
            vertices[tuple(point)] = frozenset(zeros + tight)

    def extend(free, echelon, pending):
        """Extend the chosen rows (`echelon`, each with its pivot column) by
        the later rows in `pending`, each already eliminated against them."""
        need = len(free) - len(echelon)
        if not need:
            record(free, echelon)
            return
        previous = echelon[-1][0][echelon[-1][1]] if echelon else 1
        for k in range(len(pending) - need + 1):
            row = pending[k]
            col = next(j for j in range(len(free)) if row[j])
            later = []
            if need > 1:
                for other in pending[k + 1 :]:
                    reduced = [(row[col] * x - other[col] * y) // previous for x, y in zip(other, row)]
                    if any(reduced[: len(free)]):
                        later.append(reduced)
            extend(free, echelon + [(row, col)], later)

    for size in range(min(dim, count) + 1):
        for free in itertools.combinations(range(dim), size):
            candidates = [[scaled[c][f] for f in free] + [scale] for c in range(count)]
            extend(free, [], [row for row in candidates if any(row[:size])])
    return vertices


def two_walk_vertex_pairs(receiver: IntegerPayoffs, sender: IntegerPayoffs) -> VertexPairs:
    """`equilibrium.extreme_vertex_pairs` by walking both best-response
    polytopes of the strict-dominance core in full and keeping the vertex
    pairs whose labels jointly cover every pure strategy of the core.

    Row i is label bit i and col j bit m + j, so a pair matches when the col
    vertex holds every label the row vertex lacks (a superset test, as
    degenerate vertices carry extra labels). Its `degenerate` is the flag
    the package had before it walked one polytope: some vertex of either
    core polytope is overlabeled.
    """
    full_m, full_n = len(receiver.matrix), len(receiver.matrix[0])
    kept_rows, kept_cols = strict_core(receiver.matrix, sender.matrix)
    m, n = len(kept_rows), len(kept_cols)
    p_rows = [[sender.matrix[i][j] + sender.shift for i in kept_rows] for j in kept_cols]
    q_rows = [[receiver.matrix[i][j] + receiver.shift for j in kept_cols] for i in kept_rows]
    p_vertices = _polytope_vertices(p_rows, m)
    q_vertices = _polytope_vertices(q_rows, n)
    degenerate = any(lx.bit_count() > m for lx in p_vertices.values()) or any(
        ly.bit_count() > n for ly in q_vertices.values()
    )
    full = (1 << (m + n)) - 1
    cols = (1 << n) - 1
    q_labeled = [(key[1:], (ly >> n) | (ly & cols) << m) for key, ly in q_vertices.items()]  # P's bit order
    pairs = []
    for key, lx in p_vertices.items():
        x = key[1:]
        if not any(x):
            continue
        need = full & ~lx
        for y, ly in q_labeled:
            if ly & need == need:
                pairs.append((_padded(x, kept_rows, full_m), _padded(y, kept_cols, full_n)))
    return VertexPairs(pairs=pairs, degenerate=degenerate)


def normalized_pairs(pairs) -> list[tuple[Mix, Mix]]:
    """Integer vertex pairs as sorted (row mix, col mix) `Fraction` pairs."""
    return sorted((tuple(F(v, sum(x)) for v in x), tuple(F(v, sum(y)) for v in y)) for x, y in pairs)


def _priced(gamma: BimatrixGame, row_mix: Mix, col_mix: Mix) -> MixedEquilibrium:
    """The mix pair with its expected (sender, receiver) payoffs in `gamma`."""
    m, n = gamma.shape
    u1 = sum(row_mix[i] * col_mix[j] * gamma.sender_payoff(i, j) for i in range(m) for j in range(n))
    u2 = sum(row_mix[i] * col_mix[j] * gamma.receiver_payoff(i, j) for i in range(m) for j in range(n))
    return MixedEquilibrium(row_mix=row_mix, col_mix=col_mix, payoffs=(u1, u2))


def reference_extreme_equilibria(gamma: BimatrixGame) -> EquilibriumSet:
    """`equilibrium.enumerate_extreme_equilibria` over Fractions.

    Shift each payoff matrix so its least entry is 1, take every labeled vertex
    of both best-response polytopes from the exhaustive basis search, and
    keep the pairs whose label sets together cover all m + n strategies.
    """
    m, n = gamma.shape
    receiver = positive_payoffs(gamma, 1)
    sender = positive_payoffs(gamma, 0)
    p_rows = [[sender[i][j] for i in range(m)] for j in range(n)]
    q_rows = [[receiver[i][j] for j in range(n)] for i in range(m)]
    p_vertices = exhaustive_polytope_vertices(p_rows, m, ("row", "col"))
    q_vertices = exhaustive_polytope_vertices(q_rows, n, ("col", "row"))
    degenerate = any(len(labels) > m for labels in p_vertices.values()) or any(
        len(labels) > n for labels in q_vertices.values()
    )
    found = {}
    for x, lx in p_vertices.items():
        for y, ly in q_vertices.items():
            if any(x) and any(y) and len(lx | ly) == m + n:
                row_mix = tuple(v / sum(x) for v in x)
                col_mix = tuple(v / sum(y) for v in y)
                found[(row_mix, col_mix)] = _priced(gamma, row_mix, col_mix)
    ordered = tuple(sorted(found.values(), key=MixedEquilibrium.sort_key))
    return EquilibriumSet(equilibria=ordered, degenerate=degenerate)


class InfeasibleProgram(ValueError):
    pass


class UnboundedProgram(ValueError):
    pass


def _pivot(tableau, basis, row, col):
    inv = tableau[row][col]
    tableau[row] = [v / inv for v in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [a - factor * b for a, b in zip(tableau[r], tableau[row])]
    basis[row] = col


def _optimize(tableau, basis, costs, n_vars):
    """Run simplex with Bland's rule on [A | b] rows; returns objective value."""
    m = len(tableau)
    # reduced costs: z_j = c_j - c_B . column_j
    while True:
        cb = [costs[b] for b in basis]
        entering = None
        for j in range(n_vars):
            if j in basis:
                continue
            reduced = costs[j] - sum(cb[r] * tableau[r][j] for r in range(m))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best = None
        for r in range(m):
            coef = tableau[r][entering]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise UnboundedProgram("objective unbounded below")
        _pivot(tableau, basis, leaving, entering)
    cb = [costs[b] for b in basis]
    return sum(cb[r] * tableau[r][-1] for r in range(m))


def simplex_minimize(objective, eq_rows, eq_rhs):
    """Minimize c.x subject to A x = b, x >= 0. Exact two-phase simplex.

    Bland's rule guarantees termination on degenerate inputs.
    """
    m = len(eq_rows)
    n = len(objective)
    tableau = []
    for i in range(m):
        row = list(eq_rows[i])
        b = eq_rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        tableau.append(row + [F(0)] * m + [b])
    for i in range(m):
        tableau[i][n + i] = F(1)
    basis = [n + i for i in range(m)]

    phase1 = [F(0)] * n + [F(1)] * m
    value = _optimize(tableau, basis, phase1, n + m)
    if value != 0:
        raise InfeasibleProgram("no feasible point")
    # drive leftover artificials out of the basis; drop redundant rows
    for r in range(m - 1, -1, -1):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                del tableau[r]
                del basis[r]
            else:
                _pivot(tableau, basis, r, col)
    tableau = [row[:n] + [row[-1]] for row in tableau]
    phase2 = list(objective)
    value = _optimize(tableau, basis, phase2, n)
    solution = [F(0)] * n
    for r, b in enumerate(basis):
        solution[b] = tableau[r][-1]
    return value, solution


def simplex_distance_to_hull(point, vertices):
    """`linalg.linf_distance_to_hull` by the two-phase simplex.

    Minimize t with |point - sum_k lambda_k v_k| <= t componentwise and
    lambda on the simplex, as equality rows with slacks.
    """
    dim = len(point)
    count = len(vertices)
    # variables: lambda_0..lambda_{K-1}, t, upper slacks s+_i, lower slacks s-_i
    rows = []
    rhs = []
    for i in range(dim):
        row = [v[i] for v in vertices] + [F(-1)] + [F(0)] * (2 * dim)
        row[count + 1 + i] = F(1)
        rows.append(row)
        rhs.append(point[i])
        row = [v[i] for v in vertices] + [F(1)] + [F(0)] * (2 * dim)
        row[count + 1 + dim + i] = F(-1)
        rows.append(row)
        rhs.append(point[i])
    rows.append([F(1)] * count + [F(0)] * (1 + 2 * dim))
    rhs.append(F(1))
    objective = [F(0)] * count + [F(1)] + [F(0)] * (2 * dim)
    value, _ = simplex_minimize(objective, rows, rhs)
    return value


def perturbed_game(gamma: BimatrixGame, rng: random.Random) -> BimatrixGame:
    """`gamma` with k/10^6 added to every payoff, k drawn uniformly from
    [-1000, 1000]: u1 then u2 of each cell, row by row, each perturbed payoff
    built as one Fraction. The same draws as `indices.DrawStore` makes from
    the same generator, which perturbs the game's integer views instead."""
    scale = 10**6
    bound = int(PerturbationConfig.magnitude * scale)

    def shifted(u: Fraction) -> Fraction:
        return Fraction(u.numerator * scale + rng.randint(-bound, bound) * u.denominator, u.denominator * scale)

    return replace(gamma, cells=tuple(tuple((shifted(u1), shifted(u2)) for (u1, u2) in row) for row in gamma.cells))


def reference_perturbation_index(gamma: BimatrixGame, component, cfg: PerturbationConfig) -> IndexResult:
    """`indices._perturbation_index` of one component on its own draws: each
    replication perturbs and enumerates its draws afresh, and each perturbed
    equilibrium's distance to the component is the least, over the Nash
    subsets, of the larger of its row and col hull distances."""

    def distance(eq):
        return min(
            max(linf_distance_to_hull(eq.row_mix, subset.row_face), linf_distance_to_hull(eq.col_mix, subset.col_face))
            for subset in component.subsets
        )

    sums = []
    for rep in range(cfg.replications):
        total = None
        for attempt in range(cfg.attempts):
            perturbed = perturbed_game(gamma, random.Random(f"{cfg.seed}:{rep}:{attempt}"))
            result = enumerate_extreme_equilibria(perturbed)
            if result.degenerate:
                continue
            try:
                total = sum(
                    equilibrium_index(perturbed, eq).value for eq in result if distance(eq) <= cfg.neighborhood
                )
            except DegenerateEquilibriumError:
                continue
            break
        if total is None:
            raise DegenerateDrawsError(
                f"replication {rep}: all {cfg.attempts} perturbation draws hit degenerate games"
            )
        sums.append(total)
    value, hits = max(Counter(sums).items(), key=lambda item: (item[1], -abs(item[0])))
    return IndexResult(
        value=value, method="perturbation", replications=cfg.replications, agreement=Fraction(hits, cfg.replications)
    )
