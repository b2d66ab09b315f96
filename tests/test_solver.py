from __future__ import annotations

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import lsext.field as field_module
import lsext.solver as solver
from conftest import binary_golay, extended_golay, reed_muller_2_5
from lsext.code import LinearCode
from lsext.errors import RankDeficientError
from lsext.extension import (
    CoverSystem,
    coverage_matrix,
    cover_system,
    format_matrix,
    is_good_extension,
    projective_filter,
)
from lsext.field import gf
from lsext.pipeline import extend_once, special_puncture, zero_coverage_system
from lsext.solver import (
    STRATEGIES,
    SolverConfig,
    SolveStatus,
    solve,
    solve_branch_and_bound,
    solve_exhaustive,
    solve_greedy,
    _Columns,
    _NARROW,
)
from oracles import oracle_cover_feasible, oracle_greedy, oracle_search


def system_of(rows, l, s, **kw):
    return CoverSystem.from_bits(np.array(rows, dtype=np.uint8), l=l, s=s, **kw)


def test_single_cell_feasible():
    outcome = solve_exhaustive(system_of([[1]], 1, 1))
    assert outcome.status == SolveStatus.FEASIBLE
    assert outcome.solutions[0].columns == (0,)
    assert outcome.exhausted


def test_two_rows_one_column_infeasible():
    outcome = solve_exhaustive(system_of([[1, 0], [0, 1]], 1, 1))
    assert outcome.status == SolveStatus.INFEASIBLE
    assert outcome.exhausted


def test_identity_matrix_needs_all_columns():
    eye = np.eye(4, dtype=np.uint8)
    assert solve_branch_and_bound(CoverSystem.from_bits(eye, l=3, s=1)).status == SolveStatus.INFEASIBLE
    assert solve_branch_and_bound(CoverSystem.from_bits(eye, l=4, s=1)).status == SolveStatus.FEASIBLE


def test_multiset_repeats_allowed_for_multicover():
    outcome = solve_exhaustive(system_of([[1]], 2, 2))
    assert outcome.status == SolveStatus.FEASIBLE
    assert outcome.solutions[0].columns == (0, 0)


def test_distinct_mode_forbids_repeats():
    sys_multi = system_of([[1]], 2, 2)
    sys_distinct = system_of([[1]], 2, 2, distinct=True)
    assert solve_exhaustive(sys_multi).status == SolveStatus.FEASIBLE
    assert solve_exhaustive(sys_distinct).status == SolveStatus.INFEASIBLE
    assert solve_branch_and_bound(sys_distinct).status == SolveStatus.INFEASIBLE


def test_masked_columns_never_selected():
    system = system_of([[1, 1]], 1, 1, masked=frozenset({0}))
    for solver in (solve_exhaustive, solve_branch_and_bound, solve_greedy):
        outcome = solver(system)
        assert all(0 not in sol.columns for sol in outcome.solutions)
    assert solve_exhaustive(system).solutions[0].columns == (1,)
    for l in (1, 2):
        none_left = system_of([[1, 1]], l, 1, masked=frozenset({0, 1}))
        for solver in (solve_exhaustive, solve_branch_and_bound):
            o = solver(none_left)
            assert (o.status, o.nodes_explored, o.exhausted) == (SolveStatus.INFEASIBLE, 0, True)
        o = solve_greedy(none_left)
        assert (o.status, o.nodes_explored, o.exhausted) == (SolveStatus.BUDGET_EXHAUSTED, 0, False)


def test_budget_exhausted_is_not_infeasible():
    system = system_of([[1, 0], [0, 1]], 2, 1)
    cfg = SolverConfig(strategy="exhaustive", node_limit=1, max_solutions=5)
    outcome = solve_exhaustive(system, cfg)
    assert outcome.status == SolveStatus.BUDGET_EXHAUSTED
    assert not outcome.exhausted
    cfg_b = SolverConfig(strategy="bnb", node_limit=1, max_solutions=5)
    outcome_b = solve_branch_and_bound(system, cfg_b)
    assert outcome_b.status in (SolveStatus.BUDGET_EXHAUSTED, SolveStatus.FEASIBLE)


def test_max_solutions_truncation_marks_unexhausted():
    system = system_of([[1, 1, 1]], 1, 1)
    cfg = SolverConfig(strategy="exhaustive", max_solutions=2)
    outcome = solve_exhaustive(system, cfg)
    assert [s.columns for s in outcome.solutions] == [(0,), (1,)]
    assert not outcome.exhausted
    full = solve_exhaustive(system, SolverConfig(strategy="exhaustive", max_solutions=10))
    assert len(full.solutions) == 3 and full.exhausted


def test_solutions_sorted_lexicographically():
    system = system_of([[1, 1, 1], [1, 1, 0]], 2, 1)
    for solver in (solve_exhaustive, solve_branch_and_bound):
        outcome = solver(system, SolverConfig(strategy="exhaustive", max_solutions=50))
        cols = [s.columns for s in outcome.solutions]
        assert cols == sorted(cols)


def test_greedy_contract():
    outcome = solve_greedy(system_of([[1]], 1, 1))
    assert outcome.status == SolveStatus.FEASIBLE
    system = system_of([[1, 0], [1, 1]], 1, 1)
    out = solve_greedy(system)
    assert out.status == SolveStatus.FEASIBLE
    assert is_good_extension(system, out.solutions[0].columns)


def test_greedy_can_fail_where_exhaustive_succeeds():
    # Column 0 covers the most rows, but the only size-2 cover is {1, 2};
    # classic greedy trap.
    rows = [
        [1, 1, 0],
        [1, 1, 0],
        [1, 0, 1],
        [1, 0, 1],
        [0, 1, 0],
        [0, 0, 1],
    ]
    system = system_of(rows, 2, 1)
    greedy = solve_greedy(system)
    assert greedy.status == SolveStatus.BUDGET_EXHAUSTED
    assert greedy.solutions == ()
    exhaustive = solve_exhaustive(system)
    assert exhaustive.status == SolveStatus.FEASIBLE
    assert exhaustive.solutions[0].columns == (1, 2)


def test_greedy_failure_is_never_reported_infeasible():
    system = system_of([[1, 0], [0, 1]], 1, 1)
    assert solve_greedy(system).status == SolveStatus.BUDGET_EXHAUSTED


def test_cross_strategy_agreement_random():
    rng = np.random.default_rng(19)
    for _ in range(250):
        t = int(rng.integers(1, 6))
        h = int(rng.integers(1, 8))
        bits = rng.integers(0, 2, size=(t, h)).astype(np.uint8)
        l = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        system = CoverSystem.from_bits(bits, l=l, s=s)
        cfg = SolverConfig(strategy="exhaustive", max_solutions=6, node_limit=500_000)
        a = solve_exhaustive(system, cfg)
        b = solve_branch_and_bound(system, cfg)
        assert a.status == b.status
        assert a.solutions == b.solutions
        feasible, first = oracle_cover_feasible(bits, l, s)
        assert (a.status == SolveStatus.FEASIBLE) == feasible
        if feasible:
            assert a.solutions[0].columns == first


def test_cross_strategy_agreement_wide_instances():
    rng = np.random.default_rng(101)
    for _ in range(10):
        bits = (rng.random((20, 50)) < 0.25).astype(np.uint8)
        for l, s in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
            system = CoverSystem.from_bits(bits, l=l, s=s)
            cfg = SolverConfig(strategy="exhaustive", max_solutions=3, node_limit=2_000_000)
            a = solve_exhaustive(system, cfg)
            b = solve_branch_and_bound(system, cfg)
            assert a.status == b.status
            if a.solutions:
                assert a.solutions[0] == b.solutions[0]


def test_monotonicity_in_l():
    rng = np.random.default_rng(53)
    for _ in range(60):
        t = int(rng.integers(1, 5))
        h = int(rng.integers(1, 6))
        bits = rng.integers(0, 2, size=(t, h)).astype(np.uint8)
        s = int(rng.integers(1, 3))
        for l in (1, 2):
            if solve_exhaustive(CoverSystem.from_bits(bits, l=l, s=s)).status == SolveStatus.FEASIBLE:
                bigger = solve_exhaustive(CoverSystem.from_bits(bits, l=l + 1, s=s))
                assert bigger.status == SolveStatus.FEASIBLE


def test_determinism():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=(6, 9)).astype(np.uint8)
    system = CoverSystem.from_bits(bits, l=2, s=1)
    for solver in (solve_exhaustive, solve_branch_and_bound, solve_greedy):
        first = solver(system)
        second = solver(system)
        assert first == second


def test_slacks_attached_to_solutions():
    system = system_of([[1, 1], [0, 1]], 2, 1)
    outcome = solve_exhaustive(system)
    sol = next(s for s in outcome.solutions if s.columns == (1, 1))
    assert sol.slacks == (1, 1)


def test_best_solution_maximizes_min_slack():
    # {0,1} covers row0 twice/row1 once; {1,1} covers both twice.
    system = system_of([[1, 1], [0, 1]], 2, 1)
    outcome = solve_exhaustive(system, SolverConfig(strategy="exhaustive", max_solutions=10))
    assert outcome.best is not None
    assert outcome.best.columns == (1, 1)
    assert outcome.best.min_slack == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(strategy="magic")
    with pytest.raises(ValueError):
        SolverConfig(max_solutions=0)
    with pytest.raises(ValueError):
        SolverConfig(node_limit=0)


def test_dispatch():
    system = system_of([[1]], 1, 1)
    assert solve(system, SolverConfig(strategy="greedy")).status == SolveStatus.FEASIBLE
    assert solve(system).status == SolveStatus.FEASIBLE


def test_text_interface_round_trip():
    bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    assert "".join(format_matrix(bits)) == "2 3\n101\n011\n"
    # Any nonzero entry is written as 1; a matrix without rows is its header alone.
    assert "".join(format_matrix(np.array([[2, 0, 255], [0, 7, 0]], dtype=np.uint8))) == "2 3\n101\n010\n"
    assert "".join(format_matrix(np.zeros((0, 4), dtype=np.uint8))) == "0 4\n"
    outcome = solve(CoverSystem.from_bits(bits, l=1, s=1))
    assert outcome.status == SolveStatus.FEASIBLE
    assert [sol.columns for sol in outcome.solutions] == [(2,)]
    multi = solve(CoverSystem.from_bits(bits, l=2, s=1), SolverConfig(max_solutions=10))
    assert multi.solutions[0].columns == (0, 1)


def test_matrix_dump_round_trip(hamming, golay):
    # `dump-d` writes the coverage bits row by row, and those bits solve as the system does.
    for code in (hamming, golay):
        matrix = coverage_matrix(code)
        bits = matrix.bits
        rows = ["".join(str(b) for b in row) for row in bits.tolist()]
        assert "".join(format_matrix(bits)) == "\n".join([f"{matrix.t} {matrix.h}", *rows]) + "\n"
        for l, s in ((1, 1), (2, 1)):
            a = solve(CoverSystem.from_bits(bits, l=l, s=s))
            b = solve(cover_system(matrix, l, s))
            assert (a.status, a.nodes_explored, a.solutions) == (b.status, b.nodes_explored, b.solutions)


@pytest.mark.parametrize(
    "code_name, l, nodes, firsts",
    [
        ("hamming", 1, (15, 15, 15), ((13,), (13,), (13,))),
        ("hamming", 2, (64, 70, 30), ((0, 13), (0, 13), (0, 13))),
        ("golay", 1, (364, 364, 364), ((242,), (242,), (242,))),
        ("golay", 2, (1327, 1454, 728), ((0, 241), (0, 241), (0, 242))),
    ],
)
def test_node_counts_and_first_solutions_pinned(request, code_name, l, nodes, firsts):
    # Node counts and solution order are part of every report; a change to
    # how the strategies walk the coverage matrix must leave them as they are.
    code = request.getfixturevalue(code_name)
    system = cover_system(coverage_matrix(code), l, code.guaranteed_gain(l))
    # With the default max_solutions=10, exhaustive and bnb stop early at l=2.
    complete = l == 1
    for strategy, node_count, first in zip(STRATEGIES, nodes, firsts):
        outcome = solve(system, SolverConfig(strategy=strategy))
        assert outcome.status == SolveStatus.FEASIBLE
        assert outcome.nodes_explored == node_count
        assert outcome.exhausted == (complete and strategy != "greedy")
        assert outcome.solutions[0].columns == first


@pytest.mark.parametrize("t", [1, 8, 9, 16, 17, 32, 33, 63, 64, 65, 129])
def test_packed_rows_across_word_boundaries(t):
    # Rows on both sides of each word-width boundary (8, 16, 32 and 64 bits)
    # and of the second 64-bit word, in plain, masked and distinct systems:
    # bnb agrees with exhaustive and with a brute-force oracle.
    rng = np.random.default_rng(t)
    for _ in range(12):
        h = int(rng.integers(1, 7))
        # Dense columns, so that covers of 2-3 columns, and multicovers, exist at large t.
        bits = (rng.random((t, h)) < rng.choice([0.8, 0.97, 0.995])).astype(np.uint8)
        system = CoverSystem.from_bits(bits, l=1, s=1)
        assert np.array_equal(system.bits, bits)
        assert system.packed.shape == (h, (t + 63) // 64)
        for l in (1, 2, 3):
            for s in range(1, min(l, 3) + 1):
                masked = frozenset(int(j) for j in rng.choice(h, size=h // 3, replace=False))
                for kw in ({}, {"masked": masked}, {"distinct": True}):
                    system = CoverSystem.from_bits(bits, l=l, s=s, **kw)
                    cfg = SolverConfig(strategy="exhaustive", max_solutions=6)
                    a = solve_exhaustive(system, cfg)
                    b = solve_branch_and_bound(system, cfg)
                    assert (a.status, a.solutions) == (b.status, b.solutions)
                    allowed = np.setdiff1d(np.arange(system.num_columns), sorted(system.masked))
                    feasible, first = oracle_cover_feasible(
                        bits[:, allowed], l, s, distinct=system.distinct
                    )
                    assert (a.status == SolveStatus.FEASIBLE) == feasible
                    if feasible:
                        assert a.solutions[0].columns == tuple(int(allowed[p]) for p in first)


@pytest.mark.parametrize(
    "build, t, status, nodes",
    [
        (lambda: zero_coverage_system(extended_golay(), 5, 1), 759, SolveStatus.INFEASIBLE, 54_237),
        (lambda: zero_coverage_system(extended_golay(), 6, 2), 759, SolveStatus.INFEASIBLE, 178_129),
        (lambda: cover_system(coverage_matrix(reed_muller_2_5()), 1, 1), 620, SolveStatus.INFEASIBLE, 65_535),
        (lambda: cover_system(coverage_matrix(extended_golay()), 2, 1), 759, SolveStatus.BUDGET_EXHAUSTED, 1_000_000),
    ],
)
def test_bnb_node_counts_pinned_on_multiword_rows(build, t, status, nodes):
    # Systems with t > 64 rows span several words per column; the tree walked
    # must not depend on the layout.
    system = build()
    assert system.num_rows == t
    outcome = solve_branch_and_bound(system)
    assert (outcome.status, outcome.nodes_explored) == (status, nodes)
    assert outcome.exhausted == (status == SolveStatus.INFEASIBLE)


@pytest.mark.parametrize("h", [_NARROW - 1, _NARROW, _NARROW + 1, 3 * _NARROW])
def test_narrow_and_wide_scans_agree(h):
    # Scans over at most _NARROW remaining columns test Python ints, wider ones
    # test the packed rows in numpy.  Column counts on both sides of that rule,
    # over two-word rows, in plain, masked and distinct systems: bnb lists the
    # same complete solution set as exhaustive, and both agree with a
    # brute-force oracle where it is tractable.
    rng = np.random.default_rng(h)
    masked = frozenset(int(j) for j in rng.choice(h, size=h // 3, replace=False))
    for l, s, density in [(2, 1, 0.7), (2, 2, 0.97), (3, 1, 0.5), (3, 2, 0.8)]:
        bits = (rng.random((70, h)) < density).astype(np.uint8)
        for kw in ({}, {"masked": masked}, {"distinct": True}):
            system = CoverSystem.from_bits(bits, l=l, s=s, **kw)
            cfg = SolverConfig(strategy="exhaustive", max_solutions=1000, node_limit=2_000_000)
            a = solve_exhaustive(system, cfg)
            b = solve_branch_and_bound(system, cfg)
            assert a.exhausted
            assert (a.status, a.solutions, a.exhausted) == (b.status, b.solutions, b.exhausted)
            allowed = np.setdiff1d(np.arange(system.num_columns), sorted(system.masked))
            count = len(allowed)
            combos = math.comb(count, l) if system.distinct else math.comb(count + l - 1, l)
            if combos <= 50_000:
                feasible, first = oracle_cover_feasible(bits[:, allowed], l, s, distinct=system.distinct)
                assert (a.status == SolveStatus.FEASIBLE) == feasible
                if feasible:
                    assert a.solutions[0].columns == tuple(int(allowed[p]) for p in first)


def _golay23_l2():
    return cover_system(coverage_matrix(binary_golay()), 2, 1)


def _golay24_puncture_10_4():
    return zero_coverage_system(extended_golay(), 10, 4)


@pytest.mark.parametrize(
    "build, strategy, cfg, expected",
    [
        # Wide: t = 253 rows, h = 4095 columns.  The defaults stop at the tenth
        # solution inside a last pick; 5000 nodes cut the second last pick.
        (_golay23_l2, "exhaustive", {}, (SolveStatus.FEASIBLE, 20_465, False, 10)),
        (_golay23_l2, "bnb", {}, (SolveStatus.FEASIBLE, 20_470, False, 10)),
        (_golay23_l2, "exhaustive", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 4_094, False, 1)),
        (_golay23_l2, "bnb", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 4_096, False, 1)),
        (_golay23_l2, "exhaustive", {"node_limit": 3000}, (SolveStatus.BUDGET_EXHAUSTED, 3_000, False, 0)),
        (_golay23_l2, "bnb", {"node_limit": 3000}, (SolveStatus.BUDGET_EXHAUSTED, 3_000, False, 0)),
        (_golay23_l2, "exhaustive", {"node_limit": 5000}, (SolveStatus.FEASIBLE, 5_000, False, 2)),
        (_golay23_l2, "bnb", {"node_limit": 5000}, (SolveStatus.FEASIBLE, 5_000, False, 2)),
        # Narrow: t = 759 rows, h = 24 positions.
        (_golay24_puncture_10_4, "exhaustive", {"max_solutions": 3}, (SolveStatus.FEASIBLE, 29, False, 3)),
        (_golay24_puncture_10_4, "bnb", {"max_solutions": 3}, (SolveStatus.FEASIBLE, 39, False, 3)),
        (_golay24_puncture_10_4, "exhaustive", {"node_limit": 60}, (SolveStatus.FEASIBLE, 60, False, 6)),
        (_golay24_puncture_10_4, "bnb", {"node_limit": 60}, (SolveStatus.FEASIBLE, 60, False, 5)),
        (_golay24_puncture_10_4, "bnb", {"node_limit": 15}, (SolveStatus.BUDGET_EXHAUSTED, 15, False, 0)),
    ],
)
def test_node_counts_pinned_at_budget_and_solution_stops(build, strategy, cfg, expected):
    # Each stop falls inside one last pick.  Exhaustive counts the leaves up to
    # and including the one that stops it; bnb counts every column the stopped
    # pick tests, and both charge the budget for the columns a pick tests.
    outcome = solve(build(), SolverConfig(strategy=strategy, **cfg))
    assert (outcome.status, outcome.nodes_explored, outcome.exhausted, len(outcome.solutions)) == expected


def _scratch(search, system, config=None):
    """A search's outcome and the peak of what it allocates, the system being built already."""
    tracemalloc.start()
    try:
        outcome = search(system, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return outcome, peak


def test_wide_solve_memory_is_bounded():
    # RM(2,5) at l=1 is one vectorised pick over h = 65,535 columns of 620
    # rows (5.2 MB packed).  Its scratch is about 0.6 MB, the blocks of the
    # scan; reading every column into a Python int, or copying the packed
    # matrix, would add 5 MB or more.
    system = cover_system(coverage_matrix(reed_muller_2_5()), 1, 1)
    outcome, peak = _scratch(solve_branch_and_bound, system)
    assert (outcome.status, outcome.nodes_explored) == (SolveStatus.INFEASIBLE, 65_535)
    assert peak < 2 * 1024 * 1024


def test_masked_wide_solve_reads_the_columns_in_place():
    # The same pick with the code's 32 points masked: positions map to
    # columns through the masked list and each block is read in place, so
    # the scratch stays that of the unmasked pick, not a 5.2 MB copy.
    system = projective_filter(cover_system(coverage_matrix(reed_muller_2_5()), 1, 1))
    assert len(system.masked) == 32
    outcome, peak = _scratch(solve_branch_and_bound, system)
    assert (outcome.status, outcome.nodes_explored) == (SolveStatus.INFEASIBLE, 65_503)
    assert peak < 1.5 * 1024 * 1024


def test_root_gain_bound_streams_its_blocks():
    # RM(2,5) at l=2, s=2 is cut at the root: no column gains 620 of the
    # 1240 missing covers.  The bound scans block by block and keeps no
    # (h,) array of gains.
    code = reed_muller_2_5()
    system = cover_system(coverage_matrix(code), 2, code.guaranteed_gain(2))
    outcome, peak = _scratch(solve_branch_and_bound, system)
    assert (outcome.status, outcome.nodes_explored) == (SolveStatus.INFEASIBLE, 0)
    assert peak < 1024 * 1024


def test_reach_is_the_or_of_the_columns_from_start():
    # Wide starts read the OR of all columns at the root and a suffix-OR
    # table further in; the last _NARROW starts read Python ints.
    rng = np.random.default_rng(4)
    bits = (rng.random((70, 3 * _NARROW)) < 0.02).astype(np.uint8)
    columns = _Columns(CoverSystem.from_bits(bits, l=2, s=1))
    for start in (0, 1, 0, 2 * _NARROW - 1, 2 * _NARROW, 3 * _NARROW - 1, 3 * _NARROW):
        rows = np.flatnonzero(bits[:, start:].any(axis=1))
        assert columns.reach(start) == sum(1 << int(i) for i in rows)


# Offsets from the start of a last pick at which the wide-pick tests plant
# covering columns: on both sides of the ends of the pick's first blocks,
# 64 and 576 columns in (blocks of 64, then 512), of 192, 448, 960 and 1984,
# and of the powers 256 and 1024.
_PLANTED = [63, 64, 191, 192, 255, 256, 447, 448, 575, 576, 959, 960, 1023, 1024, 1983, 1984]


def _planted_wide_system(l, t, masked):
    # 2100 sparse random columns that never cover the system on their own.
    # At l = 1 the planted columns cover every row; at l = 2 (distinct) column 3
    # covers the first half of the rows and the planted columns, counted
    # from 4 where the last pick after column 3 starts, the second half.
    rng = np.random.default_rng(t)
    bits = (rng.random((t, 2100)) < 0.05).astype(np.uint8)
    if l == 1:
        bits[:, _PLANTED] = 1
    else:
        bits[: t // 2, 3] = 1
        bits[t // 2 :, [4 + j for j in _PLANTED]] = 1
    mask = frozenset((5, 70, 300) if masked else ())
    return CoverSystem.from_bits(bits, l=l, s=1, distinct=l == 2, masked=mask)


@pytest.mark.parametrize("t", [40, 70])
@pytest.mark.parametrize(
    "l, masked, strategy, cfg, nodes, found",
    [
        # Pinned from the search that tested every column of a wide last pick;
        # a stop at twelve solutions lands on the twelfth planted column, 960 in.
        (1, False, "exhaustive", {"max_solutions": 1}, 64, 1),
        (1, False, "exhaustive", {"max_solutions": 12}, 961, 12),
        (1, False, "exhaustive", {"node_limit": 500}, 500, 8),
        (1, False, "exhaustive", {"node_limit": 1100, "max_solutions": 20}, 1100, 14),
        (1, False, "bnb", {"max_solutions": 1}, 2100, 1),
        (1, False, "bnb", {"max_solutions": 12}, 2100, 12),
        (1, False, "bnb", {"node_limit": 500}, 500, 8),
        (1, False, "bnb", {"node_limit": 1100, "max_solutions": 20}, 1100, 14),
        (1, True, "exhaustive", {"max_solutions": 1}, 63, 1),
        (1, True, "exhaustive", {"max_solutions": 12}, 958, 12),
        (1, True, "exhaustive", {"node_limit": 500}, 500, 8),
        (1, True, "exhaustive", {"node_limit": 1100, "max_solutions": 20}, 1100, 14),
        (1, True, "bnb", {"max_solutions": 1}, 2097, 1),
        (1, True, "bnb", {"max_solutions": 12}, 2097, 12),
        (1, True, "bnb", {"node_limit": 500}, 500, 8),
        (1, True, "bnb", {"node_limit": 1100, "max_solutions": 20}, 1100, 14),
        (2, False, "exhaustive", {"max_solutions": 1}, 6358, 1),
        (2, False, "exhaustive", {"max_solutions": 12}, 7255, 12),
        (2, False, "exhaustive", {"node_limit": 6800}, 6800, 8),
        (2, False, "exhaustive", {"node_limit": 7400, "max_solutions": 20}, 7400, 14),
        (2, False, "bnb", {"max_solutions": 1}, 8394, 1),
        (2, False, "bnb", {"max_solutions": 12}, 8394, 12),
        (2, False, "bnb", {"node_limit": 6800}, 6800, 8),
        (2, False, "bnb", {"node_limit": 7400, "max_solutions": 20}, 7400, 14),
        (2, True, "exhaustive", {"max_solutions": 1}, 6348, 1),
        (2, True, "exhaustive", {"max_solutions": 12}, 7243, 12),
        (2, True, "exhaustive", {"node_limit": 6800}, 6800, 8),
        (2, True, "exhaustive", {"node_limit": 7400, "max_solutions": 20}, 7400, 14),
        (2, True, "bnb", {"max_solutions": 1}, 8382, 1),
        (2, True, "bnb", {"max_solutions": 12}, 8382, 12),
        (2, True, "bnb", {"node_limit": 6800}, 6800, 8),
        (2, True, "bnb", {"node_limit": 7400, "max_solutions": 20}, 7400, 14),
    ],
)
def test_wide_last_pick_stops_at_its_solutions_with_nodes_unchanged(t, l, masked, strategy, cfg, nodes, found):
    # A wide last pick may stop scanning once it has the solutions it wants,
    # but its solutions and node charge are those of a scan of every column:
    # first, twelfth and budget stops land at and across the scan's block ends,
    # over one-word (t = 40) and two-word (t = 70) rows, with and without masked columns.
    outcome = solve(_planted_wide_system(l, t, masked), SolverConfig(strategy=strategy, **cfg))
    expected = [(j,) if l == 1 else (3, 4 + j) for j in _PLANTED[:found]]
    assert (outcome.status, outcome.nodes_explored, outcome.exhausted) == (SolveStatus.FEASIBLE, nodes, False)
    assert [sol.columns for sol in outcome.solutions] == expected


def test_wide_covering_scan_agrees_with_a_full_scan():
    # Every start, stop and wanted count near the block ends of one column set.
    system = _planted_wide_system(1, 70, False)
    columns = _Columns(system)
    full = (1 << 70) - 1
    planted = np.array(_PLANTED)
    for start in (0, 1, 62, 63, 64, 65, 191, 500, 575, 577, 1984, 2036, 2099):
        for stop in (start + 1, start + 65, start + 129, start + 577, 1025, 2100):
            for wanted in (1, 2, 5, 100):
                hits = planted[(planted >= start) & (planted < stop)][:wanted]
                assert columns.covering(start, stop, full, wanted) == hits.tolist()


def test_masked_wide_scans_match_the_scans_without_the_masked_columns():
    # A masked wide scan neutralises the masked columns in each block's result
    # and maps the offsets it keeps back to positions, so it finds what the
    # same scan finds over the matrix with those columns deleted.  Over two
    # words, decoy columns hold the densest word of the rows sought but not
    # the whole row: they pass the one-word test and fail the full one.
    rng = np.random.default_rng(11)
    for t in (40, 70):
        bits = (rng.random((t, 2100)) < 0.05).astype(np.uint8)
        bits[:, rng.choice(2100, size=40, replace=False)] = 1
        decoys = rng.choice(2100, size=40, replace=False)
        bits[:, decoys] = 1
        bits[t - 1, decoys] = 0
        masked = sorted(set(rng.choice(2100, size=60, replace=False).tolist()) | {0, 63, 64, 575, 576, 2099})
        kept = np.setdiff1d(np.arange(2100), masked)
        with_mask = _Columns(CoverSystem.from_bits(bits, l=1, s=1, masked=frozenset(masked)))
        without = _Columns(CoverSystem.from_bits(bits[:, kept], l=1, s=1))
        assert with_mask.count == without.count == len(kept)
        full = (1 << t) - 1
        for start, stop in [(0, len(kept)), (1, 700), (63, 576), (500, len(kept)), (len(kept) - 70, len(kept))]:
            for wanted in (1, 5, 100):
                found = with_mask.covering(start, stop, full, wanted)
                assert found == without.covering(start, stop, full, wanted)
                assert found == [p for p in range(start, stop) if bits[:, kept[p]].all()][:wanted]
        for deficient in (full, full >> 3, int(rng.integers(1, 1 << 30))):
            for start in (0, 1, 640, len(kept) - 65):
                for gain in (1, 5, 12, t):
                    assert with_mask.has_gain(start, deficient, gain) == without.has_gain(start, deficient, gain)
        assert with_mask.reach(0) == without.reach(0)


def _golay24_extend_l2_s1():
    return extend_once(extended_golay(), 2, 1)


def _golay24_puncture(l, s):
    return lambda: special_puncture(extended_golay(), l, s)


@pytest.mark.parametrize(
    "step, status, nodes",
    [
        (_golay24_puncture(6, 2), SolveStatus.INFEASIBLE, 178_129),
        (_golay24_puncture(5, 1), SolveStatus.INFEASIBLE, 54_237),
        (_golay24_extend_l2_s1, SolveStatus.BUDGET_EXHAUSTED, 1_000_000),
    ],
)
def test_extended_golay_hot_searches_pinned(step, status, nodes):
    # The three searches of the extended Golay code that the bench's search
    # workload spends most of its solver time in, at the default budget:
    # two punctures over 24 narrow positions and an extension whose wide
    # last picks run out of budget (Griesmer proves it infeasible, 27 > 26).
    search = step().search
    assert (search.status, search.nodes_explored, search.solutions) == (status, nodes, ())
    assert search.exhausted == (status == SolveStatus.INFEASIBLE)


def _wide_one_word_packed():
    rng = np.random.default_rng(0)
    packed = rng.integers(0, 7, size=(1 << 18, 1), dtype=np.uint64)  # 3 rows, never all set
    packed.setflags(write=False)
    return rng, packed


def test_unmasked_wide_pick_keeps_no_index_array():
    # An unmasked l = 1 pick over h = 2^18 one-word columns (2 MB packed).
    # Positions are the system's columns, so no (h,) index array is built,
    # and the pick scans blocks of at most 2^16 words: the peak is about
    # 0.6 MB, where an int64 index array alone would be 2 MB.
    _, packed = _wide_one_word_packed()
    system = CoverSystem(packed=packed, num_rows=3, l=1, s=1)
    outcome, peak = _scratch(solve_branch_and_bound, system)
    assert (outcome.status, outcome.nodes_explored) == (SolveStatus.INFEASIBLE, 1 << 18)
    assert peak < 1024 * 1024


def test_masked_wide_pick_keeps_no_index_array():
    # The same pick with 100 columns masked: positions map to columns through
    # the 100 masked ones, not an (h,) array of allowed columns, and no
    # column is copied.
    rng, packed = _wide_one_word_packed()
    masked = frozenset(rng.choice(1 << 18, size=100, replace=False).tolist())
    system = CoverSystem(packed=packed, num_rows=3, l=1, s=1, masked=masked)
    outcome, peak = _scratch(solve_branch_and_bound, system)
    assert (outcome.status, outcome.nodes_explored) == (SolveStatus.INFEASIBLE, (1 << 18) - 100)
    assert peak < 1024 * 1024


@pytest.mark.parametrize("h", [3, 100])
def test_system_without_rows_is_covered_by_every_multiset(h):
    # No row needs a cover, so every multiset (or set) of l columns is a
    # solution, listed in lexicographic order; the wide scans see zero words.
    for l, distinct in [(1, False), (2, False), (2, True), (3, True)]:
        system = CoverSystem.from_bits(np.zeros((0, h), dtype=np.uint8), l=l, s=1, distinct=distinct)
        pick = itertools.combinations if distinct else itertools.combinations_with_replacement
        first = list(itertools.islice(pick(range(h), l), 10))
        for strategy in STRATEGIES:
            outcome = solve(system, SolverConfig(strategy=strategy))
            assert outcome.status == SolveStatus.FEASIBLE
            assert all(sol.slacks == () for sol in outcome.solutions)
            if strategy != "greedy":
                assert [sol.columns for sol in outcome.solutions] == first[: len(outcome.solutions)]
                assert len(outcome.solutions) == min(10, len(first))


def test_two_pick_step_matches_reference():
    # A narrow node with two picks left recurses only into its live first
    # picks and charges the others in one sum per run; the reference pays one
    # recursion per first pick and one test per column.  Seeded random
    # systems on both sides of _NARROW columns and of the 64-row word boundary,
    # plain, masked and distinct, with budgets and solution caps that stop
    # under a two-pick node: statuses, nodes, solutions and slacks agree.
    rng = np.random.default_rng(2012)
    for _ in range(400):
        h, t = int(rng.integers(1, 71)), int(rng.integers(1, 131))
        l, s = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        bits = (rng.random((t, h)) < rng.choice([0.3, 0.7, 0.9, 0.97, 0.995])).astype(np.uint8)
        kind = int(rng.integers(3))
        masked = frozenset(int(j) for j in rng.choice(h, size=int(rng.integers(0, h // 3 + 1)), replace=False))
        kw = [{}, {"masked": masked}, {"distinct": True}][kind]
        strategy = str(rng.choice(["exhaustive", "bnb"]))
        node_limit = int(rng.integers(1, 300) if rng.random() < 0.5 else rng.integers(300, 4000))
        if math.comb(h + l - 1, l) <= 20_000 and rng.random() < 0.3:
            node_limit = 1_000_000
        max_solutions = int(rng.choice([1, 2, 5, 10, 1_000_000]))
        system = CoverSystem.from_bits(bits, l=l, s=s, **kw)
        outcome = solve(system, SolverConfig(strategy=strategy, max_solutions=max_solutions, node_limit=node_limit))
        expected = oracle_search(
            bits, l, s, prune=strategy == "bnb", max_solutions=max_solutions, node_limit=node_limit, **kw
        )
        got = [(sol.columns, sol.slacks) for sol in outcome.solutions]
        assert (outcome.status, outcome.nodes_explored, outcome.exhausted, got) == expected


def _two_pick_system(l, distinct):
    # t = 70 rows (two words), h = 20 sparse columns.  Column 0 covers the
    # first 35 rows and column 4 the first 50; columns 6, 11 and 15 cover
    # the last 35 (15 the last 40), so (0, 6), (0, 11), (0, 15), (4, 6),
    # (4, 11) and (4, 15) are the covering pairs.
    rng = np.random.default_rng(12)
    bits = (rng.random((70, 20)) < 0.25).astype(np.uint8)
    bits[:35, 0] = 1
    bits[35:, [6, 11]] = 1
    bits[:50, 4] = 1
    bits[30:, 15] = 1
    return CoverSystem.from_bits(bits, l=l, s=1, distinct=distinct)


@pytest.mark.parametrize(
    "l, distinct, strategy, cfg, expected",
    [
        # l = 2: the root is one two-pick node whose complete charge is 190
        # leaves (exhaustive) and 20 + 190 nodes (bnb) over sets, 210 and
        # 20 + 210 over multisets.
        (2, True, "exhaustive", {"node_limit": 189}, (SolveStatus.FEASIBLE, 189, False, 6)),
        (2, True, "exhaustive", {"node_limit": 190}, (SolveStatus.FEASIBLE, 190, True, 6)),
        (2, True, "exhaustive", {"node_limit": 191}, (SolveStatus.FEASIBLE, 190, True, 6)),
        (2, True, "bnb", {"node_limit": 209}, (SolveStatus.FEASIBLE, 209, False, 6)),
        (2, True, "bnb", {"node_limit": 210}, (SolveStatus.FEASIBLE, 210, True, 6)),
        (2, True, "bnb", {"node_limit": 211}, (SolveStatus.FEASIBLE, 210, True, 6)),
        (2, False, "exhaustive", {"node_limit": 209}, (SolveStatus.FEASIBLE, 209, False, 6)),
        (2, False, "exhaustive", {"node_limit": 210}, (SolveStatus.FEASIBLE, 210, True, 6)),
        (2, False, "exhaustive", {"node_limit": 211}, (SolveStatus.FEASIBLE, 210, True, 6)),
        (2, False, "bnb", {"node_limit": 229}, (SolveStatus.FEASIBLE, 229, False, 6)),
        (2, False, "bnb", {"node_limit": 230}, (SolveStatus.FEASIBLE, 230, True, 6)),
        (2, False, "bnb", {"node_limit": 231}, (SolveStatus.FEASIBLE, 230, True, 6)),
        # Budgets that end the scan under first pick 0 one column before, and
        # at, its first solution (0, 6).
        (2, True, "exhaustive", {"node_limit": 5}, (SolveStatus.BUDGET_EXHAUSTED, 5, False, 0)),
        (2, True, "exhaustive", {"node_limit": 6}, (SolveStatus.FEASIBLE, 6, False, 1)),
        (2, True, "bnb", {"node_limit": 6}, (SolveStatus.BUDGET_EXHAUSTED, 6, False, 0)),
        (2, True, "bnb", {"node_limit": 7}, (SolveStatus.FEASIBLE, 7, False, 1)),
        # Stops at the first solution, under the first first pick, and at the
        # fifth, under first pick 4.
        (2, True, "exhaustive", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 6, False, 1)),
        (2, True, "exhaustive", {"max_solutions": 5}, (SolveStatus.FEASIBLE, 77, False, 5)),
        (2, True, "bnb", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 20, False, 1)),
        (2, True, "bnb", {"max_solutions": 5}, (SolveStatus.FEASIBLE, 90, False, 5)),
        (2, False, "exhaustive", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 7, False, 1)),
        (2, False, "exhaustive", {"max_solutions": 5}, (SolveStatus.FEASIBLE, 82, False, 5)),
        (2, False, "bnb", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 21, False, 1)),
        (2, False, "bnb", {"max_solutions": 5}, (SolveStatus.FEASIBLE, 95, False, 5)),
        # l = 3: the two-pick node under first pick 0 starts at column 1 and charges
        # 171 leaves (exhaustive) or 1 + 19 + 171 nodes (bnb).
        (3, True, "exhaustive", {"node_limit": 170}, (SolveStatus.FEASIBLE, 170, False, 51)),
        (3, True, "exhaustive", {"node_limit": 171}, (SolveStatus.FEASIBLE, 171, False, 51)),
        (3, True, "exhaustive", {"node_limit": 172}, (SolveStatus.FEASIBLE, 172, False, 51)),
        (3, True, "bnb", {"node_limit": 190}, (SolveStatus.FEASIBLE, 190, False, 51)),
        (3, True, "bnb", {"node_limit": 191}, (SolveStatus.FEASIBLE, 191, False, 51)),
        (3, True, "bnb", {"node_limit": 192}, (SolveStatus.FEASIBLE, 192, False, 51)),
        (3, True, "exhaustive", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 5, False, 1)),
        (3, True, "exhaustive", {"max_solutions": 5}, (SolveStatus.FEASIBLE, 27, False, 5)),
        (3, True, "bnb", {"max_solutions": 1}, (SolveStatus.FEASIBLE, 20, False, 1)),
        (3, True, "bnb", {"max_solutions": 5}, (SolveStatus.FEASIBLE, 38, False, 5)),
    ],
)
def test_node_counts_pinned_at_two_pick_stops(l, distinct, strategy, cfg, expected):
    # Budget stops one node before, at and after the charge of a complete
    # two-pick subtree, and solution stops under the first and a later first
    # pick, on a narrow system of two-word rows.
    cfg = {"max_solutions": 1000, **cfg}
    outcome = solve(_two_pick_system(l, distinct), SolverConfig(strategy=strategy, **cfg))
    assert (outcome.status, outcome.nodes_explored, outcome.exhausted, len(outcome.solutions)) == expected


def _lifetime_system(kind, feasible):
    # t = 70 rows (two words), h = 150 columns, so the first picks start in
    # numpy scans and end over narrow ints.  Sparse random columns, column 140
    # covering the first 35 rows and columns 145 and 147 the last 35 (or 34
    # when not `feasible`): (140, 145) and (140, 147) are the only covers by two.
    rng = np.random.default_rng(70)
    bits = (rng.random((70, 150)) < 0.3).astype(np.uint8)
    bits[:35, 140] = 1
    bits[35 : 70 if feasible else 69, [145, 147]] = 1
    kw = {"plain": {}, "masked": {"masked": frozenset({3, 77, 120, 146})}, "distinct": {"distinct": True}}[kind]
    return CoverSystem.from_bits(bits, l=2, s=1, **kw)


@pytest.mark.parametrize("kind", ["plain", "masked", "distinct"])
@pytest.mark.parametrize(
    "stop, cfg, status",
    [
        ("feasible", {}, SolveStatus.FEASIBLE),
        ("infeasible", {}, SolveStatus.INFEASIBLE),
        ("budget", {"node_limit": 50}, SolveStatus.BUDGET_EXHAUSTED),
        ("max_solutions", {"max_solutions": 1}, SolveStatus.FEASIBLE),
    ],
)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_search_releases_its_system_on_return(no_gc, strategy, stop, cfg, status, kind):
    # With the cyclic collector off, nothing of a search may keep the system
    # alive once it returns, at any stop and on every kind of system.
    system = _lifetime_system(kind, feasible=stop != "infeasible")
    ref = weakref.ref(system.packed)
    outcome = solve(system, SolverConfig(strategy=strategy, **cfg))
    del system
    assert ref() is None
    if strategy == "greedy":
        assert outcome.status == (SolveStatus.BUDGET_EXHAUSTED if stop == "infeasible" else SolveStatus.FEASIBLE)
    else:
        assert outcome.status == status
        assert outcome.exhausted == (stop in ("feasible", "infeasible"))
        assert len(outcome.solutions) == {"feasible": 2, "max_solutions": 1}.get(stop, 0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_search_releases_its_system_when_it_raises(no_gc, monkeypatch, strategy):
    def fail(system, picks):
        raise RuntimeError("solutions_for failed")

    monkeypatch.setattr(solver, "solutions_for", fail)
    system = _lifetime_system("masked", feasible=True)
    ref = weakref.ref(system.packed)
    try:
        solve(system, SolverConfig(strategy=strategy))
    except RuntimeError:
        pass
    else:
        pytest.fail("the search did not raise")
    del system
    assert ref() is None


# -- systems read through the kernel's tables -------------------------------------


def _random_codes_of_many_columns(count, seed):
    """Random full-rank codes whose candidate columns number about 30 to 3300,
    over every supported q, so that most searches run numpy scans."""
    rng = np.random.default_rng(seed)
    shapes = [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 4), (3, 5), (3, 6), (4, 4), (5, 4), (5, 5),
              (7, 3), (7, 4), (8, 3), (8, 4), (9, 3), (9, 4)]
    codes = []
    while len(codes) < count:
        q, k = shapes[int(rng.integers(len(shapes)))]
        n = int(rng.integers(k + 2, k + 9))
        try:
            codes.append(LinearCode(gf(q), rng.integers(0, q, size=(k, n))))
        except RankDeficientError:
            continue
    return codes


def test_lazy_systems_search_like_stored_ones(monkeypatch):
    # 400 seeded systems: each is searched as `cover_system` builds it, its
    # columns read through the kernel's tables, and as a stored system over
    # the whole packed array.  Status, nodes and solutions, in order, must be
    # equal, under every strategy, with and without projective masks, at
    # budget and max_solutions stops.  A chunk budget of 97 words makes the
    # streamed blocks start and stop partway through the pairings of first-
    # half rows with the second half.
    monkeypatch.setattr(field_module, "_CHUNK_WORDS", 97)
    rng = np.random.default_rng(2024)
    checked, stopped_at_max_solutions = set(), False
    for code in _random_codes_of_many_columns(100, seed=77):
        whole = coverage_matrix(code).packed
        for _ in range(4):
            l = int(rng.integers(1, 4))
            s = int(rng.integers(1, code.guaranteed_gain(l) + 1))
            lazy = cover_system(coverage_matrix(code), l, s)
            if rng.random() < 0.4 and not code.is_degenerate:
                lazy = projective_filter(lazy)
            stored = CoverSystem(packed=whole, num_rows=lazy.num_rows, l=l, s=s, masked=lazy.masked)
            cfg = SolverConfig(
                strategy=str(rng.choice(STRATEGIES)),
                max_solutions=int(rng.choice([1, 3, 10])),
                node_limit=int(rng.choice([1, 40, 700, 20_000])),
            )
            a, b = solve(lazy, cfg), solve(stored, cfg)
            assert (a.status, a.nodes_explored, a.exhausted) == (b.status, b.nodes_explored, b.exhausted)
            assert [(x.columns, x.slacks) for x in a.solutions] == [(x.columns, x.slacks) for x in b.solutions]
            checked.add((cfg.strategy, a.status, bool(lazy.masked), len(whole) > _NARROW))
            stopped_at_max_solutions |= cfg.strategy != "greedy" and len(a.solutions) == cfg.max_solutions and not a.exhausted
    statuses = {(strategy, status) for strategy, status, _, _ in checked if strategy != "greedy"}
    assert statuses == {(x, y) for x in ("bnb", "exhaustive") for y in SolveStatus}
    assert {(masked, wide) for _, _, masked, wide in checked} == {(False, False), (False, True), (True, False), (True, True)}
    assert stopped_at_max_solutions


def test_greedy_matches_reference(monkeypatch):
    # Greedy against the scalar reference of `tests/oracles.py`: status,
    # nodes and solution columns.  Seeded stored systems, plain, masked and
    # distinct, on both sides of _NARROW columns, with no allowed column
    # and with fewer distinct columns than picks; then systems that stream
    # their columns from the kernel's tables (a chunk budget of 13 words),
    # plain and projective.
    rng = np.random.default_rng(2027)
    seen, corners = set(), set()
    for _ in range(300):
        h, t = int(rng.integers(1, 100)), int(rng.integers(0, 40))
        l, s = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        bits = (rng.random((t, h)) < rng.choice([0.2, 0.5, 0.8, 0.95])).astype(np.uint8)
        masked = frozenset(rng.choice(h, size=int(rng.integers(0, h + 1)), replace=False).tolist())
        kind = int(rng.integers(3))
        kw = [{}, {"masked": masked}, {"distinct": True}][kind]
        outcome = solve_greedy(CoverSystem.from_bits(bits, l=l, s=s, **kw))
        got = (outcome.status, outcome.nodes_explored, outcome.solutions[0].columns if outcome.solutions else None)
        assert got == oracle_greedy(bits, l, s, **kw)
        seen.add((kind, outcome.status, h > _NARROW))
        corners.add("no column" if kind == 1 and len(masked) == h else "too few" if kind == 2 and h < l else None)
    assert seen >= {(kind, status, wide) for kind in range(3) for status in ("feasible", "budget_exhausted") for wide in (False, True)}
    assert corners >= {"no column", "too few"}
    monkeypatch.setattr(field_module, "_CHUNK_WORDS", 13)
    streamed = set()
    for code in _random_codes_of_many_columns(40, seed=78):
        l = int(rng.integers(1, 5))
        system = cover_system(coverage_matrix(code), l, int(rng.integers(1, l + 1)))
        if rng.random() < 0.5 and not code.is_degenerate:
            system = projective_filter(system)
        outcome = solve_greedy(system)
        got = (outcome.status, outcome.nodes_explored, outcome.solutions[0].columns if outcome.solutions else None)
        assert got == oracle_greedy(system.bits, system.l, system.s, masked=system.masked)
        if len(system.packed) > system.packed.chunk_rows:
            streamed.add((bool(system.masked), outcome.status))
    assert streamed == {(masked, status) for masked in (False, True) for status in ("feasible", "budget_exhausted")}


def test_root_scans_build_no_whole_array_and_a_deeper_search_builds_it_once(monkeypatch):
    # RM(2,5) at l = 1 and at l = 2, s = 2 is decided at the root: no whole
    # array is built.  The extended Golay code at l = 2 goes below its root
    # and builds it once, the array the coverage matrix then gives as `packed`.
    built = []
    real = field_module.CanonicalSupports.__array__
    monkeypatch.setattr(field_module.CanonicalSupports, "__array__", lambda self, *a, **kw: built.append(1) or real(self, *a, **kw))
    code = reed_muller_2_5()
    matrix = coverage_matrix(code)
    assert solve(cover_system(matrix, 1, 1)).nodes_explored == 65_535
    assert solve(cover_system(matrix, 2, 2)).nodes_explored == 0
    assert solve_greedy(cover_system(matrix, 2, 1)).status == SolveStatus.BUDGET_EXHAUSTED
    assert built == []
    golay = coverage_matrix(extended_golay())
    outcome = solve(cover_system(golay, 2, 1), SolverConfig(node_limit=50_000))
    assert outcome.status == SolveStatus.BUDGET_EXHAUSTED and len(built) == 1
    assert golay.packed is golay.packed and golay.packed.shape == (4095, 12)


@pytest.mark.parametrize("strategy", ["bnb", "exhaustive"])
@pytest.mark.parametrize("kind", ["coverage", "masked coverage", "stored"])
def test_wide_one_pick_search_builds_no_tail_ints(monkeypatch, strategy, kind):
    # An l = 1 search over more than _NARROW columns is one numpy last pick:
    # the Python ints of the last _NARROW columns are never read, so never built.
    def unread(view):
        raise AssertionError("the tail ints were built")

    monkeypatch.setattr(solver._Columns, "tail", property(unread))
    if kind == "stored":
        system = _planted_wide_system(1, 70, masked=True)
    else:
        system = cover_system(coverage_matrix(reed_muller_2_5()), 1, 1)
        if kind == "masked coverage":
            system = projective_filter(system)
    assert system.num_columns - len(system.masked) > _NARROW
    outcome = solve(system, SolverConfig(strategy=strategy, max_solutions=3))
    assert outcome.nodes_explored > _NARROW


def test_root_cut_streams_each_kernel_block_once(monkeypatch):
    # RM(2,5) at l = 2, s = 2 is cut at the root by the gain bound after its
    # reach test.  One pass over the kernel's tables gives both: every block
    # is built once, the blocks tile the columns, and no whole array is built.
    reads, built = [], []
    real_read, real_array = field_module.CanonicalSupports.__getitem__, field_module.CanonicalSupports.__array__

    def read(self, key):
        if isinstance(key, slice):
            reads.append((key.start, key.stop))
        return real_read(self, key)

    monkeypatch.setattr(field_module.CanonicalSupports, "__getitem__", read)
    monkeypatch.setattr(field_module.CanonicalSupports, "__array__", lambda self, *a, **kw: built.append(1) or real_array(self, *a, **kw))
    matrix = coverage_matrix(reed_muller_2_5())
    outcome = solve(cover_system(matrix, 2, 2))
    assert (outcome.status, outcome.nodes_explored) == (SolveStatus.INFEASIBLE, 0)
    assert built == []
    assert len(reads) > 1
    assert [start for start, _ in reads] == [0] + [stop for _, stop in reads[:-1]]
    assert reads[-1][1] == matrix.h
