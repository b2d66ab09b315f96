from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

import lsext.pipeline as pipeline
import lsext.solver as solver
from conftest import GOLAY_FILE, GOLAY_ROWS, HAMMING_FILE, HAMMING_ROWS, extended_golay, random_codes, reed_muller_2_5, repetition
from lsext.code import LinearCode
from lsext.errors import ConsistencyError, ParseError, RankDeficientError, VerificationError
from lsext.extension import coverage_matrix, is_good_extension
from lsext.field import gf
from lsext.pipeline import (
    ChainPolicy,
    StopReason,
    chain_search,
    extend_once,
    parse_code,
    remove_columns,
    serialize_code,
    special_puncture,
    zero_coverage_system,
)
from lsext.solver import SolverConfig, SolveStatus


# -- parsing ------------------------------------------------------------------


def test_parse_hamming():
    code = parse_code(HAMMING_FILE)
    assert code.params() == (7, 4, 3)


def test_parse_ternary_repetition():
    code = parse_code("3 1 3\n1 1 1\n")
    assert code.params() == (3, 1, 3)


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\n\n2 1 2\n# another\n1 1\n"
    assert parse_code(text).params() == (2, 1, 2)


@pytest.mark.parametrize("letter", ["4", "-1", "0.5"])
def test_parse_element_out_of_range_names_line(letter):
    text = f"4 2 3\n1 0 2\n0 1 {letter}\n"
    with pytest.raises(ParseError) as err:
        parse_code(text)
    assert "line 3" in str(err.value)
    assert letter in str(err.value)


def test_parse_header_errors():
    with pytest.raises(ParseError):
        parse_code("")
    with pytest.raises(ParseError) as err:
        parse_code("2 4\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_code("1 1 1\n0\n")
    with pytest.raises(ParseError):
        parse_code("6 1 2\n1 1\n")  # 6 is not a prime power


def test_parse_row_shape_errors():
    with pytest.raises(ParseError) as err:
        parse_code("2 2 3\n1 0 1\n")
    assert "2 matrix rows" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_code("2 2 3\n1 0\n0 1 1\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_code("2 1 2\n1 x\n")
    with pytest.raises(ParseError):
        parse_code("2 2 3\n1 0 1\n0 1 1\n1 1 0\n")


def test_parse_rejects_rank_deficiency():
    with pytest.raises(RankDeficientError):
        parse_code("2 2 2\n1 1\n1 1\n")


def test_serialize_round_trip(golay):
    text = serialize_code(golay)
    again = parse_code(text)
    assert np.array_equal(again.matrix, golay.matrix)
    assert serialize_code(again) == text


# -- extend_once ----------------------------------------------------------------


def test_extend_once_hamming(hamming):
    rec = extend_once(hamming, 1)
    assert rec.operation == "extend"
    assert rec.search.status is SolveStatus.FEASIBLE
    assert rec.result.params() == (8, 4, 4)
    assert rec.guaranteed_distance == 4
    assert rec.result.min_weight_count == 14
    # 7 zero-slack rows predict 7 minimum-weight words; the count differs
    # because old weight-4 words also land on the new minimum.
    assert rec.search.best.slacks.count(0) == 7
    assert rec.search.best.columns == (13,)
    assert rec.result.matrix[:, hamming.n :].T.tolist() == [[1, 1, 1, 0]]
    assert rec.candidates_total == 15
    assert rec.search.exhausted


def test_extend_once_golay(golay):
    rec = extend_once(golay, 1)
    assert rec.result.params() == (12, 6, 6)
    assert rec.candidates_total == 364


def test_extend_once_repetition():
    code = repetition(2, 4)
    rec = extend_once(code, 1)
    assert rec.result.params() == (5, 1, 5)
    assert rec.s == 1  # undefined gap: s defaults to l


def test_extend_once_infeasible(hamming):
    extended = extend_once(hamming, 1).result
    # No [9,4,5]_2 exists, so the extended Hamming code cannot be improved.
    rec = extend_once(extended, 1)
    assert rec.result is None
    assert rec.search.status is SolveStatus.INFEASIBLE
    assert rec.search.exhausted


def test_extend_once_rejects_s_above_gap(hamming):
    with pytest.raises(ValueError):
        extend_once(hamming, 1, s=2)


def test_extend_once_refuses_l_below_1(hamming):
    for l in (0, -1):
        with pytest.raises(ValueError, match=f"l must be >= 1, got {l}"):
            extend_once(hamming, l)


def test_extend_once_inconclusive_on_tiny_budget(golay):
    rec = extend_once(golay, 1, config=SolverConfig(node_limit=1))
    assert rec.result is None
    assert rec.search.status is SolveStatus.BUDGET_EXHAUSTED
    assert rec.search.status == "budget_exhausted"
    assert not rec.search.exhausted


def test_guaranteed_gain_rules(hamming):
    assert hamming.guaranteed_gain(1) == 1
    assert hamming.guaranteed_gain(3) == 1
    assert repetition(2, 3).guaranteed_gain(1) == 1
    assert repetition(2, 3).guaranteed_gain(3) == 3
    rec = extend_once(hamming, 1)
    extended = rec.result
    assert rec.s == 1
    assert extended.weight_gap_or_none() == 4
    assert extended.guaranteed_gain(2) == 2
    assert extended.guaranteed_gain(4) == 4
    assert extend_once(extended, 2).s == 2
    assert extend_once(extended, 1, s=4).s == 4
    with pytest.raises(ValueError, match="exceeds the weight gap 4"):
        extend_once(extended, 1, s=5)
    with pytest.raises(ValueError, match="s must be >= 1"):
        extend_once(extended, 1, s=0)


def test_extend_once_picks_max_min_slack_solution():
    # Minimum-weight reps (0,1) and (1,0) give coverage rows [1,0,1] and
    # [0,1,1]: for l=2 the lexicographic first solution (0,1) has slacks
    # (0,0), while (2,2) reaches min slack 1 and must be preferred.
    code = LinearCode(gf(2), [[1, 1, 0, 0], [0, 0, 1, 1]])
    rec = extend_once(code, 2, s=1, config=SolverConfig(max_solutions=50))
    assert rec.search.status is SolveStatus.FEASIBLE
    assert rec.search.best.min_slack == 1
    assert rec.search.best.columns == (2, 2)
    assert rec.result.params() == (6, 2, 4)


def test_extend_once_projective(hamming):
    rec = extend_once(hamming, 1, projective=True)
    assert rec.candidates_masked == 7
    assert rec.result.params() == (8, 4, 4)


# -- special puncturing -----------------------------------------------------------


def test_puncture_round_trip(hamming, golay):
    for code in (hamming, golay):
        new_code = extend_once(code, 1).result
        appended = range(code.n, new_code.n)
        back = remove_columns(new_code, appended)
        assert back.params() == code.params()
        assert back.weight_distribution() == code.weight_distribution()
        assert np.array_equal(back.matrix, code.matrix)


def test_puncture_explicit_columns_reports_qualification(hamming):
    extended = extend_once(hamming, 1).result
    back = remove_columns(extended, [7])
    assert back.params() == (7, 4, 3)
    # Some weight-4 word is nonzero at the parity column, so removing it does not qualify.
    assert not is_good_extension(zero_coverage_system(extended, 1, 1), [7])


def test_puncture_search_mode_finds_qualifying_set(golay):
    # [11,6,5] -> puncture one column where every weight-5 word is zero?  The
    # Golay code is cyclic with full support, so search must say infeasible;
    # use a padded code with a predictable removable column instead.
    padded = LinearCode(gf(2), [[1, 1, 1, 0], [0, 1, 0, 1]])
    # weight-2 word (0101): zero at columns 0, 2; weight-3 word zero at 3.
    rec = special_puncture(padded, 1, 1)
    assert rec.operation == "puncture"
    assert rec.search.status is SolveStatus.FEASIBLE
    assert rec.guaranteed_distance == padded.d
    assert rec.result.n == 3


def test_puncture_search_infeasible_on_repetition():
    code = repetition(2, 3)
    rec = special_puncture(code, 1, 1)
    assert rec.result is None
    assert rec.search.status is SolveStatus.INFEASIBLE


def test_puncture_parameter_validation(hamming):
    with pytest.raises(ValueError):
        special_puncture(hamming, 0, 1)
    with pytest.raises(ValueError):
        special_puncture(hamming, 7, 1)
    with pytest.raises(ValueError):
        special_puncture(hamming, 2, 3)


def test_puncture_refuses_more_than_n_minus_k_columns(hamming, monkeypatch):
    # Any 4 of the Hamming code's 7 positions leave 3 columns for rank 4, so
    # the request is refused before a search that could only end in a collapse.
    monkeypatch.setattr(pipeline, "solve", None)
    with pytest.raises(ValueError, match=r"need 1 <= l <= n - k = 3, got l=4"):
        special_puncture(hamming, 4, 2)
    monkeypatch.undo()
    rec = special_puncture(hamming, 3, 1)
    assert rec.search.status is SolveStatus.FEASIBLE
    assert rec.result.params() == (4, 4, 1)


def test_puncture_records_the_distance_it_verified():
    # d = 3 and the gap is 1, so removing 3 positions where the weight-3 word
    # is zero keeps only d - l + min(s, gap) = 1; d - l + s = 3 overclaims.
    code = LinearCode(gf(3), [[0, 1, 1, 0, 2, 0, 0], [0, 2, 2, 2, 0, 2, 1]])
    assert (code.params(), code.weight_gap_or_none()) == ((7, 2, 3), 1)
    rec = special_puncture(code, 3, 3)
    assert rec.search.best.columns == (0, 3, 5)
    assert rec.guaranteed_distance == 1
    assert rec.result.params() == (4, 2, 2)


# A code each step can build, and one below that step's floor: the Hamming
# code padded with a zero column stays at d = 3 under the l = 1 floor of 4;
# puncturing one position of the [4,2,2] code below has floor 2, and
# [[1,1,0],[0,1,0]] has d = 1.
PAD_ROWS = [[1, 1, 1, 0], [0, 1, 0, 1]]
BELOW_FLOOR = {
    "extend": ("apply_extension", HAMMING_ROWS, [row + [0] for row in HAMMING_ROWS], 4, 3),
    "puncture": ("remove_columns", PAD_ROWS, [[1, 1, 0], [0, 1, 0]], 2, 1),
}


@pytest.mark.parametrize("operation", sorted(BELOW_FLOOR))
def test_every_step_refuses_a_built_code_below_its_floor(operation, monkeypatch):
    build, rows, built, floor, d = BELOW_FLOOR[operation]
    code = LinearCode(gf(2), rows)
    step = extend_once if operation == "extend" else special_puncture
    assert step(code, 1, 1).result.d >= floor
    monkeypatch.setattr(pipeline, build, lambda code, columns: LinearCode(gf(2), built))
    with pytest.raises(VerificationError, match=rf"claims minimum distance >= {floor} but recomputation finds {d}$"):
        step(code, 1, 1)


@pytest.mark.parametrize(
    "built, message",
    [
        # d = 3 above the original d = 2: no removal can raise the distance.
        ([[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]], r"distance rose from 2 to 3 with only 0 columns appended"),
        # k = 1: a punctured code keeps the rank of the original.
        ([[1, 1, 1, 1, 1]], r"built code \[5,1\]_2 does not keep the q and k of \[6,2\]_2"),
    ],
    ids=["distance-rose", "rank-dropped"],
)
def test_puncture_refuses_a_code_the_removal_cannot_give(built, message, monkeypatch):
    # Weights 2, 4 and 6: removing position 2, a zero of the weight-2 word,
    # keeps d = 2, which is also the floor d - l + guaranteed_gain(s) = 2 - 1 + 1.
    code = LinearCode(gf(2), [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]])
    rec = special_puncture(code, 1, 1)
    assert (rec.search.best.columns, rec.guaranteed_distance, rec.result.params()) == ((2,), 2, (5, 2, 2))
    monkeypatch.setattr(pipeline, "remove_columns", lambda code, columns: LinearCode(gf(2), built))
    with pytest.raises(VerificationError, match=message):
        special_puncture(code, 1, 1)


def test_puncture_refuses_a_guarantee_below_one(monkeypatch):
    # Rows 1100 and 1101 give d = 1, so removing two positions guarantees
    # 1 - 2 + 1 = 0.  The search would remove positions 0 and 1 and keep
    # the columns 00 and 01, of rank 1.  The request is refused before the
    # system is built, with a message that names the guarantee, not
    # reported as a rank collapse of the user's code.
    code = LinearCode(gf(2), [[1, 1, 0, 0], [1, 1, 0, 1]])
    assert code.params() == (4, 2, 1)
    monkeypatch.setattr(pipeline, "zero_coverage_system", None)
    with pytest.raises(ValueError, match=r"guarantees distance d - l \+ guaranteed_gain\(s\) = 1 - 2 \+ 1 = 0, below 1"):
        special_puncture(code, 2, 1)


def test_puncture_sweep_never_overclaims():
    feasible = 0
    for code in random_codes(200, 7, qs=(2, 3, 4), max_k=4, max_n=10):
        for l in range(1, code.n - code.k + 1):
            for s in range(1, l + 1):
                if code.d - l + code.guaranteed_gain(s) < 1:
                    # A guarantee of at least 1 keeps every nonzero word nonzero,
                    # and with it the rank; below 1 the removal may collapse it.
                    with pytest.raises(ValueError, match="below 1"):
                        special_puncture(code, l, s)
                    continue
                rec = special_puncture(code, l, s)
                assert (rec.result is None) == (rec.search.status is not SolveStatus.FEASIBLE)
                if rec.result is None:
                    continue
                feasible += 1
                assert rec.guaranteed_distance == code.d - l + code.guaranteed_gain(s)
                assert rec.result.d >= rec.guaranteed_distance, (code.params(), l, s)
    assert feasible == 1050


def test_zero_coverage_bits_read_only(hamming):
    # The solvers search this matrix in place, so it must refuse writes.
    system = zero_coverage_system(hamming, 1, 1)
    with pytest.raises(ValueError):
        system.bits[0, 0] = 1


def test_puncture_rank_collapse_raises():
    code = LinearCode(gf(2), [[1, 0], [0, 1]])
    with pytest.raises(RankDeficientError):
        remove_columns(code, [0])


def test_remove_columns_bounds(hamming):
    with pytest.raises(ValueError):
        remove_columns(hamming, [7])
    with pytest.raises(ValueError):
        remove_columns(hamming, [-1])


def test_remove_columns_rejects_repeats(hamming):
    with pytest.raises(ValueError):
        remove_columns(hamming, [1, 1])


# -- chain search -------------------------------------------------------------------


def test_chain_hamming(hamming):
    report = chain_search(hamming, ChainPolicy(max_l=2))
    assert report.start is hamming
    assert len(report.steps) >= 1
    first = report.steps[0]
    assert (first.l, first.s) == (1, 1)
    assert first.result.params() == (8, 4, 4)
    assert report.final is report.steps[-1].result
    assert report.final.d >= 4


def test_chain_golay(golay):
    report = chain_search(golay, ChainPolicy(max_l=2))
    assert report.steps[0].result.params() == (12, 6, 6)
    assert report.final is report.steps[-1].result
    assert report.final.d >= 6


def test_chain_steps_are_consistent(golay):
    report = chain_search(golay, ChainPolicy(max_l=2))
    previous = report.start
    for step in report.steps:
        assert step.params_before == previous.params()
        n0, k0, d0 = step.params_before
        n1, k1, d1 = step.result.params()
        assert n1 == n0 + step.l
        assert k1 == k0
        assert d1 >= d0 + step.s
        assert np.array_equal(step.result.matrix[:, :n0], previous.matrix)
        previous = step.result
    assert report.final is previous


def test_chain_respects_target_distance(hamming):
    report = chain_search(hamming, ChainPolicy(max_l=2, target_distance=3))
    assert report.steps == ()
    assert report.final is report.start is hamming
    assert report.stopping_reason is StopReason.TARGET_REACHED
    assert "stop: target distance 3 reached\n" in report.to_text()


def test_chain_respects_total_budget(golay):
    report = chain_search(golay, ChainPolicy(max_l=2, max_total_added=1))
    assert sum(step.l for step in report.steps) <= 1
    assert report.stopping_reason is StopReason.LENGTH_BUDGET
    assert "stop: total added length budget 1 reached\n" in report.to_text()


def test_chain_deterministic(golay):
    a = chain_search(golay, ChainPolicy(max_l=2)).to_text()
    b = chain_search(golay, ChainPolicy(max_l=2)).to_text()
    assert a == b


def test_chain_report_text(hamming):
    text = chain_search(hamming, ChainPolicy(max_l=2)).to_text()
    lines = text.splitlines()
    assert lines[0] == "chain report for a [7,4,3]_2 code"
    assert lines[1].startswith("step 1: extend (l=1, s=1) on [7,4,3] -> [8,4,4]")
    assert lines[-1].startswith("final: [")


def test_chain_reports_budget_stop(golay):
    policy = ChainPolicy(max_l=1, solver=SolverConfig(node_limit=1))
    report = chain_search(golay, policy)
    assert report.steps == ()
    assert report.stopping_reason is StopReason.SOLVER_BUDGET


def test_chain_round_builds_its_coverage_matrix_once(hamming, monkeypatch):
    # Round 1 extends [7,4,3] at l=1; round 2 tries l = 1, 2, 3 on [8,4,4],
    # none feasible, all on the one matrix built for that round.
    built, tried = [], []

    def build(code):
        built.append(coverage_matrix(code))
        return built[-1]

    def extend(code, l, s=None, config=None, *, projective=False, matrix=None):
        tried.append((l, matrix))
        return extend_once(code, l, s, config, projective=projective, matrix=matrix)

    monkeypatch.setattr(pipeline, "coverage_matrix", build)
    monkeypatch.setattr(pipeline, "extend_once", extend)
    report = chain_search(hamming, ChainPolicy(max_l=3))
    assert [step.result.params() for step in report.steps] == [(8, 4, 4)]
    assert report.stopping_reason is StopReason.NO_EXTENSION
    assert len(built) == 2
    assert tried == [(1, built[0]), (1, built[1]), (2, built[1]), (3, built[1])]


@pytest.mark.parametrize("projective", [False, True])
def test_chain_round_builds_one_search_view_per_matrix_and_mask(hamming, monkeypatch, projective):
    # Every l of a round searches the round's matrix under one mask, so the
    # searches share the one view the matrix keeps: two rounds, two views.
    built, views, searches = [], [], []

    class Counted(solver._Columns):
        def __init__(self, system):
            views.append((system.packed, system.masked))
            super().__init__(system)

    def build(code):
        built.append(coverage_matrix(code))
        return built[-1]

    def solve(system, config):
        searches.append(system.l)
        return real(system, config)

    real = pipeline.solve
    monkeypatch.setattr(solver, "_Columns", Counted)
    monkeypatch.setattr(pipeline, "coverage_matrix", build)
    monkeypatch.setattr(pipeline, "solve", solve)
    report = chain_search(hamming, ChainPolicy(max_l=3, projective=projective))
    assert report.stopping_reason is StopReason.NO_EXTENSION
    assert searches == [1, 1, 2, 3]
    assert len(built) == len(views) == 2
    for matrix, (packed, masked) in zip(built, views):
        assert packed is matrix.supports
        assert masked == (matrix.code_points if projective else frozenset())


@pytest.mark.parametrize("args, nodes", [((1,), 65_535), ((2, 2), 0)])
def test_root_decided_extension_builds_no_coverage_array(args, nodes):
    # RM(2,5) at l = 1, and at l = 2, s = 2, is decided at the root of its
    # search.  The coverage matrix is then the kernel's two half tables
    # (60 KB with the support table of the second half) and the scans stream
    # blocks from them, where the packed coverage alone takes 5.2 MB.
    code = reed_muller_2_5()
    tracemalloc.start()
    try:
        record = extend_once(code, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (record.search.status, record.search.nodes_explored) == (SolveStatus.INFEASIBLE, nodes)
    assert record.result is None
    assert peak < 1.5 * 1024 * 1024


def test_extend_once_with_prebuilt_matrix(hamming, golay):
    prebuilt, fresh = extend_once(hamming, 1, matrix=coverage_matrix(hamming)), extend_once(hamming, 1)
    assert prebuilt.describe() == fresh.describe()
    assert prebuilt.search == fresh.search
    assert np.array_equal(prebuilt.result.matrix, fresh.result.matrix)
    with pytest.raises(ConsistencyError):
        extend_once(hamming, 1, matrix=coverage_matrix(golay))


def test_chain_policy_validation():
    with pytest.raises(ValueError):
        ChainPolicy(max_l=0)
    with pytest.raises(ValueError):
        ChainPolicy(max_total_added=-1)
    with pytest.raises(ValueError):
        ChainPolicy(target_distance=0)
    with pytest.raises(ValueError):
        ChainPolicy(target_distance=-5)
    ChainPolicy(max_total_added=0, target_distance=1)


def test_round_trip_random_extensions():
    """Every successful extension, punctured at the appended columns, restores
    the original parameters and distribution."""
    for code in random_codes(15, seed=61, qs=(2, 3), max_k=3, max_n=7):
        rec = extend_once(code, 1)
        assert (rec.result is None) == (rec.search.status is not SolveStatus.FEASIBLE)
        if rec.result is None:
            continue
        back = remove_columns(rec.result, range(code.n, rec.result.n))
        assert back.params() == code.params()
        assert back.weight_distribution() == code.weight_distribution()


# -- lifetimes --------------------------------------------------------------------


@pytest.fixture
def searched(monkeypatch):
    """Weak references to the packed rows of every system a step searches."""
    refs = []

    def solve(system, config):
        refs.append(weakref.ref(system.packed))
        return real(system, config)

    real = pipeline.solve
    monkeypatch.setattr(pipeline, "solve", solve)
    return refs


@pytest.mark.parametrize(
    "step",
    [
        lambda code: extend_once(code, 1),
        lambda code: extend_once(code, 2, 1, SolverConfig(strategy="exhaustive")),
        lambda code: extend_once(code, 1, projective=True),
        lambda code: special_puncture(code, 2, 1),
        lambda code: chain_search(code, ChainPolicy(max_l=2, max_total_added=4)),
        lambda code: chain_search(code, ChainPolicy(max_l=2, max_total_added=4, projective=True)),
    ],
    ids=["extend", "extend_exhaustive", "extend_projective", "puncture", "chain", "chain_projective"],
)
def test_steps_release_their_systems_on_return(no_gc, searched, golay, step):
    # With the cyclic collector off, no system a step or a chain round
    # searched outlives the call: only the record and its codes remain.
    step(golay)
    assert searched
    assert all(ref() is None for ref in searched)


def hamming_code():
    return LinearCode(gf(2), HAMMING_ROWS)


def ternary_golay():
    return LinearCode(gf(3), GOLAY_ROWS)


@pytest.mark.parametrize(
    "code, step",
    [
        (extended_golay, lambda code: extend_once(code, 2, 1, SolverConfig(node_limit=2000))),
        (extended_golay, lambda code: extend_once(code, 1, projective=True)),
        (ternary_golay, lambda code: extend_once(code, 3, 1, SolverConfig(max_solutions=10**6, node_limit=100_000))),
        (hamming_code, lambda code: chain_search(code, ChainPolicy(max_l=3))),
        (ternary_golay, lambda code: chain_search(code, ChainPolicy(max_l=2, max_total_added=4))),
        (ternary_golay, lambda code: chain_search(code, ChainPolicy(max_l=2, max_total_added=4, projective=True))),
    ],
    ids=["extend", "extend_projective", "extend_deep", "chain_narrow", "chain", "chain_projective"],
)
def test_search_views_are_freed_with_their_matrix(no_gc, monkeypatch, code, step):
    # A coverage matrix keeps its search views, which hold its kernel tables
    # and every part built for its searches (the whole array, the tail ints,
    # the suffix-OR table): all of it is freed by reference count when the
    # step returns, and a chain round's when the next round builds its matrix.
    refs = []

    def build(code):
        assert all(ref() is None for ref in refs)
        matrix = coverage_matrix(code)
        refs.append(weakref.ref(matrix.supports))
        return matrix

    monkeypatch.setattr(pipeline, "coverage_matrix", build)
    step(code())
    assert refs
    assert all(ref() is None for ref in refs)
