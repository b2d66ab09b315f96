from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import random_codes, reed_muller_2_5, repetition
from lsext.code import LinearCode, weight
from lsext.errors import (
    DegenerateCodeError,
    InfeasibleSolutionError,
    VerificationError,
)
from lsext.extension import (
    CoverSystem,
    apply_extension,
    cover_system,
    coverage_matrix,
    format_matrix,
    is_good_extension,
    projective_filter,
    solutions_for,
    verify_extension,
)
from lsext import extension as extension_module
from lsext.bitsets import unpack_rows
from lsext.field import canonical_representatives, gf, representatives_at, row_dtype
from lsext.solver import STRATEGIES, SolverConfig, solve, solve_exhaustive


def test_coverage_matrix_repetition():
    cov = coverage_matrix(repetition(2, 3))
    assert cov.bits.tolist() == [[1]]
    assert (cov.t, cov.h) == (1, 1)


def test_coverage_matrix_hamming(hamming):
    cov = coverage_matrix(hamming)
    assert (cov.t, cov.h) == (7, 15)
    # Over GF(2) every nonzero g has nonzero inner product with half of all
    # 16 vectors, i.e. 8 of the 15 canonical columns.
    assert (cov.bits.sum(axis=1) == 8).all()
    assert not np.any(~cov.bits.any(axis=1))


def test_coverage_matrix_rows_follow_min_weight_order(golay):
    cov = coverage_matrix(golay)
    assert np.array_equal(cov.representatives, golay.min_weight_representatives())
    assert (cov.t, cov.h) == (66, 364)


def test_coverage_bits_scalar_invariant(golay):
    cov = coverage_matrix(golay)
    rng = np.random.default_rng(2)
    lams = rng.integers(1, golay.q, size=cov.h)
    scaled = golay.field.mul_table[lams[:, None], canonical_representatives(golay.field, golay.k)]
    rescaled_bits = (golay.field.inner(cov.representatives, scaled) != 0).astype(np.uint8)
    assert np.array_equal(rescaled_bits, cov.bits)


def test_coverage_bits_match_inner_products(golay):
    # Random small codes, the ternary Golay code (t = 66, h = 364) and a
    # [10,7]_3 code, whose 13 first-half message rows led in the first half
    # are each paired with 81 second-half rows: the column ranges read below
    # start and stop partway through those pairings.
    parity = np.random.default_rng(10).integers(0, 3, size=(7, 3))
    ternary = LinearCode(gf(3), np.concatenate([np.eye(7, dtype=np.uint8), parity], axis=1))
    for code in random_codes(30, seed=17, qs=(2, 3, 4, 5, 7, 8, 9), max_k=4) + [golay, ternary]:
        cov = coverage_matrix(code)
        reps = code.min_weight_representatives()
        assert np.array_equal(cov.representatives, reps)
        columns = canonical_representatives(code.field, code.k)
        assert np.array_equal(representatives_at(code.field, code.k, np.arange(cov.h)), columns)
        expected = (code.field.inner(reps, columns) != 0).astype(np.uint8)
        assert cov.bits.dtype == np.uint8
        assert np.array_equal(cov.bits, expected)
        system = cover_system(cov, 1, 1)
        for start, stop in [(0, cov.h), (1, 2), (min(100, cov.h), min(300, cov.h)), (7, cov.h - 3)]:
            assert np.array_equal(unpack_rows(system.packed[start:stop], cov.t).T, expected[:, start:stop])


def test_coverage_packed_layout():
    # Row i of column j is bit i % B of word packed[j, i // B], the words the
    # narrowest of 8, 16, 32 or 64 bits that hold t; bits past t are zero.
    for code in random_codes(10, seed=23, qs=(2, 3), max_k=4, max_n=10):
        cov = coverage_matrix(code)
        assert cov.packed.dtype == row_dtype(cov.t)
        bits = 8 * cov.packed.dtype.itemsize
        assert cov.packed.shape == (cov.h, -(-cov.t // bits))
        rows = np.arange(cov.t)
        words = cov.packed[:, rows // bits].astype(np.uint64)
        unpacked = ((words >> (rows % bits).astype(np.uint64)) & np.uint64(1)).T
        assert np.array_equal(unpacked, cov.bits)
        assert not cov.bits.flags.writeable and not cov.packed.flags.writeable
    system = CoverSystem.from_bits(np.ones((65, 2), dtype=np.uint8), l=1, s=1)
    assert system.packed.tolist() == [[2**64 - 1, 1]] * 2


def test_coverage_matrix_memory_is_packed():
    # RM(2,5): t = 620 rows, h = 65535 columns.  A (t, h) uint8 matrix
    # alone would take 40.6 MB; the packed columns take 5.2 MB.
    code = reed_muller_2_5()
    code.weight_distribution()
    tracemalloc.start()
    try:
        cov = coverage_matrix(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cov.t, cov.h) == (620, 65535)
    assert peak < 16 * 1024 * 1024


def test_coverage_matrix_stores_no_candidate_table():
    # A [30,18]_2 code with one minimum-weight representative: its packed
    # coverage is 256 KB (h = 262,143 one-byte columns; 64-bit words would
    # take 2 MB), while the h x k table of candidate columns would be 4.5 MB.
    # Columns are decoded on demand.
    rng = np.random.default_rng(3)
    parity = rng.integers(0, 2, size=(18, 12), dtype=np.uint8)
    code = LinearCode(gf(2), np.concatenate([np.eye(18, dtype=np.uint8), parity], axis=1))
    code.weight_distribution()
    tracemalloc.start()
    try:
        cov = coverage_matrix(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cov.t, cov.h) == (1, 262_143)
    assert cov.packed.nbytes == cov.h
    assert peak < 1.5 * cov.packed.nbytes
    assert np.array_equal(representatives_at(code.field, code.k, [0, cov.h - 1]), [[0] * 17 + [1], [1] * 18])


def test_whole_coverage_array_is_built_in_chunks():
    # `packed`, the whole array, is built chunk by chunk into one array when
    # first asked for and then kept; `bits` builds no packed array.  The
    # [30,18]_2 code with one minimum-weight representative (256 KB packed)
    # and a [15,12]_3 code (260 KB), whose odd-q chunks need a temporary per
    # plane: each build peaks at about 1.2 times the array.
    rng = np.random.default_rng(3)
    binary = LinearCode(gf(2), np.concatenate([np.eye(18, dtype=np.uint8), rng.integers(0, 2, size=(18, 12))], axis=1))
    ternary = LinearCode(gf(3), np.concatenate([np.eye(12, dtype=np.uint8), rng.integers(0, 3, size=(12, 3))], axis=1))
    for code in (binary, ternary):
        cov = coverage_matrix(code)
        bits = cov.bits
        assert cov.supports._whole is None
        tracemalloc.start()
        try:
            packed = cov.packed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cov.packed is packed and not packed.flags.writeable
        assert np.array_equal(unpack_rows(packed, cov.t).T, bits)
        assert peak < 1.5 * packed.nbytes


def test_cover_system_words_of_any_unsigned_width():
    # Words of any unsigned width may hold the rows, as many as they need:
    # 9 rows in two uint8 words solve like the same rows in one uint16 word,
    # under every strategy and on both the int and the numpy scans.
    # Too few or too many words, signed or big-endian words are refused.
    bits = (np.random.default_rng(5).random((9, 100)) < 0.6).astype(np.uint8)
    narrow = CoverSystem.from_bits(bits, l=2, s=1)
    assert narrow.packed.dtype == np.uint16
    two_bytes = CoverSystem(packed=narrow.packed.view(np.uint8), num_rows=9, l=2, s=1)
    assert np.array_equal(two_bytes.bits, bits)
    for strategy in STRATEGIES:
        expected = solve(narrow, SolverConfig(strategy=strategy))
        assert solve(two_bytes, SolverConfig(strategy=strategy)) == expected and expected.solutions
    for dtype, words in [(np.uint8, 1), (np.uint8, 3), (np.int64, 1), (">u2", 1)]:
        with pytest.raises(ValueError):
            CoverSystem(packed=np.zeros((12, words), dtype=dtype), num_rows=9, l=1, s=1)


def test_is_good_extension_small_cases():
    one = CoverSystem.from_bits(np.array([[1]], dtype=np.uint8), l=1, s=1)
    assert is_good_extension(one, [0])
    two = CoverSystem.from_bits(np.array([[1, 0], [0, 1]], dtype=np.uint8), l=1, s=1)
    assert not is_good_extension(two, [0])
    assert not is_good_extension(two, [1])
    both = CoverSystem.from_bits(np.array([[1, 0], [0, 1]], dtype=np.uint8), l=2, s=1)
    assert is_good_extension(both, [0, 1])


def test_is_good_extension_argument_errors():
    system = CoverSystem.from_bits(np.array([[1, 1]], dtype=np.uint8), l=2, s=1)
    with pytest.raises(ValueError):
        is_good_extension(system, [0])
    masked = CoverSystem.from_bits(np.array([[1, 1]], dtype=np.uint8), l=1, s=1, masked=frozenset({0}))
    with pytest.raises(ValueError):
        is_good_extension(masked, [0])
    distinct = CoverSystem.from_bits(np.array([[1, 1]], dtype=np.uint8), l=2, s=1, distinct=True)
    with pytest.raises(ValueError):
        is_good_extension(distinct, [0, 0])


def test_slacks_examples():
    one = CoverSystem.from_bits(np.array([[1]], dtype=np.uint8), l=1, s=1)
    assert solutions_for(one, [[0]])[0].slacks == (0,)
    double = CoverSystem.from_bits(np.array([[1, 1]], dtype=np.uint8), l=2, s=1)
    assert solutions_for(double, [[0, 1]])[0].slacks == (1,)
    split = CoverSystem.from_bits(np.array([[1, 0], [0, 1]], dtype=np.uint8), l=1, s=1)
    with pytest.raises(InfeasibleSolutionError):
        solutions_for(split, [[0]])


def test_hamming_parity_solution_slacks(hamming):
    cov = coverage_matrix(hamming)
    system = cover_system(cov, 1, 1)
    assert solutions_for(system, [[13]])[0].slacks == (0,) * 7


def test_slack_identity_after_extension(hamming, golay):
    for code in (hamming, golay):
        cov = coverage_matrix(code)
        system = cover_system(cov, 1, 1)
        outcome = solve_exhaustive(system)
        sol = outcome.solutions[0]
        new_code = apply_extension(code, sol.columns)
        for rep, y in zip(cov.representatives, sol.slacks):
            assert weight(new_code.encode(rep)) == code.d + 1 + y


def test_apply_extension_examples(hamming, golay):
    rep = repetition(2, 3)
    assert apply_extension(rep, [0]).params() == (4, 1, 4)
    assert apply_extension(hamming, [13]).params() == (8, 4, 4)
    with pytest.raises(ValueError, match=r"out of range 0..14"):
        apply_extension(hamming, [15])

    outcome = solve_exhaustive(cover_system(coverage_matrix(golay), 1, 1))
    extended = apply_extension(golay, outcome.solutions[0].columns)
    assert extended.params() == (12, 6, 6)


def test_apply_extension_orders_repeats_adjacent(hamming):
    new_code = apply_extension(hamming, [5, 13, 5])
    assert new_code.n == 10
    assert np.array_equal(new_code.matrix[:, 7:].T, representatives_at(hamming.field, 4, [5, 5, 13]))


def test_verify_extension_reports(hamming):
    cov = coverage_matrix(hamming)
    system = cover_system(cov, 1, 1)
    new_code = apply_extension(hamming, [13])
    assert solutions_for(system, [[13]])[0].slacks == (0,) * 7
    assert new_code.params() == (8, 4, 4)
    assert verify_extension(hamming, new_code, 1) == 4


def test_verify_extension_rejects_false_claim(hamming):
    # Appending an all-zero column never raises the distance.
    padded = LinearCode(gf(2), np.concatenate([hamming.matrix, np.zeros((4, 1), np.uint8)], axis=1))
    with pytest.raises(VerificationError):
        verify_extension(hamming, padded, 1)


def test_verify_extension_falls_back_to_plus_one_when_s_exceeds_gap(hamming):
    # s above the gap supports only d + gap, which is d + 1 for the Hamming
    # code; build a +1 extension and check verification passes under it.
    new_code = apply_extension(hamming, [13])
    assert verify_extension(hamming, new_code, 3) == hamming.d + 1


def test_projective_filter(hamming):
    cov = coverage_matrix(hamming)
    system = projective_filter(cover_system(cov, 1, 1))
    assert len(system.masked) == 7
    assert system.num_columns - len(system.masked) == 8
    rep = repetition(2, 3)
    rcov = coverage_matrix(rep)
    rsystem = projective_filter(cover_system(rcov, 1, 1))
    assert rsystem.num_columns - len(rsystem.masked) == 0
    assert solve_exhaustive(rsystem).status == "infeasible"


def test_projective_filter_masks_exactly_the_code_points():
    for code in random_codes(40, seed=43, qs=(2, 3, 4, 5, 7, 8, 9), max_k=4, max_n=10):
        if code.is_degenerate:
            continue
        cov = coverage_matrix(code)
        generators = {tuple(map(int, col)) for col in code.matrix.T}
        columns = canonical_representatives(code.field, code.k)
        # Column j is a code point when some nonzero multiple of it is a generator column.
        walked = {
            j
            for j, col in enumerate(columns)
            if any(tuple(map(int, code.field.mul_table[a, col])) in generators for a in range(1, code.q))
        }
        assert projective_filter(cover_system(cov, 1, 1)).masked == walked


def test_projective_filter_full_point_set():
    # Every point of PG(1,2) used: nothing left to append in projective mode.
    code = LinearCode(gf(2), [[1, 0, 1], [0, 1, 1]])
    cov = coverage_matrix(code)
    system = projective_filter(cover_system(cov, 1, 1))
    assert len(system.masked) == cov.h
    assert solve_exhaustive(system).status == "infeasible"


def test_projective_filter_rejects_degenerate():
    code = LinearCode(gf(2), [[1, 0, 0], [0, 1, 0]])
    cov = coverage_matrix(code)
    with pytest.raises(DegenerateCodeError):
        projective_filter(cover_system(cov, 1, 1))


def test_extension_counts_invariant():
    for code in random_codes(10, seed=31, qs=(2, 3), max_k=3, max_n=8):
        cov = coverage_matrix(code)
        assert cov.t == code.min_weight_count // (code.q - 1)
        assert cov.h == (code.q**code.k - 1) // (code.q - 1)


def test_good_extension_raises_distance_at_least_min_s_gap():
    for code in random_codes(20, seed=37, qs=(2, 3), max_k=3, max_n=8):
        cov = coverage_matrix(code)
        for l, s in [(1, 1), (2, 1), (2, 2)]:
            system = cover_system(cov, l, s)
            outcome = solve_exhaustive(system)
            if not outcome.solutions:
                continue
            sol = outcome.solutions[0]
            new_code = apply_extension(code, sol.columns)
            gap = code.weight_gap_or_none()
            bound = s if gap is None else min(s, gap)
            assert new_code.d >= code.d + bound


def test_format_matrix_header(hamming):
    text = "".join(format_matrix(coverage_matrix(hamming).bits))
    lines = text.splitlines()
    assert lines[0] == "7 15"
    assert len(lines) == 8


def test_solutions_for_is_solution_for_in_one_batch(golay):
    system = cover_system(coverage_matrix(golay), 2, 1)
    picks = [(0, 241), (5, 300), (241, 0), (7, 7)]
    good = [p for p in picks if is_good_extension(system, p)]
    assert len(good) >= 2
    batch = solutions_for(system, good)
    assert batch == [solutions_for(system, [p])[0] for p in good]
    assert [sol.slacks for sol in batch] == [tuple(system.bits[:, list(p)].sum(axis=1) - system.s) for p in good]
    assert batch[1].columns == (0, 241)
    assert solutions_for(system, np.array(good)) == batch
    assert solutions_for(system, []) == []


def test_solutions_for_errors():
    bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    system = CoverSystem.from_bits(bits, l=1, s=1, masked=frozenset({1}))
    assert [sol.columns for sol in solutions_for(system, [[2], [2]])] == [(2,), (2,)]
    for bad, text in [([[2], [2, 2]], "exactly l=1"), ([[2], [1]], "masked"), ([[2], [3]], "out of range")]:
        with pytest.raises(ValueError, match=text):
            solutions_for(system, bad)
    with pytest.raises(InfeasibleSolutionError, match=r"rows \[1\]"):
        solutions_for(system, [[2], [0]])
    distinct = CoverSystem.from_bits(np.ones((1, 2), dtype=np.uint8), l=2, s=1, distinct=True)
    with pytest.raises(ValueError, match="repeats"):
        solutions_for(distinct, [[0, 1], [1, 1]])
    # An (m, l) integer array, as the solver gives, is checked row by row as
    # well: a bad row raises what the checks of that row alone raise,
    # unsigned or unsorted rows too.
    for bad, text in [([[2], [1]], "masked"), ([[2], [3]], "out of range"), ([[2], [-1]], "out of range")]:
        for dtype in (np.int64, np.int8):
            with pytest.raises(ValueError, match=text):
                solutions_for(system, np.array(bad, dtype=dtype))
    with pytest.raises(ValueError, match="repeats"):
        solutions_for(distinct, np.array([[0, 1], [1, 1]], dtype=np.uint8))
    assert [sol.columns for sol in solutions_for(distinct, np.array([[1, 0]], dtype=np.uint16))] == [(0, 1)]


def test_projective_mask_found_once_per_coverage_matrix(hamming, monkeypatch):
    calls = []
    original = extension_module.code_points
    monkeypatch.setattr(extension_module, "code_points", lambda code: calls.append(code) or original(code))
    cov = coverage_matrix(hamming)
    masks = [projective_filter(cover_system(cov, l, 1)).masked for l in (1, 2, 3)]
    assert masks[0] == masks[1] == masks[2] == cov.code_points
    assert len(masks[0]) == 7 and len(calls) == 1
