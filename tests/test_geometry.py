from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import binary_golay, extended_golay, random_codes, repetition
from oracles import hyperplane_row_weight
from lsext.code import LinearCode, weight
from lsext.errors import DegenerateCodeError
from lsext.extension import cover_system, coverage_matrix, format_matrix, is_good_extension
from lsext.field import canonical_count, canonical_index, canonical_representatives, gf, representatives_at
from lsext.geometry import (
    code_points,
    incidence_matrix,
    geometric_extension_criterion,
)


def test_fano_incidence():
    inc = incidence_matrix(gf(2), 3)
    assert inc.shape == (7, 7)
    assert (inc.sum(axis=1) == 3).all()
    assert (inc.sum(axis=0) == 3).all()


def test_incidence_row_sums():
    for q, k in [(3, 2), (2, 4), (3, 3), (4, 2)]:
        inc = incidence_matrix(gf(q), k)
        side = canonical_count(q, k)
        assert inc.shape == (side, side)
        assert (inc.sum(axis=1) == hyperplane_row_weight(q, k)).all()


def test_incidence_bits_match_inner_products():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in (1, 2, 3):
            f = gf(q)
            inc = incidence_matrix(f, k)
            points = canonical_representatives(f, k)
            expected = (f.inner(points, points) == 0).astype(np.uint8)
            assert inc.dtype == np.uint8
            assert not inc.flags.writeable
            assert np.array_equal(inc, expected)


def test_incidence_memory_is_bounded_by_its_result():
    # PG(11,2): the 4095 x 4095 result is 16 MB; int64 inner products of all
    # point pairs would peak at 256 MB.
    tracemalloc.start()
    try:
        inc = incidence_matrix(gf(2), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (inc.sum(axis=1) == hyperplane_row_weight(2, 12)).all()
    assert peak < 48 * 1024 * 1024


def test_pg_1_3_hyperplanes_are_points():
    inc = incidence_matrix(gf(3), 2)
    assert inc.shape == (4, 4)
    assert (inc.sum(axis=1) == 1).all()


def test_code_points_hamming(hamming):
    pts = code_points(hamming)
    assert len(pts) == 7
    assert len(set(pts.tolist())) == 7


def test_code_points_repetition():
    pts = code_points(repetition(2, 3))
    assert pts.tolist() == [0, 0, 0]


def test_code_points_collapses_proportional_columns():
    code = LinearCode(gf(3), [[1, 2, 0], [2, 1, 1]])
    pts = code_points(code)
    # columns (1,2) and (2,1) span the same line; (2,1) normalizes to (1,2).
    line = int(canonical_index(code.field, [1, 2])[0])
    assert pts.tolist() == [line, line, int(canonical_index(code.field, [0, 1])[0])]


def test_code_points_rejects_degenerate():
    with pytest.raises(DegenerateCodeError):
        code_points(LinearCode(gf(2), [[1, 0, 0], [0, 1, 0]]))


def _weight_identity_holds(code):
    pts = code_points(code)
    normals = canonical_representatives(code.field, code.k)
    on_hyperplane = code.field.inner(normals, normals) == 0
    intersections = on_hyperplane @ np.bincount(pts, minlength=len(normals))
    for g, inter in zip(normals, intersections):
        assert code.n - int(inter) == weight(code.encode(g))


def test_weight_identity_fixtures(hamming, golay):
    _weight_identity_holds(hamming)
    _weight_identity_holds(golay)


def test_weight_identity_random():
    for code in random_codes(15, seed=41, qs=(2, 3)):
        if not code.is_degenerate:
            _weight_identity_holds(code)


def _coverage_equals_incidence_complement(code):
    cov = coverage_matrix(code)
    inc = incidence_matrix(code.field, code.k)
    points = canonical_representatives(code.field, code.k)
    index = {tuple(map(int, p)): i for i, p in enumerate(points)}
    for row_i, rep in enumerate(cov.representatives):
        inc_row = inc[index[tuple(map(int, rep))]]
        assert np.array_equal(cov.bits[row_i], 1 - inc_row)


def test_coverage_matrix_is_incidence_complement(hamming, golay):
    _coverage_equals_incidence_complement(hamming)
    _coverage_equals_incidence_complement(golay)
    for code in random_codes(10, seed=17, qs=(2, 3), max_k=3, max_n=8):
        if not code.is_degenerate:
            _coverage_equals_incidence_complement(code)


def test_geometric_criterion_parity_point(hamming):
    # The unique feasible single column found by the extension machinery.
    assert geometric_extension_criterion(hamming, representatives_at(hamming.field, 4, [13]))


def test_geometric_criterion_rejects_point_on_max_hyperplane(hamming):
    cov = coverage_matrix(hamming)
    system = cover_system(cov, 1, 1)
    bad = next(j for j in range(cov.h) if not is_good_extension(system, [j]))
    assert not geometric_extension_criterion(hamming, representatives_at(hamming.field, 4, [bad]))


def test_geometric_criterion_agrees_with_coverage_for_single_columns(hamming, golay):
    for code in [hamming, golay] + [
        c
        for c in random_codes(8, seed=29, qs=(2, 3, 4, 5, 7, 8, 9), max_k=3, max_n=7)
        if not c.is_degenerate
    ]:
        cov = coverage_matrix(code)
        system = cover_system(cov, 1, 1)
        for j in range(cov.h):
            geometric = geometric_extension_criterion(code, representatives_at(code.field, code.k, [j]))
            combinatorial = is_good_extension(system, [j])
            assert geometric == combinatorial, (code.params(), j)


def test_geometric_criterion_implies_good_extension_for_pairs(hamming):
    """For several chosen points the geometric criterion is sufficient but
    not necessary, so only the forward implication is asserted."""
    cov = coverage_matrix(hamming)
    system = cover_system(cov, 2, 1)
    for a in range(cov.h):
        for b in range(a + 1, cov.h):
            if geometric_extension_criterion(hamming, representatives_at(hamming.field, 4, [a, b])):
                assert is_good_extension(system, [a, b])


def test_geometric_criterion_requires_nonempty_choice(hamming):
    with pytest.raises(ValueError, match="chosen point list must be nonempty"):
        geometric_extension_criterion(hamming, [])


def test_geometric_criterion_rejects_degenerate():
    with pytest.raises(DegenerateCodeError):
        geometric_extension_criterion(LinearCode(gf(2), [[1, 0, 0], [0, 1, 0]]), [[1, 1]])


def test_geometric_criterion_memory_is_bounded():
    # k = 12: the 4095 x 4095 incidence matrix alone would be 16 MB.  The
    # extended Golay code has no column where the criterion holds (no
    # [25,12,9]_2 code exists), so the full scan is the binary Golay code's
    # parity column, which extends it to the extended Golay code.
    parity = [[1] * 12]
    for code, expected in [(binary_golay(), True), (extended_golay(), False)]:
        code.d  # the weight analysis is not part of the criterion's cost
        tracemalloc.start()
        try:
            result = geometric_extension_criterion(code, parity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result is expected
        assert peak < 2 * 1024 * 1024


def test_format_incidence_header():
    text = "".join(format_matrix(incidence_matrix(gf(2), 3)))
    lines = text.splitlines()
    assert lines[0] == "7 7"
    assert len(lines) == 8
    assert all(set(row) <= {"0", "1"} and len(row) == 7 for row in lines[1:])
