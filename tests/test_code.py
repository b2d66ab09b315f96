from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import random_codes, repetition
import lsext.code
import lsext.extension
from lsext.code import LinearCode, weight
from lsext.errors import DegenerateCodeError, RankDeficientError
from lsext.field import canonical_representatives, gf
from lsext.pipeline import extend_once
from oracles import oracle_weight_distribution


def test_hamming_analysis(hamming):
    assert hamming.weight_distribution() == {0: 1, 3: 7, 4: 7, 7: 1}
    assert hamming.params() == (7, 4, 3)
    assert hamming.min_weight_count == 7
    assert hamming.num_min_weight_representatives == 7
    assert hamming.weight_gap_or_none() == 1


def test_golay_analysis(golay):
    assert golay.params() == (11, 6, 5)
    assert golay.min_weight_count == 132
    assert golay.num_min_weight_representatives == 66
    assert golay.weight_gap_or_none() == 1


def test_repetition_distribution():
    rep = repetition(2, 3)
    assert rep.weight_distribution() == {0: 1, 3: 1}
    assert rep.min_weight_representatives().tolist() == [[1]]
    assert rep.weight_gap_or_none() is None


def test_encode(hamming):
    assert weight(hamming.encode([0, 0, 0, 0])) == 0
    for i in range(4):
        e = [0] * 4
        e[i] = 1
        assert np.array_equal(hamming.encode(e), hamming.matrix[i])
    first = hamming.encode([1, 0, 0, 0])
    assert weight(first) == 3
    with pytest.raises(ValueError):
        hamming.encode([1, 0, 0])


def test_weight_examples():
    assert weight([0] * 7) == 0
    assert weight([1, 0, 2, 0, 1]) == 3


def test_rank_deficient_rejected():
    assert LinearCode(gf(2), [[1, 0], [0, 1]]).k == 2  # rank 2 = k
    with pytest.raises(RankDeficientError):
        LinearCode(gf(2), [[1, 1, 0], [1, 1, 0]])
    with pytest.raises(RankDeficientError):
        LinearCode(gf(3), [[1, 2], [2, 1], [0, 1]])  # k > n
    with pytest.raises(RankDeficientError):
        LinearCode(gf(4), [[2, 1], [3, 1], [1, 0]])  # k > n, rank 2
    with pytest.raises(RankDeficientError):
        LinearCode(gf(3), [[1, 2, 0], [2, 1, 0]])  # row 2 = 2 * row 1


def test_degenerate_flag():
    code = LinearCode(gf(2), [[1, 0, 0], [0, 1, 0]])
    assert code.is_degenerate
    with pytest.raises(DegenerateCodeError):
        code.require_non_degenerate()
    assert not LinearCode(gf(2), [[1, 0, 1], [0, 1, 1]]).is_degenerate


def test_distribution_copies_are_independent(hamming):
    d1 = hamming.weight_distribution()
    d1[3] = 999
    assert hamming.weight_distribution()[3] == 7


@pytest.mark.parametrize("code_factory", [
    lambda: LinearCode(gf(2), [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ]),
    lambda: repetition(3, 4),
    lambda: LinearCode(gf(4), [[1, 0, 2], [0, 1, 3]]),
    lambda: LinearCode(gf(5), [[1, 0, 4, 2], [0, 1, 3, 3]]),
    lambda: LinearCode(gf(9), [[1, 0, 5], [0, 1, 7]]),
    lambda: repetition(2, 5),
    lambda: LinearCode(gf(3), [[1, 0, 1, 2], [0, 1, 1, 1]]),
    lambda: LinearCode(gf(7), [[1, 0, 0, 3, 6, 2], [0, 1, 0, 5, 4, 4], [0, 0, 1, 1, 2, 5]]),
    lambda: LinearCode(gf(8), [[1, 0, 0, 3, 7, 5], [0, 1, 0, 6, 2, 4], [0, 0, 1, 1, 5, 7]]),
    lambda: LinearCode(gf(4), [[1, 2, 3, 1]]),
    # n > 64: a codeword longer than one 64-bit word.
    lambda: LinearCode(gf(3), np.concatenate(
        [np.eye(3, dtype=np.uint8), np.random.default_rng(4).integers(0, 3, size=(3, 67))], axis=1)),
])
def test_distribution_matches_full_enumeration(code_factory):
    code = code_factory()
    assert code.weight_distribution() == oracle_weight_distribution(code.field, code.matrix)


def test_distribution_matches_oracle_on_random_codes():
    codes = random_codes(25, seed=11) + random_codes(20, seed=12, qs=(4, 5, 7, 8, 9), max_k=3)
    for code in codes:
        assert code.weight_distribution() == oracle_weight_distribution(code.field, code.matrix)


def test_golay_distribution_matches_oracle(golay):
    assert golay.weight_distribution() == oracle_weight_distribution(golay.field, golay.matrix)


def test_distribution_sums_and_multiplicity():
    for code in random_codes(20, seed=5, qs=(2, 3, 4)):
        dist = code.weight_distribution()
        assert sum(dist.values()) == code.q**code.k
        assert dist[0] == 1
        for w, c in dist.items():
            if w > 0:
                assert c % (code.q - 1) == 0
        assert code.num_min_weight_representatives * (code.q - 1) == code.min_weight_count


def test_min_weight_scalar_invariance():
    for code in random_codes(10, seed=23, qs=(3, 4)):
        d = code.d
        for rep in code.min_weight_representatives():
            for lam in range(1, code.q):
                scaled = code.field.mul_table[lam, rep]
                assert weight(code.encode(scaled)) == d


def test_min_weight_reps_in_canonical_order(golay):
    reps = [tuple(map(int, r)) for r in golay.min_weight_representatives()]
    assert reps == sorted(reps)
    assert all(r[np.nonzero(r)[0][0]] == 1 for r in golay.min_weight_representatives())
    codes = [golay] + random_codes(30, seed=31, qs=(2, 3, 4, 5, 7, 8, 9), max_k=4)
    for code in codes:
        every = canonical_representatives(code.field, code.k)
        expected = [r for r in every if weight(code.encode(r)) == code.d]
        assert np.array_equal(code.min_weight_representatives(), np.array(expected))


def test_analysis_memory_does_not_grow_with_representatives():
    # [40,20]_2 has 2^20 - 1 representatives; holding them with their codewords took ~700 MB.
    rng = np.random.default_rng(20)
    mat = np.concatenate([np.eye(20, dtype=np.uint8), rng.integers(0, 2, size=(20, 20))], axis=1)
    tracemalloc.start()
    try:
        dist = LinearCode(gf(2), mat).weight_distribution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(dist.values()) == 2**20
    assert peak < 64 * 1024 * 1024


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_construction_rejects_exactly_the_rank_deficient(q):
    # Reference: the row space of a rank-r matrix has exactly q^r vectors.
    f = gf(q)
    rng = np.random.default_rng(q)
    full_rank = set()
    for _ in range(12):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        mat = rng.integers(0, q, size=(k, n))
        if k > 1 and rng.random() < 0.5:
            # Rank-deficient: the last row is a combination of the others.
            mat[-1] = f.vecmat(rng.integers(0, q, size=k - 1), mat[:-1])[0]
        messages = np.array(list(itertools.product(range(q), repeat=k)))
        space = {tuple(row) for row in f.vecmat(messages, mat).tolist()}
        reference = round(np.log(len(space)) / np.log(q))
        assert q**reference == len(space)
        if reference < k:
            with pytest.raises(RankDeficientError):
                LinearCode(f, mat)
        else:
            assert LinearCode(f, mat).k == k
        full_rank.add(reference == k)
    assert full_rank == {True, False}


def test_each_code_is_enumerated_once(hamming, monkeypatch):
    calls = {"code": 0, "extension": 0}

    def counting(module, key):
        original = module.CanonicalSupports

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "CanonicalSupports", wrapper)

    counting(lsext.code, "code")
    counting(lsext.extension, "extension")
    code = LinearCode(hamming.field, hamming.matrix)
    assert calls == {"code": 1, "extension": 0}
    code.weight_distribution()
    code.min_weight_representatives()
    code.weight_gap_or_none()
    code.guaranteed_gain(1)
    repr(code)
    assert (code.d, code.min_weight_count, code.num_min_weight_representatives) == (3, 7, 7)
    assert calls == {"code": 1, "extension": 0}
    new_code = extend_once(code, 1).result
    assert new_code is not None and new_code.d == 4
    assert calls == {"code": 2, "extension": 1}
