from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from lsext import field as field_module
from lsext.bitsets import pack_rows, packed_words, popcounts, row_dtype, unpack_rows
from lsext.code import LinearCode
from lsext.errors import EnumerationCapExceeded, RankDeficientError
from lsext.extension import coverage_matrix
from lsext.field import (
    GF,
    CanonicalSupports,
    canonical_count,
    canonical_index,
    canonical_representatives,
    gf,
    representatives_at,
)
from lsext.geometry import geometric_extension_criterion
from lsext.pipeline import ChainPolicy, chain_search, zero_coverage_system

from conftest import binary_golay
from oracles import oracle_weight_distribution

SUPPORTED = [2, 3, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    """Closure, associativity, commutativity, identities, inverses and
    distributivity checked over every element triple."""
    f = gf(q)
    a = np.arange(q)
    add, mul = f.add_table, f.mul_table
    assert add.min() >= 0 and add.max() < q
    assert mul.min() >= 0 and mul.max() < q
    i, j, k = a[:, None, None], a[None, :, None], a[None, None, :]
    assert (add[add[i, j], k] == add[i, add[j, k]]).all()
    assert (mul[mul[i, j], k] == mul[i, mul[j, k]]).all()
    assert (add[i[..., 0], j[..., 0]] == add[j[..., 0], i[..., 0]]).all()
    assert (mul[i[..., 0], j[..., 0]] == mul[j[..., 0], i[..., 0]]).all()
    assert (add[0, a] == a).all()
    assert (mul[1, a] == a).all()
    assert (mul[0, a] == 0).all()
    assert (add[a, f.neg[a]] == 0).all()
    nz = a[1:]
    assert (mul[nz, f.inv[nz]] == 1).all()
    assert (mul[i, add[j, k]] == add[mul[i, j], mul[i, k]]).all()


def test_scalar_examples():
    assert int(gf(3).add(2, 2)) == 1
    assert int(gf(2).add(1, 1)) == 0
    assert int(gf(4).add(2, 3)) == 1  # x + (x+1) = 1 coefficientwise over GF(2)
    assert int(gf(3).mul(2, 2)) == 1
    assert int(gf(4).mul(2, 2)) == 3  # x*x = x+1 mod x^2+x+1
    for q in SUPPORTED:
        assert all(int(gf(q).mul(0, a)) == 0 for a in range(q))
    assert int(gf(3).invert(2)) == 2
    assert int(gf(5).invert(3)) == 2
    assert int(gf(4).invert(2)) == 3


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf(5).invert(0)


def _ternary_code(f):
    return LinearCode(f, [[1, 0, 1], [0, 1, 1]])


# Every entry that checks letters, each with the letter x placed in one operand.
LETTER_ENTRIES = {
    "add_a": lambda f, x: f.add(x, 0),
    "add_b": lambda f, x: f.add(0, x),
    "mul": lambda f, x: f.mul(x, 1),
    "invert": lambda f, x: f.invert(x),
    "vecmat_vecs": lambda f, x: f.vecmat([x, 1], [[1, 0], [0, 1]]),
    "vecmat_mat": lambda f, x: f.vecmat([1, 1], [[1, 0], [x, 1]]),
    "inner_a": lambda f, x: f.inner([[x, 1]], [[1, 1]]),
    "inner_b": lambda f, x: f.inner([[1, 1]], [[1, x]]),
    "scale_to_canonical": lambda f, x: f.scale_to_canonical([1, x]),
    "canonical_index": lambda f, x: canonical_index(f, [[1, x]]),
    "LinearCode": lambda f, x: LinearCode(f, [[1, 0, x], [0, 1, 1]]),
    "encode": lambda f, x: _ternary_code(f).encode([x, 1]),
    "geometric_extension_criterion": lambda f, x: geometric_extension_criterion(_ternary_code(f), [[1, x]]),
}


@pytest.mark.parametrize("letter", [3, -1, 0.5])
@pytest.mark.parametrize("entry", LETTER_ENTRIES.values(), ids=LETTER_ENTRIES.keys())
def test_out_of_range_codes_rejected(entry, letter):
    """Each entry accepts the letter 2 in that place, and refuses q, -1 and 0.5."""
    f = gf(3)
    entry(f, 2)
    with pytest.raises(ValueError, match=r"element codes must be integers in 0\.\.2"):
        entry(f, letter)


def test_non_integer_letters_are_refused_not_truncated():
    # A cast to uint8 would read 0.5 and 2.7 as 0 and 2, and NaN as 0; an
    # empty array has no letter to refuse, and booleans are the letters 0 and 1.
    f = gf(3)
    for letters in ([[1, 0.5, 2.7]], [[1, np.nan, 2]], [[1.0, 0.0, 2.0]]):
        with pytest.raises(ValueError, match="integers"):
            LinearCode(f, np.array(letters))
    assert f.check_codes([]).size == 0
    assert f.check_codes(np.array([[True, False]])).tolist() == [[1, 0]]


def test_letters_are_checked_once_where_they_enter(hamming, monkeypatch):
    """A code checks its matrix once; the coverage matrix, the zero-coverage
    system and the kernel on the product path read it without a check."""
    calls = []
    real = GF.check_codes
    monkeypatch.setattr(GF, "check_codes", lambda self, a: calls.append(1) or real(self, a))
    code = LinearCode(hamming.field, hamming.matrix)
    assert len(calls) == 1
    cover = coverage_matrix(code)
    zero_coverage_system(code, 2, 1)
    supports = CanonicalSupports(code.field, code.matrix)
    assert supports._a is None and cover.supports._a is None
    assert len(calls) == 1


@pytest.mark.parametrize("q", [1, 6, 10, 12, 16, 25, 27, 103])
def test_unsupported_orders_rejected(q):
    with pytest.raises(ValueError):
        GF(q)


def test_canonical_representatives_small_exact():
    reps = canonical_representatives(gf(3), 2)
    assert reps.tolist() == [[0, 1], [1, 0], [1, 1], [1, 2]]


def test_canonical_counts():
    assert len(canonical_representatives(gf(2), 4)) == 15
    assert canonical_count(3, 8) == 3280
    assert len(canonical_representatives(gf(3), 8)) == 3280


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 2), (5, 2), (2, 10), (3, 6)])
def test_canonical_representatives_partition(q, k):
    """First nonzero entry 1, pairwise non-proportional, and every nonzero
    vector is a scalar multiple of exactly one representative."""
    f = gf(q)
    reps = canonical_representatives(f, k)
    assert len(reps) == canonical_count(q, k)
    seen = set()
    for rep in reps:
        nz = np.nonzero(rep)[0]
        assert len(nz) > 0 and rep[nz[0]] == 1
        for lam in range(1, q):
            key = tuple(int(x) for x in f.mul_table[lam, rep])
            assert key not in seen
            seen.add(key)
    assert len(seen) == q**k - 1


def test_canonical_order_lexicographic_and_stable():
    f = gf(3)
    reps = canonical_representatives(f, 4)
    as_tuples = [tuple(map(int, r)) for r in reps]
    assert as_tuples == sorted(as_tuples)
    again = canonical_representatives(f, 4)
    assert np.array_equal(reps, again)


def test_cap_enforced_and_named(monkeypatch):
    monkeypatch.setenv("LSEXT_ENUM_CAP", "100")
    with pytest.raises(EnumerationCapExceeded) as err:
        canonical_representatives(gf(3), 8)
    assert "3280" in str(err.value) and "100" in str(err.value)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("LSEXT_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapExceeded):
        canonical_representatives(gf(2), 4)
    monkeypatch.setenv("LSEXT_ENUM_CAP", "15")
    assert len(canonical_representatives(gf(2), 4)) == 15


def test_vecmat_matches_scalar_path():
    rng = np.random.default_rng(3)
    for q in (3, 4, 9):
        f = gf(q)
        vecs = rng.integers(0, q, size=(5, 4))
        mat = rng.integers(0, q, size=(4, 6))
        fast = f.vecmat(vecs, mat)
        for r in range(5):
            for c in range(6):
                acc = 0
                for i in range(4):
                    acc = int(f.add_table[acc, f.mul_table[vecs[r, i], mat[i, c]]])
                assert acc == int(fast[r, c])


def test_scale_to_canonical():
    f = gf(3)
    assert f.scale_to_canonical([2, 1]).tolist() == [1, 2]
    assert f.scale_to_canonical([0, 2]).tolist() == [0, 1]
    with pytest.raises(ValueError):
        f.scale_to_canonical([0, 0])
    rng = np.random.default_rng(7)
    for q in (4, 8, 9):
        f = gf(q)
        batch = rng.integers(0, q, size=(40, 3))
        batch[0] = [0, 0, q - 1]
        batch = batch[batch.any(axis=1)]
        scaled = f.scale_to_canonical(batch)
        assert scaled.shape == batch.shape
        for vec, row in zip(batch, scaled):
            assert row.tolist() == f.scale_to_canonical(vec).tolist()
            # A scalar multiple of the input whose first nonzero entry is 1.
            assert row[np.flatnonzero(row)[0]] == 1
            assert any(np.array_equal(f.mul_table[a, vec], row) for a in range(1, q))
        with pytest.raises(ValueError):
            f.scale_to_canonical(np.vstack([batch[:2], [0, 0, 0]]))


def test_tables_immutable():
    f = gf(3)
    with pytest.raises(ValueError):
        f.add_table[0, 0] = 1


@pytest.mark.parametrize("q", SUPPORTED)
def test_canonical_index_inverts_representatives_at(q):
    f = gf(q)
    for k in range(1, 5):
        index = np.arange(canonical_count(q, k))
        assert np.array_equal(canonical_index(f, representatives_at(f, k, index)), index)
        assert np.array_equal(canonical_index(f, canonical_representatives(f, k)), index)


def test_canonical_index_rejects_non_canonical_vectors():
    f = gf(3)
    for bad in ([0, 0, 0], [0, 2, 1]):
        with pytest.raises(ValueError):
            canonical_index(f, [bad])


def test_representatives_memory_is_bounded_by_their_rows():
    # Decoding every index at once built two (h, k) int64 temporaries: a
    # 36.7 MB peak for the 2.2 MB result at q = 2, k = 17.  Rows are decoded
    # into the result in blocks of _DECODE_LETTERS letters.
    q, k = 2, 17
    # Reference: every message in integer order as base-q digits, kept when its first nonzero digit is 1.
    digits = np.arange(q**k)[:, None] // q ** np.arange(k - 1, -1, -1) % q
    first = digits[np.arange(len(digits)), np.argmax(digits != 0, axis=1)]
    tracemalloc.start()
    try:
        reps = canonical_representatives(gf(q), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps.dtype == np.uint8 and np.array_equal(reps, digits[first == 1])
    assert peak <= 4 * reps.nbytes


@pytest.mark.parametrize("q", [3, 8])
def test_representatives_decoded_in_blocks_match_one_block(q, monkeypatch):
    f = gf(q)
    index = np.random.default_rng(q).integers(0, canonical_count(q, 5), size=101)
    whole = representatives_at(f, 5, index)
    # 12 letters per block: two rows of five, so 101 rows end in a block of one.
    monkeypatch.setattr(field_module, "_DECODE_LETTERS", 12)
    assert np.array_equal(representatives_at(f, 5, index), whole)
    assert representatives_at(f, 5, []).shape == (0, 5)


def _packed_supports(f, mat):
    """Reference: the nonzero pattern of every representative's word, packed with np.packbits."""
    words = f.vecmat(canonical_representatives(f, len(mat)), mat)
    row_bytes = np.packbits(words != 0, axis=1, bitorder="little")
    dtype = row_dtype(mat.shape[1])
    padded = np.zeros((len(row_bytes), dtype.itemsize * packed_words(mat.shape[1])), dtype=np.uint8)
    padded[:, : row_bytes.shape[1]] = row_bytes
    return padded.view(dtype)


@pytest.mark.parametrize("budget", [None, 5])
@pytest.mark.parametrize("q", SUPPORTED + [11])
def test_canonical_supports_are_packed_nonzero_patterns(q, budget, monkeypatch):
    """Every chunk is packed row bitsets of the narrowest word that holds n
    bits, within the word budget (or one row of the first-half table paired
    with all of the second half), zero past n, and the chunks concatenate to
    the packed supports of all representatives in canonical order.  k = 1
    leaves the first-half table without leads; n = 0 gives chunks of no
    words."""
    if budget is not None:
        monkeypatch.setattr(field_module, "_CHUNK_WORDS", budget)
    f = gf(q)
    rng = np.random.default_rng(q)
    for k in range(1, 6):
        low_rows = q ** (k - k // 2)
        for n in (0, 1, 8, 9, 16, 17, 32, 33, 63, 64, 65, 129):
            mat = rng.integers(0, q, size=(k, n))
            chunks = list(CanonicalSupports(f, mat))
            for chunk in chunks:
                assert chunk.dtype == row_dtype(n) and chunk.shape[1] == packed_words(n)
                assert chunk.size <= field_module._CHUNK_WORDS or len(chunk) == low_rows
                bits = 8 * chunk.dtype.itemsize
                if n % bits:
                    assert not np.any(chunk[:, -1] >> chunk.dtype.type(n % bits))
            assert np.array_equal(np.concatenate(chunks), _packed_supports(f, mat))


def test_row_words_are_the_narrowest_that_hold_the_row():
    widths = {n: (row_dtype(n).itemsize, packed_words(n)) for n in (0, 1, 8, 9, 16, 17, 32, 33, 64, 65, 129)}
    assert widths == {
        0: (1, 0), 1: (1, 1), 8: (1, 1), 9: (2, 1), 16: (2, 1), 17: (4, 1), 32: (4, 1),
        33: (8, 1), 64: (8, 1), 65: (8, 2), 129: (8, 3),
    }
    assert all(row_dtype(n).str[0] in "<|" for n in widths)
    assert packed_words(3, np.uint64) == 1 and packed_words(65, np.uint8) == 9


@pytest.mark.parametrize("q", [2, 4, 8])
def test_characteristic_two_planes_match_packed_table(q):
    """In characteristic 2 the kernel builds its packed bit-planes directly by
    XOR; they equal the planes of the letter table, negated or not."""
    f = gf(q)
    rng = np.random.default_rng(200 + q)
    for m in range(6):
        for n in (1, 8, 9, 17, 33, 65):
            rows = rng.integers(0, q, size=(m, n)).astype(np.uint8)
            expected = field_module._bit_planes(f, field_module._partial_words(f, rows))
            for negate in (False, True):
                planes = field_module._partial_planes(f, rows, negate=negate)
                assert planes.dtype == expected.dtype and np.array_equal(planes, expected)


def test_bit_planes_are_packed_in_bounded_blocks():
    # The odd-q kernel's second-half table of a [12,7]_9 code: 9^4 messages of
    # 12 letters.  Building every plane of every row at once took two
    # (4, 6561, 12) uint8 temporaries, 0.63 MB against the 79 KB table; the
    # planes of a block of rows are packed together, in blocks of at most
    # _PLANE_BYTES letters.
    f = gf(9)
    words = np.random.default_rng(9).integers(0, 9, size=(9**4, 12)).astype(np.uint8)
    tracemalloc.start()
    try:
        planes = field_module._bit_planes(f, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert planes.shape == (4, 9**4, 1) and planes.dtype == row_dtype(12)
    for b in range(4):
        assert np.array_equal(unpack_rows(planes[b], 12), (words >> b) & 1)
    assert peak < planes.nbytes + 2 * words.nbytes


@pytest.mark.parametrize("q, k, n", [(2, 5, 10), (3, 4, 8), (9, 3, 6), (9, 3, 70), (2, 12, 24)])
def test_small_enumeration_streams_as_one_chunk(q, k, n):
    # A code whose whole enumeration fits the chunk budget comes as one chunk:
    # the first four (the chain codes are such) are one product over the table
    # of representatives, and the binary Golay code's (2, 12, 24) gathers
    # every piece of the half-table kernel into one chunk.
    f = gf(q)
    mat = np.random.default_rng(k * n).integers(0, q, size=(k, n))
    assert canonical_count(q, k) * packed_words(n) <= field_module._CHUNK_WORDS
    chunks = list(CanonicalSupports(f, mat))
    assert len(chunks) == 1
    assert np.array_equal(chunks[0], _packed_supports(f, mat))


def test_canonical_supports_chunks_are_read_only(monkeypatch):
    # No chunk may be written, whether it holds rows led in the second half
    # or rows paired from both halves.  At the default budget this code
    # streams as one chunk, so a budget of three two-word rows makes both
    # kinds occur.
    monkeypatch.setattr(field_module, "_CHUNK_WORDS", 6)
    f = gf(3)
    mat = np.random.default_rng(1).integers(0, 3, size=(4, 70))
    chunks = list(CanonicalSupports(f, mat))
    assert len(chunks) >= 2
    for chunk in chunks:
        with pytest.raises(ValueError):
            chunk[0, 0] = 0


@pytest.mark.parametrize("q", SUPPORTED)
def test_canonical_supports_random_access_matches_the_whole_array(q):
    # Any range of rows, and any array of indices, reads what the whole array
    # holds there.  The ranges start and stop at every lead, at the boundary
    # between the rows led in the second half (B) and those led in the first
    # (A), and partway through an A row's pairing with the rows of B.
    f = gf(q)
    rng = np.random.default_rng(300 + q)
    for k in range(1, 6 if q < 7 else 5):
        for n in (1, 9, 33, 70):
            mat = rng.integers(0, q, size=(k, n))
            supports = CanonicalSupports(f, mat)
            whole = _packed_supports(f, mat)
            h, b_rows = len(whole), q ** (k - k // 2)
            assert supports.shape == whole.shape and supports.dtype == whole.dtype and len(supports) == h
            leads = [canonical_count(q, tail) for tail in range(k + 1)]
            b_end = leads[k - k // 2]  # the first row led in the first half
            edges = set(leads) | {b_end - 1, b_end + 1, b_end + b_rows // 2, b_end + b_rows + 1, h - 1}
            edges |= set(rng.integers(0, h + 1, size=6).tolist())
            edges = sorted(e for e in edges if 0 <= e <= h)
            for start, stop in itertools.combinations(edges, 2):
                rows = supports[start:stop]
                assert rows.dtype == whole.dtype and not rows.flags.writeable
                assert np.array_equal(rows, whole[start:stop])
            assert len(supports[3:3]) == 0
            index = rng.integers(0, h, size=(5, 3))
            assert np.array_equal(supports[index], whole[index])
            assert np.array_equal(supports[[h - 1, 0, 0]], whole[[h - 1, 0, 0]])
            assert np.array_equal(np.asarray(supports), whole)


def test_canonical_supports_builds_the_whole_array_once():
    # `np.asarray` builds the whole array once, read-only, and keeps it,
    # while a copy asked for is a fresh array.
    f = gf(3)
    mat = np.random.default_rng(5).integers(0, 3, size=(4, 12))
    supports = CanonicalSupports(f, mat)
    whole = np.asarray(supports)
    assert np.asarray(supports) is whole and not whole.flags.writeable
    copied = np.array(supports)
    assert copied is not whole and copied.flags.writeable and np.array_equal(copied, whole)


def _takes_product(q, k, n):
    return canonical_count(q, k) * max(k, n) <= field_module._CHUNK_WORDS


def _reads(supports, h, rng):
    """Everything a caller can read from the kernel: its chunks, some ranges,
    two index arrays and the whole array (asked for last, as it is kept)."""
    edges = sorted({0, 1, h // 2, h - 1, h, *rng.integers(0, h + 1, size=4).tolist()})
    index = rng.integers(0, h, size=(5, 3))
    return {
        "chunks": list(supports),
        "ranges": [supports[a:b] for a, b in itertools.combinations(edges, 2)],
        "index": [supports[index], supports[[h - 1, 0, 0]], supports[h // 2]],
        "whole": np.asarray(supports),
    }


@pytest.mark.parametrize("q", SUPPORTED + [11])
def test_product_path_agrees_with_the_kernel(q, monkeypatch):
    """A kernel whose rows times max(k, n) fit the chunk budget is one product
    over the table of representatives, built at construction; every read of
    it equals the half-table kernel's, which a budget of 0 forces, and no read
    that shares its memory can write it."""
    f = gf(q)
    rng = np.random.default_rng(400 + q)
    cases = [(k, n, rng.integers(0, q, size=(k, n))) for k in range(1, 6) for n in (0, 1, 9, 17, 33, 65)]
    product = {}
    for k, n, mat in cases:
        supports = CanonicalSupports(f, mat)
        assert (supports._a is None) == _takes_product(q, k, n)
        reads = product[k, n] = _reads(supports, len(supports), np.random.default_rng(k * 100 + n))
        if supports._a is None:
            assert len(reads["chunks"]) == 1 and reads["chunks"][0] is reads["whole"]
            for rows in reads["chunks"] + reads["ranges"] + [reads["whole"]]:
                assert not rows.flags.writeable
            for rows in reads["index"]:
                assert not rows.flags.writeable or not np.shares_memory(rows, reads["whole"])
    assert sum(_takes_product(q, k, n) for k, n, _ in cases) >= 12
    monkeypatch.setattr(field_module, "_CHUNK_WORDS", 0)
    for k, n, mat in cases:
        supports = CanonicalSupports(f, mat)
        assert supports._a is not None
        kernel = _reads(supports, len(supports), np.random.default_rng(k * 100 + n))
        assert np.array_equal(np.concatenate(kernel["chunks"]), np.concatenate(product[k, n]["chunks"]))
        for part in ("ranges", "index"):
            for mine, theirs in zip(product[k, n][part], kernel[part], strict=True):
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert np.array_equal(product[k, n]["whole"], kernel["whole"])


@pytest.mark.parametrize("budget", [None, 0])
@pytest.mark.parametrize("q", SUPPORTED + [11])
def test_weight_distributions_on_both_sides_of_the_rule(q, budget, monkeypatch):
    """`LinearCode` gives the scalar oracle's weight distribution whichever
    path enumerates it, and a weight-0 representative is a rank error on both."""
    if budget is not None:
        monkeypatch.setattr(field_module, "_CHUNK_WORDS", budget)
    f = gf(q)
    rng = np.random.default_rng(500 + q)
    for k in range(1, 5 if q < 7 else 4):
        for n in (k, 9, 17):
            mat = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, q, size=(k, n - k))])
            assert LinearCode(f, mat).weight_distribution() == oracle_weight_distribution(f, mat)
            if k > 1:
                deficient = mat.copy()
                deficient[-1] = f.vecmat(rng.integers(0, q, size=k - 1), mat[:-1])[0]
                with pytest.raises(RankDeficientError):
                    LinearCode(f, deficient)
    # A code that takes the kernel at the default budget as well.
    mat = np.hstack([np.eye(11, dtype=np.int64), np.random.default_rng(11).integers(0, 2, size=(11, 2))])
    assert not _takes_product(2, 11, 13)
    assert LinearCode(gf(2), mat).weight_distribution() == oracle_weight_distribution(gf(2), mat)


def test_cap_is_checked_before_any_table_is_built(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built past the cap")

    monkeypatch.setattr(field_module, "_table", no_table)
    monkeypatch.setattr(field_module, "_partial_planes", no_table)
    monkeypatch.setenv("LSEXT_ENUM_CAP", "39")  # h = 40 for q = 3, k = 4
    f = gf(3)
    mat = np.hstack([np.eye(4, dtype=np.int64), np.ones((4, 4), dtype=np.int64)])
    assert _takes_product(3, 4, 8)
    for build in (lambda: CanonicalSupports(f, mat), lambda: LinearCode(f, mat), lambda: canonical_representatives(f, 4)):
        with pytest.raises(EnumerationCapExceeded):
            build()


def test_chain_codes_take_the_product_and_the_golay_code_the_kernel(monkeypatch):
    """The rule picks the path from the input size: a small chain runs without
    the half tables, and the binary Golay code still builds them."""

    def no_half_tables(*args, **kwargs):
        raise AssertionError("half tables built")

    monkeypatch.setattr(field_module, "_partial_planes", no_half_tables)
    f = gf(3)
    start = LinearCode(f, np.hstack([np.eye(4, dtype=np.int64), np.random.default_rng(3).integers(0, 3, size=(4, 4))]))
    report = chain_search(start, ChainPolicy(max_l=3, max_total_added=12))
    assert report.steps and report.final.d > start.d
    with pytest.raises(AssertionError, match="half tables built"):
        binary_golay()


@pytest.mark.parametrize("q", SUPPORTED + [11])
def test_table_of_representatives_is_read_only_and_never_handed_out(q):
    """The product path's cached table holds every canonical representative
    and cannot be written; `representatives_at` and `canonical_representatives`
    return fresh, writable arrays, and writing them changes no later read."""
    f = gf(q)
    ks = [k for k in range(1, 9) if canonical_count(q, k) * k <= field_module._CHUNK_WORDS]
    assert ks
    for k in ks:
        table = field_module._table(q, k)
        assert not table.flags.writeable and table.dtype == np.uint8
        assert np.array_equal(table, canonical_representatives(f, k))
    k = ks[-1]
    expected = field_module._table(q, k).copy()
    rows = representatives_at(f, k, [2, 0, 2])
    assert rows.flags.writeable
    rows[:] = 7
    assert np.array_equal(representatives_at(f, k, [2, 0, 2]), expected[[2, 0, 2]])
    first, second = canonical_representatives(f, k), canonical_representatives(f, k)
    assert first.flags.writeable and not np.shares_memory(first, second)
    first[:] = 0
    assert np.array_equal(second, expected) and np.array_equal(field_module._table(q, k), expected)
    assert np.array_equal(np.asarray(CanonicalSupports(f, np.eye(k, dtype=np.uint8))), pack_rows(expected != 0))


@pytest.mark.parametrize("q", SUPPORTED + [11])
def test_partial_words_match_vecmat(q):
    """The kernel's tables, built one position at a time by table lookups,
    equal every message times the rows through `GF.vecmat`, messages in
    lexicographic order (first position most significant)."""
    f = gf(q)
    rng = np.random.default_rng(100 + q)
    for m in range(6):
        messages = np.array(list(itertools.product(range(q), repeat=m)), dtype=np.uint8).reshape(q**m, m)
        for n in (1, 12, 40):
            rows = rng.integers(0, q, size=(m, n)).astype(np.uint8)
            table = field_module._partial_words(f, rows)
            assert table.shape == (q**m, n) and table.dtype == np.uint8
            for low in range(0, q**m, 4096):
                assert np.array_equal(table[low : low + 4096], f.vecmat(messages[low : low + 4096], rows))


def test_popcounts_match_row_sums():
    rng = np.random.default_rng(7)
    for width in range(1, 13):
        for m in (0, 1, 5, 300):
            words = rng.integers(0, 1 << 64, size=(m, width), dtype=np.uint64)
            words[: m // 3] = 0
            counts = popcounts(words)
            assert counts.dtype == np.intp and counts.shape == (m,)
            assert np.array_equal(counts, np.bitwise_count(words).sum(axis=1))
    assert popcounts(np.full((2, 3), np.uint64(2**64 - 1))).tolist() == [192, 192]
