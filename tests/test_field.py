from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from lsext import field as field_module
from lsext.bitsets import packed_words, popcounts, row_dtype, unpack_rows
from lsext.errors import EnumerationCapExceeded
from lsext.field import (
    GF,
    canonical_count,
    canonical_index,
    canonical_representatives,
    canonical_supports,
    gf,
    representatives_at,
)

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


def test_out_of_range_codes_rejected():
    with pytest.raises(ValueError):
        gf(3).add(3, 0)
    with pytest.raises(ValueError):
        gf(3).add(0, -1)


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
            chunks = list(canonical_supports(f, mat))
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
    # Every piece of a code whose whole enumeration fits the chunk budget is
    # gathered into one chunk (the chain codes and the Golay codes are such).
    f = gf(q)
    mat = np.random.default_rng(k * n).integers(0, q, size=(k, n))
    assert canonical_count(q, k) * packed_words(n) <= field_module._CHUNK_WORDS
    chunks = list(canonical_supports(f, mat))
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
    chunks = list(canonical_supports(f, mat))
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
            supports = canonical_supports(f, mat)
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
    supports = canonical_supports(f, mat)
    whole = np.asarray(supports)
    assert np.asarray(supports) is whole and not whole.flags.writeable
    copied = np.array(supports)
    assert copied is not whole and copied.flags.writeable and np.array_equal(copied, whole)


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
