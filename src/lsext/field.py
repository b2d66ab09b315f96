"""Exact arithmetic in GF(q) for small prime powers.

Elements are stored as integers 0..q-1.  For q = p^e the integer is read in
base p, lowest digit first, as the coefficient vector of a polynomial of
degree < e over GF(p); arithmetic is modulo a fixed irreducible polynomial.
Code 0 is the additive identity and code 1 the multiplicative identity in
every supported field.

Supported orders: any prime q up to 101, plus the prime powers 4, 8 and 9
with fixed modulus polynomials (coefficient lists, lowest degree first):

    GF(4): x^2 + x + 1      -> (1, 1, 1)
    GF(8): x^3 + x + 1      -> (1, 1, 0, 1)
    GF(9): x^2 + 1          -> (1, 0, 1)

All operation tables are precomputed at construction (q <= 9 in practice, so
they are tiny) and never mutated afterwards: a `GF` instance is safe to share
read-only between any number of threads, and every operation is pure.  The
tables are built on the coefficient vectors of all q elements at once:
digitwise sums and differences mod p, and polynomial products reduced by the
modulus.

The module also owns the canonical order of GF(q)^k (one representative per
one-dimensional subspace, named by its row in that order) and the kernel
that enumerates it, `CanonicalSupports`: the nonzero pattern of r @ G for
every representative r as packed row bitsets (`lsext.bitsets`).

Letters are checked once, where they enter lsext: `GF.check_codes` refuses
a letter that is not an integer in 0..q-1 for the public `GF` operations,
`canonical_index`, `LinearCode` and `geometric_extension_criterion`, and
`pipeline.parse_code` refuses one itself.  Inside, `CanonicalSupports` and
`GF._product` read checked uint8 letters and check nothing.

The chunk budget `_CHUNK_WORDS` chooses between two paths by the input
size alone.  When the h representatives of a (q, k) times max(k, n) fit
it, the kernel over a (k, n) matrix is one product through `GF._product`
over the table of those representatives (`_table`, decoded once per
(q, k), cached and kept read-only), packed at construction: its whole
array is its one chunk and serves every read.  Such codes (the small
codes of a chain step) pay a fixed cost per kernel, which the product
keeps small.

Every larger kernel tables the partial words of the two halves of a
message once each, as packed bit-planes, and holds only those tables.  From
them it streams its rows in chunks, and reads any range of rows or any
array of row indices at random, so that a coverage matrix is a view of it.
`_bit_planes` packs letters into planes a block of rows at a time: it
writes the block's bits of every plane as 0/1 bytes into rows padded to
the word width and packs them all with one flat `np.packbits`, one routine
for every table size.  The rows of the enumeration come in pieces whose row
counts are known before they are built; consecutive pieces are gathered
into one chunk while their words fit `_CHUNK_WORDS`, so the many small
pieces of a code that fits the budget stream as one chunk, and a large
code streams in chunks of bounded size.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .bitsets import pack_rows, packed_words, row_dtype
from .errors import EnumerationCapExceeded

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV_VAR = "LSEXT_ENUM_CAP"

_MAX_PRIME = 101

# Words (of the row's width) in one chunk of `CanonicalSupports`; bounds its working memory.
# It also bounds the letters of a cached table of representatives and the
# int64 letters of the product that replaces the half tables for a small kernel.
_CHUNK_WORDS = 1 << 14

# Bytes of 0/1 letters that `_bit_planes` packs in one step; bounds its temporaries.
_PLANE_BYTES = 1 << 16

# Letters that `representatives_at` decodes in one step; bounds its int64 temporaries.
_DECODE_LETTERS = 1 << 16

# Modulus polynomials for the supported extension fields, keyed by q.
_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}


def enumeration_cap() -> int:
    """Active cap on one-shot enumerations (env LSEXT_ENUM_CAP or default)."""
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENUM_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{ENUM_CAP_ENV_VAR} must be positive, got {value}")
    return value


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = next(f for f in range(2, q + 1) if q % f == 0)  # the least factor of q is prime
    e = 1
    while q % p ** (e + 1) == 0:
        e += 1
    if p**e != q:
        raise ValueError(f"{q} is not a prime power")
    return p, e


class GF:
    """Arithmetic tables for GF(q), with vectorized helpers over numpy arrays.

    Attributes p, e, q and modulus mirror the field description; add_table
    and mul_table are (q, q) uint8 lookup tables, neg and inv are length-q
    vectors (inv[0] is a placeholder and must never be read).
    """

    def __init__(self, q: int) -> None:
        p, e = _factor_prime_power(q)
        if e == 1:
            if p > _MAX_PRIME:
                raise ValueError(f"prime fields are supported up to q={_MAX_PRIME}, got {q}")
            modulus = None
        else:
            if q not in _MODULI:
                raise ValueError(
                    f"extension fields are supported only for q in {sorted(_MODULI)}, got {q}"
                )
            modulus = _MODULI[q]
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self._build_tables()
        for table in (self.add_table, self.mul_table, self.neg, self.inv):
            table.setflags(write=False)

    # -- table construction -------------------------------------------------

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        # Element c as its coefficient vector (c read in base p, lowest digit
        # first), and the integer code of a reduced vector.
        digits = np.arange(q)[:, None] // p ** np.arange(e) % p
        place = p ** np.arange(e)
        add = (digits[:, None] + digits[None]) % p @ place
        prod = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
        for i in range(e):
            prod[:, :, i : i + e] += digits[:, None, i, None] * digits[None]
        # Reduce by the monic modulus, highest degree first: x^e = -(its lower coefficients).
        for deg in range(2 * e - 2, e - 1, -1):
            prod[:, :, deg - e : deg] -= prod[:, :, deg, None] * np.array(self.modulus[:e])
        mul = prod[:, :, :e] % p @ place
        self.add_table = add.astype(np.uint8)
        self.mul_table = mul.astype(np.uint8)
        self.neg = (-digits % p @ place).astype(np.uint8)
        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            hits = np.nonzero(self.mul_table[a] == 1)[0]
            if len(hits) != 1:
                raise ValueError(f"modulus for GF({q}) is not irreducible")
            inv[a] = hits[0]
        self.inv = inv

    # -- scalar / array operations -------------------------------------------

    def check_codes(self, a) -> np.ndarray:
        """Element codes as a new uint8 array; any that is not an integer in 0..q-1 is refused."""
        arr = np.asarray(a)
        if arr.size and (arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() >= self.q):
            raise ValueError(f"element codes must be integers in 0..{self.q - 1}")
        return arr.astype(np.uint8)

    def add(self, a, b):
        return self.add_table[self.check_codes(a), self.check_codes(b)]

    def mul(self, a, b):
        return self.mul_table[self.check_codes(a), self.check_codes(b)]

    def invert(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        arr = self.check_codes(a)
        if np.any(arr == 0):
            raise ZeroDivisionError(f"0 has no multiplicative inverse in GF({self.q})")
        return self.inv[arr]

    # -- vector helpers -------------------------------------------------------

    def vecmat(self, vecs, mat) -> np.ndarray:
        """Row-vector times matrix over GF(q): (m, k) x (k, n) -> (m, n)."""
        vecs = np.atleast_2d(self.check_codes(vecs))
        mat = self.check_codes(mat)
        if mat.ndim != 2 or vecs.shape[1] != mat.shape[0]:
            raise ValueError(
                f"shape mismatch: vectors of length {vecs.shape[1]} vs matrix with {mat.shape[0]} rows"
            )
        return self._product(vecs, mat)

    def _product(self, vecs: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """`vecmat` over letters already checked, (m, k) and (k, n) uint8 arrays."""
        if self.e == 1:
            return ((vecs.astype(np.int64) @ mat.astype(np.int64)) % self.p).astype(np.uint8)
        # Per message position, the multiples of its matrix row are gathered by
        # the position's letters, then added by one flat lookup: a * q + b
        # indexes the (q, q) addition table read as one row, and stays below
        # q * q <= 81, inside the uint8 letters.
        acc = np.zeros((vecs.shape[0], mat.shape[1]), dtype=np.uint8)
        for column, row in zip(vecs.T, mat):
            acc = self.add_table.ravel()[acc * self.q + self.mul_table[:, row][column]]
        return acc

    def inner(self, a, b) -> np.ndarray:
        """Pairwise inner products: (m, k) x (r, k) -> (m, r)."""
        return self.vecmat(a, np.atleast_2d(b).T)

    def scale_to_canonical(self, vec) -> np.ndarray:
        """Scale nonzero vectors along the last axis so each first nonzero entry becomes 1."""
        vec = self.check_codes(vec)
        nonzero = vec != 0
        if not nonzero.any(axis=-1).all():
            raise ValueError("cannot normalize the zero vector")
        lead = np.take_along_axis(vec, np.argmax(nonzero, axis=-1)[..., None], axis=-1)
        return self.mul_table[self.inv[lead], vec]

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=32)
def gf(q: int) -> GF:
    """Shared, cached GF(q) instance (tables are immutable, so sharing is safe)."""
    return GF(q)


def canonical_count(q: int, k: int) -> int:
    """Number of one-dimensional subspaces of GF(q)^k: (q^k - 1)/(q - 1)."""
    return (q**k - 1) // (q - 1)


def checked_count(q: int, k: int) -> int:
    """Number of canonical representatives of GF(q)^k; raises when it exceeds the cap."""
    cap = enumeration_cap()
    count = canonical_count(q, k)
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    return count


def canonical_representatives(field: GF, k: int) -> np.ndarray:
    """All canonical subspace representatives of GF(q)^k, lexicographically.

    One vector per one-dimensional subspace, normalized so the first nonzero
    entry is 1, returned as a ((q^k-1)/(q-1), k) uint8 array sorted by the
    integer codes read left to right.  This order fixes the row and column
    indexing used everywhere downstream; it is `representatives_at` at every index.
    """
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    return representatives_at(field, k, np.arange(checked_count(field.q, k)))


def _place_values(q: int, k: int) -> np.ndarray:
    """q^(k-1), ..., q, 1: the weight of each column when a length-k vector is read in base q."""
    return q ** np.arange(k - 1, -1, -1, dtype=np.int64)


def representatives_at(field: GF, k: int, index) -> np.ndarray:
    """Rows `index` of `canonical_representatives(field, k)`, without building it.

    Representatives with a tail of length T (leading 1 at k-1-T) start at
    row canonical_count(q, T), and the one r rows further reads q^T + r in
    base q.  As r < q^T, the columns left of the leading 1 come out 0.
    Rows are decoded into the uint8 result in blocks of `_DECODE_LETTERS` letters.
    """
    q = field.q
    index = np.asarray(index, dtype=np.int64)
    out = np.empty((len(index), k), dtype=np.uint8)
    places = _place_values(q, k)
    step = max(1, _DECODE_LETTERS // k)
    for start in range(0, len(index), step):
        out[start : start + step] = _values(q, k, index[start : start + step])[:, None] // places % q
    return out


@lru_cache
def _table(q: int, k: int) -> np.ndarray:
    """Every canonical representative of GF(q)^k, decoded once and kept
    read-only; only the product path of `CanonicalSupports` reads it, and
    never hands it out."""
    table = canonical_representatives(gf(q), k)
    table.setflags(write=False)
    return table


def _values(q: int, k: int, index) -> np.ndarray:
    """The message at each canonical index, read as an integer in base q (see `representatives_at`)."""
    index = np.asarray(index, dtype=np.int64)
    starts = canonical_count(q, np.arange(k + 1, dtype=np.int64))
    tail = np.searchsorted(starts, index, side="right") - 1
    return index - starts[tail] + q**tail


def canonical_index(field: GF, vectors) -> np.ndarray:
    """Rows of `canonical_representatives` equal to the given canonical vectors.

    The inverse of `representatives_at`: each (k,) row must be nonzero with
    leading nonzero entry 1.  A row with a tail of length T reads q^T + r in
    base q, and its index is canonical_count(q, T) + r.
    """
    vecs = np.atleast_2d(field.check_codes(vectors))
    m, k = vecs.shape
    lead = np.argmax(vecs != 0, axis=1)
    if np.any(vecs[np.arange(m), lead] != 1):
        raise ValueError("canonical vectors must be nonzero with leading entry 1")
    q = field.q
    tail = (k - 1 - lead).astype(np.int64)
    return vecs @ _place_values(q, k) - q**tail + canonical_count(q, tail)


class CanonicalSupports:
    """Nonzero patterns of r @ matrix for every canonical representative r, packed.

    The matrix is a (k, n) uint8 array of letters already checked (see the
    module docstring), and nothing here checks it again.  The kernel reads
    like a read-only (h, W) array of `row_dtype(n)` row bitsets,
    h = canonical_count(q, k) and W = packed_words(n) (the layout of
    `pack_rows` and `CoverageMatrix.packed`), one row per representative
    in `canonical_representatives` order.  With n = 0 the rows have no words.
    The enumeration cap is checked when it is built, before any table.

    When h * max(k, n) fits `_CHUNK_WORDS`, it is built at construction as
    the packed nonzero pattern of one product over GF(q), the cached table
    of representatives times the matrix (`GF._product`), and kept read-only.
    It holds no half tables; iteration yields that array as its only chunk,
    and every range, index read and `np.asarray` reads from it.  The words
    of that chunk, the product's int64 letters and the table's letters are
    all bounded by the budget.  Every larger matrix takes the half-table
    kernel below, which holds only two tables of about q^(k/2) rows each.

    With s = k // 2, the partial words of every message are tabled once for
    the rows [:s] of the matrix (A) and once for the rows [s:] (B), both in
    lexicographic order and each built one message position at a time
    (`_partial_planes`), with no message array and no matrix product.  The
    message of a representative, read in base q, is a * len(B) + b: its
    word is A[a] + B[b], which is nonzero exactly where A[a] != -B[b],
    tested on the ceil(log2 q) packed bit-planes of the two tables by XOR
    within each plane and OR across them.  A representative led by
    position i >= s has a = 0, so its row is the support of B[b], which is
    tabled once.

    Three reads, none of which can write the tables:

    * `self[start:stop]` builds rows [start, stop) of any range, which may
      start or stop partway through an A row's pairing with B, from the
      blocks of A rows times B rows it spans, as a fresh array.
    * `self[index]` gathers the rows of an integer array of indices, of
      any shape, and returns them in its shape plus (W,).
    * Iteration yields the rows in chunks.  The rows come in pieces: slices
      of B per lead, and blocks of A rows each paired with all of B.  A
      piece holds at most `_CHUNK_WORDS` words, except one row of A paired
      with all of B when that alone is larger.  Consecutive pieces are
      gathered into one chunk while their words fit `_CHUNK_WORDS`
      (`chunk_rows` rows), and a chunk is built only when it is yielded.
      The budget counts words of the row's width, so a chunk has the same
      rows whatever that width is, and a code whose words fit the budget
      streams as one chunk.

    The half-table kernel's memory stays bounded by what a read returns plus
    the two tables, until `np.asarray` asks for the whole array: that is
    built once, chunk by chunk, and kept read-only.  From then on
    `np.asarray` and indexing read from it, while iteration still builds its
    chunks from the tables.
    """

    ndim = 2

    def __init__(self, field: GF, matrix: np.ndarray) -> None:
        self._q, (self._k, n) = field.q, matrix.shape
        self.shape = (checked_count(self._q, self._k), packed_words(n))
        self.dtype = row_dtype(n)
        self._whole: np.ndarray | None = None
        if self.shape[0] * max(self._k, n) <= _CHUNK_WORDS:
            self._a, self._whole = None, pack_rows(field._product(_table(self._q, self._k), matrix) != 0)
            self._whole.setflags(write=False)
            return
        self._split = self._k // 2
        # Row leads[T] is the first with a tail of length T, that is led by position k-1-T.
        self._leads = [0, *accumulate(self._q**tail for tail in range(self._k))]
        self._a = _partial_planes(field, matrix[: self._split])
        self._neg_b = _partial_planes(field, matrix[self._split :], negate=True)
        self._support_b = np.bitwise_or.reduce(self._neg_b, axis=0)

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def chunk_rows(self) -> int:
        """Rows per chunk: the words of `_CHUNK_WORDS` in rows of this width."""
        return max(1, _CHUNK_WORDS // max(self.shape[1], 1))

    def _blocks(self, start: int, stop: int) -> Iterator[tuple[int, int, int, int]]:
        """(a, a_stop, b, b_stop): the blocks of A rows times B rows that make up rows [start, stop), in order."""
        size, leads = len(self._support_b), self._leads
        for tail in range(bisect_right(leads, start) - 1, self._k):
            low, high = leads[tail], leads[tail + 1]
            if low >= stop:
                break
            # Row r has a tail of this length: it reads q^tail + r - low = r + high - 2 low in base q.
            value, end = max(start, low) + high - 2 * low, min(stop, high) + high - 2 * low
            while value < end:
                a, b = divmod(value, size)
                rows, b_stop = 1 if b else max(1, (end - value) // size), min(size, b + end - value)
                yield a, a + rows, b, b_stop
                value += (rows - 1) * size + b_stop - b

    def __getitem__(self, key) -> np.ndarray:
        if self._whole is not None:
            return self._whole[key]
        if not isinstance(key, slice):
            a, b = np.divmod(_values(self._q, self._k, key), len(self._support_b))
            out = self._a[0, a] ^ self._neg_b[0, b]
            for plane in range(1, len(self._a)):
                out |= self._a[plane, a] ^ self._neg_b[plane, b]
            out.setflags(write=False)
            return out
        start, stop, _ = key.indices(len(self))
        return self._build(list(self._blocks(start, stop)), max(stop - start, 0))

    def _build(self, blocks: list[tuple[int, int, int, int]], rows: int) -> np.ndarray:
        """The rows of consecutive blocks, as a fresh read-only array."""
        out = np.empty((rows, self.shape[1]), dtype=self.dtype)
        at = 0
        for a, a_stop, b, b_stop in blocks:
            block = out[at : at + (a_stop - a) * (b_stop - b)].reshape(a_stop - a, b_stop - b, self.shape[1])
            if a:
                np.bitwise_xor(self._a[0, a:a_stop, None], self._neg_b[0, None, b:b_stop], out=block)
                for plane in range(1, len(self._a)):
                    block |= self._a[plane, a:a_stop, None] ^ self._neg_b[plane, None, b:b_stop]
            else:
                block[0] = self._support_b[b:b_stop]
            at += block.shape[0] * block.shape[1]
        out.setflags(write=False)
        return out

    def __iter__(self) -> Iterator[np.ndarray]:
        if self._a is None:  # the product path: its whole array is its one chunk
            yield self._whole
            return
        q, budget, b_rows = self._q, self.chunk_rows, len(self._support_b)
        # The pieces in order, as blocks: B[start:stop] for the leads in the
        # second half, then A[start:stop] with each row paired with all of
        # B; at most `budget` rows each, or one row of A.
        a_rows = max(1, budget // b_rows)
        pieces = [(0, 1, b, min(b + budget, 2 * q**i)) for i in range(self._k - self._split) for b in range(q**i, 2 * q**i, budget)]
        pieces += [(a, min(a + a_rows, 2 * q**i), 0, b_rows) for i in range(self._split) for a in range(q**i, 2 * q**i, a_rows)]
        group, rows = [], 0
        for piece in pieces:
            size = (piece[1] - piece[0]) * (piece[3] - piece[2])
            if group and rows + size > budget:
                yield self._build(group, rows)
                group, rows = [], 0
            group.append(piece)
            rows += size
        if group:
            yield self._build(group, rows)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if self._whole is None:
            whole = np.empty(self.shape, dtype=self.dtype)
            at = 0
            for chunk in self:
                whole[at : at + len(chunk)] = chunk
                at += len(chunk)
            whole.setflags(write=False)
            self._whole = whole
        return self._whole.copy() if copy else self._whole


def _partial_planes(field: GF, rows: np.ndarray, negate: bool = False) -> np.ndarray:
    """Packed bit-planes of m @ rows (or -(m @ rows)) for every m in GF(q)^len(rows).

    Messages in lexicographic order, as in `_partial_words`; plane b packs
    bit b of every letter.  In characteristic 2 the planes are built
    directly, one message position at a time, last row first: once the
    planes over rows[i+1:] fill their first P rows, those over rows[i:] are
    q blocks of P rows, block c being prev XOR the planes of c * rows[i],
    since adding in GF(2^e) is XOR of the bits and -x = x.  Other fields
    table the letters with `_partial_words`.  Both pack their letters with
    `_bit_planes`.
    """
    if field.p != 2:
        words = _partial_words(field, rows)
        if negate:
            words = field.neg[words]
        return _bit_planes(field, words)
    m, n = rows.shape
    q, e, words = field.q, field.e, packed_words(n)
    # scaled[i, b, c - 1]: plane b of c * rows[i], for every nonzero c.
    scaled = _bit_planes(field, field.mul_table[1:, rows].reshape((q - 1) * m, n))
    scaled = scaled.reshape(e, q - 1, m, words).transpose(2, 0, 1, 3)
    planes = np.zeros((e, q**m, words), dtype=row_dtype(n))
    size = 1
    for i in range(m - 1, -1, -1):
        prev = planes[:, :size]
        block = planes[:, size : q * size].reshape(e, q - 1, size, words)
        np.bitwise_xor(prev[:, None], scaled[i, :, :, None], out=block)
        size *= q
    return planes


def _partial_words(field: GF, rows: np.ndarray) -> np.ndarray:
    """m @ rows for every m in GF(q)^len(rows), in lexicographic order of m.

    Built one message position at a time, last row first, in one (q^m, n)
    uint8 array: once the table over rows[i+1:] fills its first P rows, the
    table over rows[i:] is q blocks of P rows, block c being
    add_table[prev, c * rows[i]] (block 0 is prev itself).  Each step is
    one table lookup, indexed by a contiguous copy of the multiples of
    rows[i], and no temporary is larger than the table.  The kernel uses it
    for odd q; characteristic 2 builds packed planes instead
    (`_partial_planes`).
    """
    m, n = rows.shape
    q = field.q
    table = np.zeros((q**m, n), dtype=np.uint8)
    # scaled[i, c - 1] = c * rows[i], every nonzero c.
    scaled = np.ascontiguousarray(field.mul_table[1:, rows].transpose(1, 0, 2))
    size = 1
    for i in range(m - 1, -1, -1):
        prev = table[:size]
        table[size : q * size].reshape(q - 1, size, n)[...] = field.add_table[prev[None], scaled[i, :, None]]
        size *= q
    return table


def _bit_planes(field: GF, words: np.ndarray) -> np.ndarray:
    """Packed bit-planes of (m, n) letters: plane b packs bit b of every letter.

    Rows are packed in blocks.  A block's bits of every plane are written
    as 0/1 bytes into rows padded to the word width, so that one flat
    `np.packbits` packs all its planes; no temporary holds more than
    `_PLANE_BYTES` bytes plus their packed eighth.
    """
    m, n = words.shape
    count = (field.q - 1).bit_length()
    planes = np.empty((count, m, packed_words(n)), dtype=row_dtype(n))
    out = planes.view(np.uint8)  # (count, m, bytes per row)
    step = max(1, _PLANE_BYTES // (8 * count * out.shape[2] or 1))
    shifts = np.arange(count, dtype=np.uint8)[:, None, None]
    for low in range(0, m, step):
        bits = np.zeros((count, min(step, m - low), 8 * out.shape[2]), dtype=np.uint8)
        np.right_shift(words[low : low + step], shifts, out=bits[..., :n])
        bits &= 1
        out[:, low : low + step] = np.packbits(bits, bitorder="little").reshape(bits.shape[:2] + (-1,))
    return planes
