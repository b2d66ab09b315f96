"""Independent answers for every benchmark operation.

Nothing here calls lsext.  Field tables are rebuilt from the moduli that
define the code-file format, every one of the q^k messages is encoded (not
one per subspace), and covering questions are settled by brute force, by the
Griesmer bound, or by the l = s reduction (each of the l columns must then
cover every row on its own).  The checks in `bench/checks.py` compare the
program's printed report against these answers.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np

# Modulus polynomials of the code-file format (lowest degree first).
MODULI = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"bad field order {q}")


class Field:
    """GF(q) addition and multiplication tables, element codes 0..q-1."""

    def __init__(self, q: int) -> None:
        p, e = _prime_power(q)
        self.q, self.p, self.e = q, p, e
        digits = [[(c // p**i) % p for i in range(e)] for c in range(q)]

        def code(ds):
            return sum(d * p**i for i, d in enumerate(ds))

        def pmul(a, b):
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
            mod = MODULI[q]
            for deg in range(2 * e - 2, e - 1, -1):
                c = prod[deg]
                prod[deg] = 0
                for j in range(e):
                    prod[deg - e + j] = (prod[deg - e + j] - c * mod[j]) % p
            return prod[:e]

        add = np.zeros((q, q), dtype=np.uint8)
        mul = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                add[a, b] = code([(x + y) % p for x, y in zip(digits[a], digits[b])])
                mul[a, b] = (a * b) % p if e == 1 else code(pmul(digits[a], digits[b]))
        self.add, self.mul = add, mul
        self.neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)], dtype=np.uint8)
        self.inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            self.inv[a] = int(np.nonzero(mul[a] == 1)[0][0])

    def combine(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """All linear combinations: (m, r) coefficient rows times (r, n) -> (m, n)."""
        out = np.zeros((coeffs.shape[0], rows.shape[1]), dtype=np.uint8)
        for i in range(rows.shape[0]):
            out = self.add[out, self.mul[coeffs[:, i][:, None], rows[i][None, :]]]
        return out


def rank(field: Field, matrix) -> int:
    """Row rank by Gaussian elimination."""
    mat = np.array(matrix, dtype=np.uint8)
    r = 0
    for c in range(mat.shape[1]):
        piv = next((i for i in range(r, mat.shape[0]) if mat[i, c]), None)
        if piv is None:
            continue
        mat[[r, piv]] = mat[[piv, r]]
        mat[r] = field.mul[field.inv[mat[r, c]], mat[r]]
        for i in range(mat.shape[0]):
            if i != r and mat[i, c]:
                mat[i] = field.add[mat[i], field.neg[field.mul[mat[i, c], mat[r]]]]
        r += 1
        if r == mat.shape[0]:
            break
    return r


def all_messages(q: int, k: int) -> np.ndarray:
    """Every vector of GF(q)^k, shape (q^k, k), first coordinate most significant."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    grids = np.indices((q,) * k, dtype=np.uint8).reshape(k, -1)
    return np.ascontiguousarray(grids.T)


def canonical_columns(q: int, k: int) -> np.ndarray:
    """One vector per 1-dimensional subspace, first nonzero entry 1, sorted lexicographically."""
    blocks = []
    for lead in range(k - 1, -1, -1):
        tail = all_messages(q, k - 1 - lead)
        block = np.zeros((tail.shape[0], k), dtype=np.uint8)
        block[:, lead] = 1
        block[:, lead + 1 :] = tail
        blocks.append(block)
    return np.concatenate(blocks)


def canonical_index(q: int, vec) -> int:
    """Position of a canonical vector in `canonical_columns` order."""
    vec = [int(x) for x in vec]
    k = len(vec)
    lead = next(i for i, x in enumerate(vec) if x)
    offset = sum(q ** (k - 1 - j) for j in range(lead + 1, k))
    tail = 0
    for x in vec[lead + 1 :]:
        tail = tail * q + x
    return offset + tail


def canonicalize(field: Field, vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for r in range(out.shape[0]):
        nz = np.nonzero(out[r])[0]
        out[r] = field.mul[field.inv[out[r, nz[0]]], out[r]]
    return out


class Enumeration:
    """Weight distribution and minimum-weight words of a code, from all q^k messages."""

    def __init__(self, field: Field, matrix) -> None:
        gen = np.array(matrix, dtype=np.uint8)
        k, n = gen.shape
        a = (k + 1) // 2
        msg_a, msg_b = all_messages(field.q, a), all_messages(field.q, k - a)
        words_a = field.combine(msg_a, gen[:a])
        words_b = field.combine(msg_b, gen[a:]) if k > a else np.zeros((1, n), dtype=np.uint8)
        hist = np.zeros(n + 1, dtype=np.int64)
        best, hits = n + 1, []
        for j in range(words_b.shape[0]):
            weights = np.count_nonzero(field.add[words_a, words_b[j][None, :]], axis=1)
            hist += np.bincount(weights, minlength=n + 1)
            if j == 0:
                weights[0] = n + 1  # the zero message
            low = int(weights.min())
            if low < best:
                best, hits = low, []
            if low == best:
                hits.extend((int(i), j) for i in np.nonzero(weights == low)[0])
        self.field, self.matrix, self.k, self.n = field, gen, k, n
        self.distribution = {w: int(c) for w, c in enumerate(hist) if c}
        self.d = best
        msgs = np.array([np.concatenate([msg_a[i], msg_b[j]]) for i, j in hits], dtype=np.uint8)
        lead = msgs[np.arange(len(msgs)), (msgs != 0).argmax(axis=1)]
        self.min_words = msgs[lead == 1]  # one canonical message per minimum-weight subspace

    @property
    def weights(self) -> list[int]:
        return sorted(w for w in self.distribution if w > 0)

    @property
    def gap(self) -> int | None:
        w = self.weights
        return w[1] - w[0] if len(w) > 1 else None

    def params(self) -> tuple[int, int, int]:
        return self.n, self.k, self.d


def nonzero_products(field: Field, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(t, h) boolean matrix: inner product of row message i and column j is nonzero."""
    if field.q == 2 and rows.shape[1] <= 62:
        weights = 1 << np.arange(rows.shape[1] - 1, -1, -1, dtype=np.uint64)
        r = (rows.astype(np.uint64) * weights).sum(axis=1)
        c = (cols.astype(np.uint64) * weights).sum(axis=1)
        return (np.bitwise_count(r[:, None] & c[None, :]) & 1).astype(bool)
    return field.combine(rows, cols.T) != 0


def griesmer_length(q: int, k: int, d: int) -> int:
    """Smallest length the Griesmer bound allows for an [n, k, d]_q code."""
    return sum(-(-d // q**i) for i in range(k))


def points(field: Field, matrix) -> set[tuple[int, ...]]:
    cols = np.array(matrix, dtype=np.uint8).T
    return {tuple(int(x) for x in v) for v in canonicalize(field, cols[cols.any(axis=1)])}


def cover_exists(cover: np.ndarray, l: int, s: int, allowed: list[int], distinct: bool = False):
    """First l-multiset (or l-set) of allowed columns covering each row >= s times, else None.

    Brute force over all choices, with rows packed into Python integers so
    that s = 1 is a union test; meant for small column counts only.
    """
    combos = combinations(allowed, l) if distinct else combinations_with_replacement(allowed, l)
    if s == 1:
        full = (1 << cover.shape[0]) - 1
        masks = {j: int("".join("1" if b else "0" for b in cover[:, j]) or "0", 2) for j in allowed}
        for combo in combos:
            acc = 0
            for j in combo:
                acc |= masks[j]
            if acc == full:
                return combo
        return None
    counts = cover.astype(np.int64)
    for combo in combos:
        if np.all(counts[:, list(combo)].sum(axis=1) >= s):
            return combo
    return None


def puncture_sets_exist(zero: np.ndarray, l: int, s: int):
    """First l-set of positions holding >= s zeros of every row of `zero`, else None."""
    t, n = zero.shape
    row_masks = np.array([sum(1 << int(j) for j in np.nonzero(zero[i])[0]) for i in range(t)], dtype=np.uint64)
    combos = list(combinations(range(n), l))
    sets = np.array([sum(1 << j for j in c) for c in combos], dtype=np.uint64)
    ok = np.ones(len(sets), dtype=bool)
    for m in row_masks:
        ok &= np.bitwise_count(sets & m) >= s
    hits = np.nonzero(ok)[0]
    return combos[int(hits[0])] if len(hits) else None
