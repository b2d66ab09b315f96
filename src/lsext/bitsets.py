"""Packed row bitsets: 0/1 rows of n letters stored as little-endian words.

Letter j of a row becomes bit j % B of its word j // B, B being the width
in bits of the row's word, `row_dtype(n)`: the narrowest unsigned integer
of 1, 2 or 4 bytes that holds n bits, else 64-bit words, `packed_words(n)`
of them per row.  The bits past n are zero.  Read little-endian, a packed
row is the integer whose bit j is letter j, whatever its word width.  The
enumeration kernel (`field.CanonicalSupports`) yields codeword supports in
this layout, and the coverage matrix and the solver read it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of an (m, W) array of unsigned words with W >= 1, as intp.

    The popcounts of all words at once, then their W columns added: faster
    than a row sum over a short word axis.  Any word width works.
    """
    counts = np.bitwise_count(words)
    total = counts[:, 0].astype(np.intp)
    for column in range(1, words.shape[1]):
        total += counts[:, column]
    return total


@lru_cache(maxsize=128)
def row_dtype(n: int) -> np.dtype:
    """The word of a packed row of n letters: the narrowest little-endian
    unsigned integer of 1, 2 or 4 bytes that holds n bits, else 64-bit words."""
    for width in (1, 2, 4):
        if n <= 8 * width:
            return np.dtype(f"<u{width}")
    return np.dtype("<u8")


def packed_words(n: int, dtype=None) -> int:
    """Words of `dtype` (by default `row_dtype(n)`) per packed row of n letters."""
    bits = 8 * (row_dtype(n) if dtype is None else np.dtype(dtype)).itemsize
    return -(-n // bits)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack (..., n) 0/1 rows into (..., packed_words(n)) row bitsets of `row_dtype(n)`.

    Letter j of a row becomes bit j % B of its word j // B, B being the
    word's width in bits (one word when n <= 32); the bits past n are zero.
    """
    n = rows.shape[-1]
    packed = np.zeros(rows.shape[:-1] + (packed_words(n),), dtype=row_dtype(n))
    packed.view(np.uint8)[..., : -(-n // 8)] = np.packbits(rows, axis=-1, bitorder="little")
    return packed


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """(..., n) uint8 0/1 rows of (..., W) row bitsets, the width read from `packed.dtype`."""
    words = np.ascontiguousarray(packed, dtype=packed.dtype.newbyteorder("<"))
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")
