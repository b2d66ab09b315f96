from __future__ import annotations

import gc

import numpy as np
import pytest

from lsext.code import LinearCode
from lsext.field import gf

# Standard-form [7,4,3]_2 Hamming generator.
HAMMING_ROWS = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]

# [11,6,5]_3 ternary Golay as a cyclic code; the weight distribution
# {0:1, 5:132, 6:132, 8:330, 9:110, 11:24} was verified by full enumeration.
GOLAY_POLY = [2, 0, 1, 2, 1, 1]
GOLAY_ROWS = [
    [2, 0, 1, 2, 1, 1, 0, 0, 0, 0, 0],
    [0, 2, 0, 1, 2, 1, 1, 0, 0, 0, 0],
    [0, 0, 2, 0, 1, 2, 1, 1, 0, 0, 0],
    [0, 0, 0, 2, 0, 1, 2, 1, 1, 0, 0],
    [0, 0, 0, 0, 2, 0, 1, 2, 1, 1, 0],
    [0, 0, 0, 0, 0, 2, 0, 1, 2, 1, 1],
]

HAMMING_FILE = "2 4 7\n" + "\n".join(" ".join(map(str, r)) for r in HAMMING_ROWS) + "\n"
GOLAY_FILE = "3 6 11\n" + "\n".join(" ".join(map(str, r)) for r in GOLAY_ROWS) + "\n"


@pytest.fixture
def hamming() -> LinearCode:
    return LinearCode(gf(2), HAMMING_ROWS)


@pytest.fixture
def golay() -> LinearCode:
    return LinearCode(gf(3), GOLAY_ROWS)


@pytest.fixture
def no_gc():
    """Cyclic garbage collection off: an object a test expects gone must be
    freed by its reference count alone, not by a collection that happens to run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def repetition(q: int, n: int) -> LinearCode:
    return LinearCode(gf(q), [[1] * n])


def random_codes(count: int, seed: int, qs=(2, 3), max_k: int = 4, max_n: int = 10):
    """Deterministic stream of random full-rank codes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = int(rng.choice(qs))
        k = int(rng.integers(1, max_k + 1))
        n = int(rng.integers(max(k, 2), max_n + 1))
        mat = rng.integers(0, q, size=(k, n))
        try:
            out.append(LinearCode(gf(q), mat))
        except Exception:
            continue
    return out


def hamming_file_text() -> str:
    return HAMMING_FILE


def golay_file_text() -> str:
    return GOLAY_FILE


def binary_golay() -> LinearCode:
    """[23,12,7]_2: the cyclic Golay code of g(x) = 1+x^2+x^4+x^5+x^6+x^10+x^11."""
    poly = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    return LinearCode(gf(2), [[0] * i + poly + [0] * (11 - i) for i in range(12)])


def extended_golay() -> LinearCode:
    """[24,12,8]_2: the cyclic Golay code of g(x) = 1+x^2+x^4+x^5+x^6+x^10+x^11 plus a parity bit."""
    poly = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * i + poly + [0] * (11 - i) for i in range(12)]
    return LinearCode(gf(2), [row + [sum(row) % 2] for row in rows])


def reed_muller_2_5() -> LinearCode:
    """RM(2,5), [32,16,8]_2: evaluations of the monomials of degree <= 2 on GF(2)^5."""
    pts = [[(x >> i) & 1 for i in range(5)] for x in range(32)]
    rows = [[1] * 32] + [[p[i] for p in pts] for i in range(5)]
    rows += [[p[i] * p[j] for p in pts] for i in range(5) for j in range(i + 1, 5)]
    return LinearCode(gf(2), rows)
