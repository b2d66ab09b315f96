"""Linear [n,k]_q codes given by a generator matrix.

A `LinearCode` wraps a full-rank k x n generator matrix over GF(q) and lazily
computes its weight distribution, its minimum-weight representatives and the
gap to the second-smallest weight.  The enumeration walks only the canonical
one-per-subspace message representatives: nonzero weights are invariant under
scalar multiples of the message, so each canonical representative stands for
(q-1) codewords of equal weight.

`guaranteed_gain` states, once for every extension and puncture step, how
much of a per-word gain s the weight gap lets a step claim.

The representatives' codeword supports are streamed in chunks of packed row
bitsets by `field.canonical_supports`, so a codeword's weight is the popcount
of its row, and the analysis keeps only the weight histogram and the
minimum-weight representatives.  Its memory does not grow with the number of
representatives h = (q^k-1)/(q-1), only with the number of those of minimum
weight.

Analysis results are cached on first use; afterwards the object is immutable
and safe to share read-only across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCodeError, RankDeficientError
from .field import GF, canonical_supports, popcounts, representatives_at


def gf_rank(field: GF, matrix: np.ndarray) -> int:
    """Row rank of a matrix over GF(q) by Gaussian elimination.

    Each pivot row is scaled to lead with 1, and its column is cleared from
    every row below it in one table expression.
    """
    mat = field.check_codes(matrix).copy()
    rows, cols = mat.shape
    r = 0
    for c in range(cols):
        found = np.flatnonzero(mat[r:, c])
        if not len(found):
            continue
        pivot = r + int(found[0])
        mat[[r, pivot]] = mat[[pivot, r]]
        mat[r] = field.mul_table[field.inv[mat[r, c]], mat[r]]
        below = mat[r + 1 :]
        below[...] = field.sub_table[below, field.mul_table[below[:, c, None], mat[r]]]
        r += 1
        if r == rows:
            break
    return r


def weight(word) -> int:
    """Hamming weight: number of nonzero entries."""
    return int(np.count_nonzero(np.asarray(word)))


class LinearCode:
    """A linear [n,k]_q code, rejected at construction unless rank(G) = k."""

    def __init__(self, field: GF, matrix) -> None:
        mat = np.atleast_2d(field.check_codes(matrix))
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError(f"generator matrix must be 2-D and nonempty, got shape {mat.shape}")
        if mat.shape[0] > mat.shape[1] or gf_rank(field, mat) != mat.shape[0]:
            raise RankDeficientError(
                f"generator matrix of shape {mat.shape} does not have full row rank "
                f"over GF({field.q})"
            )
        self.field = field
        self.matrix = mat.copy()
        self.matrix.setflags(write=False)
        self.k, self.n = mat.shape
        self._min_reps: np.ndarray | None = None
        self._distribution: dict[int, int] | None = None

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def is_degenerate(self) -> bool:
        """True when some generator column is all zero."""
        return bool(np.any(~self.matrix.any(axis=0)))

    def encode(self, message) -> np.ndarray:
        """Codeword for one message vector of length k."""
        msg = np.asarray(message)
        if msg.shape != (self.k,):
            raise ValueError(f"message must have length {self.k}, got shape {msg.shape}")
        return self.field.vecmat(msg, self.matrix)[0]

    def _analyze(self) -> None:
        if self._distribution is not None:
            return
        histogram = np.zeros(self.n + 1, dtype=np.int64)
        lowest = self.n + 1
        hits: list[np.ndarray] = []  # canonical indices of the representatives of weight `lowest`
        start = 0
        for support in canonical_supports(self.field, self.matrix):
            weights = popcounts(support)
            histogram += np.bincount(weights, minlength=self.n + 1)
            low = int(weights.min())
            if low < lowest:
                lowest, hits = low, []
            if low == lowest:
                hits.append(start + np.flatnonzero(weights == low))
            start += len(weights)
        counts: dict[int, int] = {0: 1}
        for w in np.flatnonzero(histogram).tolist():
            counts[w] = int(histogram[w]) * (self.q - 1)
        self._min_reps = representatives_at(self.field, self.k, np.concatenate(hits))
        self._distribution = counts

    def weight_distribution(self) -> dict[int, int]:
        """Map weight -> codeword count, including the zero word at weight 0."""
        self._analyze()
        assert self._distribution is not None
        return dict(self._distribution)

    @property
    def d(self) -> int:
        """Minimum distance: smallest nonzero weight."""
        self._analyze()
        assert self._distribution is not None
        return min(w for w in self._distribution if w > 0)

    @property
    def min_weight_count(self) -> int:
        """A_d: number of codewords of minimum weight."""
        return self.weight_distribution()[self.d]

    def min_weight_representatives(self) -> np.ndarray:
        """Canonical message representatives whose codewords have weight d.

        Returned in canonical-representative order; there are A_d/(q-1) of
        them, and every minimum-weight codeword is a scalar multiple of the
        encoding of exactly one.
        """
        self._analyze()
        assert self._min_reps is not None
        return self._min_reps.copy()

    @property
    def num_min_weight_representatives(self) -> int:
        return int(self.min_weight_count // (self.q - 1))

    def weight_gap_or_none(self) -> int | None:
        """Second-smallest nonzero weight minus d, or None when only one nonzero weight exists."""
        nz = sorted(w for w in self.weight_distribution() if w > 0)
        if len(nz) < 2:
            return None
        return nz[1] - nz[0]

    def guaranteed_gain(self, s: int) -> int:
        """Distance gain guaranteed by giving every minimum-weight word s more nonzero letters.

        Those words reach d + s and all others already weigh d + gap or more,
        so the gain is min(s, gap), or s when no second weight exists.  Read
        the other way, removing l positions where every minimum-weight word
        has s zeros keeps the distance at least d - l + guaranteed_gain(s).
        """
        gap = self.weight_gap_or_none()
        return s if gap is None else min(s, gap)

    def require_non_degenerate(self) -> None:
        if self.is_degenerate:
            zero_cols = np.nonzero(~self.matrix.any(axis=0))[0].tolist()
            raise DegenerateCodeError(f"code has all-zero generator columns at {zero_cols}")

    def params(self) -> tuple[int, int, int]:
        """(n, k, d) triple."""
        return (self.n, self.k, self.d)

    def __repr__(self) -> str:
        tag = f"[{self.n},{self.k}"
        if self._distribution is not None:
            tag += f",{self.d}"
        return f"LinearCode({tag}]_{self.q})"
