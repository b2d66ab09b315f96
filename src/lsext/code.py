"""Linear [n,k]_q codes given by a generator matrix.

A `LinearCode` wraps a full-rank k x n generator matrix over GF(q) and
enumerates the code once, when it is built: that one pass gives its weight
distribution, its minimum-weight representatives, the gap to the
second-smallest weight and its rank check.  The enumeration walks only the
canonical one-per-subspace message representatives: nonzero weights are
invariant under scalar multiples of the message, so each canonical
representative stands for (q-1) codewords of equal weight.  The matrix has
rank below k exactly when some nonzero message encodes to the zero word, that
is when some canonical representative has weight 0.

`guaranteed_gain` states, once for every extension and puncture step, how
much of a per-word gain s the weight gap lets a step claim.

The representatives' codeword supports are streamed in chunks of packed row
bitsets by `field.canonical_supports`, so a codeword's weight is the popcount
of its row, and the analysis keeps only the weight histogram and the
minimum-weight representatives.  Its memory does not grow with the number of
representatives h = (q^k-1)/(q-1), only with the number of those of minimum
weight.

All results are computed at construction, which therefore checks the
enumeration cap; the object is immutable and safe to share read-only across
threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCodeError, RankDeficientError
from .bitsets import popcounts
from .field import GF, canonical_supports, representatives_at


def weight(word) -> int:
    """Hamming weight: number of nonzero entries."""
    return int(np.count_nonzero(np.asarray(word)))


class LinearCode:
    """A linear [n,k]_q code, enumerated at construction and rejected unless rank(G) = k.

    `d` (the minimum distance) and `min_weight_count` (A_d) are set then.
    """

    def __init__(self, field: GF, matrix) -> None:
        mat = np.atleast_2d(field.check_codes(matrix))
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError(f"generator matrix must be 2-D and nonempty, got shape {mat.shape}")
        self.field = field
        self.matrix = mat.copy()
        self.matrix.setflags(write=False)
        self.k, self.n = mat.shape
        if self.k > self.n:
            raise self._rank_deficient()
        self._analyze()

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

    def _rank_deficient(self) -> RankDeficientError:
        return RankDeficientError(
            f"generator matrix of shape {self.matrix.shape} does not have full row rank "
            f"over GF({self.q})"
        )

    def _analyze(self) -> None:
        """The one enumeration of the code; raises RankDeficientError on a weight-0 representative."""
        histogram = np.zeros(self.n + 1, dtype=np.int64)
        lowest = self.n + 1
        hits: list[np.ndarray] = []  # canonical indices of the representatives of weight `lowest`
        start = 0
        for support in canonical_supports(self.field, self.matrix):
            weights = popcounts(support)
            histogram += np.bincount(weights, minlength=self.n + 1)
            low = int(weights.min())
            if low == 0:
                raise self._rank_deficient()
            if low < lowest:
                lowest, hits = low, []
            if low == lowest:
                hits.append(start + np.flatnonzero(weights == low))
            start += len(weights)
        nonzero = np.flatnonzero(histogram).tolist()
        self._distribution = {0: 1} | {w: int(histogram[w]) * (self.q - 1) for w in nonzero}
        self._min_reps = representatives_at(self.field, self.k, np.concatenate(hits))
        self._min_reps.setflags(write=False)
        self._gap = nonzero[1] - nonzero[0] if len(nonzero) > 1 else None
        self.d = lowest
        self.min_weight_count = self._distribution[lowest]

    def weight_distribution(self) -> dict[int, int]:
        """Map weight -> codeword count, including the zero word at weight 0."""
        return dict(self._distribution)

    def min_weight_representatives(self) -> np.ndarray:
        """Canonical message representatives whose codewords have weight d.

        Returned in canonical-representative order; there are A_d/(q-1) of
        them, and every minimum-weight codeword is a scalar multiple of the
        encoding of exactly one.
        """
        return self._min_reps.copy()

    @property
    def num_min_weight_representatives(self) -> int:
        return len(self._min_reps)

    def weight_gap_or_none(self) -> int | None:
        """Second-smallest nonzero weight minus d, or None when only one nonzero weight exists."""
        return self._gap

    def guaranteed_gain(self, s: int) -> int:
        """Distance gain guaranteed by giving every minimum-weight word s more nonzero letters.

        Those words reach d + s and all others already weigh d + gap or more,
        so the gain is min(s, gap), or s when no second weight exists.  Read
        the other way, removing l positions where every minimum-weight word
        has s zeros keeps the distance at least d - l + guaranteed_gain(s).
        """
        return s if self._gap is None else min(s, self._gap)

    def require_non_degenerate(self) -> None:
        if self.is_degenerate:
            zero_cols = np.nonzero(~self.matrix.any(axis=0))[0].tolist()
            raise DegenerateCodeError(f"code has all-zero generator columns at {zero_cols}")

    def params(self) -> tuple[int, int, int]:
        """(n, k, d) triple."""
        return (self.n, self.k, self.d)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k},{self.d}]_{self.q})"
