"""The projective-geometry view of a non-degenerate linear code.

Columns of a generator matrix, normalized to canonical form, are a multiset
of points of PG(k-1, q); hyperplanes are indexed by the same canonical
vectors, acting as normals: the hyperplane of normal h is {x : <h, x> = 0}.
The incidence matrix stores 1 where a point lies ON its hyperplane (inner
product zero); the extension machinery works with the complement.

Everything here is immutable after construction and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .code import LinearCode
from .field import GF, canonical_count, canonical_index, canonical_representatives, canonical_supports


@dataclass(frozen=True)
class PointMultiset:
    """Multiset of PG(k-1,q) points with positive multiplicities.

    Keys are canonical coordinate tuples; total multiplicity equals the code
    length the multiset came from.
    """

    field: GF = dc_field(repr=False)
    k: int
    multiplicities: dict[tuple[int, ...], int]

    @property
    def total(self) -> int:
        return sum(self.multiplicities.values())

    def as_vector(self, points: np.ndarray) -> np.ndarray:
        """Multiplicities aligned to the given (m, k) point array."""
        out = np.zeros(len(points), dtype=np.int64)
        for i, pt in enumerate(points):
            out[i] = self.multiplicities.get(tuple(int(x) for x in pt), 0)
        return out


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Square point-hyperplane incidence matrix of PG(k-1,q).

    Rows are hyperplanes and columns points, both in canonical-representative
    order (self-dual indexing); bits[i, j] = 1 iff point j lies on hyperplane
    i.  Every row has exactly (q^(k-1)-1)/(q-1) ones.
    """

    field: GF
    k: int
    points: np.ndarray
    bits: np.ndarray


def code_points(code: LinearCode) -> PointMultiset:
    """Point multiset of a non-degenerate code: one point per generator column."""
    code.require_non_degenerate()
    mult: dict[tuple[int, ...], int] = {}
    for j in range(code.n):
        col = code.field.scale_to_canonical(code.matrix[:, j])
        key = tuple(int(x) for x in col)
        mult[key] = mult.get(key, 0) + 1
    return PointMultiset(field=code.field, k=code.k, multiplicities=mult)


def incidence_matrix(field: GF, k: int) -> IncidenceMatrix:
    """Point-hyperplane incidence matrix, 1 = point on hyperplane."""
    points = canonical_representatives(field, k)
    bits = np.empty((len(points), len(points)), dtype=np.uint8)
    # Row i is the zero pattern of points[i] @ points.T, streamed in row order.
    start = 0
    for support in canonical_supports(field, points.T):
        np.logical_not(support, out=bits[start : start + len(support)])
        start += len(support)
    bits.setflags(write=False)
    return IncidenceMatrix(field=field, k=k, points=points, bits=bits)


def hyperplane_row_weight(q: int, k: int) -> int:
    """Points per hyperplane of PG(k-1,q): (q^(k-1)-1)/(q-1)."""
    return canonical_count(q, k - 1) if k > 1 else 0


def geometric_extension_criterion(
    points: PointMultiset, chosen, n: int, d: int
) -> bool:
    """Geometric extension criterion for a chosen set of points.

    True iff every hyperplane containing at least one chosen point meets the
    code's point multiset in fewer than n - d points (counting multiplicity).
    For a single chosen point this is exactly the row-coverage criterion on
    the coverage matrix; for several points it is stricter (it demands that
    no chosen point lies on any maximum-intersection hyperplane).
    """
    chosen_arr = np.atleast_2d(np.asarray(chosen, dtype=np.uint8))
    if chosen_arr.shape[0] == 0:
        raise ValueError("chosen point list must be nonempty")
    gf_ = points.field
    incidence = incidence_matrix(gf_, points.k)
    touches = np.any(gf_.inner(incidence.points, chosen_arr) == 0, axis=1)
    # Only the code's own points have a multiplicity, so only their columns count.
    used = np.array(list(points.multiplicities), dtype=np.uint8).reshape(-1, points.k)
    multiplicity = np.array(list(points.multiplicities.values()), dtype=np.int64)
    intersection = incidence.bits[:, canonical_index(gf_, used)] @ multiplicity
    return bool(np.all(intersection[touches] < n - d))

