"""The projective-geometry view of a non-degenerate linear code.

Points and hyperplanes of PG(k-1, q) are both named by their canonical
index: the row of `canonical_representatives(field, k)` holding the
canonical vector (first nonzero entry 1) that spans the point, or that is
the hyperplane's normal; the hyperplane of normal r is {x : <r, x> = 0}.
The generator columns of a code are a multiset of points, an int array of
indices in which a repeated index is a multiplicity.  The codeword rG has
weight n minus the number of those points on the hyperplane of normal r.

The incidence matrix stores 1 where a point lies ON its hyperplane (inner
product zero); the extension machinery works with the complement.  Both it
and the geometric extension criterion stream the hyperplane normals through
`field.CanonicalSupports`, which yields packed row bitsets (one product
over the table of representatives for a small input, else built from two
half tables of partial words), and unpack each chunk they read.

Everything here is pure.
"""

from __future__ import annotations

import numpy as np

from .bitsets import unpack_rows
from .code import LinearCode
from .field import GF, CanonicalSupports, canonical_index, canonical_representatives


def code_points(code: LinearCode) -> np.ndarray:
    """Canonical index of each generator column's point, in column order."""
    code.require_non_degenerate()
    return canonical_index(code.field, code.field.scale_to_canonical(code.matrix.T))


def incidence_matrix(field: GF, k: int) -> np.ndarray:
    """Read-only (h, h) uint8 point-hyperplane incidence matrix of PG(k-1,q).

    Rows are hyperplanes and columns points, both by canonical index;
    entry (i, j) is 1 iff point j lies on hyperplane i.  Every row has
    (q^(k-1) - 1)/(q - 1) ones, the points of PG(k-2, q).
    """
    points = canonical_representatives(field, k)
    bits = np.empty((len(points), len(points)), dtype=np.uint8)
    # Row i is the zero pattern of points[i] @ points.T, streamed in row order.
    start = 0
    for support in CanonicalSupports(field, points.T):
        np.logical_not(unpack_rows(support, len(points)), out=bits[start : start + len(support)])
        start += len(support)
    bits.setflags(write=False)
    return bits


def geometric_extension_criterion(code: LinearCode, chosen) -> bool:
    """Geometric extension criterion for a chosen (m, k) set of points.

    True iff every hyperplane containing at least one chosen point meets the
    code's point multiset in fewer than n - d points (counting multiplicity).
    For a single chosen point this is exactly the row-coverage criterion on
    the coverage matrix; for several points it is stricter (it demands that
    no chosen point lies on any maximum-intersection hyperplane).

    The hyperplane of normal r meets the multiset in n - wt(rG) points and
    contains chosen point c iff <r, c> = 0, so one stream of the supports of
    r [G | chosen^T] decides it without building the incidence matrix.
    """
    code.require_non_degenerate()
    chosen = code.field.check_codes(chosen)
    if chosen.size == 0:
        raise ValueError("chosen point list must be nonempty")
    chosen = np.atleast_2d(chosen)
    if chosen.ndim != 2 or chosen.shape[1] != code.k:
        raise ValueError(f"chosen points must be vectors of length k={code.k}, got shape {chosen.shape}")
    n, d = code.n, code.d
    for packed in CanonicalSupports(code.field, np.concatenate([code.matrix, chosen.T], axis=1)):
        support = unpack_rows(packed, n + len(chosen))
        touches = ~support[:, n:].all(axis=1)
        if np.any(touches & (np.count_nonzero(support[:, :n], axis=1) <= d)):
            return False
    return True
