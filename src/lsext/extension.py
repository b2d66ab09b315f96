"""Column extensions that raise a code's minimum distance.

The coverage matrix has one row per minimum-weight message representative and
one column per candidate extension column (canonical subspace representative);
an entry is 1 where appending that column would add a nonzero letter to that
codeword.  Appending a multiset of l columns such that every row picks up at
least s nonzero letters yields an [n+l, k]_q code whose minimum distance is at
least d + `LinearCode.guaranteed_gain(s)`: d+s when the second-smallest
weight of the original code is at least d+s.  The per-row surplus over s (the
slack) gives the exact new weight of each former minimum-weight codeword:
d + s + slack.  A candidate column is named by its index alone, which depends
only on (q, k), so `apply_extension` decodes it without the coverage matrix.

The coverage matrix is a view of the enumeration kernel over the
representatives: it holds the kernel's two half tables, not its h columns.
A search reads blocks, ranges and single columns from them, and the whole
packed array is built only when something asks for it (see `CoverageMatrix`).
A small matrix, whose h columns times max(k, t) fit the kernel's chunk
budget, is instead built whole at once, as one product over the cached
table of representatives.

Equivalently, the coverage matrix is the complement of the rows of the
point-hyperplane incidence matrix whose normals are the minimum-weight
representatives; `lsext.geometry` provides that view.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np

from .code import LinearCode
from .errors import ConsistencyError, InfeasibleSolutionError, VerificationError
from .bitsets import pack_rows, packed_words, unpack_rows
from .field import CanonicalSupports, canonical_count, representatives_at
from .geometry import code_points


def unpack_columns(packed: np.ndarray | CanonicalSupports, t: int) -> np.ndarray:
    """Read-only (t, m) uint8 0/1 matrix whose column j is packed row j.

    The kernel's supports are unpacked chunk by chunk into the matrix, so
    no packed copy of all their rows is built; a stored array is one chunk."""
    bits = np.empty((t, len(packed)), dtype=np.uint8)
    start = 0
    for chunk in [packed] if isinstance(packed, np.ndarray) else packed:
        bits[:, start : start + len(chunk)] = unpack_rows(chunk, t).T
        start += len(chunk)
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True, eq=False)
class CoverageMatrix:
    """0/1 matrix pairing min-weight representatives with candidate columns.

    Entry (i, j) is 1 iff the inner product of representative i with
    candidate column j is nonzero.  Rows follow min-weight-representative
    order, columns follow canonical-representative order; both orders are
    fixed by `canonical_representatives`.  No row is all zero.

    The matrix is a view of the enumeration kernel: `supports` is
    `field.CanonicalSupports` over the transposed representatives, whose
    row j is column j of the matrix as a packed row bitset, and it holds
    only the kernel's two half tables of about q^(k/2) rows (a small
    matrix, whose h times max(k, t) fits the kernel's chunk budget, is
    built whole at once instead).  A search reads its blocks, ranges and
    single columns from them on demand.
    `packed`, the (h, W) words of `bitsets.row_dtype(t)`, W =
    `packed_words(t)` (one word of 1, 2 or 4 bytes when t <= 32, else
    ceil(t/64) 64-bit words), is built from the tables the first time
    something asks for the whole array, and kept; entry (i, j) is bit
    i % B of word packed[j, i // B], B being the word's width in bits.
    `bits`, the (t, h) uint8 matrix, is built from the tables on each
    access, chunk by chunk, for display and checks, and builds no `packed`.
    The candidate columns themselves are not stored: `field.representatives_at`
    decodes the ones asked for from their indices.
    """

    code: LinearCode = dc_field(repr=False)
    representatives: np.ndarray
    supports: CanonicalSupports = dc_field(repr=False)
    # The solver's search views of the matrix, one per mask, each made by the first search over it.
    _views: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def t(self) -> int:
        return len(self.representatives)

    @property
    def h(self) -> int:
        return canonical_count(self.code.q, self.code.k)

    @property
    def packed(self) -> np.ndarray:
        return np.asarray(self.supports)

    @property
    def bits(self) -> np.ndarray:
        return unpack_columns(self.supports, self.t)

    @cached_property
    def code_points(self) -> frozenset[int]:
        """The candidate columns whose point is a column of the code, found on first use."""
        return frozenset(code_points(self.code).tolist())


@dataclass(frozen=True, eq=False)
class CoverSystem:
    """Covering instance: choose l columns so every row is covered >= s times.

    `packed` holds the columns as row bitsets, laid out as in
    `CoverageMatrix`: (h, W) little-endian unsigned words over `num_rows`
    rows, W the words of `packed.dtype` that hold them.  It is either that
    array or, for a system built by `cover_system`, the coverage matrix's
    `supports`, which reads like it and builds the rows it is asked for
    from the kernel's tables.  `from_bits` builds a stored system from a
    (rows, columns) 0/1 matrix, and `bits` unpacks either kind.
    `masked` columns may never be selected; `distinct` forbids picking the
    same column twice (needed when columns are generator positions to remove,
    as in puncturing).  `matrix` is set when the columns are candidate
    extension columns and is required by the projective filter.
    """

    packed: np.ndarray | CanonicalSupports
    num_rows: int
    l: int
    s: int
    masked: frozenset[int] = frozenset()
    distinct: bool = False
    matrix: CoverageMatrix | None = dc_field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.l < 1 or self.s < 1:
            raise ValueError(f"need l >= 1 and s >= 1, got l={self.l}, s={self.s}")
        dtype = self.packed.dtype
        if dtype.kind != "u" or dtype.str[0] == ">":
            raise ValueError(f"packed columns must be little-endian unsigned words, got {dtype.str}")
        words = packed_words(self.num_rows, dtype)
        if self.packed.ndim != 2 or self.packed.shape[1] != words:
            raise ValueError(
                f"packed columns of {self.num_rows} rows need {words} {dtype} "
                f"words each, got shape {self.packed.shape}"
            )
        bad = [j for j in self.masked if not 0 <= j < self.num_columns]
        if bad:
            raise ValueError(f"masked column indices out of range: {sorted(bad)}")

    @classmethod
    def from_bits(cls, bits, l: int, s: int, **kwargs) -> CoverSystem:
        """System over the columns of a (rows, columns) 0/1 matrix."""
        bits = np.asarray(bits)
        packed = pack_rows(bits.T)
        packed.setflags(write=False)
        return cls(packed=packed, num_rows=bits.shape[0], l=l, s=s, **kwargs)

    @property
    def num_columns(self) -> int:
        return len(self.packed)

    @property
    def bits(self) -> np.ndarray:
        return unpack_columns(self.packed, self.num_rows)


@dataclass(frozen=True, order=True)
class ExtensionSolution:
    """A chosen column multiset with its per-row slacks (coverage minus s)."""

    columns: tuple[int, ...]
    slacks: tuple[int, ...] = dc_field(compare=False)

    @property
    def min_slack(self) -> int:
        return min(self.slacks)


def coverage_matrix(code: LinearCode) -> CoverageMatrix:
    """The min-weight-representative x candidate-column coverage matrix, as
    a view of the kernel: column j's rows are the support of column j @ reps.T."""
    reps = code.min_weight_representatives()
    return CoverageMatrix(code=code, representatives=reps, supports=CanonicalSupports(code.field, reps.T))


def cover_system(matrix: CoverageMatrix, l: int, s: int) -> CoverSystem:
    """Covering system asking for l candidate columns covering every row >= s
    times; it reads its columns through the matrix's tables."""
    return CoverSystem(packed=matrix.supports, num_rows=matrix.t, l=l, s=s, matrix=matrix)


def _as_multiset(x) -> tuple[int, ...]:
    cols = tuple(sorted(int(j) for j in x))
    if not cols:
        raise ValueError("column multiset must be nonempty")
    return cols


def _checked(system: CoverSystem, x) -> tuple[int, ...]:
    """x as a sorted multiset of l allowed columns; raises ValueError otherwise."""
    cols = _as_multiset(x)
    if len(cols) != system.l:
        raise ValueError(f"solution must choose exactly l={system.l} columns, got {len(cols)}")
    hit = [j for j in cols if j in system.masked]
    if hit:
        raise ValueError(f"solution uses masked columns {sorted(set(hit))}")
    if system.distinct and len(set(cols)) != len(cols):
        raise ValueError("solution repeats a column but the system requires distinct columns")
    if cols[0] < 0 or cols[-1] >= system.num_columns:
        raise ValueError(f"column index out of range 0..{system.num_columns - 1}")
    return cols


def _coverages(system: CoverSystem, multisets: np.ndarray) -> np.ndarray:
    """(m, num_rows) per-row coverage of an (m, l) array of checked multisets,
    in one gather of only their columns and one unpack."""
    bits = unpack_rows(system.packed[multisets], system.num_rows)
    return bits.sum(axis=1, dtype=np.int64)


def is_good_extension(system: CoverSystem, x) -> bool:
    """True iff every row is covered at least s times by the multiset x, counting multiplicity."""
    return bool(np.all(_coverages(system, np.array([_checked(system, x)]))[0] >= system.s))


def solutions_for(system: CoverSystem, picks) -> list[ExtensionSolution]:
    """Solution records for many column multisets, with their slacks.

    Every multiset is checked first, one by one with `_checked` (ValueError
    on a wrong count, a masked, repeated or out-of-range column), so the
    first bad multiset raises its own error; then the coverage of all of
    them is read in one gather and unpack of the packed rows.  Raises
    InfeasibleSolutionError, naming the short rows, for the first multiset
    that does not cover the system.
    """
    multisets = np.array([_checked(system, x) for x in picks], dtype=np.intp).reshape(-1, system.l)
    if not len(multisets):
        return []
    slack = _coverages(system, multisets) - system.s
    short = np.flatnonzero((slack < 0).any(axis=1))
    if len(short):
        rows = np.flatnonzero(slack[short[0]] < 0).tolist()
        raise InfeasibleSolutionError(f"rows {rows} are covered fewer than s={system.s} times")
    return [
        ExtensionSolution(columns=tuple(cols), slacks=tuple(row))
        for cols, row in zip(multisets.tolist(), slack.tolist())
    ]


def apply_extension(code: LinearCode, x) -> LinearCode:
    """Append the candidate columns x (sorted, repeats adjacent) to the code.

    Each index is decoded as a canonical representative over the code's own
    (q, k), the numbering every coverage matrix of the code uses.
    """
    cols = _as_multiset(x)
    h = canonical_count(code.q, code.k)
    if cols[0] < 0 or cols[-1] >= h:
        raise ValueError(f"column index out of range 0..{h - 1}")
    appended = representatives_at(code.field, code.k, cols).T
    return LinearCode(code.field, np.concatenate([code.matrix, appended], axis=1))


def _check_distance(old: LinearCode, new: LinearCode, floor: int) -> int:
    """The one distance rule of every step, returning floor: the new code keeps q and k, and its d,
    from its own enumeration, lies in [floor, d_old + the columns it gained].  Solutions are
    validated before they are built, so a VerificationError here means an implementation bug."""
    if new.q != old.q or new.k != old.k:
        raise VerificationError(f"built code [{new.n},{new.k}]_{new.q} does not keep the q and k of [{old.n},{old.k}]_{old.q}")
    added = max(0, new.n - old.n)
    if new.d < floor:
        raise VerificationError(f"step claims minimum distance >= {floor} but recomputation finds {new.d}")
    if new.d > old.d + added:
        raise VerificationError(f"distance rose from {old.d} to {new.d} with only {added} columns appended")
    return floor


def verify_extension(old: LinearCode, new: LinearCode, s: int) -> int:
    """Enforce the distance claim on the new code and return the bound it
    enforced: d_old + `old.guaranteed_gain(s)`.

    The new code must append columns to a code of the same q and k
    (ConsistencyError otherwise); its distance must then pass
    `_check_distance`, whose ceiling is d_old plus the appended columns.
    """
    if new.n <= old.n or new.k != old.k or new.q != old.q:
        raise ConsistencyError(
            f"extended code [{new.n},{new.k}]_{new.q} does not extend [{old.n},{old.k}]_{old.q}"
        )
    return _check_distance(old, new, old.d + old.guaranteed_gain(s))


def projective_filter(system: CoverSystem) -> CoverSystem:
    """Mask every candidate column whose point is a column of the system's code.

    Solutions of the filtered system use only points outside the code, so a
    projective code stays projective after extension by distinct columns.
    The points come from the coverage matrix, which finds them once.
    """
    if system.matrix is None:
        raise ValueError("projective filtering needs a system built from a coverage matrix")
    return replace(system, masked=system.masked | system.matrix.code_points)


def format_matrix(bits: np.ndarray) -> Iterator[str]:
    """Text dump of a 0/1 matrix, yielded line by line so that a writer holds
    one row at a time: header '<rows> <cols>', then one row of letters per
    matrix row, 1 for a nonzero entry and 0 for a zero."""
    rows, cols = bits.shape
    yield f"{rows} {cols}\n"
    for row in bits:
        yield ((row != 0).view(np.uint8) + 48).tobytes().decode() + "\n"
