"""Code file I/O, puncturing, single extension steps and chain search.

The code file format is plain text: optional `#` comment lines, a header
`q k n`, then k rows of n space-separated element codes.  Serialization is
canonical (no comments, single spaces, trailing newline), so serialize/parse
round trips are byte-stable.

A chain climbs distances by repeating single extension steps: per round it
tries l = 1..max_l, each with the largest sound distance increment
s = guaranteed_gain(l) = min(weight gap, l), and applies the first feasible
step after full re-verification.  Puncturing is the inverse operation: remove
l generator columns such that every minimum-weight codeword has at least s
zeros among them, which drops the length by l while costing at most
l - guaranteed_gain(s) distance.

Both run through one step routine, `_step`: search, build, re-verify against
the one distance rule `extension._check_distance`, and return one `StepRecord`,
which holds each fact of the step once: the `SolveOutcome` of its search (whose
`SolveStatus` is the step's verdict and whose best solution gives the chosen
columns and their slacks) and, exactly when that search is feasible, the
re-verified code the step built.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .code import LinearCode
from .errors import ConsistencyError, ParseError
from .extension import (
    CoverageMatrix,
    CoverSystem,
    _check_distance,
    apply_extension,
    coverage_matrix,
    cover_system,
    projective_filter,
    verify_extension,
)
from .field import gf
from .solver import SolveOutcome, SolverConfig, SolveStatus, _Text, solve


class StopReason(_Text):
    """Why a chain stopped; the value is a template over the ChainPolicy fields."""

    TARGET_REACHED = "target distance {target_distance} reached"
    LENGTH_BUDGET = "total added length budget {max_total_added} reached"
    SOLVER_BUDGET = "solver budget exhausted before finding an extension (l <= {max_l})"
    NO_EXTENSION = "no feasible extension with l <= {max_l}"


# -- code file I/O ---------------------------------------------------------------


def parse_code(text: str) -> LinearCode:
    """Parse the text format into a LinearCode; errors carry line numbers."""
    header: tuple[int, int, int] | None = None
    rows: list[list[int]] = []
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            values = [int(tok) for tok in fields]
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", lineno) from None
        if header is None:
            if len(values) != 3:
                raise ParseError(f"header must be 'q k n', got {line!r}", lineno)
            q, k, n = values
            if q < 2 or k < 1 or n < 1:
                raise ParseError(f"header values must be positive (q >= 2), got {line!r}", lineno)
            header = (q, k, n)
            header_line = lineno
            continue
        q, k, n = header
        if len(rows) == k:
            raise ParseError(f"expected exactly {k} matrix rows, found more", lineno)
        if len(values) != n:
            raise ParseError(f"expected {n} entries, got {len(values)}", lineno)
        bad = [v for v in values if not 0 <= v < q]
        if bad:
            raise ParseError(f"element code {bad[0]} out of range 0..{q - 1}", lineno)
        rows.append(values)
    if header is None:
        raise ParseError("missing 'q k n' header")
    q, k, n = header
    if len(rows) != k:
        raise ParseError(f"expected {k} matrix rows, found {len(rows)}", header_line)
    try:
        field = gf(q)
    except ValueError as exc:
        raise ParseError(str(exc), header_line) from None
    return LinearCode(field, np.array(rows, dtype=np.uint8))


def serialize_code(code: LinearCode) -> str:
    """Canonical text form: 'q k n' header then the generator rows."""
    lines = [f"{code.q} {code.k} {code.n}"]
    for row in code.matrix:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


# -- step records and reports ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One extend or puncture step: the search behind it and the code it built.

    `result` is the new code, recomputed from scratch and verified, and is set
    exactly when `search.status` is feasible; the chosen columns and their
    slacks are `search.best`.  `guaranteed_distance` is the distance the step
    proves and re-verified on `result`: d + guaranteed_gain(s) for an
    extension, d - l + guaranteed_gain(s) for a puncture
    (`LinearCode.guaranteed_gain`).
    """

    operation: str
    l: int
    s: int
    params_before: tuple[int, int, int]
    search: SolveOutcome
    rows: int
    candidates_total: int
    candidates_masked: int
    result: LinearCode | None = None
    guaranteed_distance: int | None = None

    def describe(self) -> str:
        n, k, d = self.params_before
        head = f"{self.operation} (l={self.l}, s={self.s}) on [{n},{k},{d}]"
        if self.result is None:
            return f"{head}: {self.search.status}"
        n2, k2, d2 = self.result.params()
        cols = ",".join(str(c) for c in self.search.best.columns)
        return (
            f"{head} -> [{n2},{k2},{d2}] columns=[{cols}] "
            f"A_d={self.result.min_weight_count} nodes={self.search.nodes_explored}"
        )


@dataclass(frozen=True)
class ChainPolicy:
    """Knobs for chain search."""

    max_l: int = 2
    max_total_added: int | None = None
    target_distance: int | None = None
    projective: bool = False
    solver: SolverConfig = dc_field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if self.max_l < 1:
            raise ValueError("max_l must be >= 1")
        if self.max_total_added is not None and self.max_total_added < 0:
            raise ValueError("max_total_added must be >= 0")
        if self.target_distance is not None and self.target_distance < 1:
            raise ValueError("target_distance must be >= 1")


@dataclass(frozen=True, eq=False)
class ChainReport:
    """The code a chain started from, its applied steps in order, the code it
    ended with, and why it stopped.  `final` is the last step's `result`, or
    `start` when no step was applied."""

    start: LinearCode
    final: LinearCode
    steps: tuple[StepRecord, ...]
    stopping_reason: StopReason
    policy: ChainPolicy

    def to_text(self) -> str:
        n, k, d = self.start.params()
        lines = [f"chain report for a [{n},{k},{d}]_{self.start.q} code"]
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"step {i}: {step.describe()}")
        if not self.steps:
            lines.append("no steps applied")
        nf, kf, df = self.final.params()
        lines.append(f"stop: {self.stopping_reason.value.format_map(vars(self.policy))}")
        lines.append(f"final: [{nf},{kf},{df}]_{self.final.q}")
        return "\n".join(lines) + "\n"


# -- the step routine and single extension steps ------------------------------------


def _step(operation: str, code: LinearCode, system: CoverSystem, config: SolverConfig | None, build, verify) -> StepRecord:
    """The one step routine of extend and puncture: search the system, build
    the new code from the best solution with `build(code, columns)`, take the
    distance that `verify(code, new, s)` proves on it, and record the step.
    An infeasible or stopped search records no code."""
    search = solve(system, config or SolverConfig())
    result = guaranteed = None
    if search.best is not None:
        result = build(code, search.best.columns)
        guaranteed = verify(code, result, system.s)
    return StepRecord(
        operation=operation,
        l=system.l,
        s=system.s,
        params_before=code.params(),
        search=search,
        rows=system.num_rows,
        candidates_total=system.num_columns,
        candidates_masked=len(system.masked),
        result=result,
        guaranteed_distance=guaranteed,
    )


def extend_once(
    code: LinearCode,
    l: int,
    s: int | None = None,
    config: SolverConfig | None = None,
    *,
    projective: bool = False,
    matrix: CoverageMatrix | None = None,
) -> StepRecord:
    """One (l,s)-extension attempt: build the system, solve, apply, re-verify.

    Among returned solutions the one maximizing the minimum slack is applied
    (ties to lexicographically smallest), pushing former minimum-weight words
    as high as possible for the next step; the record's `result` is the
    extended code.  Infeasibility is a result, not an error, and so is a
    solver budget stop: `result` is then None.  `projective` masks the columns
    that are already points of the code.  `matrix` is the code's coverage
    matrix when the caller has already built it.  `s` defaults to
    `code.guaranteed_gain(l)`, the largest increment both sound and
    attainable with l columns; a larger one is refused.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if s is None:
        s = code.guaranteed_gain(l)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if code.guaranteed_gain(s) != s:
        raise ValueError(
            f"requested s={s} exceeds the weight gap {code.weight_gap_or_none()}: a distance "
            f"increase of s is only guaranteed when the second-smallest weight is at least d+s"
        )
    if matrix is None:
        matrix = coverage_matrix(code)
    elif matrix.code is not code:
        raise ConsistencyError("coverage matrix was built from a different code")
    system = cover_system(matrix, l, s)
    if projective:
        system = projective_filter(system)
    return _step("extend", code, system, config, apply_extension, verify_extension)


# -- special puncturing ------------------------------------------------------------


def zero_coverage_system(code: LinearCode, l: int, s: int) -> CoverSystem:
    """Covering system over generator positions: position j covers row i when
    the minimum-weight codeword i has letter zero at j."""
    reps = code.min_weight_representatives()
    letters = code.field._product(reps, code.matrix)
    return CoverSystem.from_bits(letters == 0, l=l, s=s, distinct=True)


def remove_columns(code: LinearCode, columns) -> LinearCode:
    """Drop the given generator columns; raises RankDeficientError on collapse."""
    requested = [int(j) for j in columns]
    cols = set(requested)
    if len(cols) != len(requested):
        raise ValueError("puncture columns must be distinct")
    if cols and (min(cols) < 0 or max(cols) >= code.n):
        raise ValueError(f"column index out of range 0..{code.n - 1}")
    keep = [j for j in range(code.n) if j not in cols]
    return LinearCode(code.field, code.matrix[:, keep])


def special_puncture(
    code: LinearCode, l: int, s: int, config: SolverConfig | None = None
) -> StepRecord:
    """Remove l columns so every minimum-weight codeword has >= s zeros among them.

    The same solver machinery as extension searches the zero-coverage system
    over generator positions; no qualifying set is an infeasibility result.
    The punctured code, the record's `result`, keeps q and k and is verified
    to reach, and the record states, the distance d - l +
    `code.guaranteed_gain(s)`, and not to exceed d.  A request
    is refused with ValueError before the search when l > n - k, which always
    collapses the rank, or when that distance is below 1, which may collapse
    it.  To remove given columns, use `remove_columns`, and test whether they
    qualify with `is_good_extension(zero_coverage_system(code, l, s), columns)`.
    """
    if not 1 <= l <= code.n - code.k:
        raise ValueError(f"need 1 <= l <= n - k = {code.n - code.k}, got l={l}")
    if s < 1 or s > l:
        raise ValueError(f"need 1 <= s <= l, got s={s}")
    gain = code.guaranteed_gain(s)
    guaranteed = code.d - l + gain
    if guaranteed < 1:
        raise ValueError(f"puncturing l={l} columns guarantees distance d - l + guaranteed_gain(s) = "
                         f"{code.d} - {l} + {gain} = {guaranteed}, below 1, so the punctured code could lose rank")
    return _step("puncture", code, zero_coverage_system(code, l, s), config, remove_columns, _verify_puncture)


def _verify_puncture(old: LinearCode, new: LinearCode, s: int) -> int:
    """The distance a puncture proves, d - l + guaranteed_gain(s), checked on the punctured code."""
    return _check_distance(old, new, old.d - (old.n - new.n) + old.guaranteed_gain(s))


# -- chain search -------------------------------------------------------------------


def chain_search(code: LinearCode, policy: ChainPolicy | None = None) -> ChainReport:
    """Greedy distance climbing: smallest feasible l first, s = guaranteed_gain(l).

    Stops at the target distance, when the total added length would exceed
    the budget, or after a round where every l was infeasible.  Every applied
    step is re-verified from scratch; the report never relies on predictions.
    """
    policy = policy or ChainPolicy()
    steps: list[StepRecord] = []
    current = code
    added_total = 0
    while True:
        if policy.target_distance is not None and current.d >= policy.target_distance:
            reason = StopReason.TARGET_REACHED
            break
        applied = None
        any_inconclusive = False
        matrix = None
        for l in range(1, policy.max_l + 1):
            if policy.max_total_added is not None and added_total + l > policy.max_total_added:
                continue
            if matrix is None:  # built once per round: every l searches the same matrix and mask
                matrix = coverage_matrix(current)
            record = extend_once(current, l, None, policy.solver, projective=policy.projective, matrix=matrix)
            if record.result is not None:
                applied = record
                break
            if record.search.status is SolveStatus.BUDGET_EXHAUSTED:
                any_inconclusive = True
        if applied is None:
            if matrix is None:  # no l fit the length budget
                reason = StopReason.LENGTH_BUDGET
            elif any_inconclusive:
                reason = StopReason.SOLVER_BUDGET
            else:
                reason = StopReason.NO_EXTENSION
            break
        steps.append(applied)
        current = applied.result
        added_total += applied.l
    return ChainReport(start=code, final=current, steps=tuple(steps), stopping_reason=reason, policy=policy)
