"""Search for column multisets satisfying a covering system.

Three strategies share one outcome type:

* exhaustive  - plain lexicographic enumeration of all size-l multisets
                (or sets, for systems requiring distinct columns); the
                reference semantics the others must agree with.
* bnb         - depth-first search over the same lexicographic space with
                pruning bounds, so it visits a subset of the exhaustive nodes
                and still reports solutions in identical order.  Its
                `infeasible` answer is trustworthy whenever the search was
                not cut off by the node budget.
* greedy      - l picks of the column covering the most still-deficient rows
                (ties to the lowest index).  A cheap probe: success yields a
                valid solution, failure proves nothing.

Exhaustive and bnb are one recursive search with pruning off or on; each
keeps its own node count (exhaustive counts leaves, bnb counts branches
plus the columns each last pick tests).

All strategies search `system.packed`, the columns as row bitsets: row i
of column j is bit i % B of word packed[j, i // B], B being the width in
bits of `packed.dtype` (8, 16 or 32 for at most that many rows, else 64).
The (rows, columns) uint8 matrix `system.bits` is only derived from it for
display and checks.
A node's state is s deficit levels, U_j = the rows still short of j or
more covers (j = 1..s), each a t-bit Python int whose bit i is row i (the
little-endian reading of a packed row), and picking column P maps U_j to
U_{j+1} | (U_j & ~P).  The tests on them are `&`, `~` and `int.bit_count`:
a row needing more than r covers is U_{r+1} nonempty, the last pick is the
superset test (P & U_1) == U_1 once U_2 is empty, a column's gain is
popcount(P & U_1) and the total deficit is the sum of popcount(U_j).

The search walks positions, the allowed columns in ascending order.  A
position maps to its system column through the sorted list of masked
columns, so a mask costs memory in its own size and none when empty.

Two scans run over every remaining column: the gain bound and the last
pick.  A scan over at most `_NARROW` columns tests Python ints,
precomputed for the last `_NARROW` columns only; a wider scan runs in
numpy over the packed rows, in blocks of at most `_SCAN_WORDS` words of
the rows' width, so that its temporaries stay small next to the packed
rows.  Each block reads its column range of `system.packed` in place and
drops the masked columns from its result.  The gain bound stops at the
first column (narrow) or block (wide) that gains enough.  Deep trees over
few columns thus pay no numpy call per node, wide systems keep their
vectorised scans, and no per-column int or byte copy of a wide matrix is
ever made, masked or not.  The rule is
fixed, not an option: both forms give the same answers and node counts.

A search holds its system once, plus this bounded scratch, and frees all
of it when it returns or raises: nothing of its recursion outlives the
call, so a chain of searches keeps one system alive at a time without
waiting for the cyclic collector.

A wide last pick scans blocks that double in width from `_NARROW` and
stops after the block in which it has the solutions it wants, so a pick
whose solutions lie among its first columns does not test the rest.  Its
node charge is computed from positions, not from the columns it tested:
bnb charges every column the pick could test, exhaustive the leaves up to
the one that stops it.  So node counts do not depend on where the scan
stops.

A node with two picks left whose remaining columns are all narrow
recurses only into its live first picks: those a for which U_3.. are
empty, U_2 lies inside a, and some later column contains
U_2 | (U_1 & ~a), the rows left for the second pick (the suffix OR of
the later columns rules most a out before any column is tested).  Every
other first pick charges what its recursion would have charged, its bnb
branch plus the leaves of its last pick, summed over each run of them in
one step and cut at the budget as the recursion would cut it.  So node
counts do not depend on which first picks are live either.

The search records the positions of each solution it finds and builds
all the solutions once at the end through `extension.solutions_for`,
which recomputes their coverage in one batch and raises
InfeasibleSolutionError on a short row.

All strategies are deterministic: same system, same config, same outcome,
including solution order.  The outcome's `SolveStatus` is the verdict that
every caller reads, up to the CLI's exit code.  `budget_exhausted` is never
conflated with `infeasible` - a missed extension must not masquerade as a
proof that none exists.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

import numpy as np

from .extension import CoverSystem, ExtensionSolution, parse_matrix_text, solutions_for
from .field import popcounts


class _Text(str, Enum):
    """A str-valued enum that prints as its value on every supported Python."""

    def __str__(self) -> str:
        return self.value


class SolveStatus(_Text):
    """The verdict of one search; see `SolveOutcome`."""

    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget_exhausted"


STRATEGIES = ("exhaustive", "bnb", "greedy")


@dataclass(frozen=True)
class SolverConfig:
    strategy: str = "bnb"
    max_solutions: int = 10
    node_limit: int = 1_000_000

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}")
        if self.max_solutions < 1:
            raise ValueError("max_solutions must be >= 1")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")


@dataclass(frozen=True)
class SolveOutcome:
    """Solver result; `solutions` is sorted lexicographically by columns.

    status `feasible` means every listed solution covers the system;
    `infeasible` is only ever reported after the whole search space was
    exhausted; `budget_exhausted` means the node budget ran out before a
    first solution was found.  `exhausted` records whether the entire space
    was searched (False when the search stopped early at max_solutions), so
    a caller may claim "exactly these solutions exist" only when it is True.
    """

    status: SolveStatus
    solutions: tuple[ExtensionSolution, ...]
    nodes_explored: int
    exhausted: bool

    @property
    def best(self) -> ExtensionSolution | None:
        """Solution maximizing the minimum slack, ties to lexicographic order."""
        if not self.solutions:
            return None
        return max(self.solutions, key=lambda sol: (sol.min_slack, [-c for c in sol.columns]))


def _outcome(solutions: list[ExtensionSolution], nodes: int, exhausted: bool) -> SolveOutcome:
    if solutions:
        status = SolveStatus.FEASIBLE
    elif exhausted:
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.BUDGET_EXHAUSTED
    return SolveOutcome(
        status=status, solutions=tuple(solutions), nodes_explored=nodes, exhausted=exhausted
    )


# Widest scan run on Python ints (see the module docstring).  One numpy call
# costs about as much as testing a few dozen ints.
_NARROW = 64

# Most packed words one step of a numpy scan reads, so that its temporaries
# stay small next to a wide system's packed rows.
_SCAN_WORDS = 1 << 16


def _same(rows: np.ndarray) -> np.ndarray:
    return rows


class _Columns:
    """The allowed columns of a system, read as Python ints or in place from its packed rows.

    Positions 0..count-1 are the allowed columns in ascending order; node
    charges and the lexicographic order are defined on them.  Position p is
    system column p + (the masked columns before it), which is p plus the
    number of entries of masked[i] - i (masked sorted) that are <= p: one
    bisection of an O(|masked|) list, and the identity when nothing is masked.
    A scan over positions [start, stop) reads the matching column range of
    `system.packed` in place and drops the masked columns from its result, so
    masked and unmasked systems share it and neither is ever copied.

    A column or a deficit level is a t-bit int, row i being bit i, which is
    the little-endian reading of a packed row, whatever its word width.
    Ints for the last `_NARROW` allowed columns are built once; any other
    column is read on demand from a zero-copy byte view of the packed rows.
    """

    def __init__(self, system: CoverSystem) -> None:
        packed = system.packed
        # A system of no rows has no words; one zero word per column gives every scan one to read.
        self.packed = packed if packed.shape[1] else np.zeros((len(packed), 1), dtype=packed.dtype)
        self._masked = sorted(system.masked)
        self._gaps = [col - i for i, col in enumerate(self._masked)]
        self.count = len(packed) - len(self._masked)
        words = self.packed.shape[1]
        self.nbytes = self.packed.dtype.itemsize * words
        self.block = max(_NARROW, _SCAN_WORDS // words)
        # One scalar per packed row, so the superset test is one comparison per column.
        self._row = self.packed.dtype if words == 1 else np.dtype((np.void, self.nbytes))
        self._bytes = memoryview(np.ascontiguousarray(self.packed).reshape(-1).view(np.uint8))
        self.narrow_from = max(0, self.count - _NARROW)
        rows = self._scan(self.narrow_from, self.count, _same)
        if words == 1:
            self.tail = rows[:, 0].tolist()
        else:
            data, size = rows.tobytes(), self.nbytes
            self.tail = [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
        self._tail_reach = self.tail + [0]
        for i in range(len(self.tail) - 1, -1, -1):
            self._tail_reach[i] |= self._tail_reach[i + 1]
        self._root_reach: int | None = None
        self._wide_reach: np.ndarray | None = None

    def index(self, positions) -> np.ndarray:
        """The system columns at the given positions."""
        positions = np.asarray(positions, dtype=np.intp)
        return positions + np.searchsorted(np.array(self._gaps, dtype=np.intp), positions, side="right")

    def read(self, col: int) -> int:
        """System column `col` as an int."""
        return int.from_bytes(self._bytes[col * self.nbytes : (col + 1) * self.nbytes], "little")

    def at(self, pos: int) -> int:
        if pos >= self.narrow_from:
            return self.tail[pos - self.narrow_from]
        return self.read(pos + bisect_right(self._gaps, pos))

    def _scan(self, low: int, high: int, f):
        """f of the packed rows of positions [low, high), read in place, with
        the entries of masked columns dropped from its result."""
        skip_low, skip_high = bisect_right(self._gaps, low), bisect_right(self._gaps, high - 1)
        first = low + skip_low
        result = f(self.packed[first : high + skip_high])
        if skip_high > skip_low:
            cuts = [col - first for col in self._masked[skip_low:skip_high]]
            result = np.concatenate([result[a + 1 : b] for a, b in zip([-1] + cuts, cuts + [len(result)])])
        return result

    def _blocks(self, start: int, stop: int, f, width: int):
        """(low, f of the rows of [low, high)) for blocks that tile positions
        [start, stop), `width` positions wide at first and doubling up to `self.block`."""
        low = start
        while low < stop:
            high = min(stop, low + width)
            yield low, self._scan(low, high, f)
            low, width = high, min(2 * width, self.block)

    def reach(self, start: int) -> int:
        """The rows covered by some column at position >= start."""
        if start >= self.narrow_from:
            return self._tail_reach[start - self.narrow_from]
        # The root needs only the OR of all columns; the suffix-OR table is
        # built when a node further in asks.
        if start == 0:
            if self._root_reach is None:
                blocks = self._blocks(0, self.count, _same, self.block)
                union = np.bitwise_or.reduce([np.bitwise_or.reduce(rows, axis=0) for _, rows in blocks])
                self._root_reach = int.from_bytes(union.tobytes(), "little")
            return self._root_reach
        if self._wide_reach is None:
            # Row j ORs the allowed columns >= j: masked rows are zeroed before
            # the suffix OR runs, in place, from the last row up.
            self._wide_reach = np.array(self.packed)
            self._wide_reach[self._masked] = 0
            suffix = self._wide_reach[::-1]
            np.bitwise_or.accumulate(suffix, axis=0, out=suffix)
        return int.from_bytes(self._wide_reach[start + bisect_right(self._gaps, start)].tobytes(), "little")

    def words(self, level: int) -> np.ndarray:
        """A level as one packed row, for the numpy scans."""
        return np.frombuffer(level.to_bytes(self.nbytes, "little"), dtype=self.packed.dtype)

    def gains(self, deficient: int) -> np.ndarray:
        """Deficient rows covered by each system column, scanned in numpy; -1 for a masked one."""
        target = self.words(deficient)
        blocks = range(0, len(self.packed), self.block)
        gains = np.concatenate([popcounts(self.packed[low : low + self.block] & target) for low in blocks])
        gains[self._masked] = -1
        return gains

    def has_gain(self, start: int, deficient: int, gain: int) -> bool:
        """Whether some column at position >= start covers at least `gain` deficient rows.

        A wide range is scanned block by block and the scan stops at the first
        block holding such a column."""
        if start >= self.narrow_from:
            return any((col & deficient).bit_count() >= gain for col in self.tail[start - self.narrow_from :])
        target = self.words(deficient)
        blocks = self._blocks(start, self.count, lambda rows: popcounts(rows & target), self.block)
        return any(gains.max() >= gain for _, gains in blocks)

    def covering(self, start: int, stop: int, deficient: int, wanted: int) -> list[int]:
        """The first `wanted` positions in [start, stop) whose column covers every deficient row.

        A wide range is scanned in blocks of `_NARROW`, 2 `_NARROW`,
        4 `_NARROW`, ... columns, at most `self.block` each, and the scan stops
        after the block in which the `wanted`-th position is found.
        """
        if start >= self.narrow_from:
            tail = self.tail[start - self.narrow_from : stop - self.narrow_from]
            return [start + i for i, col in enumerate(tail) if not deficient & ~col][:wanted]
        target = self.words(deficient)
        row = target.view(self._row)[0]
        found: list[int] = []

        def covers(rows):
            return (rows & target).view(self._row)[:, 0] == row

        for low, ok in self._blocks(start, stop, covers, _NARROW):
            found += (low + np.flatnonzero(ok)[: wanted - len(found)]).tolist()
            if len(found) >= wanted:
                break
        return found


def _full_levels(system: CoverSystem) -> list[int]:
    """Deficit levels before any pick: every row has deficit s, so all s levels are full."""
    return [(1 << system.num_rows) - 1] * system.s


def _pick(levels: list[int], column: int) -> list[int]:
    """Deficit levels after one pick: U_j <- U_{j+1} | (U_j & ~P)."""
    keep = ~column
    return [upper | (level & keep) for level, upper in zip(levels, levels[1:] + [0])]


def _search(system: CoverSystem, config: SolverConfig, prune: bool) -> SolveOutcome:
    """Depth-first search of the size-l multisets (or sets) in lexicographic order.

    With `prune`, the branch-and-bound rules of `solve_branch_and_bound` cut
    subtrees, and every branch taken counts as a node, as does every column
    the last pick tests.  Without it, the search is plain enumeration and
    the nodes are the leaves: the multisets tested, up to and including the
    one that stops the search.
    """
    columns = _Columns(system)
    count = columns.count
    picks: list[list[int]] = []  # the positions of each solution, in the order found
    nodes = 0
    step = 1 if system.distinct else 0
    branch = 1 if prune else 0  # the node a bnb branch charges
    tail, narrow = columns.tail, columns.narrow_from

    def last_pick(start: int, chosen: list[int], levels: list[int]) -> bool:
        # Every remaining column is one leaf; it is a solution when it
        # contains every deficient row and no row still needs two covers.
        # The budget is charged for the leaves tested, all in one scan.
        nonlocal nodes
        total = count - start
        take = min(total, config.node_limit - nodes)
        if not any(levels[1:]):
            wanted = config.max_solutions - len(picks)
            for pos in columns.covering(start, start + take, levels[0], wanted):
                picks.append(chosen + [pos])
                if len(picks) >= config.max_solutions:
                    nodes += take if prune else pos - start + 1
                    return True
        nodes += take
        return take < total

    def bounded_out(start: int, picks_left: int, levels: list[int]) -> bool:
        deficient = levels[0]
        if not deficient:
            return system.distinct and count - start < picks_left
        if picks_left < system.s and levels[picks_left]:
            return True
        # Some deficient row unreachable by every remaining column?  This
        # also cuts a node with no remaining column.
        if deficient & ~columns.reach(start):
            return True
        # ceil(total deficit / best gain) > picks_left exactly when no column
        # gains ceil(total deficit / picks_left).
        return not columns.has_gain(start, deficient, -(-sum(map(int.bit_count, levels)) // picks_left))

    def dead(low: int, high: int) -> bool:
        # First picks low..high-1 lead to no solution: each charges its bnb
        # branch and the leaves of its last pick, as far as the budget goes.
        nonlocal nodes
        charge = sum(range(branch + count - high - step + 1, branch + count - low - step + 1))
        budget = config.node_limit - nodes
        nodes += min(charge, budget)
        return charge > budget

    def live(start: int, levels: list[int]):
        # The first picks, two picks left over narrow columns, that some
        # second pick completes: U_3.. empty, U_2 inside a, and some later
        # column containing rest = U_2 | (U_1 & ~a).  The suffix OR rules most
        # a out before any column is tested.
        first, second, *upper = levels + [0]
        if any(upper):
            return ()
        reached = [
            (a, rest)
            for a in range(start, count)
            if second & tail[a - narrow] == second
            and (rest := second | (first & ~tail[a - narrow])) & columns.reach(a + step) == rest
        ]
        # One a per completing pair (a, b), generated lazily, so a search that
        # stops at max_solutions tests no pair past the first pick it stops in.
        pairs = (a for a, rest in reached for b in tail[a + step - narrow :] if rest & b == rest)
        return (a for a, _ in groupby(pairs))

    def rec(start: int, chosen: list[int], levels: list[int]) -> bool:
        # Returns True to stop the whole search.
        nonlocal nodes
        picks_left = system.l - len(chosen)
        if picks_left == 1:
            return last_pick(start, chosen, levels)
        if prune and bounded_out(start, picks_left, levels):
            return False
        positions = live(start, levels) if picks_left == 2 and start >= narrow else range(start, count)
        low = start  # the first position not yet charged
        for pos in positions:
            if pos > low and dead(low, pos):
                return True
            low = pos + 1
            if prune:
                if nodes >= config.node_limit:
                    return True
                nodes += 1
            chosen.append(pos)
            stop = rec(pos + step, chosen, _pick(levels, columns.at(pos)))
            chosen.pop()
            if stop:
                return True
        return dead(low, count)

    try:
        stopped = rec(0, [], _full_levels(system))
    finally:
        # rec's closure holds rec, a cycle that would keep the columns, and
        # with them the system, alive until the cyclic collector runs.
        del rec
    solutions = solutions_for(system, columns.index(picks))
    # Stopping early (budget or max_solutions) means the space was not exhausted.
    return _outcome(solutions, nodes, exhausted=not stopped)


def solve_exhaustive(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Enumerate candidate multisets in lexicographic order, no pruning."""
    return _search(system, config or SolverConfig(strategy="exhaustive"), prune=False)


def solve_branch_and_bound(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Lexicographic depth-first search with deficit-based pruning.

    At each node with r picks left the subtree is cut when (a) some row's
    remaining deficit exceeds r, (b) ceil(total deficit / best possible
    per-pick gain among remaining columns) exceeds r, or (c) a deficient row
    is covered by no remaining column.  The search is complete, so within the
    node budget its `infeasible` verdict is a proof.

    A node with two picks left over narrow columns recurses only into the
    first picks that some second pick completes: the others leave a row
    needing two more covers, or rows that no later column contains.  Their
    nodes are charged in one sum per run, the count the recursion gives.
    """
    return _search(system, config or SolverConfig(strategy="bnb"), prune=True)


def solve_greedy(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Pick, l times, the column covering the most deficient rows (ties: lowest index)."""
    columns = _Columns(system)
    if not columns.count:
        return _outcome([], 0, exhausted=False)
    levels = _full_levels(system)
    chosen: list[int] = []
    nodes = 0
    for _ in range(system.l):
        gains = columns.gains(levels[0])
        if system.distinct:
            nodes += columns.count - len(chosen)
            gains[chosen] = -1
        else:
            nodes += columns.count
        best = int(np.argmax(gains))  # the first maximum: ties go to the lowest index
        chosen.append(best)
        if system.distinct and len(chosen) == columns.count < system.l:
            return _outcome([], nodes, exhausted=False)
        levels = _pick(levels, columns.read(best))
    if levels[0]:
        return _outcome([], nodes, exhausted=False)
    return _outcome(solutions_for(system, [chosen]), nodes, exhausted=False)


_SOLVERS = {
    "exhaustive": solve_exhaustive,
    "bnb": solve_branch_and_bound,
    "greedy": solve_greedy,
}


def solve(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Dispatch to the configured strategy."""
    config = config or SolverConfig()
    return _SOLVERS[config.strategy](system, config)


# -- standalone text interface -------------------------------------------------


def solve_matrix_text(
    text: str, l: int, s: int, config: SolverConfig | None = None, distinct: bool = False
) -> SolveOutcome:
    """Solve a covering instance given as a text matrix dump."""
    bits = parse_matrix_text(text)
    return solve(CoverSystem.from_bits(bits, l=l, s=s, distinct=distinct), config)


def format_solutions(outcome: SolveOutcome) -> str:
    """One line per solution: space-separated column indices."""
    return "".join(" ".join(str(c) for c in sol.columns) + "\n" for sol in outcome.solutions)
