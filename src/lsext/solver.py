"""Search for column multisets satisfying a covering system.

Three strategies share one outcome type:

* exhaustive  - plain lexicographic enumeration of all size-l multisets
                (or sets, for systems requiring distinct columns), with no
                bound.
* bnb         - depth-first search over the same lexicographic space with
                pruning bounds, so it visits a subset of the exhaustive nodes
                and still reports solutions in identical order.  Its
                `infeasible` answer is trustworthy whenever the search was
                not cut off by the node budget.
* greedy      - l picks of the column covering the most still-deficient rows
                (ties to the lowest index).  A cheap probe: success yields a
                valid solution, failure proves nothing.

Exhaustive and bnb share one recursion and one last pick; bnb adds its
bounds and the two-pick node below, which are its alone.  Each keeps its
own node count (exhaustive counts leaves, bnb counts branches plus the
columns each last pick tests).  The independent reference both are
checked against is the brute-force walk in `tests/oracles.py`.

All strategies search `system.packed`, the columns as row bitsets: row i
of column j is bit i % B of word packed[j, i // B], B being the width in
bits of `packed.dtype` (8, 16 or 32 for at most that many rows, else 64),
stored or read through the kernel's tables.  The (rows, columns) uint8
matrix `system.bits` is only derived from it for display and checks.
A node's state is s deficit levels, U_j = the rows still short of j or
more covers (j = 1..s), each a t-bit Python int whose bit i is row i (the
little-endian reading of a packed row), and picking column P maps U_j to
U_{j+1} | (U_j & ~P).  The tests on them are `&`, `~` and `int.bit_count`:
a row needing more than r covers is U_{r+1} nonempty, the last pick is the
superset test (P & U_1) == U_1 once U_2 is empty, a column's gain is
popcount(P & U_1) and the total deficit is the sum of popcount(U_j).

A search reads its columns through a search view, `_Columns`, built by
one rule: each part is built on first use and kept with the coverage
matrix.  The matrix keeps one view per mask, so the searches of a chain
round, plain or projective, share one; a system of stored rows gets one per
search.  A view holds no reference to its matrix and is freed with it by
reference count, so a chain holds one round's matrix and views at a time.
The parts:

* the ints of the last `_NARROW` allowed columns and their suffix ORs,
  which every scan over at most `_NARROW` columns tests, and their
  complements, which `two_left` tests;
* the root pass, one stream over the columns recording their OR and the
  weight of the heaviest, which answers both root bounds of bnb;
* the whole packed array, from which a node below the root reads its
  column, and the suffix-OR table of the reach bound there.

A wider scan runs in numpy, in blocks of at most `_SCAN_WORDS` words of the
rows' width so that its temporaries stay small.  A position maps to its
system column through the sorted list of masked columns, and a block's
masked columns come as offsets, whose entries the scan neutralises in its
own result (a gain of 0, a failed superset test): a mask costs memory in
its own size, and no per-column copy of a wide matrix is made.  A system
that `extension.cover_system` builds over more than one chunk of the kernel
streams: until the whole array exists, each block is built from the
kernel's tables and tested at once.  So a search decided at its root (every
l = 1 pick, every root cut) and a greedy search build no whole matrix.  The
gain bound stops at the first column or block that gains enough.  Both
forms give the same answers and node counts.

A wide last pick scans blocks of `_NARROW`, 8 `_NARROW`, 64 `_NARROW`,
... columns, up to the scan's block width, and stops after the block in
which it has the solutions it wants.  When a row spans two or more words,
a block first tests every column on the densest word of the deficient rows
alone, and the full row only on the columns that pass.  A pick's node
charge is computed from positions, not from the columns it tested: bnb
charges every column the pick could test, exhaustive the leaves up to the
one that stops it.

In bnb, a node with two picks left whose remaining columns are all narrow
has a path of its own (`two_left` in `_search`).  It takes the node's
levels U_1, U_2 and U_3 as ints, and its parent, the node with three picks
left, picks them inline.  It recurses only into its live first picks:
those a for which U_3 is empty, U_2 lies inside a, and some later column
contains U_2 | (U_1 & ~a), the rows left for the second pick.  The view's
complements ~P, ~reach and ~(P | reach past P) let the suffix OR rule most
a out with one or two int operations.  Every other first pick charges what
its recursion would have charged, its bnb branch plus the leaves of its
last pick, summed in closed form over each run of them and cut at the
budget as the recursion would cut it.  So node counts depend neither on
where a scan stops nor on which first picks are live.

The search records the positions of each solution it finds and builds
all the solutions once at the end through `extension.solutions_for`,
which checks each of them, recomputes their coverage in one batch and
raises InfeasibleSolutionError on a short row.

All strategies are deterministic: same system, same config, same outcome,
including solution order.  The outcome's `SolveStatus` is the verdict that
every caller reads, up to the CLI's exit code.  `budget_exhausted` is never
conflated with `infeasible` - a missed extension must not masquerade as a
proof that none exists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .extension import CoverSystem, ExtensionSolution, solutions_for
from .bitsets import popcounts


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

    @cached_property
    def best(self) -> ExtensionSolution | None:
        """Solution maximizing the minimum slack, ties to lexicographic order.

        Found on first use: a step, its report and the CLI all read it, and
        each search of it takes the minimum over every row's slack."""
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
    return SolveOutcome(status, tuple(solutions), nodes, exhausted)


# Widest scan run on Python ints (see the module docstring).  One numpy call
# costs about as much as testing a few dozen ints.
_NARROW = 64

# Most packed words one step of a numpy scan reads, so that its temporaries
# stay small next to a wide system's packed rows.
_SCAN_WORDS = 1 << 16


class _part:
    """A part of a search view: the method's value, built on its first use
    and kept as a plain attribute of the same name, where `cached_property`
    would slow down every attribute of the view."""

    def __init__(self, build) -> None:
        self.build = build

    def __get__(self, view, owner):
        if view is None:
            return self
        value = self.build(view)
        setattr(view, self.build.__name__, value)
        return value


class _Columns:
    """A system's search view: its allowed columns, read as Python ints or in numpy blocks.

    The constructor only records the packed rows and the mask; every other
    part is built on first use and kept with the view (`_part`), and the
    coverage matrix keeps the view (`_view`).

    Positions 0..count-1 are the allowed columns in ascending order; node
    charges and the lexicographic order are defined on them.  Position p is
    system column p + (the masked columns before it), which is p plus the
    number of entries of masked[i] - i (masked sorted) that are <= p.  A
    scan over positions [start, stop) reads the matching column range block
    by block (`_scanned`), with the masked columns of each block as offsets
    into it.  A column or a deficit level is a t-bit int, row i being bit i,
    the little-endian reading of a packed row, whatever its word width.
    """

    def __init__(self, system: CoverSystem) -> None:
        packed = self.packed = system.packed
        self._masked = sorted(system.masked)
        self._gaps = [col - i for i, col in enumerate(self._masked)]
        self.count = len(packed) - len(self._masked)
        self.narrow_from = max(0, self.count - _NARROW)
        self.step = int(system.distinct)
        # A system of no rows has no words; `whole` gives it one zero word per column to scan.
        words = max(packed.shape[1], 1)
        self.nbytes = packed.dtype.itemsize * words
        # One scalar per packed row, so the superset test is one comparison per column.
        self._row = packed.dtype if words == 1 else np.dtype((np.void, self.nbytes))
        # Tables of more than one chunk stream until `whole` is built; smaller ones build it on the first scan.
        self._streams = not isinstance(packed, np.ndarray) and len(packed) > packed.chunk_rows

    @_part
    def whole(self) -> np.ndarray:
        """The packed rows as one array: the system's own, or built from the kernel's tables, which keep it."""
        whole = np.asarray(self.packed)
        self._streams = False
        return whole if whole.shape[1] else np.zeros((len(whole), 1), dtype=whole.dtype)

    def _scanned(self) -> tuple:
        """What the numpy scans read, and the columns in one block of it: the
        whole array in blocks of `_SCAN_WORDS` words, but the kernel's tables
        a chunk at a time while they stream (`_streams`)."""
        if self._streams:
            return self.packed, max(_NARROW, self.packed.chunk_rows)
        return self.whole, max(_NARROW, _SCAN_WORDS // self.whole.shape[1])

    @_part
    def tail(self) -> list[int]:
        """The last `_NARROW` allowed columns, read as one range."""
        first, stop, cuts = self._span(self.narrow_from, self.count)
        data, size = self._scanned()[0][first:stop].tobytes(), self.nbytes
        return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size) if i // size not in cuts]

    @_part
    def tail_reach(self) -> list[int]:
        """Entry i ORs the tail columns from i on; one 0 follows the last."""
        reach = self.tail + [0]
        for i in range(len(reach) - 2, -1, -1):
            reach[i] |= reach[i + 1]
        return reach

    @_part
    def complements(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """What `two_left` reads: the tail columns P and their ~P, ~reach and ~(P | reach past P)."""
        tail, reach = self.tail, self.tail_reach
        return tail, [~col for col in tail], [~r for r in reach], [~(col | r) for col, r in zip(tail, reach[self.step :])]

    @_part
    def root(self) -> tuple[int, int]:
        """The rows some allowed column covers and the most rows one covers, from one pass over the columns."""
        union = heaviest = 0
        for _, rows, cuts in self._blocks(0, self.count):
            weights, keep = popcounts(rows), True
            if cuts:
                keep = np.ones((len(rows), 1), dtype=bool)
                keep[cuts] = weights[cuts] = 0
            union |= int.from_bytes(np.bitwise_or.reduce(rows, axis=0, where=keep).tobytes(), "little")
            heaviest = max(heaviest, int(weights.max()))
        return union, heaviest

    @_part
    def suffix_or(self) -> np.ndarray:
        """Row j ORs the allowed columns >= j: masked rows are zeroed before
        the suffix OR runs, in place, from the last row up."""
        table = np.array(self.whole)
        table[self._masked] = 0
        suffix = table[::-1]
        np.bitwise_or.accumulate(suffix, axis=0, out=suffix)
        return table

    def index(self, positions) -> list:
        """The system columns at the given positions, as (nested) lists of ints,
        which `extension.solutions_for` checks faster than numpy rows."""
        return (np.searchsorted(self._gaps, positions, side="right") + positions).tolist()

    def at(self, pos: int) -> int:
        if pos >= self.narrow_from:
            return self.tail[pos - self.narrow_from]
        col = pos + bisect_right(self._gaps, pos)
        return int.from_bytes(self.whole[col].tobytes(), "little")

    def _span(self, low: int, high: int) -> tuple[int, int, list[int]]:
        """The system columns [first, stop) that positions [low, high) span,
        and the offsets from first of the masked ones among them."""
        skip_low, skip_high = bisect_right(self._gaps, low), bisect_right(self._gaps, high - 1)
        first = low + skip_low
        return first, high + skip_high, [col - first for col in self._masked[skip_low:skip_high]]

    def _blocks(self, start: int, stop: int, grow: bool = False):
        """(low, rows, cuts) for blocks that tile positions [start, stop): rows
        are the packed rows that positions [low, high) span, and cuts the
        offsets of the masked ones among them.  Blocks are a scan block wide,
        or with `grow` `_NARROW` positions at first and eightfold up to it."""
        source, block = self._scanned()
        low, width = start, _NARROW if grow else block
        while low < stop:
            high = min(stop, low + width)
            first, end, cuts = self._span(low, high)
            yield low, source[first:end], cuts
            low, width = high, min(8 * width, block)

    def reach(self, start: int) -> int:
        """The rows covered by some column at position >= start."""
        if start >= self.narrow_from:
            return self.tail_reach[start - self.narrow_from]
        if start == 0:
            return self.root[0]
        return int.from_bytes(self.suffix_or[start + bisect_right(self._gaps, start)].tobytes(), "little")

    def words(self, level: int) -> np.ndarray:
        """A level as one packed row, for the numpy scans."""
        return np.frombuffer(level.to_bytes(self.nbytes, "little"), dtype=self.packed.dtype)

    def read(self, col: int) -> int:
        """System column `col` as an int, read from what the scans read."""
        return int.from_bytes(self._scanned()[0][col : col + 1].tobytes(), "little")

    def gains(self, deficient: int) -> np.ndarray:
        """Deficient rows covered by each system column, scanned in numpy; -1 for a masked one."""
        source, block = self._scanned()
        target = self.words(deficient)
        gains = np.concatenate([popcounts(source[low : low + block] & target) for low in range(0, len(source), block)])
        gains[self._masked] = -1
        return gains

    def has_gain(self, start: int, deficient: int, gain: int) -> bool:
        """Whether some column at position >= start covers at least `gain` deficient rows.

        At position 0 the root pass settles it when no column weighs `gain`
        or every row a column covers is deficient.  A wide range is scanned
        block by block and the scan stops at the first block holding such a
        column."""
        if start >= self.narrow_from:
            return any((col & deficient).bit_count() >= gain for col in self.tail[start - self.narrow_from :])
        if start == 0:
            union, heaviest = self.root
            if heaviest < gain or not union & ~deficient:
                return heaviest >= gain
        target = self.words(deficient)
        for _, rows, cuts in self._blocks(start, self.count):
            gains = popcounts(rows & target)
            gains[cuts] = 0  # gain >= 1 here, so a masked column never reaches it
            if gains.max() >= gain:
                return True
        return False

    def covering(self, start: int, stop: int, deficient: int, wanted: int) -> list[int]:
        """The first `wanted` positions in [start, stop) whose column covers every deficient row.

        A wide range is scanned in blocks of `_NARROW`, 8 `_NARROW`,
        64 `_NARROW`, ... columns, at most a scan block each, and the scan
        stops after the block in which the `wanted`-th position is found.
        A row of two or more words is first tested on the deficient rows'
        densest word alone, and in full only on the columns that pass.
        """
        if start >= self.narrow_from:
            tail = self.tail[start - self.narrow_from : stop - self.narrow_from]
            return [start + i for i, col in enumerate(tail) if not deficient & ~col][:wanted]
        target = self.words(deficient)
        row = target.view(self._row)[0]
        word = None
        if len(target) > 1:
            counts = np.bitwise_count(target).tolist()
            word = counts.index(max(counts))
            key = target[word]
        found: list[int] = []
        for low, rows, cuts in self._blocks(start, stop, grow=True):
            if word is None:
                ok = (rows & target).view(self._row)[:, 0] == row
            else:
                ok = (rows[:, word] & key) == key
            if cuts:
                ok[cuts] = False
            hits = np.flatnonzero(ok)
            if word is not None and len(hits):
                hits = hits[(rows[hits] & target).view(self._row)[:, 0] == row]
            for hit in hits[: wanted - len(found)].tolist():
                found.append(low + hit - bisect_left(cuts, hit))
            if len(found) >= wanted:
                break
        return found


def _view(system: CoverSystem) -> _Columns:
    """The search view of a system: the one its coverage matrix keeps for
    its mask, or a new one for a system of other rows."""
    matrix, key = system.matrix, (system.masked, system.distinct)
    views = {} if matrix is None or system.packed is not matrix.supports else matrix._views
    if key not in views:
        views[key] = _Columns(system)
    return views[key]


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
    subtrees, nodes with two picks left over narrow columns run `two_left`,
    and every branch taken counts as a node, as does every column the last
    pick tests.  Without it, the search is plain enumeration through `rec`
    and `last_pick` alone, and the nodes are the leaves: the multisets
    tested, up to and including the one that stops the search.
    """
    columns = _view(system)
    count, narrow, step = columns.count, columns.narrow_from, columns.step
    picks: list[list[int]] = []  # the positions of each solution, in the order found
    nodes = 0
    limit, most, s = config.node_limit, config.max_solutions, system.s

    def last_pick(start: int, chosen: list[int], levels: list[int]) -> bool:
        # Every remaining column is one leaf; it is a solution when it
        # contains every deficient row and no row still needs two covers.
        # The budget is charged for the leaves tested, all in one scan.
        nonlocal nodes
        total = count - start
        take = min(total, limit - nodes)
        if not any(levels[1:]):
            wanted = most - len(picks)
            for pos in columns.covering(start, start + take, levels[0], wanted):
                picks.append(chosen + [pos])
                if len(picks) >= most:
                    nodes += take if prune else pos - start + 1
                    return True
        nodes += take
        return take < total

    def bounded_out(start: int, picks_left: int, levels: list[int]) -> bool:
        deficient = levels[0]
        if not deficient:
            return step and count - start < picks_left
        if picks_left < s and levels[picks_left]:
            return True
        # Some deficient row unreachable by every remaining column?  This
        # also cuts a node with no remaining column.
        if deficient & ~columns.reach(start):
            return True
        # ceil(total deficit / best gain) > picks_left exactly when no column
        # gains ceil(total deficit / picks_left).
        return not columns.has_gain(start, deficient, -(-sum(map(int.bit_count, levels)) // picks_left))

    def dead(low: int, high: int) -> bool:
        # First picks low..high-1 lead to no solution: each charges its
        # branch and the leaves of its last pick, as far as the budget goes.
        nonlocal nodes
        runs = high - low
        charge = runs * (1 + count - step) - (low + high - 1) * runs // 2
        budget = limit - nodes
        nodes += min(charge, budget)
        return charge > budget

    def two_left(start: int, chosen: list[int], first: int, second: int, third: int) -> bool:
        # bnb's node with two picks left over narrow columns, given its levels
        # U_1, U_2 and U_3 (U_4.. lie inside U_3): bounded_out and rec on the
        # tail ints.  Only the live first picks a are taken, those that some
        # second pick b completes: U_3 empty, U_2 inside a, and b containing
        # rest = U_2 | (U_1 & ~a), which the suffix OR tests for all later b
        # at once; each run of other first picks is dead.
        nonlocal nodes
        tail, uncovered, unreached, blocked = columns.complements
        base, end = start - narrow, count - narrow
        if not first:
            if step and count - start < 2:
                return False
        elif third or first & unreached[base]:
            return False
        else:
            need = -(-(first.bit_count() + second.bit_count()) // 2)
            for i in range(base, end):
                if (tail[i] & first).bit_count() >= need:
                    break
            else:
                return False
        low = start  # the first position not yet charged
        for i in range(base, end):
            j = i + step  # the tail index of the first second pick
            if first & blocked[i] or second and (second & uncovered[i] or second & unreached[j]):
                continue
            rest = second | (first & uncovered[i])
            while j < end and rest & uncovered[j]:
                j += 1
            if j == end:
                continue
            a = i + narrow
            if a > low and dead(low, a):
                return True
            low = a + 1
            if nodes >= limit:
                return True
            nodes += 1
            # The last pick after a: its leaves are [a + step, count), and j
            # is the first that covers.
            total = count - a - step
            take = min(total, limit - nodes)
            stop = i + step + take
            while j < stop:
                if not rest & uncovered[j]:
                    picks.append(chosen + [a, j + narrow])
                    if len(picks) >= most:
                        nodes += take
                        return True
                j += 1
            nodes += take
            if take < total:
                return True
        return dead(low, count)

    def rec(start: int, chosen: list[int], levels: list[int]) -> bool:
        # Returns True to stop the whole search.
        nonlocal nodes
        picks_left = system.l - len(chosen)
        if picks_left == 1:
            return last_pick(start, chosen, levels)
        u1, u2, u3, u4 = (levels + [0, 0, 0])[:4]
        if prune:
            if picks_left == 2 and start >= narrow:
                return two_left(start, chosen, u1, u2, u3)
            if bounded_out(start, picks_left, levels):
                return False
        for pos in range(start, count):
            if prune:
                if nodes >= limit:
                    return True
                nodes += 1
            chosen.append(pos)
            if prune and picks_left == 3 and pos + step >= narrow:
                # The child is a two_left node: its levels, picked inline.
                keep = ~columns.at(pos)
                stop = two_left(pos + step, chosen, u2 | (u1 & keep), u3 | (u2 & keep), u4 | (u3 & keep))
            else:
                stop = rec(pos + step, chosen, _pick(levels, columns.at(pos)))
            chosen.pop()
            if stop:
                return True
        return False

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

    A node with two picks left over narrow columns, a path of bnb's alone,
    recurses only into the first picks that some second pick completes:
    the others leave a row needing two more covers, or rows that no later
    column contains.  Their nodes are charged in closed form per run, the
    count the recursion gives.
    """
    return _search(system, config or SolverConfig(strategy="bnb"), prune=True)


def solve_greedy(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Pick, l times, the column covering the most deficient rows (ties: lowest index)."""
    columns = _view(system)
    if not columns.count:
        return _outcome([], 0, exhausted=False)
    levels = _full_levels(system)
    chosen: list[int] = []
    nodes = 0
    for _ in range(system.l):
        gains = columns.gains(levels[0])
        skip = chosen if system.distinct else []
        gains[skip] = -1
        nodes += columns.count - len(skip)
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

