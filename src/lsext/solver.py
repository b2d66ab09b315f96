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

All strategies search `system.packed`, the columns as row bitsets: row i
of column j is bit i % 64 of word packed[j, i // 64].  The (rows, columns)
uint8 matrix `system.bits` is only derived from it for display and checks.
A node's state is s deficit levels, U_j = the rows still short of j or
more covers (j = 1..s), and picking column P maps U_j to
U_{j+1} | (U_j & ~P).  The tests on them are masks and popcounts: a row
needing more than r covers is U_{r+1} nonempty, the last pick is the
superset test (P & U_1) == U_1 once U_2 is empty, a column's gain is
popcount(P & U_1) and the total deficit is the sum of popcount(U_j).
Every solution they return is re-validated by building it through
`extension.solution_for`, which recomputes the coverage and raises
InfeasibleSolutionError on a short row.

All strategies are deterministic: same system, same config, same outcome,
including solution order.  `budget_exhausted` is never conflated with
`infeasible` - a missed extension must not masquerade as a proof that none
exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extension import CoverSystem, ExtensionSolution, pack_columns, solution_for

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

    status: str
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
        status = FEASIBLE
    elif exhausted:
        status = INFEASIBLE
    else:
        status = BUDGET_EXHAUSTED
    return SolveOutcome(
        status=status, solutions=tuple(solutions), nodes_explored=nodes, exhausted=exhausted
    )


def _candidates(system: CoverSystem) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the allowed columns and their packed bitsets, position by position."""
    allowed = system.allowed_columns()
    return allowed, system.packed[allowed] if system.masked else system.packed


def _full_levels(system: CoverSystem) -> np.ndarray:
    """Deficit levels before any pick: every row has deficit s, so all s levels are full."""
    everything = pack_columns(np.ones((1, system.num_rows), dtype=np.uint8))
    return np.repeat(everything, system.s, axis=0)


def _pick(levels: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Deficit levels after one pick: U_j <- U_{j+1} | (U_j & ~P)."""
    after = levels & ~column
    if len(levels) > 1:
        after[:-1] |= levels[1:]
    return after


def solve_exhaustive(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Enumerate candidate multisets in lexicographic order, no pruning."""
    config = config or SolverConfig(strategy="exhaustive")
    allowed, cover = _candidates(system)
    solutions: list[ExtensionSolution] = []
    nodes = 0
    step = 1 if system.distinct else 0

    def rec(start: int, chosen: list[int], levels: np.ndarray) -> bool:
        # Returns True to stop the whole search.
        nonlocal nodes
        if len(chosen) == system.l:
            if nodes >= config.node_limit:
                return True
            nodes += 1
            if not np.count_nonzero(levels[0]):
                solutions.append(solution_for(system, allowed[chosen]))
                if len(solutions) >= config.max_solutions:
                    return True
            return False
        for pos in range(start, len(allowed)):
            chosen.append(pos)
            if rec(pos + step, chosen, _pick(levels, cover[pos])):
                chosen.pop()
                return True
            chosen.pop()
        return False

    stopped = rec(0, [], _full_levels(system))
    # Stopping early (budget or max_solutions) means the space was not exhausted.
    return _outcome(solutions, nodes, exhausted=not stopped)


def solve_branch_and_bound(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Lexicographic depth-first search with deficit-based pruning.

    At each node with r picks left the subtree is cut when (a) some row's
    remaining deficit exceeds r, (b) ceil(total deficit / best possible
    per-pick gain among remaining columns) exceeds r, or (c) a deficient row
    is covered by no remaining column.  The search is complete, so within the
    node budget its `infeasible` verdict is a proof.
    """
    config = config or SolverConfig(strategy="bnb")
    allowed, cover = _candidates(system)
    count = len(allowed)
    if system.l > 1:
        # reach[p]: the rows covered by some column at position p or later.
        reach = np.zeros((count + 1, cover.shape[1]), dtype=cover.dtype)
        reach[:-1] = np.bitwise_or.accumulate(cover[::-1], axis=0)[::-1]
    solutions: list[ExtensionSolution] = []
    nodes = 0
    step = 1 if system.distinct else 0

    def rec(start: int, chosen: list[int], levels: np.ndarray) -> bool:
        nonlocal nodes
        picks_left = system.l - len(chosen)
        deficient = levels[0]
        if picks_left == 1:
            # Vectorized last pick: any remaining column containing every
            # deficient row, when no row still needs two.
            total = count - start
            take = max(0, min(total, config.node_limit - nodes))
            if take:
                nodes += take
                if not np.count_nonzero(levels[1:]):
                    hits = cover[start : start + take] & deficient
                    ok = np.all(hits == deficient, axis=1)
                    for off in np.flatnonzero(ok):
                        solutions.append(solution_for(system, allowed[chosen + [start + off]]))
                        if len(solutions) >= config.max_solutions:
                            return True
            return take < total
        if np.count_nonzero(deficient):
            if picks_left < system.s and np.count_nonzero(levels[picks_left]):
                return False
            # Some deficient row unreachable by every remaining column?  This
            # also cuts a node with no remaining column, so best_gain >= 1 below.
            if np.count_nonzero(deficient & ~reach[start]):
                return False
            best_gain = int(_popcount(cover[start:] & deficient).max())
            need = -(-int(_popcount(levels).sum()) // best_gain)
            if need > picks_left:
                return False
        elif system.distinct and count - start < picks_left:
            return False
        for pos in range(start, count):
            if nodes >= config.node_limit:
                return True
            nodes += 1
            chosen.append(pos)
            if rec(pos + step, chosen, _pick(levels, cover[pos])):
                chosen.pop()
                return True
            chosen.pop()
        return False

    stopped = rec(0, [], _full_levels(system))
    return _outcome(solutions, nodes, exhausted=not stopped)


def solve_greedy(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Pick, l times, the column covering the most deficient rows (ties: lowest index)."""
    config = config or SolverConfig(strategy="greedy")
    allowed, cover = _candidates(system)
    if not len(allowed):
        return _outcome([], 0, exhausted=False)
    levels = _full_levels(system)
    chosen: list[int] = []
    nodes = 0
    for _ in range(system.l):
        gains = _popcount(cover & levels[0])
        if system.distinct:
            nodes += len(allowed) - len(chosen)
            gains[chosen] = -1
        else:
            nodes += len(allowed)
        best = int(np.argmax(gains))  # the first maximum: ties go to the lowest index
        chosen.append(best)
        if system.distinct and len(chosen) == len(allowed) < system.l:
            return _outcome([], nodes, exhausted=False)
        levels = _pick(levels, cover[best])
    if np.count_nonzero(levels[0]):
        return _outcome([], nodes, exhausted=False)
    return _outcome([solution_for(system, allowed[chosen])], nodes, exhausted=False)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a (m, W) uint64 array, as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


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


def parse_matrix_text(text: str) -> np.ndarray:
    """Read the text dump format: header '<rows> <cols>', then 0/1 rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header '<rows> <cols>', got {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} matrix rows, found {len(lines) - 1}")
    bits = np.zeros((rows, cols), dtype=np.uint8)
    for i, ln in enumerate(lines[1:]):
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"row {i} must be {cols} characters of 0/1, got {ln!r}")
        bits[i] = [1 if ch == "1" else 0 for ch in ln]
    return bits


def solve_matrix_text(
    text: str, l: int, s: int, config: SolverConfig | None = None, distinct: bool = False
) -> SolveOutcome:
    """Solve a covering instance given as a text matrix dump."""
    bits = parse_matrix_text(text)
    return solve(CoverSystem.from_bits(bits, l=l, s=s, distinct=distinct), config)


def format_solutions(outcome: SolveOutcome) -> str:
    """One line per solution: space-separated column indices."""
    return "".join(" ".join(str(c) for c in sol.columns) + "\n" for sol in outcome.solutions)
