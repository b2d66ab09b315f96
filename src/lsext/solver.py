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

All strategies search `system.bits` in its stored uint8 form, with no
widened copy.  Every solution they return is re-validated by building it
through `extension.solution_for`, which recomputes the coverage and raises
InfeasibleSolutionError on a short row.

All strategies are deterministic: same system, same config, same outcome,
including solution order.  `budget_exhausted` is never conflated with
`infeasible` - a missed extension must not masquerade as a proof that none
exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extension import CoverSystem, ExtensionSolution, solution_for

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


def solve_exhaustive(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Enumerate candidate multisets in lexicographic order, no pruning."""
    config = config or SolverConfig(strategy="exhaustive")
    allowed = system.allowed_columns()
    cover = system.bits
    solutions: list[ExtensionSolution] = []
    nodes = 0
    step = 1 if system.distinct else 0

    def rec(start: int, chosen: list[int], coverage: np.ndarray) -> bool:
        # Returns True to stop the whole search.
        nonlocal nodes
        if len(chosen) == system.l:
            if nodes >= config.node_limit:
                return True
            nodes += 1
            if np.all(coverage >= system.s):
                solutions.append(solution_for(system, chosen))
                if len(solutions) >= config.max_solutions:
                    return True
            return False
        for pos in range(start, len(allowed)):
            j = allowed[pos]
            chosen.append(j)
            if rec(pos + step, chosen, coverage + cover[:, j]):
                chosen.pop()
                return True
            chosen.pop()
        return False

    stopped = rec(0, [], np.zeros(system.num_rows, dtype=np.int64))
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
    allowed = system.allowed_columns()
    cover = system.bits[:, allowed]
    solutions: list[ExtensionSolution] = []
    nodes = 0
    step = 1 if system.distinct else 0

    def rec(start: int, chosen: list[int], deficit: np.ndarray) -> bool:
        nonlocal nodes
        picks_left = system.l - len(chosen)
        if picks_left == 0:
            if not np.any(deficit > 0):
                solutions.append(solution_for(system, [allowed[p] for p in chosen]))
                if len(solutions) >= config.max_solutions:
                    return True
            return False
        if picks_left == 1:
            # Vectorized last pick: any remaining column meeting every deficit.
            total = len(allowed) - start
            take = max(0, min(total, config.node_limit - nodes))
            if take:
                ok = np.all(cover[:, start : start + take] >= deficit[:, None], axis=0)
                nodes += take
                for off in np.nonzero(ok)[0]:
                    positions = chosen + [start + int(off)]
                    solutions.append(solution_for(system, [allowed[p] for p in positions]))
                    if len(solutions) >= config.max_solutions:
                        return True
            if take < total:
                return True
            return False
        open_rows = deficit > 0
        if np.any(open_rows):
            if int(deficit.max()) > picks_left:
                return False
            remaining = cover[open_rows, start:]
            # Some deficient row unreachable by every remaining column?  This
            # also cuts a node with no remaining column, so best_gain >= 1 below.
            if np.any(remaining.sum(axis=1) == 0):
                return False
            best_gain = int(remaining.sum(axis=0).max())
            need = (int(deficit[open_rows].sum()) + best_gain - 1) // best_gain
            if need > picks_left:
                return False
        elif system.distinct and len(allowed) - start < picks_left:
            return False
        for pos in range(start, len(allowed)):
            if nodes >= config.node_limit:
                return True
            nodes += 1
            chosen.append(pos)
            if rec(pos + step, chosen, deficit - cover[:, pos]):
                chosen.pop()
                return True
            chosen.pop()
        return False

    start_deficit = np.full(system.num_rows, system.s, dtype=np.int64)
    stopped = rec(0, [], start_deficit)
    return _outcome(solutions, nodes, exhausted=not stopped)


def solve_greedy(system: CoverSystem, config: SolverConfig | None = None) -> SolveOutcome:
    """Pick, l times, the column covering the most deficient rows (ties: lowest index)."""
    config = config or SolverConfig(strategy="greedy")
    allowed = system.allowed_columns()
    if not allowed:
        return _outcome([], 0, exhausted=False)
    cover = system.bits
    deficit = np.full(system.num_rows, system.s, dtype=np.int64)
    chosen: list[int] = []
    nodes = 0
    pool = list(allowed)
    for _ in range(system.l):
        nodes += len(pool)
        gains = cover[deficit > 0][:, pool].sum(axis=0)
        best_j = pool[int(np.argmax(gains))]  # the first maximum: ties go to the lowest index
        chosen.append(best_j)
        if system.distinct:
            pool.remove(best_j)
            if not pool and len(chosen) < system.l:
                return _outcome([], nodes, exhausted=False)
        deficit = np.maximum(deficit - cover[:, best_j], 0)
    if np.any(deficit > 0):
        return _outcome([], nodes, exhausted=False)
    return _outcome([solution_for(system, chosen)], nodes, exhausted=False)


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
    return solve(CoverSystem(bits=bits, l=l, s=s, distinct=distinct), config)


def format_solutions(outcome: SolveOutcome) -> str:
    """One line per solution: space-separated column indices."""
    return "".join(" ".join(str(c) for c in sol.columns) + "\n" for sol in outcome.solutions)
