"""Independent brute-force oracles.

These deliberately avoid the library's vectorized paths: messages are
enumerated with itertools.product and encoded with scalar table lookups, and
covering feasibility is decided by plain combination enumeration.  They are
the ground truth the fast implementations are checked against.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product

import numpy as np


def oracle_weight_distribution(field, matrix) -> dict[int, int]:
    """Weight counts by enumerating all q^k messages, scalar arithmetic only."""
    mat = np.asarray(matrix)
    k, n = mat.shape
    add = field.add_table
    mul = field.mul_table
    counts: dict[int, int] = {}
    for msg in product(range(field.q), repeat=k):
        word = [0] * n
        for i, m in enumerate(msg):
            if m:
                for j in range(n):
                    word[j] = add[word[j], mul[m, mat[i, j]]]
        w = sum(1 for x in word if x)
        counts[w] = counts.get(w, 0) + 1
    return counts


def oracle_min_distance(field, matrix) -> int:
    dist = oracle_weight_distribution(field, matrix)
    return min(w for w in dist if w > 0)


def hyperplane_row_weight(q: int, k: int) -> int:
    """Points per hyperplane of PG(k-1,q): (q^(k-1)-1)/(q-1)."""
    return (q ** (k - 1) - 1) // (q - 1)


def oracle_cover_feasible(bits, l: int, s: int, distinct: bool = False):
    """(feasible, first multiset in lexicographic order or None)."""
    bits = np.asarray(bits)
    t, h = bits.shape
    combos = combinations(range(h), l) if distinct else combinations_with_replacement(range(h), l)
    for combo in combos:
        if all(sum(int(bits[r, j]) for j in combo) >= s for r in range(t)):
            return True, tuple(combo)
    return False, None


def oracle_search(
    bits,
    l: int,
    s: int,
    *,
    distinct: bool = False,
    masked=frozenset(),
    prune: bool = True,
    max_solutions: int = 10,
    node_limit: int = 1_000_000,
):
    """Reference walk of the solver's search: (status, nodes, exhausted, [(columns, slacks)]).

    One recursion per branch and one test per column in the last pick, with
    the node rules of `lsext.solver`: with `prune` (bnb) every branch taken
    and every column a last pick tests is a node, and the branch-and-bound
    cuts apply; without it (exhaustive) the nodes are the leaves tested, up
    to and including the one that stops the search.  A last pick tests only
    the columns the budget still pays for, and a stop at `max_solutions`
    charges bnb the whole of that pick.
    """
    bits = np.asarray(bits)
    t, h = bits.shape
    allowed = [j for j in range(h) if j not in masked]
    cols = [sum(1 << i for i in range(t) if bits[i, j]) for j in allowed]
    count = len(cols)
    reach = [0] * (count + 1)
    for pos in range(count - 1, -1, -1):
        reach[pos] = reach[pos + 1] | cols[pos]
    step = 1 if distinct else 0
    found: list[list[int]] = []
    nodes = 0

    def cut(start, left, levels):
        deficient = levels[0]
        if not deficient:
            return distinct and count - start < left
        if left < s and levels[left]:
            return True
        if deficient & ~reach[start]:
            return True
        best = max((col & deficient).bit_count() for col in cols[start:])
        return -(-sum(level.bit_count() for level in levels) // best) > left

    def rec(start, chosen, levels):
        nonlocal nodes
        left = l - len(chosen)
        if left == 1:
            total = count - start
            take = min(total, node_limit - nodes)
            if not any(levels[1:]):
                for pos in range(start, start + take):
                    if not levels[0] & ~cols[pos]:
                        found.append(chosen + [pos])
                        if len(found) >= max_solutions:
                            nodes += take if prune else pos - start + 1
                            return True
            nodes += take
            return take < total
        if prune and cut(start, left, levels):
            return False
        for pos in range(start, count):
            if prune:
                if nodes >= node_limit:
                    return True
                nodes += 1
            after = [upper | (level & ~cols[pos]) for level, upper in zip(levels, levels[1:] + [0])]
            if rec(pos + step, chosen + [pos], after):
                return True
        return False

    stopped = rec(0, [], [(1 << t) - 1] * s)
    solutions = []
    for positions in found:
        columns = tuple(allowed[p] for p in positions)
        slacks = tuple(sum(int(bits[i, j]) for j in columns) - s for i in range(t))
        solutions.append((columns, slacks))
    status = "feasible" if solutions else "budget_exhausted" if stopped else "infeasible"
    return status, nodes, not stopped, solutions


def oracle_greedy(bits, l: int, s: int, *, distinct: bool = False, masked=frozenset()):
    """Reference greedy: (status, nodes, columns or None).

    Each of the l picks takes the column covering the most rows that still
    need a cover, ties to the lowest column.  Masked columns are never
    picked, nor, with `distinct`, columns already chosen; each pick charges
    the columns it could take.  With no column left to take, or rows still
    short after l picks, greedy has missed: `budget_exhausted`, never
    `infeasible`.
    """
    columns = np.asarray(bits).T.tolist()
    need = [s] * np.shape(bits)[0]
    chosen: list[int] = []
    nodes = 0
    for _ in range(l):
        candidates = [j for j in range(len(columns)) if j not in masked and not (distinct and j in chosen)]
        if not candidates:
            return "budget_exhausted", nodes, None
        nodes += len(candidates)
        best, best_gain = None, -1
        for j in candidates:
            gain = sum(1 for covers, left in zip(columns[j], need) if covers and left > 0)
            if gain > best_gain:
                best, best_gain = j, gain
        chosen.append(best)
        need = [left - covers for covers, left in zip(columns[best], need)]
    if any(left > 0 for left in need):
        return "budget_exhausted", nodes, None
    return "feasible", nodes, tuple(sorted(chosen))
