"""Chaining extensions to climb distances, and puncturing as the inverse.

A chain step tries l = 1, 2, ... columns, asking each time for the largest
sound distance increment s = min(weight gap, l), and applies the first
feasible extension after re-verifying it from scratch.  Special puncturing
goes the other way: remove l columns where every minimum-weight codeword has
at least s zeros, trading l length for at most l - s distance.
"""

from lsext import (
    ChainPolicy,
    LinearCode,
    gf,
    chain_search,
    extend_once,
    format_matrix,
    coverage_matrix,
    remove_columns,
    serialize_code,
    special_puncture,
)

GOLAY = [
    [2, 0, 1, 2, 1, 1, 0, 0, 0, 0, 0],
    [0, 2, 0, 1, 2, 1, 1, 0, 0, 0, 0],
    [0, 0, 2, 0, 1, 2, 1, 1, 0, 0, 0],
    [0, 0, 0, 2, 0, 1, 2, 1, 1, 0, 0],
    [0, 0, 0, 0, 2, 0, 1, 2, 1, 1, 0],
    [0, 0, 0, 0, 0, 2, 0, 1, 2, 1, 1],
]

golay = LinearCode(gf(3), GOLAY)
report = chain_search(golay, ChainPolicy(max_l=2))
print(report.to_text())

# Every step is re-verified: the printed parameters come from a fresh weight
# distribution of the extended code, never from the covering prediction.

# Round trip: extend once, then remove exactly the appended columns.
# The step's record holds its search (the chosen columns are its best
# solution) and the code it built, set only when the step was applied.
record = extend_once(golay, 1)
extended = record.result
vector = "".join(str(v) for v in extended.matrix[:, golay.n])
print("extended:", extended.params(), "by appending column index", record.search.best.columns[0],
      "=", vector)
back = remove_columns(extended, range(golay.n, extended.n))
print("punctured back:", back.params(),
      "- distribution restored:", back.weight_distribution() == golay.weight_distribution())

# Search-mode puncturing proves its own infeasibility when no qualifying
# column exists: the extended Hamming [8,4,4] has no column where every
# weight-4 word is zero (a [7,4,4] code cannot exist).
HAMMING = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]
ham_ext = extend_once(LinearCode(gf(2), HAMMING), 1).result
rec = special_puncture(ham_ext, 1, 1)
print("\nsearch-mode puncture of", ham_ext.params(), "->", rec.search.status)

# The covering matrix and code files have stable text formats for hand
# editing and for feeding external solvers.
print("\ncode file:")
print(serialize_code(back), end="")
print("\ncoverage matrix dump (first 3 lines):")
print("\n".join("".join(format_matrix(coverage_matrix(back).bits)).splitlines()[:3]))
