"""The parity-bit construction, rediscovered by covering search.

Appending a column c to a generator matrix appends the letter <v, c> to the
codeword of every message v.  The minimum distance rises iff each
minimum-weight codeword receives at least one nonzero letter.  That is a
covering condition on a 0/1 matrix: rows are minimum-weight representatives,
columns are the candidate extension columns, and an entry is 1 where the
inner product is nonzero.

For the [7,4,3] Hamming code the search proves that exactly one of the 15
candidate columns works: the classic parity bit, giving [8,4,4].
"""

from lsext import (
    LinearCode,
    SolverConfig,
    apply_extension,
    cover_system,
    coverage_matrix,
    gf,
    solve_exhaustive,
    verify_extension,
)

HAMMING = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]

code = LinearCode(gf(2), HAMMING)
print("start:", code.params(), "distribution", code.weight_distribution())

cov = coverage_matrix(code)
print(f"\ncoverage matrix: {cov.t} rows (min-weight words) x {cov.h} candidate columns")
for row in cov.bits:
    print("  ", "".join(str(int(b)) for b in row))

# Ask for one column giving every row at least one nonzero letter.
system = cover_system(cov, l=1, s=1)
outcome = solve_exhaustive(system, SolverConfig(strategy="exhaustive", max_solutions=20))
print("\nfeasible columns:", [s.columns for s in outcome.solutions],
      "(search complete:", outcome.exhausted, ")")

# A candidate is named by its index; apply_extension decodes it over the code's (q, k).
sol = outcome.solutions[0]
extended = apply_extension(code, sol.columns)
print("the unique winner is column", tuple(int(x) for x in extended.matrix[:, code.n]),
      "- the parity check on the first three message bits")

# The gap of the Hamming code is 1, so s = 1 guarantees d + 1.
bound = verify_extension(code, extended, s=1)
print("\nextended:", extended.params(), "verified d >=", bound,
      "distribution", extended.weight_distribution())

# Slacks say exactly where each former minimum-weight word lands: d + s + y.
y = sol.slacks
print("slacks:", list(y), "-> every weight-3 word becomes weight", code.d + 1)
# Each zero-slack row lands on the new minimum weight with its q-1 multiples.
print("recomputed A_4 =", extended.min_weight_count,
      "(slack-based prediction", y.count(0) * (code.q - 1),
      "counts only former minimum-weight words; old weight-4 words also land on 4)")
