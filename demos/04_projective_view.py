"""The same search viewed inside the projective geometry PG(k-1, q).

A point or hyperplane of PG(k-1, q) is named by its canonical index, the row
of `canonical_representatives` that spans it (for a hyperplane, its normal).
Generator columns of a non-degenerate code, normalized, form a multiset of
points: one index per column, a repeated index being a multiplicity.  A
codeword's weight is n minus the number of points (with multiplicity) on the
hyperplane orthogonal to its message.  The coverage matrix used for
extension is exactly the complement of the incidence-matrix rows belonging
to the minimum-weight hyperplanes.
"""

import numpy as np

from lsext import (
    LinearCode,
    canonical_representatives,
    code_points,
    cover_system,
    coverage_matrix,
    gf,
    incidence_matrix,
    is_good_extension,
    geometric_extension_criterion,
    projective_filter,
    solve_exhaustive,
)

# PG(2,2), the Fano plane: 7 points, 7 lines, 3 points per line.
fano = incidence_matrix(gf(2), 3)
print("Fano plane incidence (rows = lines, cols = points):")
for row in fano:
    print("  ", "".join(str(int(b)) for b in row))
print("points per line:", fano.sum(axis=1).tolist())

HAMMING = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]
code = LinearCode(gf(2), HAMMING)

# The Hamming code uses 7 of the 15 points of PG(3,2), each once.
points = code_points(code)
reps = canonical_representatives(code.field, code.k)
print("\nHamming code points, column by column (canonical index: vector):")
for j, pt in enumerate(points):
    print(f"   column {j}: point {pt}: {reps[pt].tolist()}")
assert len(set(points.tolist())) == code.n

# Coverage rows are complements of incidence rows of PG(3,2).
cov = coverage_matrix(code)
inc = incidence_matrix(code.field, code.k)
index = {tuple(map(int, p)): i for i, p in enumerate(reps)}
row0 = index[tuple(map(int, cov.representatives[0]))]
assert np.array_equal(cov.bits[0], 1 - inc[row0])
print("\ncoverage row 0 == complement of incidence row", row0, "-> verified")

# The geometric extension criterion: a point extends the code iff every
# hyperplane through it misses enough of the code's points.
system = cover_system(cov, 1, 1)
for j in (13, 0):
    geo = geometric_extension_criterion(code, reps[[j]])
    comb = is_good_extension(system, [j])
    print(f"column {j}: geometric criterion {geo}, coverage criterion {comb}")

# Projective mode masks the 7 points already used, leaving 8 candidates; the
# parity point is still among them, so the extension survives the filter.
filtered = projective_filter(system)
outcome = solve_exhaustive(filtered)
print("\nprojective mode: masked", len(filtered.masked), "columns,",
      "feasible:", [s.columns for s in outcome.solutions])
