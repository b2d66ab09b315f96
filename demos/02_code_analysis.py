"""Analyzing a linear code: weight distribution, minimum distance, weight gap.

The weight gap bounds what an extension can promise: giving every
minimum-weight word s more nonzero letters raises d by
`guaranteed_gain(s)` = min(s, gap).

The enumeration only walks canonical message representatives: every nonzero
codeword is a scalar multiple of one of them, so nonzero weight counts are
just multiplied by (q-1).  For the ternary Golay code that is 364 encodings
instead of 3^6 = 729.
"""

from lsext import LinearCode, gf

HAMMING = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]

hamming = LinearCode(gf(2), HAMMING)
print("Hamming code parameters [n,k,d]_q:", hamming.params(), "over GF(2)")
print("weight distribution:", hamming.weight_distribution())
print("codewords of minimum weight (A_d):", hamming.min_weight_count)
print("minimum-weight representatives (t):", hamming.num_min_weight_representatives)
print("weight gap (second smallest - d):", hamming.weight_gap_or_none())
print("guaranteed gain for s = 1, 2:", hamming.guaranteed_gain(1), hamming.guaranteed_gain(2))

# The perfect ternary Golay code, written as a cyclic code.
GOLAY = [
    [2, 0, 1, 2, 1, 1, 0, 0, 0, 0, 0],
    [0, 2, 0, 1, 2, 1, 1, 0, 0, 0, 0],
    [0, 0, 2, 0, 1, 2, 1, 1, 0, 0, 0],
    [0, 0, 0, 2, 0, 1, 2, 1, 1, 0, 0],
    [0, 0, 0, 0, 2, 0, 1, 2, 1, 1, 0],
    [0, 0, 0, 0, 0, 2, 0, 1, 2, 1, 1],
]

golay = LinearCode(gf(3), GOLAY)
print("\nternary Golay parameters:", golay.params())
print("weight distribution:", golay.weight_distribution())

# The minimum-weight representatives generate every minimum-weight codeword
# by scalar multiplication; they are the rows of the covering system that
# extension has to satisfy.
reps = golay.min_weight_representatives()
print("t =", len(reps), "representatives; first three:")
for r in reps[:3]:
    print(" ", tuple(int(x) for x in r), "-> codeword weight", golay.d)
