"""Benchmark instances and the operations each workload runs on them.

Every operation is one `lsext` command line, run in-process through
`lsext.cli.main` on a code file written during set-up.  Instances come from
fixed constructions or from `numpy.random.default_rng(seed)`; the program
only ever sees the generated files.

Why these workloads:

* enumerate - seeded random codes, one per arithmetic path (binary, prime
  q = 3 and 5, table arithmetic q = 4, 8 and 9), each with about 10^5 to
  10^6 canonical representatives.  `analyze` plus an l = 1 `extend` spend
  almost all their time enumerating q^k messages and building a short, very
  wide coverage matrix; the solver only makes one vectorised last pick.
* search - fixed classical codes with k <= 16, where enumeration takes
  milliseconds and the covering search dominates: complete proofs, a proof
  pruned at the root (RM(2,5), l = s = 2), a budget stop whose true answer is
  infeasible by Griesmer (extended Golay, l = 2, s = 1), the exhaustive and
  greedy strategies, and puncture searches over distinct positions.  It also
  runs a projective extension and short chains, plain and --projective, on
  small fixed codes over every supported kind of field plus the [13,4,6]_2
  code whose chain stops falsely, so the chain, projective-filter and
  geometry paths are measured too.  Chains get no workload of their own:
  their many small rounds are bound by interpreter speed, which on a shared
  2-vCPU machine drifted by 15-25 % between runs, above any usable bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracle

WORKLOADS = ("enumerate", "search")

# (q, k, n): one seeded random code per arithmetic path.
ENUMERATE_CODES = [(2, 20, 40), (2, 18, 40), (3, 12, 40), (5, 8, 40), (4, 9, 30), (8, 7, 16), (9, 7, 12)]

# (q, k, n) of the small chain codes of the search workload, two per field, drawn
# once from CHAIN_SEED so that they do not depend on --seed; every chain runs
# plain and --projective.
CHAIN_CODES = [(2, 5, 10), (3, 4, 8), (4, 3, 6), (5, 3, 6), (7, 3, 6), (8, 3, 6), (9, 3, 6)]
CHAIN_CODES_PER_FIELD = 2
CHAIN_SEED = 2007
CHAIN_MAX_L = 3
CHAIN_MAX_TOTAL = 12

# The binary [13,4,6] code whose `chain --max-l 2` stops although an (l=2, s=1) extension exists.
CODE_13_4_6 = ["1001100101001", "0110001101001", "1101011110010", "1101010000101"]


@dataclass(frozen=True)
class Instance:
    name: str
    q: int
    rows: tuple[tuple[int, ...], ...]
    seeded: bool

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def text(self) -> str:
        body = "\n".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"{self.q} {self.k} {self.n}\n{body}\n"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the parameters its check needs."""

    kind: str  # analyze | extend | puncture | chain
    code: str  # instance name
    l: int | None = None
    s: int | None = None
    strategy: str = "bnb"
    projective: bool = False
    max_l: int | None = None
    max_total: int | None = None

    @property
    def id(self) -> str:
        parts = [self.kind, self.code]
        if self.l is not None:
            parts.append(f"l{self.l}")
        if self.s is not None:
            parts.append(f"s{self.s}")
        if self.kind == "extend" and self.strategy != "bnb":
            parts.append(self.strategy)
        if self.max_l is not None:
            parts.append(f"maxl{self.max_l}")
        if self.max_total is not None:
            parts.append(f"total{self.max_total}")
        if self.projective:
            parts.append("proj")
        return ":".join(parts)

    def argv(self, path: str) -> list[str]:
        args = [self.kind, path]
        if self.kind in ("extend", "puncture"):
            args += ["--l", str(self.l)]
            if self.s is not None:
                args += ["--s", str(self.s)]
        if self.kind == "extend":
            args += ["--strategy", self.strategy]
        if self.kind == "chain":
            args += ["--max-l", str(self.max_l)]
            if self.max_total is not None:
                args += ["--max-total", str(self.max_total)]
        if self.projective:
            args.append("--projective")
        return args


# -- fixed constructions ---------------------------------------------------------------


def _cyclic(poly: list[int], n: int) -> list[list[int]]:
    return [[0] * i + poly + [0] * (n - len(poly) - i) for i in range(n - len(poly) + 1)]


def golay23() -> list[list[int]]:
    # g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11
    return _cyclic([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1], 23)


def golay24() -> list[list[int]]:
    return [row + [sum(row) % 2] for row in golay23()]


def ternary_golay() -> list[list[int]]:
    return _cyclic([2, 0, 1, 2, 1, 1], 11)


def quadratic_residue_31() -> list[list[int]]:
    """Even-weight subcode [31,15,8] of the binary quadratic-residue code of length 31.

    Its generator polynomial is (x+1) * prod_{r square mod 31} (x - a^r) with
    a primitive in GF(32) = GF(2)[x]/(x^5 + x^2 + 1).
    """
    exp, v = [], 1
    for _ in range(31):
        exp.append(v)
        v <<= 1
        if v & 32:
            v ^= 0b100101
    log = {x: i for i, x in enumerate(exp)}

    def mul(a: int, b: int) -> int:
        return 0 if a == 0 or b == 0 else exp[(log[a] + log[b]) % 31]

    poly = [1]
    for r in sorted({i * i % 31 for i in range(1, 31)}):
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] ^= c
            nxt[i] ^= mul(c, exp[r])
        poly = nxt
    poly = [a ^ b for a, b in zip(poly + [0], [0] + poly)]  # times (x + 1)
    return _cyclic(poly, 31)


def reed_muller_2_5() -> list[list[int]]:
    pts = [[(x >> i) & 1 for i in range(5)] for x in range(32)]
    rows = [[1] * 32] + [[p[i] for p in pts] for i in range(5)]
    rows += [[p[i] * p[j] for p in pts] for i in range(5) for j in range(i + 1, 5)]
    return rows


# Weight distributions from the literature; set-up checks the constructions against them.
KNOWN_DISTRIBUTIONS = {
    "golay23": {0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1},
    "golay24": {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1},
    "tgolay11": {0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24},
    "qr31": {0: 1, 8: 465, 12: 8680, 16: 18259, 20: 5208, 24: 155},
    "rm2_5": {0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1},
}

_FIXED = {
    "golay23": (2, golay23),
    "golay24": (2, golay24),
    "tgolay11": (3, ternary_golay),
    "qr31": (2, quadratic_residue_31),
    "rm2_5": (2, reed_muller_2_5),
    "c13_4_6": (2, lambda: [[int(ch) for ch in row] for row in CODE_13_4_6]),
}


def _fixed(name: str) -> Instance:
    q, build = _FIXED[name]
    return Instance(name, q, tuple(tuple(r) for r in build()), seeded=False)


def _random_code(rng, q: int, k: int, n: int, name: str, nondegenerate: bool, seeded: bool = True) -> Instance:
    """Draw k x n matrices until one has full rank (and, if asked, no zero column)."""
    fld = oracle.Field(q)
    while True:
        mat = rng.integers(0, q, size=(k, n))
        if nondegenerate and not mat.any(axis=0).all():
            continue
        if oracle.rank(fld, mat) == k:
            return Instance(name, q, tuple(tuple(int(v) for v in r) for r in mat), seeded=seeded)


# -- workloads -----------------------------------------------------------------------------


def build(workload: str, seed: int) -> tuple[list[Instance], list[Op]]:
    """Instances and operations of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "enumerate":
        insts = [_random_code(rng, q, k, n, f"rand_q{q}_k{k}_n{n}", False) for q, k, n in ENUMERATE_CODES]
        ops = [Op(kind, inst.name, l=1 if kind == "extend" else None) for inst in insts for kind in ("analyze", "extend")]
        return insts, ops
    if workload == "search":
        insts = [_fixed(name) for name in ("golay23", "golay24", "tgolay11", "qr31", "rm2_5")]
        ops = [Op("extend", inst.name, l=l) for inst in insts for l in (1, 2, 3)]
        ops.append(Op("extend", "golay24", l=2, s=1))
        for code, l in [("golay23", 1), ("golay24", 1), ("tgolay11", 2), ("golay23", 2)]:
            ops.append(Op("extend", code, l=l, strategy="exhaustive"))
        for code, l in [("golay23", 1), ("golay24", 1), ("tgolay11", 2), ("golay23", 2)]:
            ops.append(Op("extend", code, l=l, strategy="greedy"))
        for l, s in [(2, 1), (5, 1), (6, 1), (6, 2), (10, 4)]:
            ops.append(Op("puncture", "golay24", l=l, s=s))
        ops.append(Op("extend", "golay23", l=1, projective=True))
        chain_rng = np.random.default_rng(CHAIN_SEED)
        for q, k, n in CHAIN_CODES:
            for i in range(CHAIN_CODES_PER_FIELD):
                inst = _random_code(chain_rng, q, k, n, f"small_q{q}_k{k}_n{n}_{i}", True, seeded=False)
                insts.append(inst)
                for proj in (False, True):
                    ops.append(Op("chain", inst.name, max_l=CHAIN_MAX_L, max_total=CHAIN_MAX_TOTAL, projective=proj))
        insts.append(_fixed("c13_4_6"))
        ops.append(Op("chain", "c13_4_6", max_l=2))
        return insts, ops
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
