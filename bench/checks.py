"""Check each operation's printed report against an independent answer.

`check` returns a `Verdict`:

* solved   - a decided answer (analysis, applied extension or puncture,
             proved infeasibility, a chain that stopped where it says) that
             the oracle confirms.
* unsolved - an honest non-answer (solver budget stop, greedy miss), a
             verdict the oracle contradicts (an "infeasible" or "no feasible
             extension" claim for which a solution exists), or an error.
* wrong    - a printed fact the oracle contradicts: a weight distribution,
             code parameters, slack counts, an applied column that does not
             cover.  This marks the whole run incorrect.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

import oracle
from workloads import Instance, Op

# Above this many column choices a brute-force infeasibility check is not attempted.
BRUTE_FORCE_LIMIT = 2_000_000


@dataclass
class Verdict:
    status: str  # solved | unsolved | wrong
    reason: str = ""
    facts: dict = field(default_factory=dict)


class Mismatch(Exception):
    """A printed fact disagrees with the oracle."""


def digests(rc: int | None, out: str, err: str) -> dict[str, str]:
    """Digests of the report text, its weight lines and its solution lines."""

    def h(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    lines = out.splitlines()
    weight_lines = [ln for ln in lines if ln.startswith(_WEIGHT_PREFIXES)]
    solution_lines = [ln for ln in lines if ln.startswith(_SOLUTION_PREFIXES)]
    return {
        "report": h(f"exit {rc}\n{out}\x00{err}"),
        "weights": h("\n".join(weight_lines)),
        "solutions": h("\n".join(solution_lines)),
    }


_WEIGHT_PREFIXES = ("code:", "weight distribution:", "A_d:", "min-weight", "weight gap:", "extended code:",
                    "minimum-weight words:", "punctured code:", "final:")
_SOLUTION_PREFIXES = ("solver:", "solutions found:", "chosen columns:", "slacks:", "removed columns:", "step ",
                      "stop:", "no (", "no qualifying", "inconclusive:")


class Context:
    """Oracle results shared by the checks of one run, cached per generator matrix."""

    def __init__(self, instances: list[Instance]) -> None:
        self.instances = {inst.name: inst for inst in instances}
        self._enum: dict[tuple, oracle.Enumeration] = {}
        self._fields: dict[int, oracle.Field] = {}

    def field(self, q: int) -> oracle.Field:
        if q not in self._fields:
            self._fields[q] = oracle.Field(q)
        return self._fields[q]

    def enum(self, q: int, matrix) -> oracle.Enumeration:
        mat = np.array(matrix, dtype=np.uint8)
        key = (q, mat.shape, mat.tobytes())
        if key not in self._enum:
            self._enum[key] = oracle.Enumeration(self.field(q), mat)
        return self._enum[key]


def _params(p: tuple[int, int, int], q: int) -> str:
    return f"[{p[0]},{p[1]},{p[2]}]_{q}"


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _line(lines: list[str], prefix: str) -> str:
    for ln in lines:
        if ln.startswith(prefix):
            return ln
    raise Mismatch(f"missing line {prefix!r}")


def _default_s(gap: int | None, l: int) -> int:
    return l if gap is None else min(gap, l)


def check(op: Op, ctx: Context, rc: int | None, out: str, err: str, raised: str | None) -> Verdict:
    if raised is not None:
        return Verdict("unsolved", f"raised {raised}")
    if rc == 3:
        return Verdict("unsolved", f"input error: {err.strip()}")
    try:
        return _CHECKS[op.kind](op, ctx, ctx.instances[op.code], rc, out.splitlines())
    except Mismatch as exc:
        return Verdict("wrong", str(exc))


def _check_analyze(op: Op, ctx: Context, inst: Instance, rc, lines) -> Verdict:
    en = ctx.enum(inst.q, inst.rows)
    dist = " ".join(f"{w}:{c}" for w, c in sorted(en.distribution.items()))
    gap = en.gap
    want = [
        f"code: {_params(en.params(), inst.q)}",
        f"weight distribution: {dist}",
        f"A_d: {en.distribution[en.d]}",
        f"min-weight representatives: {len(en.min_words)}",
        f"weight gap: {gap if gap is not None else 'undefined (single nonzero weight)'}",
    ]
    got = [ln for ln in lines if not ln.startswith("degenerate:")]
    _expect(rc == 0 and got == want, f"analysis differs: {got} vs {want}")
    facts = {"q": inst.q, "k": inst.k, "n": inst.n, "t": len(en.min_words), "h": (inst.q**inst.k - 1) // (inst.q - 1)}
    return Verdict("solved", "distribution confirmed", facts)


def _check_extend(op: Op, ctx: Context, inst: Instance, rc, lines) -> Verdict:
    q, k, n = inst.q, inst.k, inst.n
    fld, en = ctx.field(q), ctx.enum(q, inst.rows)
    l = op.l
    s = op.s if op.s is not None else _default_s(en.gap, l)
    t, h = len(en.min_words), (q**k - 1) // (q - 1)
    pts = oracle.points(fld, inst.rows) if op.projective else set()
    facts = {"q": q, "k": k, "n": n, "t": t, "h": h, "l": l, "s": s, "strategy": op.strategy}
    _expect(lines[0] == f"code: {_params(en.params(), q)}", f"bad header {lines[0]!r}")
    _expect(_line(lines, "candidates:") == f"candidates: {h}  masked: {len(pts)}  usable: {h - len(pts)}",
            "candidate counts differ")
    _expect(_line(lines, "system:") == f"system: l={l} s={s} rows={t}", "system line differs")
    solver = re.match(r"solver: (\w+)  status: (\w+)  nodes: (\d+)", _line(lines, "solver:"))
    _expect(solver is not None and solver.group(1) == op.strategy, "solver line differs")
    status = solver.group(2)
    facts["nodes"] = int(solver.group(3))
    if rc == 0:
        _expect(status == "feasible", "exit 0 without a feasible status")
        m = re.match(r"chosen columns: ([\d ]+) \[([\d ]+)\]", _line(lines, "chosen columns:"))
        _expect(m is not None, "unparsable chosen columns")
        idx = [int(x) for x in m.group(1).split()]
        vecs = np.array([[int(ch) for ch in v] for v in m.group(2).split()], dtype=np.uint8)
        _expect(len(idx) == l and vecs.shape == (l, k), "wrong number of chosen columns")
        for i, v in zip(idx, vecs):
            _expect(v[np.nonzero(v)[0][0]] == 1 and oracle.canonical_index(q, v) == i, f"column {i} is not {v}")
            _expect(tuple(int(x) for x in v) not in pts, f"projective run chose a code point {v}")
        cover = oracle.nonzero_products(fld, en.min_words, vecs).sum(axis=1) - s
        _expect(int(cover.min()) >= 0, "chosen columns leave a row uncovered")
        zero = int((cover == 0).sum())
        _expect(_line(lines, "slacks:") == f"slacks: min={cover.min()} max={cover.max()} zero={zero}/{t}",
                "slack line differs")
        en2 = ctx.enum(q, np.concatenate([en.matrix, vecs.T], axis=1))
        _expect(_line(lines, "extended code:") == f"extended code: {_params(en2.params(), q)}",
                "extended code parameters differ")
        _expect(en.d + s <= en2.d <= en.d + l, f"distance {en2.d} outside [{en.d + s}, {en.d + l}]")
        count, predicted = en2.distribution[en2.d], zero * (q - 1)
        verdict = "agree" if count == predicted else "differ"
        _expect(_line(lines, "minimum-weight words:")
                == f"minimum-weight words: {count} recomputed, {predicted} slack-predicted -> {verdict}",
                "minimum-weight count line differs")
        return Verdict("solved", "extension re-verified", facts)
    if rc == 1:
        _expect(status == "infeasible" and lines[-1] == f"no (l={l}, s={s})-extension exists",
                "infeasible report differs")
        witness, how = _extension_witness(fld, en, l, s, pts)
        if how is None and witness is None:
            return Verdict("unsolved", "infeasible claim too large to check", facts)
        if witness is not None:
            return Verdict("unsolved", f"false infeasible: columns {witness} cover every row", facts)
        return Verdict("solved", f"infeasible confirmed by {how}", facts)
    if rc == 2:
        _expect(status == "budget_exhausted", "exit 2 without a budget status")
        if oracle.griesmer_length(q, k, en.d + s) > n + l and (en.gap is None or s <= en.gap):
            facts["truth"] = "infeasible by Griesmer"
        kind = "greedy miss" if op.strategy == "greedy" else "solver budget stop"
        return Verdict("unsolved", kind, facts)
    raise Mismatch(f"unexpected exit code {rc}")


def _extension_witness(fld, en, l, s, pts):
    """(columns, None) when an (l, s) cover exists, (None, how) when none does,
    (None, None) when the instance is too large to decide.

    Projective runs (pts nonempty) need witnesses of distinct points outside the code.
    """
    q, k, n = fld.q, en.k, en.n
    cols = oracle.canonical_columns(q, k)
    allowed = [j for j, v in enumerate(cols) if tuple(int(x) for x in v) not in pts]
    if l == s:
        # Every row needs all l picks, so each picked column must cover every row alone.
        full = oracle.nonzero_products(fld, en.min_words, cols).all(axis=0)
        hits = [j for j in allowed if full[j]]
        if pts:
            return (tuple(hits[:l]), None) if len(hits) >= l else (None, "the l = s reduction")
        return ((hits[0],) * l, None) if hits else (None, "the l = s reduction")
    if (en.gap is None or s <= en.gap) and oracle.griesmer_length(q, k, en.d + s) > n + l:
        return None, "the Griesmer bound"
    if len(allowed) ** l > BRUTE_FORCE_LIMIT:
        return None, None
    cover = oracle.nonzero_products(fld, en.min_words, cols)
    combo = oracle.cover_exists(cover, l, s, allowed, distinct=bool(pts))
    return (combo, None) if combo is not None else (None, "brute force")


def _check_puncture(op: Op, ctx: Context, inst: Instance, rc, lines) -> Verdict:
    q, k, n, l, s = inst.q, inst.k, inst.n, op.l, op.s
    fld, en = ctx.field(q), ctx.enum(q, inst.rows)
    zero = fld.combine(en.min_words, en.matrix) == 0
    facts = {"q": q, "k": k, "n": n, "t": len(en.min_words), "h": n, "l": l, "s": s, "strategy": "bnb"}
    _expect(lines[0] == f"code: {_params(en.params(), q)}", "bad header")
    _expect(_line(lines, "system:") == f"system: l={l} s={s} over {n} positions", "system line differs")
    if rc == 0:
        cols = [int(x) for x in _line(lines, "removed columns:").split(":")[1].split()]
        _expect(len(set(cols)) == l and all(0 <= c < n for c in cols), "bad removed columns")
        _expect(bool(np.all(zero[:, cols].sum(axis=1) >= s)), "removed columns miss a row")
        keep = [j for j in range(n) if j not in cols]
        en2 = ctx.enum(q, en.matrix[:, keep])
        _expect(_line(lines, "predicted distance:").startswith(f"predicted distance: >= {en.d - l + s} "),
                "predicted distance differs")
        _expect(_line(lines, "punctured code:") == f"punctured code: {_params(en2.params(), q)}",
                "punctured code parameters differ")
        return Verdict("solved", "puncture re-verified", facts)
    if rc == 1:
        witness = oracle.puncture_sets_exist(zero, l, s)
        if witness is not None:
            return Verdict("unsolved", f"false infeasible: positions {witness} qualify", facts)
        return Verdict("solved", "infeasible confirmed by brute force", facts)
    if rc == 2:
        return Verdict("unsolved", "solver budget stop", facts)
    raise Mismatch(f"unexpected exit code {rc}")


_STEP = re.compile(r"step \d+: extend \(l=(\d+), s=(\d+)\) on \[(\d+),(\d+),(\d+)\] -> "
                   r"\[(\d+),(\d+),(\d+)\] columns=\[([\d,]+)\] A_d=(\d+) nodes=\d+$")


def _check_chain(op: Op, ctx: Context, inst: Instance, rc, lines) -> Verdict:
    q, k = inst.q, inst.k
    fld = ctx.field(q)
    cols = oracle.canonical_columns(q, k)
    en = ctx.enum(q, inst.rows)
    _expect(lines[0] == f"chain report for a {_params(en.params(), q)} code", "bad header")
    added, steps = 0, [ln for ln in lines if ln.startswith("step ")]
    for ln in steps:
        m = _STEP.match(ln)
        _expect(m is not None, f"unparsable step {ln!r}")
        l, s = int(m.group(1)), int(m.group(2))
        before = tuple(int(m.group(i)) for i in (3, 4, 5))
        after = tuple(int(m.group(i)) for i in (6, 7, 8))
        chosen = [int(x) for x in m.group(9).split(",")]
        _expect(before == en.params(), f"step starts from {before}, oracle has {en.params()}")
        _expect(1 <= l <= op.max_l and len(chosen) == l and s == _default_s(en.gap, l), f"bad step shape {ln!r}")
        _expect(all(0 <= j < len(cols) for j in chosen), "column index out of range")
        if op.projective:
            pts = oracle.points(fld, en.matrix)
            _expect(all(tuple(int(x) for x in cols[j]) not in pts for j in chosen), "projective step reuses a point")
        en2 = ctx.enum(q, np.concatenate([en.matrix, cols[chosen].T], axis=1))
        _expect(after == en2.params() and int(m.group(10)) == en2.distribution[en2.d], f"step result differs {ln!r}")
        _expect(en.d + s <= en2.d <= en.d + l, f"step distance {en2.d} not in [{en.d + s}, {en.d + l}]")
        en, added = en2, added + l
    _expect(_line(lines, "final:") == f"final: {_params(en.params(), q)}", "final parameters differ")
    reason = _line(lines, "stop:")[len("stop: "):]
    facts = {"q": q, "k": k, "n": inst.n, "t": len(en.min_words), "h": len(cols), "l": op.max_l,
             "s": "min(gap, l)", "strategy": "bnb", "steps": len(steps)}
    if reason == f"total added length budget {op.max_total} reached":
        _expect(op.max_total is not None and added + 1 > op.max_total, "length budget not actually reached")
        return Verdict("solved", "length budget reached", facts)
    m = re.fullmatch(r"no feasible extension with l <= (\d+)", reason)
    if m:
        _expect(int(m.group(1)) == op.max_l, "stop names the wrong l")
        pts = oracle.points(fld, en.matrix) if op.projective else set()
        allowed = [j for j, v in enumerate(cols) if tuple(int(x) for x in v) not in pts]
        cover = oracle.nonzero_products(fld, en.min_words, cols)
        # Any s >= 1 raises the distance, and a cover by fewer columns pads to max_l.
        # A projective witness must also use distinct points.
        combo = oracle.cover_exists(cover, op.max_l, 1, allowed, distinct=op.projective)
        if combo is not None:
            return Verdict("unsolved", f"false stop: columns {combo} raise d to {en.d + 1}", facts)
        return Verdict("solved", "no extension confirmed by brute force", facts)
    if reason.startswith("solver budget exhausted"):
        return Verdict("unsolved", "solver budget stop", facts)
    raise Mismatch(f"unexpected stop reason {reason!r}")


_CHECKS = {"analyze": _check_analyze, "extend": _check_extend, "puncture": _check_puncture, "chain": _check_chain}
