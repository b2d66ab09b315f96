"""Spans around lsext's public functions, and the per-layer metrics derived from them.

`install` replaces each target function with a timing wrapper at every
module attribute its callers look up (for example `lsext.pipeline.solve`
and `lsext.code.canonical_representatives`), and the targeted methods on
their classes.  The program's files are not edited.  A target that no longer
exists is reported as missing; the metrics that depend on it are left out.

Each span records name, start, end, parent span, operation id, counts read
from the call's arguments and result, and the tracemalloc peak reached
inside it above the level at entry (numpy registers its buffers with
tracemalloc, so array memory is included).  Spans are kept in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYERS = ("field", "code", "extension", "solver", "geometry", "pipeline", "cli")
STRATEGIES = ("bnb", "exhaustive", "greedy")
MB = 1024 * 1024


def _reps(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _vecmat(args, kwargs, result):
    field, mat = args[0], args[2] if len(args) > 2 else kwargs["mat"]
    m, n = result.shape
    k = len(mat)
    # Temporaries the implementation allocates, computed from shapes: int64
    # copies, product and remainder on prime fields; one uint8 product and one
    # uint8 sum per generator row on table-arithmetic fields.
    computed = 8 * (m * k + k * n + 2 * m * n) if field.e == 1 else 2 * k * m * n
    return {"cells": m * n, "bytes": computed}


def _cover(args, kwargs, result):
    t, h = result.bits.shape
    return {"cells": t * h}


def _masked(args, kwargs, result):
    return {"masked": len(result.masked)}


def _solve(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return {"strategy": getattr(config, "strategy", "bnb"), "nodes": result.nodes_explored, "status": result.status}


def _chain(args, kwargs, result):
    return {"steps": len(result.steps)}


def _analysed(args, kwargs) -> bool:
    # _analyze returns at once when the distribution is cached; only real work gets a span.
    return getattr(args[0], "_distribution", None) is not None


@dataclass(frozen=True)
class Target:
    name: str  # span name, "<layer>.<function>"
    module: str
    attr: str  # "function" or "Class.method"
    count: Callable | None = None
    skip: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


TARGETS = (
    Target("field.canonical_representatives", "lsext.field", "canonical_representatives", _reps),
    Target("field.vecmat", "lsext.field", "GF.vecmat", _vecmat),
    Target("field.inner", "lsext.field", "GF.inner"),
    Target("code.analyze", "lsext.code", "LinearCode._analyze", skip=_analysed),
    Target("extension.coverage_matrix", "lsext.extension", "coverage_matrix", _cover),
    Target("extension.projective_filter", "lsext.extension", "projective_filter", _masked),
    Target("extension.apply_extension", "lsext.extension", "apply_extension"),
    Target("extension.verify_extension", "lsext.extension", "verify_extension"),
    Target("geometry.code_points", "lsext.geometry", "code_points"),
    Target("solver.solve", "lsext.solver", "solve", _solve),
    Target("pipeline.parse_code", "lsext.pipeline", "parse_code"),
    Target("pipeline.extend_once", "lsext.pipeline", "extend_once"),
    Target("pipeline.chain_search", "lsext.pipeline", "chain_search", _chain),
    Target("pipeline.special_puncture", "lsext.pipeline", "special_puncture"),
    Target("cli.main", "lsext.cli", "main"),
)


class Tracer:
    """In-memory span recorder; `memory=True` also tracks tracemalloc peaks per span."""

    def __init__(self, memory: bool = True) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, counts, alloc_bytes]
        self.op: str | None = None
        self.memory = memory
        self._stack: list[int] = []
        self._base: list[int] = []
        self._top: list[int] = []

    def enter(self, name: str) -> int:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._top:
                self._top[-1] = max(self._top[-1], peak)
            tracemalloc.reset_peak()
            self._base.append(cur)
            self._top.append(cur)
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.op, None, 0])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            top = max(self._top.pop(), peak)
            self.spans[idx][6] = top - self._base.pop()
            if self._top:
                self._top[-1] = max(self._top[-1], top)
            tracemalloc.reset_peak()


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.skip is not None and target.skip(args, kwargs):
            return fn(*args, **kwargs)
        idx = tracer.enter(target.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if target.count is not None:
            tracer.spans[idx][5] = target.count(args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> tuple[Callable[[], None], list[str]]:
    """Wrap every target; returns (undo, names of targets that could not be found)."""
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for target in TARGETS:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            missing.append(target.name)
            continue
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            missing.append(target.name)
            continue
        wrapper = _wrap(tracer, target, original)
        if owner_name:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "lsext" or name.startswith("lsext."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore, missing


# -- metrics -------------------------------------------------------------------------------


def layer_metrics(spans: list[list], mem_spans: list[list], missing: list[str], walls: dict[str, float]) -> dict:
    """Per-layer metrics as {name: (value, unit)}; metrics of missing targets are omitted.

    Times and counts come from `spans`, recorded without tracemalloc; the
    allocation peaks come from `mem_spans`, a second pass with tracemalloc on.
    `walls` holds the untraced, traced and memory-traced pass times.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    selft = [d - c for d, c in zip(dur, child)]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name, times=dur):
        return sum(times[i] for i in named(name))

    def counted(name, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in named(name))

    def peak_mb(pred):
        return max((s[6] for s in mem_spans if pred(s[0])), default=0) / MB

    def ratio(a, b):
        return a / b if b else 0.0

    gone = set(missing)
    out: dict[str, tuple[float, str]] = {}

    def put(needs, name, value, unit):
        if not gone.intersection(needs):
            out[name] = (value, unit)

    reps, vm, inner = "field.canonical_representatives", "field.vecmat", "field.inner"
    put([reps], "field.reps_s", total(reps), "s")
    put([reps], "field.reps_rows", counted(reps, "rows"), "count")
    products = {vm, inner}
    outer = [i for i, s in enumerate(spans) if s[0] in products and (s[3] is None or spans[s[3]][0] not in products)]
    put([vm, inner], "field.vecmat_s", sum(dur[i] for i in outer), "s")
    put([vm], "field.vecmat_cells", counted(vm, "cells"), "count")
    put([vm], "field.vecmat_bytes_computed", counted(vm, "bytes"), "bytes")

    an = "code.analyze"
    analysed_rows = sum((spans[i][5] or {}).get("rows", 0) for i in named(reps)
                        if spans[i][3] is not None and spans[spans[i][3]][0] == an)
    put([an], "code.analyze_s", total(an, selft), "s")
    put([an], "code.analyses", len(named(an)), "count")
    put([an, reps], "code.reps_per_s", ratio(analysed_rows, total(an)), "1/s")
    put([an], "code.alloc_peak_mb", peak_mb(lambda n: n == an), "MB")

    cov, proj = "extension.coverage_matrix", "extension.projective_filter"
    put([cov], "extension.cover_s", total(cov), "s")
    put([cov], "extension.cover_calls", len(named(cov)), "count")
    put([cov], "extension.cover_cells", counted(cov, "cells"), "count")
    put([proj], "extension.projective_s", total(proj), "s")
    put([proj], "extension.masked", counted(proj, "masked"), "count")
    put(["geometry.code_points"], "geometry.code_points_s", total("geometry.code_points"), "s")
    put(["extension.apply_extension"], "extension.apply_s", total("extension.apply_extension"), "s")
    put(["extension.verify_extension"], "extension.verify_s", total("extension.verify_extension"), "s")
    put([cov], "extension.alloc_peak_mb", peak_mb(lambda n: n.startswith("extension.")), "MB")

    sv = "solver.solve"
    calls = [spans[i][5] or {} for i in named(sv)]
    for strategy in STRATEGIES:
        idx = [i for i in named(sv) if (spans[i][5] or {}).get("strategy") == strategy]
        secs = sum(dur[i] for i in idx)
        nodes = sum(spans[i][5]["nodes"] for i in idx)
        put([sv], f"solver.{strategy}.s", secs, "s")
        put([sv], f"solver.{strategy}.nodes", nodes, "count")
        put([sv], f"solver.{strategy}.nodes_per_s", ratio(nodes, secs), "1/s")
    decided = sum(1 for c in calls if c.get("status") in ("feasible", "infeasible"))
    put([sv], "solver.calls", len(calls), "count")
    put([sv], "solver.decided", decided, "count")
    put([sv], "solver.inconclusive", sum(1 for c in calls if c.get("status") == "budget_exhausted"), "count")
    put([sv], "solver.decided_ratio", ratio(decided, len(calls)), "ratio")

    ext, ch = "pipeline.extend_once", "pipeline.chain_search"
    put(["pipeline.parse_code"], "pipeline.parse_s", total("pipeline.parse_code"), "s")
    put([ext], "pipeline.extend_s", total(ext), "s")
    put([ext], "pipeline.extend_calls", len(named(ext)), "count")
    put([ch], "pipeline.chain_s", total(ch), "s")
    put([ch], "pipeline.chain_steps", counted(ch, "steps"), "count")
    put([ch, ext], "pipeline.step_yield", ratio(counted(ch, "steps"), len(named(ext))), "ratio")
    put(["pipeline.special_puncture"], "pipeline.puncture_s", total("pipeline.special_puncture"), "s")
    put(["cli.main"], "cli.self_s", total("cli.main", selft), "s")
    put(["cli.main"], "cli.calls", len(named("cli.main")), "count")

    for layer in LAYERS:
        names = [t.name for t in TARGETS if t.layer == layer]
        if layer != "cli":
            put(names, f"{layer}.self_s", sum(selft[i] for i, s in enumerate(spans) if s[0] in names), "s")
        if layer not in ("code", "extension"):
            put(names, f"{layer}.alloc_peak_mb", peak_mb(lambda n, names=names: n in names), "MB")

    out["trace.spans"] = (len(spans), "count")
    out["trace.untraced_wall_s"] = (walls["untraced"], "s")
    out["trace.wall_s"] = (walls["traced"], "s")
    out["trace.overhead"] = (ratio(walls["traced"], walls["untraced"]) - 1.0, "ratio")
    out["trace.memory_overhead"] = (ratio(walls["memory"], walls["untraced"]) - 1.0, "ratio")
    return out
