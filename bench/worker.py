"""One benchmark process: set up, run timed passes over a workload, check every answer.

Started by `bench/run.py` as a fresh single-threaded process, so that its
set-up time and its peak RSS belong to one workload.  Prints one JSON object
on its last stdout line.  Between the operations of its untraced passes the
measuring worker starts set-up-only copies of itself, one at a time, so that
the set-up samples are spread over the whole run rather than taken in one
burst; the time spent on them is not part of any pass.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --mode setup|measure --t0 MONOTONIC --src DIR --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

PINS = Path(__file__).resolve().parent / "pins.json"
SETUP_SAMPLES = 24  # at most this many set-up-only processes in a --trace 0 run ...
SETUP_EVERY = 1 / 30  # ... one each time this share of --seconds more of passes has run
SETUP_TIMEOUT = 30.0


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "measure"), default="measure")
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    p.add_argument("--src", required=True, help="directory holding the lsext package")
    p.add_argument("--work", required=True, help="scratch directory for the code files")
    p.add_argument("--spans", default=None, help="write the traced spans here")
    return p.parse_args(argv)


def run_pass(cli, ops, paths, tracer=None, between=None):
    """Run every operation once through cli.main; returns (wall seconds, outcomes).

    `cli.main` is looked up on every call, so installed wrappers take effect.
    `between(seconds so far)` runs after each operation; its time is not counted.
    """
    gc.collect()
    outcomes = []
    paused = 0.0
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        if tracer is not None:
            tracer.op = op.id
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op.argv(paths[op.code]))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an operation that raises is counted, not fatal
                rc, raised = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=err)
        outcomes.append((rc, out.getvalue(), err.getvalue(), raised, time.perf_counter() - t))
        if between is not None:
            t = time.perf_counter()
            between(t - start - paused)
            paused += time.perf_counter() - t
    return time.perf_counter() - start - paused, outcomes


class SetupSampler:
    """Starts one set-up-only worker each time `interval` more seconds of passes have run, up to SETUP_SAMPLES."""

    def __init__(self, args, interval: float):
        self.args, self.interval, self.next_at, self.samples = args, interval, interval, []
        self.done = 0.0  # seconds of finished passes

    def between(self, in_pass: float) -> None:
        if self.done + in_pass < self.next_at or len(self.samples) >= SETUP_SAMPLES:
            return
        self.next_at += self.interval
        a = self.args
        cmd = [sys.executable, __file__, "--workload", a.workload, "--seed", str(a.seed), "--seconds", "0",
               "--mode", "setup", "--src", a.src, "--work", f"{a.work}-setup{len(self.samples)}"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"set-up worker failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment(args, version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lsext": version,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
    }


def pin_key(workload: str, op, seeded: bool, seed: int) -> str:
    return f"{workload}/{op.id}" + (f"@{seed}" if seeded else "")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    lsext = importlib.import_module("lsext")
    cli = importlib.import_module("lsext.cli")
    field = importlib.import_module("lsext.field")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        instances, ops = workloads.build(args.workload, args.seed)
        for q in sorted({inst.q for inst in instances}):
            field.gf(q)  # build the GF tables during set-up
        paths = {}
        for inst in instances:
            paths[inst.name] = str(work / f"{inst.name}.code")
            Path(paths[inst.name]).write_text(inst.text())
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, cli, instances, ops, paths)
        result.update(setups=[setup_s] + result.pop("setup_samples"),
                      env=environment(args, getattr(lsext, "__version__", "unknown")))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, instances, ops, paths) -> dict:
    """Timed untraced passes, then (with --trace 1) the traced ones, then the checks."""
    budget = args.seconds / 2 if args.trace else args.seconds
    # set-up is reported only with --trace 0, so only those runs sample it
    sampler = SetupSampler(args, budget * SETUP_EVERY) if budget > 0 and not args.trace else None
    walls, passes = [], []
    while True:
        wall, outcomes = run_pass(cli, ops, paths, between=sampler and sampler.between)
        if not walls:
            # Peak of set-up plus one pass; later passes only add allocator growth.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(wall)
        passes.append(outcomes)
        if sampler:
            sampler.done += wall
        if sum(walls) + statistics.median(walls) > budget:
            break
    layer = None
    if args.trace:
        layer, traced = traced_passes(args, cli, ops, paths, statistics.median(walls))
        passes += traced
    result = verify(args, instances, ops, passes, len(walls))
    result.update(workload=args.workload, seed=args.seed, walls=walls, peak_rss_mb=rss_mb, layer=layer,
                  setup_samples=sampler.samples if sampler else [])
    return result


def traced_passes(args, cli, ops, paths, untraced_wall: float):
    """One pass timing the spans, one more under tracemalloc for per-span memory peaks."""
    tracers, walls, passes = [], [], []
    for memory in (False, True):
        tracer = tracing.Tracer(memory=memory)
        restore, missing = tracing.install(tracer)
        if memory:
            tracemalloc.start()
        try:
            wall, outcomes = run_pass(cli, ops, paths, tracer)
        finally:
            if memory:
                tracemalloc.stop()
            restore()
        tracers.append(tracer)
        walls.append(wall)
        passes.append(outcomes)
    kinds = {"untraced": untraced_wall, "traced": walls[0], "memory": walls[1]}
    metrics = tracing.layer_metrics(tracers[0].spans, tracers[1].spans, missing, kinds)
    if args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "counts", "alloc_bytes"]
        Path(args.spans).write_text(json.dumps({"fields": fields, "timed": tracers[0].spans,
                                                "memory": tracers[1].spans}))
    layer = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, "missing": missing}
    return layer, passes


def verify(args, instances, ops, passes, untraced: int) -> dict:
    """Check the first pass against the oracle and the pins, and every later pass against the first."""
    problems = []
    ctx = checks.Context(instances)
    for inst in instances:
        known = workloads.KNOWN_DISTRIBUTIONS.get(inst.name)
        if known is not None and ctx.enum(inst.q, inst.rows).distribution != known:
            problems.append(f"{inst.name}: construction does not have the published weight distribution")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    seeded = {inst.name: inst.seeded for inst in instances}
    records, solved, failed = [], 0, 0
    for i, op in enumerate(ops):
        rc, out, err, raised, _ = passes[0][i]
        verdict = checks.check(op, ctx, rc, out, err, raised)
        dig = checks.digests(rc, out, err)
        for p, outcomes in enumerate(passes[1:], start=1):
            if checks.digests(*outcomes[i][:3]) != dig:
                label = "traced pass" if p >= untraced else f"pass {p}"
                problems.append(f"{op.id}: {label} output differs from pass 0")
        key = pin_key(args.workload, op, seeded[op.code], args.seed)
        if key in pins and pins[key] != dig:
            problems.append(f"{op.id}: digests {dig} differ from pinned {pins[key]}")
        if verdict.status == "wrong":
            problems.append(f"{op.id}: {verdict.reason}")
        solved += len(passes) * (verdict.status == "solved")
        failed += len(passes) * (raised is not None or rc == 3)
        records.append({
            "op": op.id, "pin_key": key, "argv": op.argv(f"{op.code}.code"), "status": verdict.status,
            "reason": verdict.reason, "exit": rc, "digests": dig, "pinned": key in pins, "instance": verdict.facts,
            "seconds": statistics.median(outcomes[i][4] for outcomes in passes[:untraced]),
        })
    return {"attempted": len(ops) * len(passes), "solved": solved, "failed": failed, "correct": not problems,
            "problems": problems, "ops": records}


if __name__ == "__main__":
    sys.exit(main())
