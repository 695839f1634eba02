"""Benchmark of the subfactor toolkit.

    python3 bench/run.py --workload factor-decide --seed 1 --seconds 30

Runs one workload (or ``all`` of them, each in a fresh interpreter) from the
sources under ``src/`` of the checkout that holds this file, checks every
answer, and prints a table followed, on the last line, by one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
round runs once plainly and once with the per-layer wrappers of ``tracing``,
and the metrics are the per-layer ones.  Times are CPU seconds of this
process; wall-clock figures are printed beside them for reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("words", "stallings", "marked", "projection", "complex_cn",
           "irreducible", "cli")
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # operations beyond the reported tail percentile

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"),
              ("certified_verdicts", "verdicts")]


def load_program():
    """Import every module of the package afresh; returns the program."""
    for name in [k for k in sys.modules
                 if k == "subfactor" or k.startswith("subfactor.")]:
        del sys.modules[name]
    importlib.import_module("subfactor")
    return workloads.Program({m: importlib.import_module(f"subfactor.{m}")
                              for m in MODULES})


def set_up():
    """Load the package SETUP_REPEATS times; the program makes no other
    set-up before its first operation.  Returns the program and the CPU and
    wall times of each load."""
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        c0, w0 = time.process_time(), time.perf_counter()
        sf = load_program()
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
    return sf, cpu, wall


class Pass:
    """Timings and outcomes of one pass over rounds."""

    def __init__(self):
        self.round_cpu, self.round_wall = [], []
        self.op_cpu, self.op_wall = [], []
        self.by_kind = {}  # operation kind -> CPU seconds of each
        self.attempted = self.failed = 0
        self.errors = []


def run_round(ops, ctx, record, tracer=None):
    cpu_sum = wall_sum = 0.0
    for op in ops:
        if tracer is not None:
            tracer.active = True
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            answer = op.run(ctx)
            error = None
        except Exception as e:  # every operation's outcome is recorded
            answer, error = None, e
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if tracer is not None:
            tracer.active = False
        cpu_sum += cpu
        wall_sum += wall
        record.attempted += 1
        if error is not None:
            if op.expect is not None and isinstance(error, op.expect):
                record.failed += 1
            else:
                record.errors.append(f"{op.kind}: {type(error).__name__}: "
                                     f"{error}")
            continue
        record.op_cpu.append(cpu)
        record.op_wall.append(wall)
        record.by_kind.setdefault(op.kind, []).append(cpu)
        if tracer is not None:
            continue  # the plain pass checked the same answer
        try:
            op.check(ctx, answer)
        except Exception as e:  # a failed or broken check marks the run wrong
            record.errors.append(f"{op.kind}: {type(e).__name__}: {e}")
    record.round_cpu.append(cpu_sum)
    record.round_wall.append(wall_sum)


def tail(values):
    """The highest percentile with TAIL_BEYOND values beyond it; the
    largest value when there are too few."""
    values = sorted(values)
    return values[-TAIL_BEYOND - 1] if len(values) > TAIL_BEYOND \
        else values[-1]


def measure(workload, seed, seconds, traced):
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-{os.getpid()}"
    caches = [OUT / f"cache-{stem}-plain.ndjson",
              OUT / f"cache-{stem}-traced.ndjson"]
    sf, setup_cpu, setup_wall = set_up()
    rng = random.Random(seed)
    plain, traced_pass = Pass(), Pass()
    ctx = {"sf": sf, "certified": 0, "cache": str(caches[0])}
    tracers = []
    cache_bytes = 0
    start = time.perf_counter()
    while True:
        ops = workloads.ROUNDS[workload](rng)
        # every round starts from an empty cache file, so rounds cost alike
        open(caches[0], "w").close()
        ctx["cache"] = str(caches[0])
        run_round(ops, ctx, plain)
        if traced:
            open(caches[1], "w").close()
            ctx["cache"] = str(caches[1])
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_round(ops, ctx, traced_pass, tracer)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            cache_bytes += caches[1].stat().st_size
        per_round = (time.perf_counter() - start) / len(plain.round_cpu)
        if time.perf_counter() - start + per_round > seconds:
            break
    rounds = len(plain.round_cpu)
    errors = plain.errors + traced_pass.errors
    result = {"correct": not errors, "attempted": plain.attempted,
              "failed": plain.failed}
    if traced:
        result["metrics"] = layer_metrics(tracers, plain, traced_pass,
                                          cache_bytes, rounds)
        write_trace(OUT / f"trace-{stem}.json", workload, seed, tracers)
        walls = {}
    else:
        cpu_ms = [x * 1000 for x in plain.op_cpu]
        wall_ms = [x * 1000 for x in plain.op_wall]
        values = {
            "setup_s": (statistics.median(setup_cpu),
                        statistics.median(setup_wall)),
            "solve_s": (statistics.mean(plain.round_cpu),
                        statistics.mean(plain.round_wall)),
            "latency_p50_ms": (statistics.median(cpu_ms),
                               statistics.median(wall_ms)),
            "latency_tail_ms": (tail(cpu_ms), tail(wall_ms)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, None),
            "certified_verdicts": (ctx["certified"] / rounds, None),
        }
        result["metrics"] = {name: {"value": values[name][0], "unit": unit}
                             for name, unit in END_TO_END}
        walls = {name: values[name][1] for name, _ in END_TO_END}
    for path in caches:
        path.unlink(missing_ok=True)
    return result, rounds, errors, walls, plain.by_kind


def layer_metrics(tracers, plain, traced_pass, cache_bytes, rounds):
    """Per-layer figures per round, averaged over the traced rounds."""
    totals = {"cli.cache_file_bytes": cache_bytes}
    for tracer in tracers:
        for key, value in tracer.metrics().items():
            totals[key] = totals.get(key, 0) + value
    totals["trace.overhead_s"] = (sum(traced_pass.round_cpu)
                                  - sum(plain.round_cpu))
    return {name: {"value": totals[name] / rounds, "unit": unit}
            for name, unit in tracing.LAYER_METRICS}


def write_trace(path, workload, seed, tracers):
    spans = [span for tracer in tracers for span in tracer.spans]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["id", "parent", "name", "start", "end"],
                   "spans": spans}, fh)


def report(workload, seed, result, rounds, errors, walls, by_kind):
    print(f"workload {workload}, seed {seed}: {rounds} rounds, "
          f"{result['attempted']} operations attempted, "
          f"{result['failed']} failed, "
          f"{'answers correct' if result['correct'] else 'WRONG ANSWERS'}")
    for name, m in result["metrics"].items():
        wall = walls.get(name)
        extra = "" if wall is None else f"   (wall {wall:.6g})"
        print(f"  {name:46s} {m['value']:>14.6g} {m['unit']}{extra}")
    for kind, cpu in by_kind.items():
        print(f"  op {kind:24s} {len(cpu):5d} done, median "
              f"{statistics.median(cpu) * 1000:10.3f} ms, "
              f"max {max(cpu) * 1000:10.3f} ms")
    for e in errors[:20]:
        print(f"  error: {e}", file=sys.stderr)


def run_all(args):
    """Each workload in a fresh interpreter, one after another."""
    results = {}
    for name in workloads.ROUNDS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) \
            and lines else {"correct": False, "exit": proc.returncode}
    print(json.dumps({"workloads": results}))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.ROUNDS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "subfactor" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    result, *details = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    report(args.workload, args.seed, result, *details)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # String hashing is fixed so that dict and set layouts, and the times
    # that depend on them, repeat from process to process.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
