"""Benchmark for the tncg package: one workload per run, in one process.

    python3 perfbench/run.py --workload dynamics-large --seed 0 --seconds 35 --trace 0

The package is imported from `src/` of the checkout this file sits in; with
no `src/tncg` there the run exits with code 2 and prints no result.

Set-up (a fresh import of `tncg` plus making the workload's input pool from
the seed) is repeated and its median reported as `setup_s`.  The timed loop
then runs pool inputs in order until `--seconds` have passed, checking every
output.  `--trace 1` instead runs a fixed prefix of the pool, alternately
untraced and with span wrappers installed (see tracer.py), and reports
per-layer counts and self times; the counts must repeat exactly.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed`, and `metrics`, holding exactly the `end_to_end` (trace 0) or
`per_layer` (trace 1) metrics of BENCHMARK.json.  A full result, stamped
with the git SHA, a digest of the package source, the Python version, the
CPU count and the seed, goes to `perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import SUITE_ROWS, WORKLOADS, Record

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5

# metrics printed and stamped beside the gated ones in BENCHMARK.json
EXTRA_UNITS = {
    "wall_s": "s",
    "failed_frac": "ratio",
    "budget_exceeded": "count",
    "activations_per_s": "1/s",
    "poa_per_s": "1/s",
    "rows_per_s": "1/s",
    "instances": "count",
    "trace.untraced_wall_s": "s",
    "trace.passes": "count",
}
@dataclass
class Context:
    seed: int
    tmp_dir: Path


def fresh_import():
    """Import `tncg` from SRC anew, so set-up pays the import every time."""
    for name in [k for k in sys.modules if k == "tncg" or k.startswith("tncg.")]:
        del sys.modules[name]
    tncg = importlib.import_module("tncg")
    if Path(tncg.__file__).resolve().parent != SRC / "tncg":
        raise ImportError(f"tncg imported from {tncg.__file__}, not from {SRC}")
    return tncg


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tncg").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def attempt(wl, tncg, item, ctx) -> Record:
    t0 = time.perf_counter()
    try:
        return wl.run(tncg, item, ctx)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        dt = time.perf_counter() - t0
        return Record(dt, dt, 0, errors=[f"{type(exc).__name__}: {exc}"], failed=1)


def verify(wl, tncg, item, index, ctx, rec: Record) -> Record:
    if not rec.failed:
        try:
            rec.errors += wl.check(tncg, item, rec, index, ctx)
        except Exception as exc:
            rec.errors.append(f"check raised {type(exc).__name__}: {exc}")
    rec.failed = rec.failed or int(bool(rec.errors))
    rec.data = None
    return rec


def tail_percentile(samples: list[float]):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = None
    for p in (75, 90, 95, 99):
        if len(ordered) * (100 - p) / 100 >= 10:
            best = (p, ordered[min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1)])
    return best


def measure(wl, tncg, items, ctx, seconds):
    records: list[Record] = []
    seen: dict[int, object] = {}
    start = time.perf_counter()
    i = 0
    while True:
        index = i % len(items)
        rec = verify(wl, tncg, items[index], index, ctx, attempt(wl, tncg, items[index], ctx))
        if index in seen and rec.fingerprint != seen[index] and not rec.failed:
            rec.errors.append(f"input {index} gave a different result on rerun")
            rec.failed = 1
        seen.setdefault(index, rec.fingerprint)
        records.append(rec)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    ops = sum(r.ops for r in records)
    rate = ops / sum(r.op_seconds for r in records)
    times = [r.seconds for r in records]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    metrics = {
        "wall_s": wall,
        "ops_per_s": rate,
        wl.ops_name: rate,
        "instances": len(records),
        "instance_s.p50": statistics.median(times),
        "failed_frac": failed / attempted,
        "budget_exceeded": sum(r.budget_exceeded for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = tail_percentile(times)
    if tail:
        metrics[f"instance_s.p{tail[0]}"] = tail[1]
    return metrics, records, {"instance_s": times, "ops": [r.ops for r in records]}


def traced(wl, tncg, ctx, seconds):
    """Alternate untraced and traced passes over the first inputs of the pool."""
    records: list[Record] = []
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        items = wl.make_inputs(tncg, ctx.seed, wl.trace_count)
        untraced = [verify(wl, tncg, it, k, ctx, attempt(wl, tncg, it, ctx)) for k, it in enumerate(items)]
        untraced_wall = time.perf_counter() - t0

        tracer = Tracer(tncg)
        reach0 = tncg.core.reach_evaluations()
        try:
            tracer.install()
            t0 = time.perf_counter()
            items = wl.make_inputs(tncg, ctx.seed, wl.trace_count)
            runs = [attempt(wl, tncg, it, ctx) for it in items]
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        reach = tncg.core.reach_evaluations() - reach0
        runs = [verify(wl, tncg, it, k, ctx, rec) for k, (it, rec) in enumerate(zip(items, runs))]
        records += untraced + runs

        m = tracer.metrics()
        m["core.reach_mask.calls"] = reach
        m["optimum.budget_exceeded"] = sum(r.budget_exceeded for r in runs)
        for scenario in SUITE_ROWS:
            m[f"experiments.{scenario}.s"] = sum(r.parts.get(scenario, 0.0) for r in runs)
        m["trace.wall_s"] = traced_wall
        m["trace.untraced_wall_s"] = untraced_wall
        reps.append(m)
        if time.perf_counter() - start >= seconds:
            break

    # integer metrics are operation counts: deterministic in the seed
    first = reps[0]
    counts = [k for k, v in first.items() if isinstance(v, int)]
    for m in reps[1:]:
        moved = [k for k in counts if m[k] != first[k]]
        if moved:
            records.append(Record(0.0, 0.0, 0, errors=[f"operation counts differ between passes: {moved}"], failed=1))
    metrics = {k: (first[k] if k in counts else statistics.median(m[k] for m in reps)) for k in first}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.passes"] = len(reps)
    return metrics, records, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]
    if not (SRC / "tncg" / "__init__.py").is_file():
        print(f"perfbench: no tncg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ctx = Context(args.seed, Path(tmp))
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            tncg = fresh_import()
            items = wl.make_inputs(tncg, args.seed, wl.pool_size)
            setups.append(time.perf_counter() - t0)
        if args.trace:
            metrics, records, samples = traced(wl, tncg, ctx, args.seconds)
        else:
            metrics, records, samples = measure(wl, tncg, items, ctx, args.seconds)
            metrics["setup_s"] = statistics.median(setups)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    missing = [m["name"] for m in gated if m["name"] not in metrics]
    if missing:
        print(f"perfbench: {args.workload} computed no value for {missing}", file=sys.stderr)
        return 2

    result = {
        "stamp": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "workload": wl.name,
            "config": wl.config,
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_s": setups,
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # anything else is an instance_s.* percentile, in seconds
        "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()},
        "samples": samples,
        "errors": [e for r in records for e in r.errors][:50],
    }
    path = OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"python={result['stamp']['python']} nproc={result['stamp']['nproc']} "
          f"git={result['stamp']['git_sha']}")
    for k, v in result["metrics"].items():
        print(f"  {k:44s} {v['value']:.6g} {v['unit']}")
    for e in result["errors"]:
        print(f"  error: {e}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in gated},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
