"""The three benchmark workloads.

Each workload builds a pool of inputs from the seed (`make_inputs`), runs one
input at a time with only the program's own work timed (`run`), and checks
the outputs afterwards, untimed and untraced (`check`).  Every `tncg` name is
looked up at call time through its module, so the tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())
DEFAULT_SEED = PINNED["default_seed"]


@dataclass
class Record:
    """Outcome of one input: timed seconds, work done, and check results."""

    seconds: float                  # the timed region of this input
    op_seconds: float               # the part of it that does the workload's ops
    ops: int                        # activations, PoA values or report rows
    attempted: int = 1
    errors: list[str] = field(default_factory=list)
    failed: int = 0                 # failed operations among `attempted`
    budget_exceeded: int = 0        # PoA values given up on a search budget
    fingerprint: Any = None         # must repeat when the same input reruns
    parts: dict[str, float] = field(default_factory=dict)
    data: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                    # input ranges, stamped into result files
    pool_size: int                  # inputs made at set-up; the timed loop cycles them
    trace_count: int                # inputs in one traced pass
    ops_name: str                   # what `ops` counts, as an end-to-end metric name
    make_inputs: Callable
    run: Callable
    check: Callable


# ------------------------------------------------------------ dynamics-large

DYN_N = 30
DYN_T = DYN_N * DYN_N // 4


def _dynamics_inputs(tncg, seed, count):
    rng = random.Random(seed)
    gen = tncg.constructions.gen_random_host
    return [gen(DYN_N, DYN_T, rng.randrange(2**32)) for _ in range(count)]


def _dynamics_run(tncg, host, ctx):
    t0 = time.perf_counter()
    trace = tncg.dynamics.run_dynamics(host, tncg.game.empty_profile(host.n))
    t1 = time.perf_counter()
    report = None
    if trace.outcome == tncg.dynamics.OUTCOME_GE:
        profile = tncg.dynamics.final_profile(trace)
        report = tncg.equilibrium.check_ge(host, profile, audit=True)
    t2 = time.perf_counter()
    return Record(t2 - t0, t1 - t0, trace.activations, fingerprint=trace.final, data=(trace, report))


def _dynamics_check(tncg, host, rec, index, ctx):
    trace, report = rec.data
    errors = []
    try:
        replayed = tncg.dynamics.replay(trace)
    except ValueError as exc:
        errors.append(f"replay failed: {exc}")
    else:
        if replayed != tncg.dynamics.final_profile(trace):
            errors.append("replay does not reproduce the final profile")
    # cycles are a legitimate outcome of the game; only converged runs are checked
    if report is not None:
        if not report.stable:
            errors.append(f"check_ge rejects the converged profile (witness {report.witness})")
        if not report.audit.ok:
            errors.append(f"structural audit fails on a greedy equilibrium: {report.audit.as_dict()}")
    return errors


# ------------------------------------------------------------- spanner-exact

SPAN_N = 6
SPAN_T = 2 * SPAN_N
SPAN_BUDGET = 1_000_000


def _class_spans(host) -> bool:
    """True when one label class alone connects every node; minimum_spanner
    then answers n-1 without searching."""
    classes: dict[int, list] = {}
    for pair, label in host.edges.items():
        classes.setdefault(label, []).append(pair)
    for pairs in classes.values():
        parent = list(range(host.n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        parts = host.n
        for u, v in pairs:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                parts -= 1
        if parts == 1:
            return True
    return False


def _spanner_inputs(tncg, seed, count):
    rng = random.Random(seed)
    gen = tncg.constructions.gen_random_host
    hosts = []
    while len(hosts) < count:
        host = gen(SPAN_N, SPAN_T, rng.randrange(2**32))
        if not _class_spans(host):
            hosts.append(host)
    return hosts


def _spanner_run(tncg, host, ctx):
    t0 = time.perf_counter()
    trace = tncg.dynamics.run_dynamics(host, tncg.game.empty_profile(host.n))
    if trace.outcome != tncg.dynamics.OUTCOME_GE:
        # no greedy equilibrium to price; a cycle is not a failure
        dt = time.perf_counter() - t0
        return Record(dt, dt, 0, fingerprint=trace.outcome)
    profile = tncg.dynamics.final_profile(trace)
    try:
        spanner, opt = tncg.optimum.minimum_spanner(host, budget_cap=SPAN_BUDGET)
    except tncg.errors.SearchSpaceExceeded:
        dt = time.perf_counter() - t0
        return Record(dt, dt, 0, errors=[f"minimum_spanner exceeded {SPAN_BUDGET} nodes"],
                      budget_exceeded=1)
    # the two calls poa_ratio makes, kept apart so the spanner can be checked
    cost = tncg.game.social_cost(host, profile)
    poa = Fraction(cost.edges, opt)
    dt = time.perf_counter() - t0
    return Record(dt, dt, 1, fingerprint=(opt, poa), data=(spanner, opt, cost))


def _spanner_check(tncg, host, rec, index, ctx):
    if rec.data is None:
        return []
    spanner, opt, cost = rec.data
    errors = []
    if cost.unreached:
        errors.append(f"greedy equilibrium leaves {cost.unreached} pairs unreached")
    if spanner.edge_count != opt or not tncg.core.is_temporal_spanner(host, spanner):
        errors.append(f"returned spanner is invalid or has {spanner.edge_count} != {opt} edges")
    upper = tncg.optimum.minimal_spanner(host).edge_count
    if not host.n - 1 <= opt <= upper:
        errors.append(f"optimum {opt} outside [{host.n - 1}, {upper}]")
    if ctx.seed == DEFAULT_SEED and index < len(PINNED["spanner_opt"]):
        if opt != PINNED["spanner_opt"][index]:
            errors.append(f"optimum {opt} != pinned {PINNED['spanner_opt'][index]}")
    return errors


# ------------------------------------------------------------ scenario-suite

SUITE_ROWS: dict[str, int] = PINNED["scenario_rows"]
SUITE_POOL = 64


def _suite_inputs(tncg, seed, count):
    # experiment seeds; seed 0 starts with the shipped default config
    return [seed * SUITE_POOL + k for k in range(count)]


def _suite_run(tncg, exp_seed, ctx):
    rec = Record(0.0, 0.0, 0, attempted=len(SUITE_ROWS), fingerprint={})
    for scenario, rows in SUITE_ROWS.items():
        t0 = time.perf_counter()
        try:
            result = tncg.experiments.run_experiment(
                {"scenario": scenario, "seed": exp_seed}, out_dir=ctx.tmp_dir, threads=1
            )
        except Exception as exc:  # one scenario failing must not hide the rest
            rec.parts[scenario] = time.perf_counter() - t0
            rec.errors.append(f"{scenario}: {type(exc).__name__}: {exc}")
            rec.failed += 1
            continue
        rec.parts[scenario] = time.perf_counter() - t0
        report = result.report
        got = len(report["instances"])
        rec.ops += got
        if not report["summary"]["pass"] or got != rows:
            rec.errors.append(f"{scenario}: pass={report['summary']['pass']}, rows {got} != {rows}")
            rec.failed += 1
        if scenario == "random-ge-sweep":
            rec.budget_exceeded += sum(
                1 for row in report["instances"]
                if row["outcome"] == "converged-GE" and row["poa_num"] is None
            )
        rec.fingerprint[scenario] = hashlib.sha256(result.json_path.read_bytes()).hexdigest()
    rec.seconds = rec.op_seconds = sum(rec.parts.values())
    return rec


def _suite_check(tncg, exp_seed, rec, index, ctx):
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dynamics-large",
            {"n": DYN_N, "t": DYN_T, "host": "gen_random_host", "schedule": "round-robin",
             "rule": "greedy", "start": "empty_profile", "check": "check_ge(audit=True)"},
            pool_size=64, trace_count=3, ops_name="activations_per_s",
            make_inputs=_dynamics_inputs, run=_dynamics_run, check=_dynamics_check,
        ),
        Workload(
            "spanner-exact",
            {"n": SPAN_N, "t": SPAN_T, "host": "gen_random_host, no single label class spanning",
             "budget_cap": SPAN_BUDGET, "poa": "social_cost / minimum_spanner of the greedy equilibrium"},
            pool_size=len(PINNED["spanner_opt"]), trace_count=24, ops_name="poa_per_s",
            make_inputs=_spanner_inputs, run=_spanner_run, check=_spanner_check,
        ),
        Workload(
            "scenario-suite",
            {"scenarios": list(SUITE_ROWS), "config": "defaults", "threads": 1,
             "experiment_seeds": f"seed*{SUITE_POOL} + k"},
            pool_size=SUITE_POOL, trace_count=1, ops_name="rows_per_s",
            make_inputs=_suite_inputs, run=_suite_run, check=_suite_check,
        ),
    )
}
