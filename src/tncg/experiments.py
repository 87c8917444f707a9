"""Experiment scenarios: structural audits and price-of-anarchy sweeps.

Every scenario is deterministic in (config, seed): per-instance seeds are
drawn in the parent process, so the thread count never changes results.
Reports carry no timestamps; identical runs produce identical bytes.

Each scenario emits one row per instance plus a falsification list; any
falsification is a disagreement between an audited claim and observed
behavior and flips the exit code to 1.

A scenario is one `_SCENARIOS` entry plus its name in the scenario enum of
`schemas/report_schema.json`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, Union

from . import __version__
from .constructions import (
    gen_br_cycle,
    gen_hypercube,
    gen_random_directed,
    gen_random_host,
    gen_random_setcover,
    gen_reduction_br,
    gen_reduction_ne,
    gen_t2_equilibrium,
    gen_t2_family,
    SetCoverInstance,
    _complete_host,
)
from .core import _check_int, _is_int
from .dynamics import OUTCOME_CYCLE, OUTCOME_GE, final_profile, run_dynamics
from .equilibrium import (
    _dense_below_threshold,
    check_ge,
    check_ne,
    find_large_node,
    freeze_relabel,
    verify_large_node,
)
from .errors import PreconditionViolated, SearchSpaceExceeded
from .game import CostVector, empty_profile
from .optimum import minimum_spanner, poa_ratio
from .responses import exact_best_response


def _pmap(fn: Callable, args: Iterable[tuple], total: int, threads: int) -> tuple[list[dict], list[dict]]:
    """Rows and falsifications of fn over the `total` instances of args, in
    order, collected as each result arrives.

    fn returns (row, messages); each message becomes a falsification carrying
    its row's index.  The process pool, and multiprocessing with it, is
    imported only when threads > 1.
    """
    rows, fals = [], []

    def collect(results):
        for row, msgs in results:
            rows.append(row)
            fals.extend({"index": row["index"], "message": m} for m in msgs)

    if threads > 1 and total > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as ex:
            collect(ex.map(fn, args, chunksize=-(-total // (4 * threads))))
    else:
        collect(map(fn, args))
    return rows, fals


@contextmanager
def _replacing(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """A sibling temporary file to write path's new text into; on leaving
    the block it replaces path.  A write that fails removes the temporary
    file and leaves any older file at path unchanged."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Union[str, Path], obj) -> None:
    """Write json.dumps(obj, indent=2) + "\\n" to path, keys in their given
    order, without holding the text: the encoder streams into the file that
    replaces path (`_replacing`)."""
    with _replacing(Path(path)) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _frac_fields(prefix: str, value: Fraction) -> dict:
    return {f"{prefix}_num": value.numerator, f"{prefix}_den": value.denominator}


# ---------------------------------------------------------------- scenarios
# Every scenario is one instance function (idx, inst_seed, cfg) -> (row,
# messages); inst_seed is None where the config alone fixes the instance.

def _hypercube_instance(args):
    idx, _, cfg = args
    d = cfg["dims"][idx]
    host, profile = gen_hypercube(d)
    ne = check_ne(host, profile)
    ge = check_ge(host, profile)
    _, opt = minimum_spanner(host)
    ratio = Fraction(profile.arc_count, opt)
    expected = Fraction(d * (1 << (d - 1)), (1 << d) - 1)
    row = {
        "index": idx,
        "dim": d,
        "n": host.n,
        "t": host.lifetime,
        "arcs": profile.arc_count,
        "ne_stable": ne.stable,
        "ge_stable": ge.stable,
        "opt_size": opt,
        **_frac_fields("poa", ratio),
        **_frac_fields("expected", expected),
    }
    msgs = []
    if not ne.stable or not ge.stable:
        msgs.append(f"d={d}: profile is not an equilibrium")
    if opt != host.n - 1:
        msgs.append(f"d={d}: optimum {opt} != n-1")
    if ratio != expected:
        msgs.append(f"d={d}: ratio {ratio} != expected {expected}")
    return row, msgs


def _t2_tightness_instance(args):
    idx, _, cfg = args
    n = cfg["n_values"][idx]
    host, profile = gen_t2_family(n)
    ne = check_ne(host, profile)
    arcs = profile.arc_count
    bound = host.lifetime * (n - 2)
    ratio = poa_ratio(host, profile)
    expected = Fraction(2 * (n - 2), n - 1)
    row = {
        "index": idx,
        "n": n,
        "t": host.lifetime,
        "arcs": arcs,
        "bound": bound,
        "tight": arcs == bound,
        "ne_stable": ne.stable,
        **_frac_fields("poa", ratio),
        **_frac_fields("expected", expected),
    }
    msgs = []
    if not ne.stable:
        msgs.append(f"n={n}: family profile not an equilibrium")
    if arcs != 2 * (n - 2) or arcs != bound:
        msgs.append(f"n={n}: arc count {arcs} not tight for bound {bound}")
    if ratio != expected:
        msgs.append(f"n={n}: ratio {ratio} != expected {expected}")
    return row, msgs


def _br_cycle_instance(args):
    idx, _, _ = args
    host, profile, schedule = gen_br_cycle()
    trace = run_dynamics(host, profile, schedule=schedule, rule="greedy")
    returned = trace.final == profile.canonical()
    improving = all(m.cost_after < m.cost_before for m in trace.moves)
    row = {
        "index": idx,
        "outcome": trace.outcome,
        "moves": len(trace.moves),
        "period": trace.period,
        "entry": trace.entry,
        "returned_to_start": returned,
        "all_improving": improving,
    }
    msgs = []
    if trace.outcome != OUTCOME_CYCLE or trace.period != 6 or trace.entry != 0:
        msgs.append(f"expected a period-6 cycle from the start, got {trace.outcome}")
    if not returned:
        msgs.append("schedule did not return to the initial profile")
    if not improving:
        msgs.append("a scheduled move was not strictly improving")
    return row, msgs


def _reduction_instance(args):
    idx, inst_seed, cfg = args
    sc = gen_random_setcover(cfg["k_max"], cfg["m_max"], inst_seed,
                             k_min=cfg["k_min"], m_min=cfg["m_min"])
    min_size, min_cover = sc.min_cover()

    host, profile, layout = gen_reduction_br(sc)
    br, cost = exact_best_response(host, profile, layout.x)
    br_ok = len(br) == min_size and cost.unreached == 0

    sc_min = SetCoverInstance(sc.k, sc.sets, min_cover)
    host_min, prof_min, _ = gen_reduction_ne(sc_min)
    ne_min = check_ne(host_min, prof_min)

    has_nonmin = sc.m > min_size
    ne_nonmin_stable = None
    witness_is_x = None
    if has_nonmin:
        extra = min(i for i in range(1, sc.m + 1) if i not in min_cover)
        sc_non = SetCoverInstance(sc.k, sc.sets, set(min_cover) | {extra})
        host_non, prof_non, layout_non = gen_reduction_ne(sc_non)
        ne_non = check_ne(host_non, prof_non)
        ne_nonmin_stable = ne_non.stable
        witness_is_x = (ne_non.witness is not None and ne_non.witness[0] == layout_non.x)
    row = {
        "index": idx,
        "seed": inst_seed,
        "k": sc.k,
        "m": sc.m,
        "min_size": min_size,
        "br_size": len(br),
        "br_ok": br_ok,
        "ne_min_stable": ne_min.stable,
        "has_nonmin": has_nonmin,
        "ne_nonmin_stable": ne_nonmin_stable,
        "nonmin_witness_is_x": witness_is_x,
    }
    msgs = []
    if not br_ok:
        msgs.append(f"best response size {len(br)} != minimum cover {min_size}")
    if not ne_min.stable:
        msgs.append("minimum-cover instance is not a Nash equilibrium")
    if has_nonmin and (ne_nonmin_stable or not witness_is_x):
        msgs.append("non-minimum cover instance should be refuted through agent x")
    return row, msgs


def _greedy_run(inst_seed: int, cfg: dict):
    """A random host with n and t drawn from cfg's ranges, and the trace of
    greedy round-robin dynamics on it from the empty profile."""
    rng = random.Random(inst_seed)
    n = rng.randint(cfg["n_min"], cfg["n_max"])
    t = rng.randint(cfg["t_min"], cfg["t_max"])
    host = gen_random_host(n, t, rng.randrange(2**32))
    return host, run_dynamics(host, empty_profile(n), schedule="round-robin", rule="greedy")


def _ge_sweep_instance(args):
    idx, inst_seed, cfg = args
    host, trace = _greedy_run(inst_seed, cfg)
    n = host.n
    row = {
        "index": idx,
        "seed": inst_seed,
        "n": n,
        "t": host.lifetime,
        "outcome": trace.outcome,
        "moves": len(trace.moves),
        # filled in below for a converged equilibrium
        **dict.fromkeys([
            "edges", "ge_verified", "antiparallel_free", "necessary_ok", "forbidden_none",
            "arc_bound", "arc_bound_applies", "arc_bound_ok", "dense_ok",
        ]),
        # "exact" or "bounded" once a converged equilibrium is priced
        "poa_status": "n/a",
        **dict.fromkeys(["opt_size", "opt_lower", "opt_upper", "poa_num", "poa_den", "poa_within_bound"]),
    }
    msgs = []
    if trace.outcome == OUTCOME_GE:
        profile = final_profile(trace)
        report = check_ge(host, profile, audit=True)
        audit = report.audit
        row.update(
            edges=profile.arc_count,
            ge_verified=report.stable,
            antiparallel_free=audit.antiparallel_free,
            necessary_ok=audit.necessary_ok,
            forbidden_none=audit.forbidden is None,
            arc_bound=audit.bounds.arc_bound,
            arc_bound_applies=audit.bounds.arc_bound_applies,
            arc_bound_ok=audit.bounds.arc_bound_ok,
            dense_ok=audit.bounds.dense_ok,
        )
        if not report.stable:
            msgs.append("dynamics reported a greedy equilibrium that fails verification")
        if not audit.antiparallel_free:
            msgs.append("greedy equilibrium contains antiparallel arcs")
        if not audit.necessary_ok:
            msgs.append("greedy equilibrium has an arc with empty necessary set")
        if audit.forbidden is not None:
            msgs.append("forbidden structure reported")
        if audit.bounds.arc_bound_applies and not audit.bounds.arc_bound_ok:
            msgs.append(
                f"edge count {profile.arc_count} exceeds t(n-2) = {audit.bounds.arc_bound}"
            )
        if not audit.bounds.dense_ok:
            msgs.append(f"edge count {profile.arc_count} reaches the dense threshold")
        try:
            _, opt = minimum_spanner(host, budget_cap=cfg["poa_budget"])
        except SearchSpaceExceeded as e:
            # the optimum, and so the PoA, is only bracketed
            row.update(poa_status="bounded", opt_lower=e.lower, opt_upper=e.upper)
        else:
            ratio = Fraction(profile.arc_count, opt)
            row.update(poa_status="exact", opt_size=opt, opt_lower=opt, opt_upper=opt,
                       **_frac_fields("poa", ratio))
            if host.lifetime > 1:
                cap = Fraction(host.lifetime * (n - 2), n - 1)
                row["poa_within_bound"] = ratio <= cap
                if ratio > cap:
                    msgs.append(f"ratio {ratio} exceeds t(n-2)/(n-1) = {cap}")
    return row, msgs


def _freeze_instance(args):
    idx, inst_seed, cfg = args
    row = {
        "index": idx,
        "seed": inst_seed,
        "attempts": 0,
        "n": None,
        "t": None,
        "converged": False,
        "ge_verified": None,
        "frozen_ne_stable": None,
        "cost_unchanged": None,
        "frozen_lifetime": None,
    }
    msgs = []
    for r in range(cfg["retries"]):
        host, trace = _greedy_run(inst_seed + r * 1_000_003, cfg)
        row["attempts"] = r + 1
        if trace.outcome != OUTCOME_GE:
            continue
        profile = final_profile(trace)
        ge = check_ge(host, profile)
        frozen = freeze_relabel(host, profile)
        ne = check_ne(frozen, profile)
        sc_before = sum(ge.agent_costs, CostVector(0, 0))
        sc_after = sum(ne.agent_costs, CostVector(0, 0))
        row.update(
            n=host.n,
            t=host.lifetime,
            converged=True,
            ge_verified=ge.stable,
            frozen_ne_stable=ne.stable,
            cost_unchanged=(sc_before == sc_after),
            frozen_lifetime=frozen.lifetime,
        )
        if not ge.stable:
            msgs.append("converged profile fails greedy verification")
        if not ne.stable:
            msgs.append("frozen host breaks the Nash property")
        if sc_before != sc_after:
            msgs.append("social cost changed under freezing")
        break
    return row, msgs


def _t2_instance(args):
    """An exhaustive instance (no seed) labels K_n by the bits of its index;
    a random one draws n and a host seed from its instance seed."""
    idx, inst_seed, cfg = args
    if inst_seed is None:
        part, n, code = "exhaustive", cfg["exhaustive_n"], idx
        bits = (1 + ((code >> b) & 1) for b in count())   # pair number b gets bit b
        host = _complete_host(n, lambda u, v: next(bits))
    else:
        rng = random.Random(inst_seed)
        part, n = "random", rng.randint(cfg["n_min"], cfg["n_max"])
        code = rng.randrange(2**32)
        host = gen_random_host(n, 2, code)
    profile = gen_t2_equilibrium(host)
    ne = check_ne(host, profile)
    row = {
        "index": idx,
        "part": part,
        "n": n,
        "code": code,
        "t": host.lifetime,
        "arcs": profile.arc_count,
        "ne_stable": ne.stable,
    }
    msgs = []
    if not ne.stable:
        msgs.append(f"constructed profile unstable (part={part}, n={n}, code={code})")
    if profile.arc_count != n - 1:
        msgs.append("constructed profile is not a spanning tree")
    return row, msgs


def _large_node_instance(args):
    """The first `instances` rows use `arcs` and expect a witness; the rest
    use the `below_arcs` entries and expect a rejection."""
    idx, inst_seed, cfg = args
    n = cfg["n"]
    expect_witness = idx < cfg["instances"]
    arcs = cfg["arcs"] if expect_witness else cfg["below_arcs"][idx - cfg["instances"]]
    g = gen_random_directed(n, arcs, cfg["t"], inst_seed)
    row = {
        "index": idx,
        "seed": inst_seed,
        "n": n,
        "arcs": arcs,
        "expect_witness": expect_witness,
        "got_witness": None,
        "verified": None,
        "z": None,
        "m_size": None,
    }
    msgs = []
    try:
        w = find_large_node(g)
        row.update(got_witness=True, z=w.z, m_size=len(w.members))
        ok = verify_large_node(g, w)
        row["verified"] = ok
        if not expect_witness:
            msgs.append(f"witness found below the arc threshold ({arcs} arcs)")
        elif not ok:
            msgs.append("witness failed independent verification")
    except PreconditionViolated:
        row["got_witness"] = False
        if expect_witness:
            msgs.append(f"precondition rejected {arcs} arcs at n={n}")
    return row, msgs


def _sweep_rules(cfg: dict) -> list[tuple[str, bool, str]]:
    n_min = cfg["n_min"]
    pairs = math.comb(n_min, 2)
    return [
        ("t_min", cfg["t_min"] >= 1, "must be >= 1"),
        ("t_max", cfg["t_max"] <= pairs,
         f"must be <= {pairs}, the pair count of a host with n_min = {n_min} nodes"),
    ]


def _t2_rules(cfg: dict) -> list[tuple[str, bool, str]]:
    n_ex = cfg["exhaustive_n"]
    return [
        ("exhaustive_n", n_ex >= 1, "must be >= 1"),
        ("exhaustive_n", n_ex <= 6,
         f"must be <= 6; it sweeps all 2^{math.comb(n_ex, 2)} hosts on {n_ex} nodes"),
        ("n_min", cfg["n_min"] >= 3, "must be >= 3, so that a host has room for labels 1 and 2"),
    ]


def _large_node_rules(cfg: dict) -> list[tuple[str, bool, str]]:
    n = cfg["n"]
    full = n * (n - 1)
    most = f"must be <= {full}, the arc count of a complete directed graph on n = {n} nodes"
    least = n + 1 + math.isqrt(max(6 * n**3 - 1, 0))
    dense = f"{least}, the least arc count at or above sqrt(6)*n^1.5 + n at n = {n}"
    return [
        ("t", cfg["t"] >= 1, "must be >= 1"),
        ("arcs", cfg["arcs"] <= full, most),
        ("arcs", not _dense_below_threshold(n, cfg["arcs"]), "must be >= " + dense),
        ("below_arcs", all(a <= full for a in cfg["below_arcs"]), "every entry " + most),
        ("below_arcs", all(_dense_below_threshold(n, a) for a in cfg["below_arcs"]),
         "every entry must be < " + dense),
    ]


def _ge_sweep_summary(rows: list[dict]) -> dict:
    outcomes = [r["outcome"] for r in rows]
    ge, cycles = outcomes.count(OUTCOME_GE), outcomes.count(OUTCOME_CYCLE)
    statuses = [r["poa_status"] for r in rows]
    # a bounded row is a converged one whose search hit poa_budget
    return {"converged_ge": ge, "cycles": cycles, "other": len(rows) - ge - cycles,
            "poa_budget_exceeded": statuses.count("bounded"),
            "poa_status": {s: statuses.count(s) for s in ("exact", "bounded", "n/a")}}


@dataclass(frozen=True)
class _Scenario:
    """One scenario: its module-level (so picklable) instance function, its
    default config without the seed, counts(cfg) = (fixed, seeded) instances,
    rules(cfg) = (key, holds, requirement) per value range its generators
    enforce, and summary(rows) = its own summary counts.  A rule is checked
    even where no instance draws from its key, so whether a config runs does
    not depend on its seed."""

    fn: Callable
    defaults: dict
    counts: Callable[[dict], tuple[int, int]] = lambda cfg: (0, cfg["instances"])
    rules: Callable[[dict], list] = lambda cfg: []
    summary: Callable[[list], dict] = lambda rows: {}


_SCENARIOS: dict[str, _Scenario] = {
    "hypercube-poa": _Scenario(
        _hypercube_instance,
        {"dims": [3, 4]},
        counts=lambda cfg: (len(cfg["dims"]), 0),
        rules=lambda cfg: [
            ("dims", all(d >= 3 for d in cfg["dims"]), "every dimension must be >= 3"),
            ("dims", all(d <= 8 for d in cfg["dims"]),
             "every dimension must be <= 8; the host of dimension d has 2^d nodes"),
        ],
    ),
    "t2-tightness": _Scenario(
        _t2_tightness_instance,
        {"n_values": [5, 6, 7, 8, 9, 10, 11, 12]},
        counts=lambda cfg: (len(cfg["n_values"]), 0),
        rules=lambda cfg: [("n_values", all(n >= 5 for n in cfg["n_values"]), "every n must be >= 5")],
    ),
    "br-cycle": _Scenario(_br_cycle_instance, {}, counts=lambda cfg: (1, 0)),
    "reduction-audit": _Scenario(
        _reduction_instance,
        {"instances": 20, "k_min": 3, "k_max": 8, "m_min": 2, "m_max": 6},
        # instances draw k from max(k_min, 2)..k_max, and m likewise
        rules=lambda cfg: [(k, cfg[k] >= 2, "must be >= 2") for k in ("k_max", "m_max")],
    ),
    "random-ge-sweep": _Scenario(
        _ge_sweep_instance,
        {"instances": 200, "n_min": 4, "n_max": 12, "t_min": 2, "t_max": 4, "poa_budget": 5000},
        rules=_sweep_rules,
        summary=_ge_sweep_summary,
    ),
    "freeze-relabel-audit": _Scenario(
        _freeze_instance,
        {"instances": 30, "n_min": 4, "n_max": 10, "t_min": 2, "t_max": 4, "retries": 6},
        rules=lambda cfg: [*_sweep_rules(cfg), ("retries", cfg["retries"] >= 1, "must be >= 1")],
        summary=lambda rows: {"ges_verified": sum(1 for r in rows if r["converged"])},
    ),
    "t2-existence-sweep": _Scenario(
        _t2_instance,
        {"exhaustive_n": 5, "random_instances": 500, "n_min": 5, "n_max": 10},
        # one exhaustive instance per labelling of K_n by {1, 2}
        counts=lambda cfg: (1 << math.comb(cfg["exhaustive_n"], 2), cfg["random_instances"]),
        rules=_t2_rules,
        summary=lambda rows: {p: sum(r["part"] == p for r in rows) for p in ("exhaustive", "random")},
    ),
    "large-node-audit": _Scenario(
        _large_node_instance,
        {"instances": 20, "n": 36, "arcs": 600, "t": 5, "below_arcs": [500, 565]},
        counts=lambda cfg: (0, cfg["instances"] + len(cfg["below_arcs"])),
        rules=_large_node_rules,
    ),
}

SCENARIO_DEFAULTS: dict[str, dict] = {name: s.defaults for name, s in _SCENARIOS.items()}


def _instance_args(spec: _Scenario, cfg: dict) -> Iterator[tuple]:
    """(idx, inst_seed, cfg) of every instance in row order: the fixed
    instances with no seed, then the seeded ones, each taking the next draw
    of one generator seeded by cfg["seed"]."""
    fixed, seeded = spec.counts(cfg)
    for i in range(fixed):
        yield i, None, cfg
    base = random.Random(cfg["seed"])
    for j in range(seeded):
        yield fixed + j, base.randrange(2**32), cfg


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _check_config(scenario: str, cfg: dict) -> None:
    """Reject values that are not counts (or lists of counts like their
    defaults), inverted min/max ranges, values outside the ranges of the
    scenario's `rules`, and sweeps with no instances."""
    spec = _SCENARIOS[scenario]
    for key, value in cfg.items():
        if isinstance(spec.defaults.get(key), list):
            if not (isinstance(value, list) and all(_is_count(x) for x in value)):
                raise ValueError(f"config key {key!r} must be a list of non-negative integers, got {value!r}")
        elif not _is_count(value):
            raise ValueError(f"config key {key!r} must be a non-negative integer, got {value!r}")
    for key, value in cfg.items():
        top = key[: -len("_min")] + "_max"
        if key.endswith("_min") and value > cfg[top]:
            raise ValueError(f"config key {key!r} = {value} exceeds {top!r} = {cfg[top]}")
    for key, holds, requirement in spec.rules(cfg):
        if not holds:
            raise ValueError(f"config key {key!r} = {cfg[key]!r}: {requirement}")
    # counted only now: the rules bound exhaustive_n, and 2^(n(n-1)/2) with it
    if sum(spec.counts(cfg)) == 0:
        # instances come from the `instances` count and from the list-valued keys
        named = ", ".join(f"{k}={v!r}" for k, v in cfg.items() if k == "instances" or isinstance(v, list))
        raise ValueError(f"config {named} leaves scenario {scenario} with no instances")


@dataclass
class ExperimentResult:
    report: dict
    json_path: Path
    csv_path: Path

    @property
    def exit_code(self) -> int:
        return 0 if self.report["summary"]["pass"] else 1


def config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_experiment(
    config: dict,
    out_dir: Union[str, Path] = ".",
    threads: int = 1,
) -> ExperimentResult:
    """Run one scenario and write <scenario>.report.json plus
    <scenario>.instances.csv under out_dir."""
    _check_int("threads", threads, 1)
    scenario = config.get("scenario")
    if scenario not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise ValueError(f"unknown scenario {scenario!r}; known: {known}")
    spec = _SCENARIOS[scenario]
    cfg = {"seed": 0, **spec.defaults}
    for key, value in config.items():
        if key == "scenario":
            continue
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r} for scenario {scenario}")
        cfg[key] = value
    _check_config(scenario, cfg)
    rows, fals = _pmap(spec.fn, _instance_args(spec, cfg), sum(spec.counts(cfg)), threads)
    full_config = {"scenario": scenario, **cfg}
    report = {
        "scenario": scenario,
        "version": __version__,
        "seed": cfg["seed"],
        "config": full_config,
        "config_digest": config_digest(full_config),
        "summary": {
            "instances": len(rows),
            "falsifications": len(fals),
            "pass": not fals,
            **spec.summary(rows),
        },
        "instances": rows,
        "falsifications": fals,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{scenario}.report.json"
    csv_path = out / f"{scenario}.instances.csv"
    # both files stay temporary until both are whole, so a failed write
    # leaves the older pair, from one config, in place
    with _replacing(json_path) as jf, _replacing(csv_path, newline="") as fh:
        json.dump(report, jf, indent=2, sort_keys=True)
        jf.write("\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return ExperimentResult(report=report, json_path=json_path, csv_path=csv_path)
