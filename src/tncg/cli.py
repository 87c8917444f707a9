"""Command-line interface.

Exit codes: 0 success (and: property holds), 1 property refuted (unstable
profile, falsified experiment), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .constructions import (
    gen_br_cycle,
    gen_hypercube,
    gen_random_host,
    gen_reduction_br,
    gen_reduction_ne,
    gen_t2_family,
)
from .dynamics import run_dynamics
from .equilibrium import check_ge, check_ne
from .errors import SearchSpaceExceeded, TncgError
from .experiments import SCENARIO_DEFAULTS, run_experiment, write_json
from .fileio import (
    load_host,
    load_profile,
    load_setcover,
    save_graph,
    save_profile,
    validate_files,
)
from .game import _CreatedState, empty_profile
from .optimum import minimal_spanner, minimum_spanner, poa_ratio
from .responses import DEFAULT_BUDGET, _AgentView, _check_budget


def _emit(fmt: str, payload) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    rows = payload if isinstance(payload, list) else [payload]
    flat = []
    fields: list[str] = []
    for r in rows:
        fr = {}
        for k, v in r.items():
            if isinstance(v, (dict, list, tuple)):
                v = json.dumps(v, sort_keys=True)
            fr[k] = "" if v is None else v
            if k not in fields:
                fields.append(k)
        flat.append(fr)
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(flat)


def _cmd_gen(args) -> int:
    layout = None
    schedule = None
    profile = None
    if args.family == "hypercube":
        host, profile = gen_hypercube(args.dim)
    elif args.family == "t2family":
        host, profile = gen_t2_family(args.n)
    elif args.family == "brcycle":
        host, profile, schedule = gen_br_cycle()
    elif args.family == "random":
        host = gen_random_host(args.n, args.t, args.seed)
    elif args.family == "reduce-br":
        sc = load_setcover(args.setcover)
        host, profile, layout = gen_reduction_br(sc)
    else:
        sc = load_setcover(args.setcover)
        host, profile, layout = gen_reduction_ne(sc)
    save_graph(host, args.output)
    files = {"host": args.output}
    if getattr(args, "profile", None):
        save_profile(profile, args.profile)
        files["profile"] = args.profile
    if schedule is not None and args.schedule_out:
        Path(args.schedule_out).write_text("\n".join(str(v) for v in schedule) + "\n")
        files["schedule"] = args.schedule_out
    summary = {
        "family": args.family,
        "n": host.n,
        "t": host.lifetime,
        "host_edges": host.edge_count,
        "files": files,
    }
    if profile is not None:
        summary["arcs"] = profile.arc_count
    if schedule is not None:
        summary["schedule"] = schedule
    if layout is not None:
        summary["layout"] = layout.as_dict()
    _emit(args.format, summary)
    return 0


def _cmd_check(args) -> int:
    host = load_host(args.host)
    profile = load_profile(args.profile, n=host.n)
    if args.mode == "ne":
        report = check_ne(host, profile, budget_cap=args.budget, audit=args.audit)
    else:
        report = check_ge(host, profile, audit=args.audit)
    _emit(args.format, report.as_dict())
    return 0 if report.stable else 1


def _cmd_br(args) -> int:
    host = load_host(args.host)
    profile = load_profile(args.profile, n=host.n)
    view = _AgentView(_CreatedState(host, profile), args.agent)
    rule = "exact" if args.exact else "greedy"
    strategy, cost = view.best(rule, args.budget)
    _emit(
        args.format,
        {
            "agent": args.agent,
            "rule": rule,
            "strategy": sorted(strategy),
            "cost": cost.as_dict(host.n * host.n),
            "cost_before": view.cur_cost.as_dict(host.n * host.n),
            "improving": cost < view.cur_cost,
        },
    )
    return 0


def _parse_schedule_arg(spec: str):
    if spec in ("round-robin", "random"):
        return spec
    if spec.startswith("file:"):
        path, schedule = spec[5:], []
        for tok in Path(path).read_text().split():
            try:
                schedule.append(int(tok))
            except ValueError:
                raise ValueError(f"schedule file {path}: agent {tok!r} is not an integer") from None
        return schedule
    raise ValueError(f"schedule must be round-robin, random, or file:PATH, got {spec!r}")


def _cmd_dynamics(args) -> int:
    host = load_host(args.host)
    if args.profile:
        profile = load_profile(args.profile, n=host.n)
    else:
        profile = empty_profile(host.n)
    schedule = _parse_schedule_arg(args.schedule)
    trace = run_dynamics(
        host,
        profile,
        schedule=schedule,
        rule=args.rule,
        max_steps=args.max_steps,
        seed=args.seed,
        budget_cap=args.budget,
    )
    if args.output:
        write_json(args.output, trace.as_dict(), sort_keys=False)
    _emit(
        args.format,
        {
            "outcome": trace.outcome,
            "moves": len(trace.moves),
            "activations": trace.activations,
            "period": trace.period,
            "entry": trace.entry,
            "trace": args.output,
        },
    )
    return 0


def _cmd_spanner(args) -> int:
    host = load_host(args.host)
    if args.exact:
        sub, size = minimum_spanner(host, budget_cap=args.budget)
        mode = "minimum"
    else:
        sub = minimal_spanner(host)
        size = sub.edge_count
        mode = "minimal"
    if args.output:
        save_graph(sub, args.output)
    _emit(
        args.format,
        {
            "mode": mode,
            "size": size,
            "edges": [[u, v, sub.edges[(u, v)]] for (u, v) in sorted(sub.edges)],
        },
    )
    return 0


def _cmd_poa(args) -> int:
    host = load_host(args.host)
    profile = load_profile(args.profile, n=host.n)
    if args.mode == "ne":
        report = check_ne(host, profile, budget_cap=args.budget)
    else:
        report = check_ge(host, profile)
    if not report.stable:
        _emit(args.format, {"stable": False, "mode": args.mode, "witness": list(report.witness)})
        return 1
    edges = profile.arc_count
    try:
        ratio = poa_ratio(host, profile, budget_cap=args.budget)
    except SearchSpaceExceeded as e:
        # past the budget the optimum, and so the ratio, is only bracketed
        status, lower, upper, optimum, poa = "bounded", e.lower, e.upper, None, None
    else:
        optimum = edges * ratio.denominator // ratio.numerator
        status, lower, upper = "exact", optimum, optimum
        poa = {"num": ratio.numerator, "den": ratio.denominator}
    _emit(
        args.format,
        {
            "stable": True,
            "mode": args.mode,
            "edges": edges,
            "poa_status": status,
            "opt_lower": lower,
            "opt_upper": upper,
            "optimum": optimum,
            "poa": poa,
        },
    )
    return 0


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _cmd_experiment(args) -> int:
    config: dict = {}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        config.update(loaded)
    if args.scenario:
        config["scenario"] = args.scenario
    config.update(_parse_set(args.set or []))
    if args.seed is not None:
        config["seed"] = args.seed
    result = run_experiment(config, out_dir=args.out_dir, threads=args.threads)
    _emit(
        args.format,
        {
            "scenario": result.report["scenario"],
            "summary": result.report["summary"],
            "config_digest": result.report["config_digest"],
            "report": str(result.json_path),
            "csv": str(result.csv_path),
        },
    )
    return result.exit_code


def _cmd_validate(args) -> int:
    if not args.files and not args.host:
        raise ValueError("nothing to validate: give files or --host")
    n = None
    reports = []
    if args.host:
        host_reports = validate_files([args.host], as_host=True)
        reports.extend(host_reports)
        if host_reports[0].ok:
            n = load_host(args.host).n
    reports.extend(validate_files(args.files, as_host=args.as_host, n=n))
    _emit(args.format, [r.as_dict() for r in reports])
    return 0 if all(r.ok for r in reports) else 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default="json", help="stdout format")

    parser = argparse.ArgumentParser(prog="tncg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tncg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_family(gsub, name, help=None, **extra_args):
        # an explicit help=None would still list the family in its parent's help
        p = gsub.add_parser(name, parents=[common], **({"help": help} if help else {}))
        for flag, kw in extra_args.items():
            p.add_argument(flag, **kw)
        p.add_argument("-o", "--output", required=True, help="host file (.tg)")
        if name != "random":
            p.add_argument("--profile", help="also write the profile (.tsp)")
        if name == "brcycle":
            p.add_argument("--schedule-out", help="also write the cycling schedule")
        return p

    gen = sub.add_parser("gen", help="generate instance families")
    gsub = gen.add_subparsers(dest="family", required=True)
    add_gen_family(gsub, "hypercube", **{"--dim": {"type": int, "required": True}})
    add_gen_family(gsub, "t2family", **{"--n": {"type": int, "required": True}})
    add_gen_family(gsub, "brcycle")
    add_gen_family(
        gsub,
        "random",
        **{"--n": {"type": int, "required": True}, "--t": {"type": int, "required": True},
           "--seed": {"type": int, "default": 0}},
    )
    setcover = {"--setcover": {"required": True}}
    for family in ("reduce-br", "reduce-ne"):
        add_gen_family(gsub, family, **setcover)
        alias = add_gen_family(sub, family, help=f"alias of gen {family}", **setcover)
        alias.set_defaults(family=family)

    p = sub.add_parser("check", parents=[common], help="verify an equilibrium")
    p.add_argument("--host", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--mode", choices=["ne", "ge"], default="ne")
    p.add_argument("--audit", action="store_true", help="attach structural audits")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("br", parents=[common], help="best response for one agent")
    p.add_argument("--host", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="exact instead of greedy")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("dynamics", parents=[common], help="improving-response dynamics")
    p.add_argument("--host", required=True)
    p.add_argument("--profile", help="start profile, default empty")
    p.add_argument("--schedule", default="round-robin", help="round-robin | random | file:PATH")
    p.add_argument("--rule", choices=["greedy", "exact"], default="greedy")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="seed of the random schedule")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("-o", "--output", help="write full trace JSON here")

    p = sub.add_parser("spanner", parents=[common], help="temporal spanner optima")
    p.add_argument("--host", required=True)
    p.add_argument("--exact", action="store_true", help="minimum instead of minimal")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("-o", "--output", help="write the spanner (.tg)")

    p = sub.add_parser("poa", parents=[common], help="price-of-anarchy ratio")
    p.add_argument("--host", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--mode", choices=["ne", "ge"], default="ne")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("experiment", parents=[common], help="run a scenario")
    p.add_argument("--scenario", choices=sorted(SCENARIO_DEFAULTS))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, help="config seed")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--out-dir", default=".", help="directory for report files")

    p = sub.add_parser("validate", parents=[common], help="check input files")
    p.add_argument("files", nargs="*")
    p.add_argument("--host", help="validate as host and use for profile ranges")
    p.add_argument("--as-host", action="store_true", help="treat .tg files as hosts")

    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "reduce-br": _cmd_gen,
    "reduce-ne": _cmd_gen,
    "check": _cmd_check,
    "br": _cmd_br,
    "dynamics": _cmd_dynamics,
    "spanner": _cmd_spanner,
    "poa": _cmd_poa,
    "experiment": _cmd_experiment,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _DISPATCH[args.command]
    try:
        if "budget" in args:
            _check_budget(args.budget)
        return handler(args)
    except (TncgError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
