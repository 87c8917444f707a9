"""Improving-response dynamics: schedulers, move rules, cycle detection.

A run activates one agent at a time; the agent moves iff its rule (greedy or
exact best response) strictly improves its cost vector.  A run keeps one
profile, its created-graph state's frozensets, and after each applied move
keys the state by their tuple, equal exactly when the profiles are, so
revisits are detected exactly rather than probabilistically.  The game has
no finite improvement property, so cycles are a real outcome, not an error.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

from .core import TemporalGraph, _check_int, _is_int
from .game import CostVector, StrategyProfile, _CreatedState
from .responses import DEFAULT_BUDGET, _AgentView, _check_budget

OUTCOME_GE = "converged-GE"
OUTCOME_NE = "converged-NE"
OUTCOME_CYCLE = "cycle-detected"
OUTCOME_CAP = "step-cap-reached"


@dataclass(frozen=True)
class Move:
    step: int                       # 1-based move index
    agent: int
    old: tuple[int, ...]
    new: tuple[int, ...]
    cost_before: CostVector
    cost_after: CostVector


@dataclass
class DynamicsTrace:
    n: int
    rule: str
    schedule: str                   # "round-robin", "random", or "explicit"
    seed: int
    max_steps: int
    initial: tuple[tuple[int, ...], ...]
    moves: list[Move] = field(default_factory=list)
    outcome: str = OUTCOME_CAP
    period: Optional[int] = None
    entry: Optional[int] = None     # move count at which the revisited state first occurred
    final: tuple[tuple[int, ...], ...] = ()
    activations: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def trace_from_dict(data: dict) -> DynamicsTrace:
    """The trace that `DynamicsTrace.as_dict` wrote.  Every field is read by
    name: a missing key raises KeyError, an unknown key is ignored."""
    trace = DynamicsTrace(**{f.name: data[f.name] for f in fields(DynamicsTrace)})
    trace.initial = tuple(tuple(s) for s in trace.initial)
    trace.final = tuple(tuple(s) for s in trace.final)
    trace.moves = [_move_from_dict(m) for m in trace.moves]
    return trace


def _move_from_dict(data: dict) -> Move:
    m = {f.name: data[f.name] for f in fields(Move)}
    return Move(**{**m, "old": tuple(m["old"]), "new": tuple(m["new"]),
                   "cost_before": CostVector(**m["cost_before"]),
                   "cost_after": CostVector(**m["cost_after"])})


def run_dynamics(
    host: TemporalGraph,
    profile: StrategyProfile,
    schedule: str | Sequence[int] = "round-robin",
    rule: str = "greedy",
    max_steps: Optional[int] = None,
    seed: int = 0,
    budget_cap: int = DEFAULT_BUDGET,
) -> DynamicsTrace:
    """Run improving-response dynamics until convergence, cycle, or cap.

    schedule: "round-robin", "random" (seeded), or an explicit agent
    sequence.  rule: "greedy" or "exact".  Convergence means a full pass with
    no improving agent; after n consecutive quiet random activations a
    deterministic sweep confirms it.  Explicit schedules are replay tools:
    exhausting one ends the run with the step-cap outcome, and an empty one
    raises ValueError, as it activates nobody.  max_steps caps
    applied moves (default 10 * n^2); a cap that is not an integer >= 1
    raises ValueError, as do a seed that is not an integer and a budget_cap
    that is not an integer >= 0.
    One created-graph state, patched per move, serves the whole run.
    """
    n = host.n
    if max_steps is not None:
        _check_int("max_steps", max_steps, 1)
    _check_int("seed", seed)
    _check_budget(budget_cap)
    if rule not in ("greedy", "exact"):
        raise ValueError(f"unknown rule {rule!r}")
    if max_steps is None:
        max_steps = 10 * n * n
    explicit: Optional[list[int]] = None
    if isinstance(schedule, str):
        if schedule not in ("round-robin", "random"):
            raise ValueError(f"unknown schedule {schedule!r}")
        schedule_name = schedule
    else:
        explicit = list(schedule)
        if not explicit:
            raise ValueError("schedule is empty")
        for v in explicit:
            if not (_is_int(v) and 0 <= v < n):
                raise ValueError(f"scheduled agent {v!r} out of range")
        schedule_name = "explicit"

    state = _CreatedState(host, profile)
    trace = DynamicsTrace(
        n=n,
        rule=rule,
        schedule=schedule_name,
        seed=seed,
        max_steps=max_steps,
        initial=profile.canonical(),
    )
    converged_outcome = OUTCOME_GE if rule == "greedy" else OUTCOME_NE
    seen: dict[tuple, int] = {tuple(state.strategies): 0}
    rng = random.Random(seed) if schedule_name == "random" else None
    quiet = 0
    while True:
        if explicit is not None:
            if trace.activations == len(explicit):
                trace.outcome = OUTCOME_CAP
                break
            v = explicit[trace.activations]
        elif quiet >= (n if schedule_name == "round-robin" else 2 * n):
            trace.outcome = converged_outcome
            break
        elif schedule_name == "round-robin":
            v = trace.activations % n
        elif quiet >= n:
            v = quiet - n               # random schedule: the confirming sweep
        else:
            v = rng.randrange(n)
        trace.activations += 1
        view = _AgentView(state, v)
        got = view.best(rule, budget_cap)
        if got is None:
            quiet += 1
            continue
        strategy, cost = got
        state.move(v, strategy)
        trace.moves.append(Move(step=len(trace.moves) + 1, agent=v,
                                old=tuple(sorted(view.current)), new=tuple(sorted(strategy)),
                                cost_before=view.cur_cost, cost_after=cost))
        quiet = 0
        key = tuple(state.strategies)
        if key in seen:
            trace.outcome = OUTCOME_CYCLE
            trace.entry = seen[key]
            trace.period = len(trace.moves) - seen[key]
            break
        seen[key] = len(trace.moves)
        if len(trace.moves) >= max_steps:
            trace.outcome = OUTCOME_CAP
            break

    trace.final = tuple(tuple(sorted(s)) for s in state.strategies)
    return trace


def final_profile(trace: DynamicsTrace) -> StrategyProfile:
    return StrategyProfile(trace.n, [set(s) for s in trace.final])


def replay(trace: DynamicsTrace) -> StrategyProfile:
    """Re-apply the recorded moves from the initial profile.

    Verifies that each move's agent is a node, its old strategy matches the
    evolving state, and the result equals the recorded final profile.
    """
    profile = StrategyProfile(trace.n, [set(s) for s in trace.initial])
    for move in trace.moves:
        if not (_is_int(move.agent) and 0 <= move.agent < trace.n):
            raise ValueError(f"trace mismatch at step {move.step}: agent {move.agent!r} out of range")
        current = tuple(sorted(profile.strategies[move.agent]))
        if current != move.old:
            raise ValueError(
                f"trace mismatch at step {move.step}: agent {move.agent} "
                f"has {current}, move expects {move.old}"
            )
        profile = profile.with_strategy(move.agent, move.new)
    if profile.canonical() != trace.final:
        raise ValueError("replayed final profile differs from the recorded one")
    return profile
