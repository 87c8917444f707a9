import hashlib
import json
import random

import pytest

from tncg import (
    FormatError,
    OUTCOME_CAP,
    OUTCOME_CYCLE,
    OUTCOME_GE,
    OUTCOME_NE,
    StrategyProfile,
    TemporalGraph,
    agent_cost,
    check_ge,
    check_ne,
    exact_best_response,
    final_profile,
    gen_br_cycle,
    gen_random_host,
    gen_random_profile,
    gen_t2_equilibrium,
    greedy_best_response,
    minimum_spanner,
    parse_host,
    poa_ratio,
    replay,
    run_dynamics,
    social_cost,
    trace_from_dict,
)


def test_br_cycle_runs_forever():
    host, profile, schedule = gen_br_cycle()
    # cycle the designed schedule enough times to force a state revisit
    trace = run_dynamics(host, profile, schedule=schedule * 4, rule="exact")
    assert trace.outcome == OUTCOME_CYCLE
    assert trace.period == 6
    assert trace.entry == 0
    assert trace.final == profile.canonical()
    for move in trace.moves:
        assert move.cost_after < move.cost_before
    assert replay(trace).canonical() == profile.canonical()


def test_round_robin_moves_strictly_improve():
    rng = random.Random(901)
    converged = 0
    for _ in range(40):
        n = rng.randint(4, 9)
        t = rng.randint(1, 3)
        host = gen_random_host(n, t, rng.randrange(10**6))
        profile = gen_random_profile(host, rng.randint(0, 2 * n), rng.randrange(10**6))
        trace = run_dynamics(host, profile, schedule="round-robin", rule="greedy")
        for move in trace.moves:
            assert move.cost_after < move.cost_before
        if trace.outcome == OUTCOME_GE:
            converged += 1
            rep = check_ge(host, final_profile(trace))
            assert rep.stable, rep.witness
        assert replay(trace).canonical() == trace.final
    assert converged >= 30  # cycles are possible but should be rare here


def test_exact_rule_converges_to_ne():
    rng = random.Random(902)
    checked = 0
    for _ in range(15):
        n = rng.randint(4, 7)
        host = gen_random_host(n, rng.randint(1, 3), rng.randrange(10**6))
        profile = gen_random_profile(host, rng.randint(0, n), rng.randrange(10**6))
        trace = run_dynamics(host, profile, rule="exact")
        if trace.outcome == OUTCOME_NE:
            checked += 1
            assert check_ne(host, final_profile(trace)).stable
    assert checked >= 10


@pytest.mark.parametrize("rule", ["greedy", "exact"])
@pytest.mark.parametrize("schedule", ["round-robin", "random"])
def test_move_costs_equal_agent_cost(rule, schedule):
    rng = random.Random(903)
    moves = 0
    for _ in range(12):
        n = rng.randint(4, 8)
        host = gen_random_host(n, rng.randint(1, 4), rng.randrange(10**6))
        profile = gen_random_profile(host, rng.randint(0, 2 * n), rng.randrange(10**6))
        trace = run_dynamics(host, profile, schedule=schedule, rule=rule, seed=rng.randrange(100))
        for move in trace.moves:
            after = profile.with_strategy(move.agent, move.new)
            assert move.cost_before == agent_cost(host, profile, move.agent)
            assert move.cost_after == agent_cost(host, after, move.agent)
            profile = after
        moves += len(trace.moves)
    assert moves >= 20


def test_random_schedule_is_deterministic_per_seed():
    host = gen_random_host(7, 3, 5150)
    profile = gen_random_profile(host, 9, 5151)
    a = run_dynamics(host, profile, schedule="random", seed=12, rule="greedy")
    b = run_dynamics(host, profile, schedule="random", seed=12, rule="greedy")
    assert a.as_dict() == b.as_dict()
    c = run_dynamics(host, profile, schedule="random", seed=13, rule="greedy")
    assert c.outcome in (OUTCOME_GE, OUTCOME_CYCLE, OUTCOME_CAP)


def test_random_schedule_convergence_is_ge():
    host = gen_random_host(6, 2, 777)
    profile = gen_random_profile(host, 6, 778)
    trace = run_dynamics(host, profile, schedule="random", seed=3, rule="greedy")
    if trace.outcome == OUTCOME_GE:
        assert check_ge(host, final_profile(trace)).stable


def test_step_cap():
    host = gen_random_host(6, 2, 321)
    profile = StrategyProfile(6, [set() for _ in range(6)])
    trace = run_dynamics(host, profile, rule="greedy", max_steps=1)
    assert trace.outcome == OUTCOME_CAP
    assert len(trace.moves) == 1


@pytest.mark.parametrize("cap", [0, -5])
def test_step_cap_below_one_is_rejected(cap):
    host = gen_random_host(6, 2, 321)
    profile = StrategyProfile(6, [set() for _ in range(6)])
    with pytest.raises(ValueError, match="max_steps"):
        run_dynamics(host, profile, rule="greedy", max_steps=cap)


def test_explicit_schedule_exhaustion_is_step_cap():
    host = gen_random_host(5, 2, 42)
    profile = StrategyProfile(5, [set() for _ in range(5)])
    trace = run_dynamics(host, profile, schedule=[0, 1], rule="greedy")
    assert trace.schedule == "explicit"
    assert trace.outcome == OUTCOME_CAP
    assert trace.activations == 2


def test_empty_explicit_schedule_is_rejected():
    host = gen_random_host(5, 2, 42)
    profile = StrategyProfile(5, [set() for _ in range(5)])
    with pytest.raises(ValueError, match="schedule is empty"):
        run_dynamics(host, profile, schedule=[])


def test_explicit_schedule_range_check():
    host = gen_random_host(4, 1, 1)
    profile = StrategyProfile(4, [set() for _ in range(4)])
    with pytest.raises(ValueError):
        run_dynamics(host, profile, schedule=[0, 7])
    # every entry is checked before the first activation
    for schedule, bad in ((["a"], "'a'"), ([True], "True"), ([0, 1, 2.0], r"2\.0")):
        with pytest.raises(ValueError, match=rf"^scheduled agent {bad} out of range$"):
            run_dynamics(host, profile, schedule=schedule)


def test_unknown_rule_and_schedule():
    host = gen_random_host(4, 1, 2)
    profile = StrategyProfile(4, [set() for _ in range(4)])
    with pytest.raises(ValueError):
        run_dynamics(host, profile, rule="lazy")
    with pytest.raises(ValueError):
        run_dynamics(host, profile, schedule="sorted")


def test_trace_dict_round_trip():
    host, profile, schedule = gen_br_cycle()
    trace = run_dynamics(host, profile, schedule=schedule, rule="exact")
    back = trace_from_dict(trace.as_dict())
    assert back.as_dict() == trace.as_dict()
    assert replay(back).canonical() == trace.final


def test_trace_from_dict_reads_every_field_by_name():
    host, profile, schedule = gen_br_cycle()
    data = json.loads(json.dumps(run_dynamics(host, profile, schedule=schedule, rule="exact").as_dict()))
    extra = {**data, "note": 1, "moves": [{**m, "note": 1} for m in data["moves"]]}
    assert json.dumps(trace_from_dict(extra).as_dict()) == json.dumps(data)
    for key in data:
        with pytest.raises(KeyError):
            trace_from_dict({k: v for k, v in data.items() if k != key})
    for key in data["moves"][0]:
        moves = [{k: v for k, v in m.items() if k != key} for m in data["moves"]]
        with pytest.raises(KeyError):
            trace_from_dict({**data, "moves": moves})


def test_replay_rejects_tampered_trace():
    host, profile, schedule = gen_br_cycle()
    trace = run_dynamics(host, profile, schedule=schedule, rule="exact")
    data = trace.as_dict()
    data["moves"][0]["old"] = [0]
    with pytest.raises(ValueError):
        replay(trace_from_dict(data))
    # a move agent that is no node of a 4-node trace is named with its step
    data = run_dynamics(gen_random_host(4, 3, 0), StrategyProfile(4, [set()] * 4)).as_dict()
    for agent in (7, 1.0, -1, True):
        data["moves"][0]["agent"] = agent
        with pytest.raises(ValueError, match=rf"^trace mismatch at step 1: agent {agent} out of range$"):
            replay(trace_from_dict(data))


def test_replay_rejects_edited_final_profile():
    host, profile, schedule = gen_br_cycle()
    data = run_dynamics(host, profile, schedule=schedule, rule="exact").as_dict()
    data["final"] = (() if data["final"][0] else (1,), *data["final"][1:])
    with pytest.raises(ValueError, match="^replayed final profile differs from the recorded one$"):
        replay(trace_from_dict(data))


@pytest.mark.parametrize("rule, outcome", [("greedy", OUTCOME_GE), ("exact", OUTCOME_NE)])
def test_one_node_host_converges_at_once(rule, outcome):
    # agent 0 has no endpoint: its view sweeps with an empty start list
    host, start = TemporalGraph(1, {}), StrategyProfile(1, [set()])
    trace = run_dynamics(host, start, rule=rule)
    assert (trace.outcome, trace.activations, trace.moves) == (outcome, 1, [])
    assert greedy_best_response(host, start, 0) == (frozenset(), False)
    assert exact_best_response(host, start, 0)[0] == frozenset()


def _pinned_traces():
    """Traces over every schedule kind, both rules, empty and random starts,
    with and without a step cap; the br-cycle gadget adds cycling runs."""
    rng = random.Random(904)
    hosts = [gen_random_host(n, t, rng.randrange(10**6))
             for n, t in [(4, 1), (5, 2), (6, 3), (7, 2), (8, 4), (6, 6)]]
    cases = [(host, start) for host in hosts
             for start in (StrategyProfile(host.n, [set()] * host.n),
                           gen_random_profile(host, 2 * host.n, rng.randrange(10**6)))]
    cycle_host, cycle_profile, cycle_schedule = gen_br_cycle()
    cases.append((cycle_host, cycle_profile))
    for host, start in cases:
        explicit = cycle_schedule * 3 if host is cycle_host else [
            rng.randrange(host.n) for _ in range(3 * host.n)]
        for schedule in ("round-robin", "random", explicit):
            for seed in ((0, 1, 2) if schedule == "random" else (0,)):
                for rule in ("greedy", "exact"):
                    for cap in (None, 3):
                        yield run_dynamics(host, start, schedule=schedule, rule=rule,
                                           max_steps=cap, seed=seed)


def test_traces_match_golden_digest():
    digest = hashlib.sha256()
    outcomes = set()
    for trace in _pinned_traces():
        digest.update(json.dumps(trace.as_dict(), sort_keys=True).encode() + b"\n")
        outcomes.add(trace.outcome)
    assert outcomes == {OUTCOME_CAP, OUTCOME_CYCLE, OUTCOME_GE, OUTCOME_NE}
    assert digest.hexdigest() == "0130650443fe68b64281abd402b64d986c7f4437c698330e31b1a47e4a96bd2c"


def _large_greedy_runs():
    """Greedy runs at n = 16, 24, 30 with t = n^2/4: round-robin from the empty
    profile, and the random schedule from a random profile with 2n arcs (so
    the run drops arcs and antiparallel pairs); each converged final profile
    is checked by check_ge and check_ne, both with the audit."""
    rng = random.Random(905)
    for n in (16, 24, 24, 30):
        host = gen_random_host(n, n * n // 4, rng.randrange(10**6))
        runs = (("round-robin", StrategyProfile(n, [set()] * n)),
                ("random", gen_random_profile(host, 2 * n, rng.randrange(10**6))))
        for schedule, start in runs:
            trace = run_dynamics(host, start, schedule=schedule, rule="greedy",
                                 seed=rng.randrange(100))
            reports = None
            if trace.outcome == OUTCOME_GE:
                final = final_profile(trace)
                reports = [check_ge(host, final, audit=True).as_dict(),
                           check_ne(host, final, audit=True).as_dict()]
            yield trace, reports


def test_large_greedy_traces_and_checks_match_golden_digests():
    traces, checks = hashlib.sha256(), hashlib.sha256()
    moves = drops = audited = 0
    for trace, reports in _large_greedy_runs():
        traces.update(json.dumps(trace.as_dict(), sort_keys=True).encode() + b"\n")
        checks.update(json.dumps(reports, sort_keys=True).encode() + b"\n")
        moves += len(trace.moves)
        drops += sum(len(m.new) < len(m.old) for m in trace.moves)
        audited += reports is not None
    assert moves >= 2000 and drops >= 500 and audited == 8
    assert traces.hexdigest() == "5ba0484d5c1e62bd1ee112bea50de93b90549e0c9858362402ae5c8df8304507"
    assert checks.hexdigest() == "ea3d2225c6d1872bdeb66e129db009b799deae76d94591b20488f8aab39d421b"


def test_incomplete_host_is_rejected_by_name():
    host = TemporalGraph(3, {(0, 1): 1, (1, 2): 2})
    message = r"^host pair \(0, 2\) missing; host must be complete$"
    with pytest.raises(ValueError, match=message):
        run_dynamics(host, StrategyProfile(3, [set()] * 3))
    with pytest.raises(ValueError, match=message):
        check_ge(host, StrategyProfile(3, [set()] * 3))
    # every agent of this spanning profile is settled, so no view would
    # read the host's missing pair
    host = TemporalGraph(3, {(0, 1): 1, (1, 2): 1})
    for check in (check_ne, check_ge):
        with pytest.raises(ValueError, match=message):
            check(host, StrategyProfile(3, [{1}, {2}, set()]))
    # every cost, response and dynamics run rejects the host too, even where
    # no sweep would read the missing pair
    host = TemporalGraph(3, {(0, 1): 1, (1, 2): 2})
    profile = StrategyProfile(3, [{1}, set(), set()])
    calls = [
        lambda: agent_cost(host, profile, 0),
        lambda: social_cost(host, profile),
        lambda: poa_ratio(host, profile),
        lambda: greedy_best_response(host, profile, 1),
        lambda: exact_best_response(host, profile, 1),
        lambda: run_dynamics(host, profile, schedule=[1]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    # the host checks of the file reader and the generators name it too
    with pytest.raises(ValueError, match=message):
        host.validate_host()
    with pytest.raises(FormatError, match=r"^h\.tg: host pair \(0, 2\) missing; host must be complete$") as err:
        parse_host("3 2\n0 1 1\n1 2 2\n", path="h.tg")
    assert err.value.line is None


def test_negative_budgets_are_rejected():
    host = gen_random_host(5, 3, 11)
    start = StrategyProfile(5, [set()] * 5)
    for rule in ("greedy", "exact"):
        with pytest.raises(ValueError, match=r"^budget_cap must be >= 0, got -1$"):
            run_dynamics(host, start, rule=rule, budget_cap=-1)
    with pytest.raises(ValueError, match="budget_cap"):
        exact_best_response(host, start, 0, budget_cap=-1)
    with pytest.raises(ValueError, match="budget_cap"):
        check_ne(host, start, budget_cap=-1)
    with pytest.raises(ValueError, match="budget_cap"):
        minimum_spanner(host, budget_cap=-1)
    with pytest.raises(ValueError, match="budget_cap"):
        poa_ratio(host, final_profile(run_dynamics(host, start)), budget_cap=-1)
    # a zero budget stays valid: it fails only once a search needs a step
    assert run_dynamics(host, start, budget_cap=0).outcome == OUTCOME_GE
    # also where every agent is settled and no search would read the budget
    tree = gen_random_host(6, 2, 3)
    for h, profile in ((TemporalGraph(2, {(0, 1): 1}), StrategyProfile(2, [{1}, set()])),
                       (tree, gen_t2_equilibrium(tree))):
        assert check_ne(h, profile, budget_cap=0).stable
        with pytest.raises(ValueError, match=r"^budget_cap must be >= 0, got -1$"):
            check_ne(h, profile, budget_cap=-1)
