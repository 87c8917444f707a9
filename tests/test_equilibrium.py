import hashlib
import json
import random
from dataclasses import astuple

import pytest

from tncg import (
    OUTCOME_GE,
    OUTCOME_NE,
    DirectedTemporalGraph,
    PreconditionViolated,
    SearchSpaceExceeded,
    StrategyProfile,
    TemporalGraph,
    agent_cost,
    audit_edge_bounds,
    audit_profile,
    check_ge,
    check_ne,
    empty_profile,
    exact_best_response,
    final_profile,
    find_forbidden_structure,
    find_large_node,
    freeze_relabel,
    gen_hypercube,
    gen_random_directed,
    gen_random_host,
    gen_random_profile,
    gen_t2_equilibrium,
    gen_t2_family,
    necessary_set,
    run_dynamics,
    verify_large_node,
)
from tncg import equilibrium
from tncg.core import mask_to_set, reach_evaluations, reset_reach_evaluations
from tncg.equilibrium import _ceil_sqrt_over, _dense_below_threshold, _find_forbidden
from tncg.game import _CreatedState
from tncg.responses import _AgentView

from oracles import (
    brute_agent_cost,
    brute_best_response,
    brute_created_graph,
    brute_forbidden,
    brute_reach,
)


def test_check_ne_and_ge_on_families():
    for d in (3, 4):
        host, profile = gen_hypercube(d)
        assert check_ne(host, profile).stable
        assert check_ge(host, profile).stable
    for n in (5, 8):
        host, profile = gen_t2_family(n)
        assert check_ne(host, profile).stable


def test_witness_identifies_improving_agent():
    host, profile = gen_t2_family(6)
    # drop agent 3's only arc: it no longer reaches anyone by itself
    broken = profile.with_strategy(3, set())
    rep = check_ne(host, broken)
    assert not rep.stable
    agent, strategy = rep.witness
    from tncg import agent_cost

    before = agent_cost(host, broken, agent)
    after = agent_cost(host, broken.with_strategy(agent, frozenset(strategy)), agent)
    assert after < before


def test_ge_witness_is_single_toggle():
    host, profile = gen_t2_family(6)
    broken = profile.with_strategy(3, set())
    rep = check_ge(host, broken)
    assert not rep.stable
    agent, strategy = rep.witness
    assert len(set(strategy) ^ set(broken[agent])) == 1


def test_agent_costs_reported_for_all_agents():
    host, profile = gen_t2_family(5)
    for rep in (check_ne(host, profile), check_ge(host, profile)):
        assert len(rep.agent_costs) == host.n
        for v in range(host.n):
            cost = rep.agent_costs[v]
            assert cost == agent_cost(host, profile, v)
            assert cost.unreached == 0
            assert cost.edges == len(profile[v])
    # unstable profiles: agents after the witness are reported too
    rng = random.Random(78)
    before_last = 0
    for _ in range(20):
        n = rng.randint(3, 7)
        host = gen_random_host(n, rng.randint(1, 3), rng.randrange(10**6))
        profile = gen_random_profile(host, rng.randint(0, n), rng.randrange(10**6))
        for rep in (check_ne(host, profile), check_ge(host, profile)):
            assert rep.agent_costs == tuple(agent_cost(host, profile, v) for v in range(n))
            if rep.witness is not None and rep.witness[0] < n - 1:
                before_last += 1
    assert before_last >= 10


def test_necessary_set_matches_reach_difference():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 6)
        host = gen_random_host(n, rng.randint(1, 3), rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(1, n + 1), rng.randrange(10**6))
        und = brute_created_graph(host, p)
        for (u, w) in p.arcs():
            if u in p[w]:
                rest = und  # antiparallel twin keeps the pair alive
            else:
                pair = (min(u, w), max(u, w))
                rest = TemporalGraph(und.n, {q: lab for q, lab in und.edges.items() if q != pair})
            expect = brute_reach(und, u) - brute_reach(rest, u)
            assert necessary_set(host, p, u, w) == expect


def test_necessary_masks_match_reach_difference_on_many_arcs():
    # owners of >= 3 arcs, where each arc's mask needs both a prefix and a
    # suffix union of the other covers: node 0 of the 3-cube and profiles
    # with 2n arcs on n = 7; necessary() and necessary_set against the
    # reach difference of the created graph with and without the arc's pair
    host, profile = gen_hypercube(3)
    assert len(profile[0]) == 3
    cases = [(host, profile)]
    rng = random.Random(3403)
    for _ in range(25):
        host = gen_random_host(7, rng.randint(1, 6), rng.randrange(10**6))
        cases.append((host, gen_random_profile(host, 14, rng.randrange(10**6))))
    owners = middles = nonempty = 0
    for host, p in cases:
        und = brute_created_graph(host, p)
        state = _CreatedState(host, p)
        for u in range(host.n):
            if len(p[u]) < 3:
                continue
            owners += 1
            masks = _AgentView(state, u).necessary()
            assert set(masks) == p[u]
            own = list(p[u])
            for i, w in enumerate(own):
                middles += 0 < i < len(own) - 1
                nonempty += masks[w] != 0
                if u in p[w]:
                    rest = und
                else:
                    pair = (min(u, w), max(u, w))
                    rest = TemporalGraph(und.n, {q: lab for q, lab in und.edges.items() if q != pair})
                expect = brute_reach(und, u) - brute_reach(rest, u)
                assert mask_to_set(masks[w]) == expect == necessary_set(host, p, u, w)
    assert owners >= 40 and middles >= 60 and nonempty >= 15, (owners, middles, nonempty)


def test_necessary_set_empty_for_antiparallel():
    host = gen_random_host(3, 1, 0)
    p = StrategyProfile(3, [{1}, {0}, set()])
    assert necessary_set(host, p, 0, 1) == set()
    assert necessary_set(host, p, 1, 0) == set()
    with pytest.raises(ValueError):
        necessary_set(host, p, 0, 2)
    # True and 1.0 compare equal to endpoint 1, whose arc is present
    for w in (True, 1.0):
        with pytest.raises(ValueError, match=rf"^agent 0: endpoint {w} out of range$"):
            necessary_set(host, p, 0, w)
    for u in (99, -1, True, 1.0):
        with pytest.raises(ValueError, match=rf"^agent {u} out of range$"):
            necessary_set(host, p, u, 0)


def _near_miss_geometry(z_label: int):
    # z=0, u1=1, u2=2, x=3, y=4, relays 5..8; relay labels are staggered so
    # every wrap-around route through the far side forces a label decrease
    special = {
        (1, 5): 1, (3, 5): 1, (1, 6): 2, (4, 6): 3,
        (2, 7): 1, (3, 7): 2, (2, 8): 1, (4, 8): 1,
        (0, 1): z_label, (0, 2): z_label,
    }
    edges = {}
    for u in range(9):
        for v in range(u + 1, 9):
            edges[(u, v)] = special.get((u, v), 3)
    host = TemporalGraph(9, edges)
    profile = StrategyProfile(
        9,
        [
            {1, 2},      # z buys to both u agents
            {5, 6},      # u1 relays toward x and y
            {7, 8},      # u2 relays toward x and y
            set(), set(),
            {3}, {4}, {3}, {4},
        ],
    )
    return host, profile


def test_forbidden_structure_near_misses_return_none():
    # cheap z edges open alternate routes, emptying the necessary sets
    host, profile = _near_miss_geometry(z_label=1)
    assert find_forbidden_structure(host, profile) is None
    assert 3 not in necessary_set(host, profile, 1, 5)
    # expensive z edges keep necessity but break the label condition
    host, profile = _near_miss_geometry(z_label=3)
    assert find_forbidden_structure(host, profile) is None
    assert 3 in necessary_set(host, profile, 1, 5)
    # no z edges at all: necessity holds but the cross pair is missing
    host, profile = _near_miss_geometry(z_label=3)
    profile = profile.with_strategy(0, set())
    assert find_forbidden_structure(host, profile) is None


def test_forbidden_scan_returns_first_witness():
    # with every necessary set forced to {x, y}, the scan's first witness
    # pins its order: z, then u1 < u2, then targets, then arcs ascending
    host, profile = _near_miss_geometry(z_label=1)
    masks = {arc: (1 << 3) | (1 << 4) for arc in profile.arcs()}
    witness = _find_forbidden(_CreatedState(host, profile), masks)
    assert witness.as_dict() == {
        "z": 0, "u1": 1, "u2": 2, "x": 3, "y": 4,
        "e1x": [1, 5], "e1y": [1, 6], "e2x": [2, 7], "e2y": [2, 8],
    }


def test_forbidden_scan_matches_brute_force():
    # necessary sets forced at random, so witnesses occur, and the scan must
    # return exactly the oracle's first one in lexicographic order
    rng = random.Random(2101)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(5, 8)
        host = gen_random_host(n, rng.randint(1, 4), rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(n, 3 * n), rng.randrange(10**6))
        masks = {
            arc: sum(1 << x for x in range(n) if rng.random() < 0.3) for arc in p.arcs()
        }
        witness = _find_forbidden(_CreatedState(host, p), masks)
        expect = brute_forbidden(n, host.edges, p.strategies, masks)
        assert (witness and astuple(witness)) == expect
        outcomes.add(expect is None)
    assert outcomes == {True, False}


def test_forbidden_structure_none_on_random_profiles():
    rng = random.Random(4711)
    for _ in range(120):
        n = rng.randint(4, 8)
        host = gen_random_host(n, rng.randint(1, 4), rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(0, 2 * n), rng.randrange(10**6))
        assert find_forbidden_structure(host, p) is None


def test_edge_bound_report_values():
    host, profile = gen_t2_family(9)
    rep = audit_edge_bounds(host, profile)
    assert rep.arc_bound == 2 * (9 - 2)
    assert rep.arcs == 14 and rep.arc_bound_ok and rep.arc_bound_applies
    assert rep.dense_ok
    d = rep.as_dict()
    assert d["arc_bound"] == 14 and d["dense_ok"] is True


def test_audit_profile_on_equilibrium():
    host, profile = gen_hypercube(3)
    audit = audit_profile(host, profile)
    assert audit.ok
    assert audit.antiparallel_free and audit.necessary_ok
    assert audit.forbidden is None


def test_audit_profile_flags_antiparallel_pair():
    host, profile = gen_hypercube(3)
    # 0 already buys the arc to 1; 1 buying it back makes a twin
    twin = profile.with_strategy(1, profile[1] | {0})
    audit = audit_profile(host, twin)
    assert not audit.antiparallel_free
    assert not audit.ok
    assert audit.as_dict()["antiparallel_free"] is False


def test_audits_reject_profile_of_other_size():
    host = gen_random_host(5, 3, 1)
    profiles = [
        empty_profile(4),   # indexing agent 4 of it would fail first
        StrategyProfile(4, [{1}, set(), set(), set()]),
        StrategyProfile(6, [set()] * 5 + [{0}]),
    ]
    for p in profiles:
        for audit in (audit_profile, audit_edge_bounds, find_forbidden_structure, freeze_relabel):
            with pytest.raises(ValueError, match="does not match host"):
                audit(host, p)
    incomplete = TemporalGraph(3, {(0, 1): 1})
    with pytest.raises(ValueError, match="no host pair"):
        freeze_relabel(incomplete, StrategyProfile(3, [{2}, set(), set()]))


def test_audits_build_no_graph(monkeypatch):
    host = gen_random_host(8, 6, 21)
    trace = run_dynamics(host, empty_profile(8))
    profile = final_profile(trace)
    builds = []
    for cls in (TemporalGraph, DirectedTemporalGraph):
        init = cls.__init__

        def counting(graph, *args, _init=init, **kwargs):
            builds.append(graph)
            _init(graph, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert audit_profile(host, profile).ok
    assert check_ge(host, profile, audit=True).audit.ok
    assert builds == []
    frozen = freeze_relabel(host, profile)
    assert builds == [frozen]


def _record_views(monkeypatch) -> list[int]:
    """The agents whose views the equilibrium module builds, in build order."""
    built = []

    class Recorded(_AgentView):
        __slots__ = ()

        def __init__(self, state, v):
            built.append(v)
            super().__init__(state, v)

    monkeypatch.setattr(equilibrium, "_AgentView", Recorded)
    return built


def test_audited_check_builds_each_view_once(monkeypatch):
    """A stable audited check makes one sweep for the agent costs and one per
    agent view it builds, and builds each view at most once: the audit reads
    its necessary sets off the search's views and builds only the views of
    owners the search settled without one."""
    host = gen_random_host(8, 4, 4242)
    ge = run_dynamics(host, empty_profile(8), rule="greedy")
    ne = run_dynamics(host, empty_profile(8), rule="exact")
    assert (ge.outcome, ne.outcome) == (OUTCOME_GE, OUTCOME_NE)
    cases = [(check, *family) for family in (gen_t2_family(7), gen_hypercube(3))
             for check in (check_ge, check_ne)]
    cases += [(check_ge, host, final_profile(ge)), (check_ne, host, final_profile(ne))]
    built = _record_views(monkeypatch)
    for check, h, profile in cases:
        assert profile.arc_count > 0
        built.clear()
        reset_reach_evaluations()
        report = check(h, profile, audit=True)
        assert report.stable and report.audit.ok
        assert len(set(built)) == len(built), (check.__name__, built)
        assert reach_evaluations() == 1 + len(built), (check.__name__, h.n)


def test_unaudited_check_on_t2_trees_makes_one_sweep():
    """Every agent of a spanning-tree equilibrium is settled: the agent-cost
    sweep is the only sweep, with no view and no search."""
    for seed in range(12):
        n = 2 + seed % 8
        host = gen_random_host(n, 1 + seed % 2 if n > 2 else 1, seed)
        profile = gen_t2_equilibrium(host)
        for check in (check_ne, check_ge):
            reset_reach_evaluations()
            assert check(host, profile).stable
            assert reach_evaluations() == 1, (seed, check.__name__)


def _brute_witness(host, profile, rule):
    """First agent, ascending, with a strictly better strategy, and its best
    one: any strategy for "exact", a single toggle for "greedy"; ties go to
    the lexicographically smallest endpoint set."""
    for v in range(host.n):
        if rule == "exact":
            strategy, cost = brute_best_response(host, profile, v)
        else:
            cost, strategy = min(
                (brute_agent_cost(host, cand, v), tuple(sorted(cand[v])))
                for cand in (profile.with_strategy(v, profile[v] ^ {w})
                             for w in range(host.n) if w != v)
            )
        if cost < brute_agent_cost(host, profile, v):
            return v, tuple(sorted(strategy))
    return None


def _random_tree(host, rng):
    """A random spanning tree, each edge bought by a random side."""
    strategies = [set() for _ in range(host.n)]
    for child in range(1, host.n):
        a, b = child, rng.randrange(child)
        if rng.random() < 0.5:
            a, b = b, a
        strategies[a].add(b)
    return StrategyProfile(host.n, strategies)


def _oracle_profiles():
    """(regime, host, profile) for n = 2..6: trees (t2 equilibria and random
    oriented spanning trees) and non-trees (random arc sets, with
    antiparallel pairs and unreached agents, and converged dynamics)."""
    rng = random.Random(2024)
    for seed in range(150):
        n = 2 + seed % 5
        pairs = n * (n - 1) // 2
        host = gen_random_host(n, rng.randint(1, min(4, pairs)), seed)
        kind = seed % 4
        if kind == 0:
            t2 = gen_random_host(n, rng.randint(1, min(2, pairs)), seed)
            yield "tree", t2, gen_t2_equilibrium(t2)
            yield "tree", host, _random_tree(host, rng)
        elif kind == 1:
            arcs = [(u, w) for u in range(n) for w in range(n) if u != w]
            strategies = [set() for _ in range(n)]
            for u, w in rng.sample(arcs, rng.randint(0, len(arcs))):
                strategies[u].add(w)
            yield "non-tree", host, StrategyProfile(n, strategies)
        else:
            rule = "greedy" if kind == 2 else "exact"
            start = gen_random_profile(host, rng.randint(0, pairs), seed)
            trace = run_dynamics(host, start, rule=rule, max_steps=50)
            yield "non-tree", host, final_profile(trace)


def test_checks_match_brute_force_verdicts(monkeypatch):
    """check_ne / check_ge verdicts and witnesses equal a brute-force scan,
    in a regime where some agents are settled with no view and others are
    searched: tree profiles and non-tree profiles alike."""
    built = _record_views(monkeypatch)
    settled = {"tree": 0, "non-tree": 0}
    searched = {"tree": 0, "non-tree": 0}
    for regime, host, profile in _oracle_profiles():
        for check, rule in ((check_ne, "exact"), (check_ge, "greedy")):
            built.clear()
            report = check(host, profile)
            expected = _brute_witness(host, profile, rule)
            assert report.witness == expected, (rule, profile.canonical(), host.edges)
            assert report.stable == (expected is None)
            visited = host.n if expected is None else expected[0] + 1
            settled[regime] += visited - len(built)
            searched[regime] += len(built)
    assert min(settled.values()) > 0 and min(searched.values()) > 0, (settled, searched)


def test_dense_threshold_exact_arithmetic():
    assert _dense_below_threshold(36, 565)
    assert not _dense_below_threshold(36, 566)
    assert _dense_below_threshold(4, 23)
    assert not _dense_below_threshold(4, 24)
    # agree with floating point except possibly within rounding distance
    import math

    for n in range(2, 60):
        limit = math.sqrt(6) * n ** 1.5 + n
        for arcs in range(0, int(limit) + 3):
            if abs(arcs - limit) > 1e-6:
                assert _dense_below_threshold(n, arcs) == (arcs < limit), (n, arcs)


def test_ceil_sqrt_over():
    assert _ceil_sqrt_over(864, 3) == 10   # ceil(29.39/3)
    assert _ceil_sqrt_over(216, 3) == 5    # ceil(14.69/3)
    assert _ceil_sqrt_over(36, 3) == 2     # exact 6/3
    assert _ceil_sqrt_over(37, 3) == 3     # just past an exact divisor


def test_find_large_node_and_verify():
    rng = random.Random(6)
    lowered = 0
    for _ in range(5):
        g = gen_random_directed(36, 620, 4, rng.randrange(10**6))
        w = find_large_node(g)
        assert verify_large_node(g, w)
        assert len(w.members) == 5
        # tampered witnesses must fail verification
        bad = type(w)(z=w.z, members=w.members[:-1], trimmed=w.trimmed)
        assert not verify_large_node(g, bad)
        outsider = next(v for v in range(36) if v not in w.members and (v, w.z) not in g.arcs)
        bad2 = type(w)(z=w.z, members=tuple(sorted(w.members[:-1] + (outsider,))), trimmed=w.trimmed)
        assert not verify_large_node(g, bad2)
        # each E_u fault on its own: too few arcs, an arc to z, an arc
        # labelled below the arc to z (members whose out-arcs allow one)
        for u in w.members:
            eu, z = w.trimmed[u], w.z

            def with_eu(arcs):
                return type(w)(z=z, members=w.members, trimmed={**w.trimmed, u: arcs})

            assert not verify_large_node(g, with_eu(eu[:-1]))
            assert not verify_large_node(g, with_eu(eu[1:] + ((u, z),)))
            below = [a for a in g.arcs if a[0] == u and a[1] != z and g.arcs[a] < g.arcs[(u, z)]]
            if below:
                assert not verify_large_node(g, with_eu(eu[1:] + (below[0],)))
                lowered += 1
    assert lowered > 0


def test_find_large_node_threshold_boundary():
    with pytest.raises(PreconditionViolated):
        find_large_node(gen_random_directed(36, 565, 3, 1))
    w = find_large_node(gen_random_directed(36, 566, 3, 1))
    assert verify_large_node(gen_random_directed(36, 566, 3, 1), w)
    # the witness's JSON bytes, key order included
    digest = hashlib.sha256(json.dumps(w.as_dict()).encode()).hexdigest()
    assert digest == "fdca9f12f6a869c7deae2e22ed8e047f0b7554e7cd1c8e02e49f9f5d2e8f5a85"


def test_freeze_relabel_mapping():
    host, profile = gen_t2_family(6)
    frozen = freeze_relabel(host, profile)
    created_pairs = {tuple(sorted(a)) for a in profile.arcs()}
    for pair, lab in frozen.edges.items():
        if pair in created_pairs:
            assert lab == host.edges[pair]
        else:
            assert lab == host.lifetime + 1
    assert check_ne(frozen, profile).stable
    from tncg import social_cost

    assert social_cost(frozen, profile) == social_cost(host, profile)


def test_check_ne_propagates_budget():
    host = gen_random_host(6, 3, 123)
    p = gen_random_profile(host, 6, 5)
    with pytest.raises(SearchSpaceExceeded):
        check_ne(host, p, budget_cap=0)


def test_settled_agents_spend_no_budget():
    """Every agent of this exact equilibrium is settled, so a zero budget
    decides it; searching agent 0's three arcs would exceed that budget."""
    host = gen_random_host(6, 3, 0)
    profile = final_profile(run_dynamics(host, empty_profile(6), rule="exact"))
    assert profile.canonical() == ((1, 2, 4), (3,), (), (), (), (1,))
    reset_reach_evaluations()
    assert check_ne(host, profile, budget_cap=0).stable
    assert reach_evaluations() == 1
    with pytest.raises(SearchSpaceExceeded):
        exact_best_response(host, profile, 0, budget_cap=0)


def test_ge_strictly_weaker_than_ne():
    # found by random search: agent 2 cannot improve by one toggle but can
    # swap both its arcs for the single arc to node 0
    host = TemporalGraph(
        5,
        {
            (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 3, (1, 2): 2,
            (1, 3): 1, (1, 4): 3, (2, 3): 3, (2, 4): 1, (3, 4): 3,
        },
    )
    profile = StrategyProfile(5, [set(), {0}, {3, 4}, {0}, {0, 1}])
    assert check_ge(host, profile).stable
    rep = check_ne(host, profile)
    assert not rep.stable
    assert rep.witness == (2, (0,))
