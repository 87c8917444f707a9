import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncg import (
    OUTCOME_GE,
    SearchSpaceExceeded,
    StrategyProfile,
    TemporalGraph,
    agent_cost,
    empty_profile,
    exact_best_response,
    gen_hypercube,
    gen_random_host,
    gen_random_profile,
    gen_t2_family,
    greedy_best_response,
    is_temporally_connected,
    run_dynamics,
    social_cost,
)
from tncg import responses
from tncg.core import mask_to_set, reach_evaluations, reset_reach_evaluations
from tncg.game import _CreatedState
from tncg.responses import _AgentView, _exists_cover

from oracles import (
    brute_agent_cost,
    brute_best_response,
    brute_label_classes,
    brute_created_graph,
    brute_reach,
    candidate_greedy,
    sweep_event_classes,
)


@st.composite
def games(draw, max_n):
    # a complete host on few labels, so that the created graph's label
    # classes are paths and stars, an arbitrary profile and one agent
    n = draw(st.integers(2, max_n))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    labels = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=len(pairs), max_size=len(pairs)))
    host = TemporalGraph(n, dict(zip(pairs, labels)))
    strategies = [draw(st.sets(st.sampled_from([w for w in range(n) if w != u]))) for u in range(n)]
    return host, StrategyProfile(n, strategies), draw(st.integers(0, n - 1))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(games(max_n=7))
def test_agent_view_matches_oracles(case):
    host, p, v = case
    view = _AgentView(_CreatedState(host, p), v)
    rest = {}
    for a, b in p.arcs():
        if v not in (a, b):
            pair = (min(a, b), max(a, b))
            rest[pair] = host.edges[pair]
    for w in range(host.n):
        if w == v:
            continue
        start = host.label(v, w)
        upper = TemporalGraph(host.n, {q: lab for q, lab in rest.items() if lab >= start})
        assert mask_to_set(view.covers[w]) == brute_reach(upper, w)
    assert view.cur_cost == brute_agent_cost(host, p, v)


def test_agent_view_covers_match_oracle_along_moves():
    # hosts with n = 8-12 and t = n^2/4: the created graph's label classes
    # are mostly single pairs, some are two pairs that share an endpoint,
    # and moves flip labels between matching and not, so the patched event
    # list does the work; every agent's covers against walk reachability
    # in G - v over labels >= label(v, w)
    rng = random.Random(3011)
    views = to_whole = to_matching = 0
    for _ in range(8):
        n = rng.randint(8, 12)
        host = gen_random_host(n, n * n // 4, rng.randrange(10**6))
        profile = gen_random_profile(host, 3 * n, rng.randrange(10**6))
        state = _CreatedState(host, profile)
        flags = {}
        for step in range(6 * n):
            v = rng.randrange(n)
            others = [w for w in range(n) if w != v]
            if rng.random() < 0.25:
                new = rng.sample(others, rng.randint(0, 4))
            else:
                new = profile[v] ^ {rng.choice(others)}
            profile = profile.with_strategy(v, new)
            state.move(v, profile[v])
            now = {-neg: u >= 0 for neg, u, _ in state.events}
            for label, matching in now.items():
                if flags.get(label, matching) != matching:
                    to_whole += not matching
                    to_matching += matching
            flags = now
            if step % 4:
                continue
            created = brute_created_graph(host, profile).edges
            for x in range(n):
                view = _AgentView(state, x)
                rest = {p: lab for p, lab in created.items() if x not in p}
                for w in range(n):
                    if w != x:
                        start = host.label(x, w)
                        upper = TemporalGraph(n, {p: lab for p, lab in rest.items() if lab >= start})
                        assert mask_to_set(view.covers[w]) == brute_reach(upper, w), (x, w)
                views += 1
    assert views >= 1000 and to_whole >= 30 and to_matching >= 30


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(games(max_n=6))
def test_best_responses_match_oracles(case):
    host, p, v = case
    cur = brute_agent_cost(host, p, v)
    s, cost = exact_best_response(host, p, v)
    bs, bcost = brute_best_response(host, p, v)
    assert cost == bcost
    # with no strict improvement the current strategy is kept
    assert s == (p[v] if bcost == cur else bs)
    toggles = [p[v] ^ {w} for w in range(host.n) if w != v]
    best = min((brute_agent_cost(host, p.with_strategy(v, t), v), sorted(t)) for t in toggles)
    s, improved = greedy_best_response(host, p, v)
    assert improved == (best[0] < cur)
    assert s == (frozenset(best[1]) if improved else p[v])


def test_greedy_no_improvement_at_equilibrium():
    host, profile = gen_hypercube(3)
    for v in range(host.n):
        s, improved = greedy_best_response(host, profile, v)
        assert not improved
        assert s == profile[v]


def test_one_reach_sweep_per_greedy_response_and_per_cost_vector():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(3, 9)
        t = rng.randint(1, min(4, n * (n - 1) // 2))
        host = gen_random_host(n, t, rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(0, 2 * n), rng.randrange(10**6))
        v = rng.randrange(n)
        for call in (
            lambda: greedy_best_response(host, p, v),
            lambda: social_cost(host, p),
            lambda: is_temporally_connected(host),
        ):
            reset_reach_evaluations()
            call()
            assert reach_evaluations() == 1


def test_greedy_single_move_is_improving_when_reported():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(3, 7)
        host = gen_random_host(n, rng.randint(1, 3), rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(0, n), rng.randrange(10**6))
        v = rng.randrange(n)
        before = agent_cost(host, p, v)
        s, improved = greedy_best_response(host, p, v)
        after = agent_cost(host, p.with_strategy(v, s), v)
        if improved:
            assert after < before
            # differs from the current strategy by at most one endpoint
            assert len(p[v] ^ s) == 1
        else:
            assert s == p[v] and after == before


def test_exact_matches_brute_force_randomized():
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(3, 6)
        host = gen_random_host(n, rng.randint(1, 3), rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(0, n + 2), rng.randrange(10**6))
        v = rng.randrange(n)
        cur_cost = agent_cost(host, p, v)
        s, cost = exact_best_response(host, p, v)
        bs, bcost = brute_best_response(host, p, v)
        assert cost == bcost, (host.edges, p.canonical(), v)
        if bcost == cur_cost:
            # no strict improvement exists: the current strategy is kept
            assert s == p[v]
        else:
            assert s == bs


def test_exact_keeps_current_strategy_at_equilibrium():
    host, profile = gen_t2_family(6)
    for v in range(host.n):
        s, cost = exact_best_response(host, profile, v)
        assert s == profile[v]
        assert cost == agent_cost(host, profile, v)


def test_exact_improves_strictly_when_it_moves():
    rng = random.Random(31)
    moved = 0
    for _ in range(60):
        n = rng.randint(4, 7)
        host = gen_random_host(n, rng.randint(2, 4), rng.randrange(10**6))
        p = gen_random_profile(host, rng.randint(1, n), rng.randrange(10**6))
        v = rng.randrange(n)
        before = agent_cost(host, p, v)
        s, cost = exact_best_response(host, p, v)
        assert agent_cost(host, p.with_strategy(v, s), v) == cost
        if s != p[v]:
            assert cost < before
            moved += 1
    assert moved > 10


def test_exact_budget_exhaustion_raises():
    host, profile = gen_hypercube(3)
    p = profile.with_strategy(0, set())
    with pytest.raises(SearchSpaceExceeded):
        exact_best_response(host, p, 0, budget_cap=0)


def _record_cover_evaluations(monkeypatch) -> list[int]:
    """A one-item list counting the exact search's cover evaluations."""
    count = [0]
    search = responses._exists_cover

    def counted(*args):
        count[0] += 1
        return search(*args)

    monkeypatch.setattr(responses, "_exists_cover", counted)
    return count


def test_exact_search_is_pinned(monkeypatch):
    # every agent's exact response on 40 random profiles: the answers and the
    # exact number of cover evaluations, which a budget one short must miss
    count = _record_cover_evaluations(monkeypatch)
    digest = hashlib.sha256()
    searches = []
    for n in range(6, 11):
        for t in (3, n):
            for seed in range(4):
                host = gen_random_host(n, t, seed)
                profile = gen_random_profile(host, n, seed)
                for v in range(n):
                    before = count[0]
                    strategy, cost = exact_best_response(host, profile, v)
                    digest.update(repr((sorted(strategy), cost.unreached, cost.edges)).encode())
                    searches.append((count[0] - before, host, profile, v))
    assert (len(searches), count[0]) == (320, 3322)
    assert digest.hexdigest() == (
        "7c116271721fcc4e88ceeb07333dc5541a142797b665a5af9a9b6676b88f4f4d")
    for used, host, profile, v in sorted(searches, key=lambda case: -case[0])[:5]:
        answer = exact_best_response(host, profile, v)
        assert exact_best_response(host, profile, v, budget_cap=used) == answer
        with pytest.raises(SearchSpaceExceeded):
            exact_best_response(host, profile, v, budget_cap=used - 1)


def test_exists_cover_fails_at_once_on_an_uncovered_element():
    # no candidate from index 1 on covers bit 2: one evaluation, no branch
    state = [0, 100]
    assert not _exists_cover(0b111, [(0, 0b001), (1, 0b011)], 1, 2, state)
    assert state == [1, 100]


def test_exact_empty_universe_prefers_empty_strategy():
    # everyone reaches 0 through 1's purchases, so 0 should sell everything
    host = gen_random_host(4, 1, 5)
    p = StrategyProfile(4, [{1}, {0, 2, 3}, set(), set()])
    s, cost = exact_best_response(host, p, 0)
    assert s == frozenset()
    assert cost.key() == (0, 0)


def test_greedy_from_empty_buys_something_useful():
    host = gen_random_host(5, 2, 8)
    p = empty_profile(5)
    s, improved = greedy_best_response(host, p, 0)
    assert improved and len(s) == 1
    after = agent_cost(host, p.with_strategy(0, s), 0)
    assert after < agent_cost(host, p, 0)


@st.composite
def move_sequences(draw):
    # a complete host on few labels, a start profile, random moves, and a
    # pair u, w whose antiparallel arcs the test creates and then drops
    n = draw(st.integers(2, 7))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    labels = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=len(pairs), max_size=len(pairs)))
    host = TemporalGraph(n, dict(zip(pairs, labels)))
    others = [[w for w in range(n) if w != u] for u in range(n)]
    start = StrategyProfile(n, [draw(st.sets(st.sampled_from(others[u]))) for u in range(n)])
    moves = draw(st.lists(
        st.integers(0, n - 1).flatmap(
            lambda u: st.tuples(st.just(u), st.frozensets(st.sampled_from(others[u])))),
        max_size=10))
    u, w = draw(st.sampled_from(pairs))
    return host, start, moves, u, w


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(move_sequences())
def test_created_state_patches_match_fresh_grouping(case):
    host, profile, moves, u, w = case
    n = host.n
    state = _CreatedState(host, profile)
    # after the random moves, u and w both buy {u, w}, then drop it in turn
    steps = [(v, lambda p, s=s: s) for v, s in moves] + [
        (u, lambda p: p[u] | {w}), (w, lambda p: p[w] | {u}),
        (u, lambda p: p[u] - {w}), (w, lambda p: p[w] - {u}),
    ]
    for v, new in steps:
        profile = profile.with_strategy(v, new(profile))
        state.move(v, profile[v])
        fresh = _CreatedState(host, profile)
        classes = sweep_event_classes(state.events)
        assert classes == sweep_event_classes(fresh.events)
        assert {lab: sorted(ps) for lab, (ps, _) in classes.items()} == brute_label_classes(host, profile)
        for x in range(n):
            a, b = _AgentView(state, x), _AgentView(fresh, x)
            assert (a.covers, a.in_mask, a.cur_cost) == (b.covers, b.in_mask, b.cur_cost)


def test_greedy_matches_candidate_search():
    # hosts with n up to 12 and many labels, agents with non-empty strategies:
    # random profiles, and profiles met along greedy runs
    rng = random.Random(906)
    cases = []
    for _ in range(60):
        n = rng.randint(3, 12)
        host = gen_random_host(n, rng.randint(n, n * (n - 1) // 2), rng.randrange(10**6))
        cases.append((host, gen_random_profile(host, rng.randint(n, 2 * n), rng.randrange(10**6))))
        trace = run_dynamics(host, empty_profile(n), max_steps=rng.randint(1, 3 * n))
        cases.append((host, StrategyProfile(n, [set(s) for s in trace.final])))
    removals = ties = 0
    for host, p in cases:
        state = _CreatedState(host, p)
        for v in range(host.n):
            view = _AgentView(state, v)
            strategy, cost = view.greedy()
            assert (strategy, cost) == candidate_greedy(view)
            removals += len(strategy) < len(view.current)
            scored = [agent_cost(host, p.with_strategy(v, view.current ^ {w}), v)
                      for w in range(host.n) if w != v]
            ties += cost < view.cur_cost and scored.count(cost) > 1
    assert removals >= 100 and ties >= 200
