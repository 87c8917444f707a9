import random

import pytest

from tncg import (
    CostVector,
    StrategyProfile,
    TemporalGraph,
    agent_cost,
    created_graph,
    empty_profile,
    gen_random_host,
    gen_random_profile,
    social_cost,
)

from oracles import brute_agent_cost


def test_cost_vector_is_lexicographic():
    assert CostVector(0, 5) < CostVector(1, 0)
    assert CostVector(1, 0) < CostVector(1, 1)
    assert CostVector(2, 3) == CostVector(2, 3)
    assert max(CostVector(0, 9), CostVector(1, 0)) == CostVector(1, 0)


def test_numeric_cost_agrees_with_lex_for_large_k():
    rng = random.Random(7)
    n = 9
    k = n * n
    for _ in range(300):
        a = CostVector(rng.randint(0, n - 1), rng.randint(0, n * (n - 1)))
        b = CostVector(rng.randint(0, n - 1), rng.randint(0, n * (n - 1)))
        lex = (a.key() > b.key()) - (a.key() < b.key())
        num = (a.numeric(k) > b.numeric(k)) - (a.numeric(k) < b.numeric(k))
        assert lex == num, (a, b)


def test_cost_vector_sum_and_dict():
    c = CostVector(1, 2) + CostVector(0, 3)
    assert c == CostVector(1, 5)
    assert c.as_dict() == {"unreached": 1, "edges": 5}
    assert c.as_dict(k=10) == {"unreached": 1, "edges": 5, "numeric": 15}


def test_profile_validation():
    with pytest.raises(ValueError):
        StrategyProfile(3, [{0}, set(), set()])  # self-purchase
    with pytest.raises(ValueError):
        StrategyProfile(3, [{3}, set(), set()])  # endpoint out of range
    with pytest.raises(ValueError):
        StrategyProfile(3, [set(), set()])  # wrong length
    p = StrategyProfile(3, {0: [1, 2]})
    assert p[0] == frozenset({1, 2}) and p[1] == frozenset()


@pytest.mark.parametrize("make, agent", [
    (lambda: empty_profile(3).with_strategy(-1, [2]), -1),
    (lambda: empty_profile(3).with_strategy(9, [0]), 9),
    (lambda: StrategyProfile(3, {5: [0]}), 5),
    (lambda: StrategyProfile(3, {0: [1], -1: [2]}), -1),
    # a node is an int, never a bool, float or string; the message names the agent
    (lambda: StrategyProfile(3, {True: [2]}), True),
    (lambda: empty_profile(3).with_strategy(1.0, [2]), 1.0),
    (lambda: StrategyProfile(3, {"1": [2]}), "'1'"),
    (lambda: StrategyProfile(2, [{1.0}, set()]), "0: endpoint 1.0"),
    (lambda: StrategyProfile(2, [set(), {True}]), "1: endpoint True"),
    (lambda: StrategyProfile(3, [set(), set(), {"1"}]), "2: endpoint '1'"),
    (lambda: empty_profile(3).with_strategy(0, [2.0]), "0: endpoint 2.0"),
], ids=["with_strategy-below", "with_strategy-above", "mapping-above", "mapping-below",
        "mapping-bool", "with_strategy-float", "mapping-str", "endpoint-float",
        "endpoint-bool", "endpoint-str", "with_strategy-endpoint-float"])
def test_profile_rejects_agent_out_of_range(make, agent):
    with pytest.raises(ValueError, match=rf"^agent {agent} out of range$"):
        make()


def test_profile_arcs_and_canonical():
    p = StrategyProfile(4, [{2, 1}, set(), {0}, set()])
    assert p.arcs() == [(0, 1), (0, 2), (2, 0)]
    assert p.arc_count == 3
    assert p.canonical() == ((1, 2), (), (0,), ())
    q = p.with_strategy(2, set())
    assert q[2] == frozenset() and p[2] == frozenset({0})
    assert p == StrategyProfile(4, [{1, 2}, (), (0,), ()])


def test_created_graph_copies_host_labels():
    host = TemporalGraph(3, {(0, 1): 2, (0, 2): 1, (1, 2): 3})
    p = StrategyProfile(3, [{1}, {2}, set()])
    g = created_graph(host, p)
    assert g.arcs == {(0, 1): 2, (1, 2): 3}
    with pytest.raises(ValueError):
        created_graph(TemporalGraph(3, {(0, 1): 1}), StrategyProfile(3, [{2}, set(), set()]))


def test_agent_cost_empty_profile():
    host = gen_random_host(5, 2, 1)
    p = empty_profile(5)
    for v in range(5):
        assert agent_cost(host, p, v) == CostVector(4, 0)
    assert social_cost(host, p) == CostVector(20, 0)


def test_agent_cost_rejects_agent_out_of_range():
    host = gen_random_host(4, 2, 3)
    p = StrategyProfile(4, [{1}, {2}, {3}, set()])
    for v in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            agent_cost(host, p, v)


def test_agent_cost_star():
    host = TemporalGraph(4, {(u, v): 1 for u in range(4) for v in range(u + 1, 4)})
    p = StrategyProfile(4, [{1, 2, 3}, set(), set(), set()])
    assert agent_cost(host, p, 0) == CostVector(0, 3)
    # leaves reach everyone through the center: directions are ignored
    for v in (1, 2, 3):
        assert agent_cost(host, p, v) == CostVector(0, 0)
    assert social_cost(host, p) == CostVector(0, 3)


def test_agent_cost_matches_oracle_randomized():
    rng = random.Random(55)
    for _ in range(120):
        n = rng.randint(3, 6)
        host = gen_random_host(n, rng.randint(1, 3), rng.randrange(10**6))
        arcs = rng.randint(0, n * (n - 1) // 2)
        p = gen_random_profile(host, arcs, rng.randrange(10**6))
        for v in range(n):
            assert agent_cost(host, p, v) == brute_agent_cost(host, p, v)


def test_agent_cost_rejects_arc_over_missing_pair():
    host = TemporalGraph(3, {(0, 1): 1, (1, 2): 2})
    p = StrategyProfile(3, [{2}, set(), set()])
    with pytest.raises(ValueError, match=r"^arc \(0, 2\) has no host pair$"):
        agent_cost(host, p, 1)


def test_with_strategy_validates_the_new_strategy():
    p = StrategyProfile(6, [{1}, {0}, set(), set(), set(), set()])
    with pytest.raises(ValueError, match=r"^agent 0 buys an arc to itself$"):
        p.with_strategy(0, [0])
    with pytest.raises(ValueError, match=r"^agent 0: endpoint 5 out of range$"):
        StrategyProfile(5, [set()] * 5).with_strategy(0, [5])
    q = p.with_strategy(2, [4, 3])
    assert q.canonical() == ((1,), (0,), (3, 4), (), (), ())
    assert q == StrategyProfile(6, [{1}, {0}, {3, 4}, set(), set(), set()])
