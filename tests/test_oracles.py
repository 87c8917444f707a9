"""The oracles themselves, on graphs whose answers are known by hand.

Nothing here calls a package kernel: the graphs are built as plain
`TemporalGraph`s, and every expected value is read off the drawing.
"""

from tncg import TemporalGraph

from oracles import brute_connected, brute_minimum_spanner, brute_reach


def test_reach_on_a_labelled_path():
    # 0 -1- 1 -3- 2 -3- 3 -2- 4: equal labels chain, a drop stops the walk
    g = TemporalGraph(5, {(0, 1): 1, (1, 2): 3, (2, 3): 3, (3, 4): 2})
    expect = {
        0: {0, 1, 2, 3},
        1: {0, 1, 2, 3},
        2: {1, 2, 3},
        3: {1, 2, 3, 4},
        4: {1, 2, 3, 4},
    }
    assert {u: brute_reach(g, u) for u in range(5)} == expect
    assert not brute_connected(g)
    # one label throughout: every node reaches every node
    flat = TemporalGraph(5, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1})
    assert brute_connected(flat)


def test_three_perfect_matchings_need_2n_minus_4_edges():
    # K4 as three perfect matchings with labels 1, 2, 3: the gossip optimum
    g = TemporalGraph(4, {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3})
    assert brute_connected(g)
    assert brute_minimum_spanner(g) == 2 * g.n - 4 == 4


def test_a_spanning_label_class_gives_a_tree():
    # label 2 forms the path 0-1-2-3-4 and spans; every other pair is 1 or 3
    n = 5
    path = {(u, u + 1) for u in range(n - 1)}
    edges = {
        (u, v): 2 if (u, v) in path else 1 + 2 * ((u + v) % 2)
        for u in range(n) for v in range(u + 1, n)
    }
    g = TemporalGraph(n, edges)
    assert brute_connected(g)
    assert brute_minimum_spanner(g) == n - 1
