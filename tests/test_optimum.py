import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncg import (
    NotASpanner,
    NotTemporallyConnected,
    SearchSpaceExceeded,
    StrategyProfile,
    TemporalGraph,
    gen_hypercube,
    gen_random_host,
    is_minimal_spanner,
    is_temporal_spanner,
    is_temporally_connected,
    minimal_spanner,
    minimum_spanner,
    poa_ratio,
)
from tncg.core import _mono_spanning_tree
from tncg.optimum import _EdgeMasks

from oracles import brute_connected, brute_minimum_spanner


def test_minimal_spanner_properties():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(3, 8)
        t = rng.randint(1, min(4, n * (n - 1) // 2))
        host = gen_random_host(n, t, rng.randrange(10**6))
        sub = minimal_spanner(host)
        assert is_temporal_spanner(host, sub)
        assert is_minimal_spanner(host, sub)


def test_minimal_spanner_rejects_disconnected():
    # two label-1 cliques with no bridging edge
    edges = {(0, 1): 1, (2, 3): 1}
    g = TemporalGraph(4, edges)
    with pytest.raises(NotTemporallyConnected):
        minimal_spanner(g)
    with pytest.raises(NotTemporallyConnected):
        minimum_spanner(g)


def test_minimum_spanner_matches_brute_force():
    rng = random.Random(607)
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        t = rng.randint(1, min(4, n * (n - 1) // 2))
        host = gen_random_host(n, t, rng.randrange(10**6))
        if not is_temporally_connected(host):
            continue
        spanner, size = minimum_spanner(host)
        assert size == spanner.edge_count
        assert is_temporal_spanner(host, spanner)
        assert size == brute_minimum_spanner(host)
        checked += 1
    assert checked >= 60


def distinct_label_host(rng, n):
    """A complete host whose labels are a shuffled 1..n(n-1)/2: every label
    class is a single edge, a matching."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    labels = list(range(1, len(pairs) + 1))
    rng.shuffle(labels)
    return TemporalGraph(n, dict(zip(pairs, labels)))


def branching_hosts(rng, n, t_range, count, distinct=False):
    # no label class spans, so the tree shortcut does not apply and the
    # search branches
    out = []
    while len(out) < count:
        if distinct:
            host = distinct_label_host(rng, n)
        else:
            host = gen_random_host(n, rng.randint(*t_range), rng.randrange(10**6))
        if _mono_spanning_tree(host) is None and is_temporally_connected(host):
            out.append(host)
    return out


def class_component_sizes(masks, mask):
    """Node counts of the components of each label class over `mask`."""
    sizes = []
    for _, pairs, _ in masks.host._label_classes():
        comps = []
        for u, v in (p for p in pairs if mask & masks.bit[p]):
            touched = [c for c in comps if u in c or v in c]
            comps = [c for c in comps if c not in touched] + [set().union({u, v}, *touched)]
        sizes += [len(c) for c in comps]
    return sizes


def test_spanners_match_brute_force_where_search_branches():
    rng = random.Random(608)
    # n=5 has 10 pairs, so t <= 10 on a host whose labels are exactly 1..t;
    # lifetimes 3-6 give label classes of 3 and 4 nodes; on distinct-label
    # hosts every class is one edge; n=6, t=12 hosts cross many class
    # boundaries, where the search's reach memo prunes; on the two pinned
    # hosts (optimum 7) a search that forgets a conference class's D term
    # when an exclude ends the class prunes every 7-edge spanner
    hosts = (
        [gen_random_host(6, 6, 369160), gen_random_host(6, 7, 150149)]
        + branching_hosts(rng, 5, (8, 10), 30)
        + branching_hosts(rng, 6, (12, 12), 16)
        + branching_hosts(rng, 5, (3, 6), 20)
        + branching_hosts(rng, 6, (4, 6), 4)
        + branching_hosts(rng, 5, None, 10, distinct=True)
        + branching_hosts(rng, 6, None, 2, distinct=True)
    )
    sizes = set()
    for host in hosts:
        spanner, size = minimum_spanner(host)
        assert size == spanner.edge_count == brute_minimum_spanner(host)
        assert is_temporal_spanner(host, spanner)
        minimal = minimal_spanner(host)
        assert is_minimal_spanner(host, minimal)
        assert list(spanner.edges) == sorted(spanner.edges)
        assert list(minimal.edges) == sorted(minimal.edges)
        masks = _EdgeMasks(host)
        sizes.update(class_component_sizes(masks, masks.all))
    assert {3, 4} <= sizes


def test_lower_bound_never_exceeds_the_optimum():
    # the bound of any connected edge subset is at most the minimum spanner
    # of that subset, checked on the full edge set and on random connected
    # subsets of hosts where the search branches
    rng = random.Random(609)
    # optimum 7, below 2n - 4 = 8: label 1 forms two 3-node components, and
    # without h(3) = 1 each the bound would exceed the optimum
    conference = TemporalGraph(6, {
        (0, 2): 1, (1, 2): 1, (3, 4): 1, (4, 5): 1, (1, 5): 2, (2, 5): 2, (0, 3): 3, (0, 4): 4,
        (0, 5): 5, (2, 4): 5, (0, 1): 6, (3, 5): 6, (2, 3): 7, (1, 4): 8, (1, 3): 9,
    })
    hosts = (
        [conference]
        + branching_hosts(rng, 5, (3, 6), 25)
        + branching_hosts(rng, 6, (4, 8), 5)
        + branching_hosts(rng, 5, None, 8, distinct=True)
        + branching_hosts(rng, 6, None, 2, distinct=True)
    )
    sizes = set()
    for host in hosts:
        masks = _EdgeMasks(host)
        distinct = len(set(host.edges.values())) == host.edge_count
        subs = [masks.all]
        for _ in range(2):
            sub = masks.all
            for p in rng.sample(sorted(host.edges), host.edge_count):
                if rng.random() < 0.4 and masks.connected(sub & ~masks.bit[p]):
                    sub &= ~masks.bit[p]
            subs.append(sub)
        for sub in subs:
            bound = masks.lower_bound(sub)
            assert bound <= brute_minimum_spanner(masks.graph(sub))
            # every class is a matching, so D = 0 and the gossip bound is exact
            if distinct:
                assert bound == 2 * host.n - 4
            sizes.update(class_component_sizes(masks, sub))
    assert {3, 4} <= sizes


@pytest.mark.parametrize(
    "args, nodes, opt",
    [
        ((6, 12, 0), 371, 7), ((6, 12, 1), 265, 7), ((6, 12, 2), 188, 7), ((7, 20, 2), 909, 10),
        # four labels: conference classes of 3, 5 and 6 edges
        ((6, 4, 8), 156, 7),
        ((8, 24, 0), 9586, 11),
    ],
)
def test_minimum_spanner_search_tree_is_pinned(args, nodes, opt):
    # the exact node count of the search: a budget one short must give up
    host = gen_random_host(*args)
    with pytest.raises(SearchSpaceExceeded):
        minimum_spanner(host, budget_cap=nodes - 1)
    spanner, size = minimum_spanner(host, budget_cap=nodes)
    assert size == opt and is_temporal_spanner(host, spanner)


@st.composite
def graphs_with_edge_masks(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    labels = draw(st.lists(st.sampled_from([None, 1, 2, 3, 4, 5]), min_size=len(pairs), max_size=len(pairs)))
    g = TemporalGraph(n, {p: lab for p, lab in zip(pairs, labels) if lab is not None})
    # drop a few edges, so that connected subsets come up as well
    full = 2**g.edge_count - 1
    dropped = st.sets(st.integers(0, max(g.edge_count - 1, 0)), max_size=g.edge_count // 2)
    return g, [full & ~sum(1 << i for i in d) for d in draw(st.lists(dropped, min_size=2, max_size=2))]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(graphs_with_edge_masks())
def test_edge_mask_kernel_matches_rebuilt_graph(case):
    # one kernel answers every mask, so an answer must depend on its own
    # mask alone: a repeat of the first, and a mask that agrees with the
    # first only on one conference class, with other masks flowing into it
    g, (first, second) = case
    masks = _EdgeMasks(g)
    subs = [first, second, first]
    inside = next((cmask for cmask, _, matching in masks.classes if not matching), None)
    if inside is not None:
        subs.append(first & inside | second & ~inside)
    for mask in subs:
        sub = TemporalGraph(g.n, {p: lab for p, lab in g.edges.items() if mask & masks.bit[p]})
        assert masks.connected(mask) == is_temporally_connected(sub) == brute_connected(sub)


def test_class_merge_serves_connected_and_lower_bound():
    # few labels make large conference classes, which both merge by their
    # components; connected and lower_bound calls interleave on one kernel
    # per host, so neither may leave state that the other reads
    rng = random.Random(610)
    sizes = set()
    for host in branching_hosts(rng, 6, (3, 6), 4) + branching_hosts(rng, 7, (3, 6), 2):
        masks = _EdgeMasks(host)
        n = host.n
        for i in range(48):
            sub = sum(masks.bit[p] for p in host.edges if rng.random() < 0.75)
            order = ("connected", "lower_bound") if i % 2 else ("lower_bound", "connected")
            got = {name: getattr(masks, name)(sub) for name in order}
            assert got["connected"] == brute_connected(masks.graph(sub))
            comps = class_component_sizes(masks, sub)
            d = sum(1 if k == 3 else k - 3 for k in comps if k >= 3)
            assert got["lower_bound"] == max(n, 2 * n - 4 - d)
            sizes.update(comps)
    assert max(sizes) >= 4


def test_minimum_spanner_tree_shortcut():
    # complete host with a monochromatic label class is settled at n-1
    host, _ = gen_hypercube(3)
    spanner, size = minimum_spanner(host)
    assert size == host.n - 1
    assert is_temporal_spanner(host, spanner)


def test_minimum_spanner_budget():
    # no label class spans, so the search branches: the minimal spanner has
    # 5 edges and the root bound is n = 4
    g = TemporalGraph(4, {(0, 1): 1, (1, 2): 1, (1, 3): 2, (0, 2): 3, (0, 3): 3, (2, 3): 3})
    with pytest.raises(SearchSpaceExceeded, match=r"optimum in \[4, 5\]"):
        minimum_spanner(g, budget_cap=0)
    spanner, size = minimum_spanner(g)
    assert size == brute_minimum_spanner(g) == 5
    assert is_temporal_spanner(g, spanner)
    # three perfect matchings: the incumbent meets 2n - 4 = 4 at the root
    g = TemporalGraph(4, {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3})
    spanner, size = minimum_spanner(g, budget_cap=0)
    assert size == brute_minimum_spanner(g) == 4
    assert is_temporal_spanner(g, spanner)


def test_deep_search_gives_up_on_its_bracket():
    # 1,035 edges and no spanning class: the search nests one call per
    # decided edge, past the default recursion limit, so the limit is raised
    # for the search and restored after it
    limit = sys.getrecursionlimit()
    with pytest.raises(SearchSpaceExceeded, match=r"optimum in \[49, 102\]$"):
        minimum_spanner(gen_random_host(46, 1035, 0), budget_cap=5000)
    assert sys.getrecursionlimit() == limit


def test_minimality_predicate_matches_brute_force():
    rng = random.Random(2121)
    seen = set()
    for _ in range(150):
        n = rng.randint(3, 6)
        host = gen_random_host(n, rng.randint(1, 3), rng.randrange(10**6))
        items = [e for e in host.edges.items() if rng.random() < 0.6]
        sub = TemporalGraph(n, dict(items))
        expect = brute_connected(sub) and not any(
            brute_connected(TemporalGraph(n, dict(items[:i] + items[i + 1:])))
            for i in range(len(items))
        )
        assert is_minimal_spanner(host, sub) == expect
        seen.add(expect)
    assert seen == {True, False}


def test_poa_ratio_hypercube():
    host, profile = gen_hypercube(3)
    assert poa_ratio(host, profile) == Fraction(12, 7)


def test_poa_ratio_rejects_unreaching_profile():
    host, _ = gen_hypercube(3)
    empty = StrategyProfile(host.n, [set() for _ in range(host.n)])
    with pytest.raises(NotASpanner):
        poa_ratio(host, empty)


def test_poa_ratio_undefined_when_optimum_has_no_edges():
    with pytest.raises(ValueError, match="undefined"):
        poa_ratio(TemporalGraph(1, {}), StrategyProfile(1, [set()]))
