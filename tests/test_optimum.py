import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from tncg.optimum import _EdgeMasks, _misses

from oracles import brute_completion, brute_connected, brute_minimum_spanner, brute_reach


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
    # two label-1 cliques with no bridging edge; then a static path whose
    # labels fall from 0 to 2, so 0 never reaches 2
    for g in (TemporalGraph(4, {(0, 1): 1, (2, 3): 1}),
              TemporalGraph(3, {(0, 1): 2, (1, 2): 1})):
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


def root_bound(g):
    """(the exact search's root lower bound on g, whether it settles g):
    on a root stop the bound is the size returned, else the lower end of
    the bracket that a zero budget raises."""
    try:
        return minimum_spanner(g, budget_cap=0)[1], True
    except SearchSpaceExceeded as e:
        return e.lower, False


def gossip_bound(n, sizes):
    """max(n, 2n - 4 - D), D summed over class components of these sizes."""
    return max(n, 2 * n - 4 - sum(1 if k == 3 else k - 3 for k in sizes if k >= 3))


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
    # boundaries, where the broadcast bound prunes; on the two pinned
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
    # the search's root bound on any connected edge subset is
    # max(n, 2n - 4 - D) and at most the minimum spanner of that subset,
    # checked on the full edge set and on random connected subsets of hosts
    # where the search branches, both where it settles the root and where
    # it searches
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
    stops = []
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
            g = masks.graph(sub)
            bound, stop = root_bound(g)
            assert bound <= brute_minimum_spanner(g)
            stops.append(stop)
            comps = class_component_sizes(masks, sub)
            assert bound == gossip_bound(host.n, comps)
            # every class is a matching, so D = 0 and the gossip bound is exact
            if distinct:
                assert bound == 2 * host.n - 4
            sizes.update(comps)
    assert {3, 4} <= sizes
    assert any(stops) and not all(stops)


def test_broadcast_bound_never_exceeds_the_fewest_completing_edges():
    # a state at the boundary before label L keeps a subset of the edges
    # below L; by the broadcast bound a spanner that extends it keeps at
    # least n - min_s |H_s| edges of label >= L, H_s the nodes whose mask
    # holds s.  Checked against brute force on random kept subsets of hosts
    # where the search branches, mostly where the bound beats
    # ceil(deficient / 2); where it meets the brute-force count, a bound one
    # higher would prune an optimum
    rng = random.Random(2222)
    hosts = branching_hosts(rng, 5, (5, 10), 30) + branching_hosts(rng, 6, (6, 12), 15)
    stronger = tight = 0
    for host in hosts:
        n = host.n
        labels = sorted(set(host.edges.values()))
        edges = sorted(host.edges.items())
        for _ in range(3):
            label = rng.choice(labels[1:])
            kept = [e for e in edges if e[1] < label and rng.random() < 0.6]
            fewest = brute_completion(n, kept, [e for e in edges if e[1] >= label])
            if fewest is None:
                continue
            kept_graph = TemporalGraph(n, dict(kept))
            reached = [0] * n
            for s in range(n):
                for x in brute_reach(kept_graph, s):
                    reached[x] |= 1 << s
            # the largest need the kernel's test accepts is n - min_s |H_s|
            bound = max((need for need in range(1, n + 1) if _misses(reached, need)), default=0)
            assert bound <= fewest
            deficient = n - reached.count((1 << n) - 1)
            if bound > (deficient + 1) // 2:
                stronger += 1
                tight += bound == fewest
    assert stronger >= 40 and tight >= 20


# (gen_random_host arguments, search nodes, optimum); a test's id names its
# host only, so re-pinning a count keeps the id
PINNED_TREES = [
    ((6, 12, 0), 64, 7), ((6, 12, 1), 42, 7), ((6, 12, 2), 81, 7), ((7, 20, 2), 137, 10),
    # four labels: conference classes of 3, 5 and 6 edges
    ((6, 4, 8), 8, 7),
    ((8, 24, 0), 345, 11),
    # many labels, mostly matchings: the broadcast bound's regime
    ((9, 36, 3), 52889, 13),
    # dense classes: four labels, conference classes of 4-12 edges
    ((8, 4, 444090259), 2135, 10), ((9, 4, 3758031008), 7268, 10),
]


@pytest.mark.parametrize(
    "args, nodes, opt", [pytest.param(*tree, id="%d-%d-%d" % tree[0]) for tree in PINNED_TREES]
)
def test_minimum_spanner_search_tree_is_pinned(args, nodes, opt):
    # the exact node count of the search: a budget one short must give up
    host = gen_random_host(*args)
    with pytest.raises(SearchSpaceExceeded):
        minimum_spanner(host, budget_cap=nodes - 1)
    spanner, size = minimum_spanner(host, budget_cap=nodes)
    assert size == opt and is_temporal_spanner(host, spanner)


def test_search_memory_does_not_grow_with_its_nodes():
    # the search keeps only the state along its current path and the reach
    # table, so its peak stays far below one entry per node (~9,000 here)
    host = gen_random_host(8, 24, 2)
    tracemalloc.start()
    try:
        _, size = minimum_spanner(host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 11
    assert peak < 100 * 1024


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
    # few labels make large conference classes, which `_merge` joins by
    # their components both for `connected` and for the exact search's
    # setup pass, whose D term gives the root bound of a connected subset
    rng = random.Random(610)
    sizes = set()
    for host in branching_hosts(rng, 6, (3, 6), 4) + branching_hosts(rng, 7, (3, 6), 2):
        masks = _EdgeMasks(host)
        for _ in range(48):
            sub = sum(masks.bit[p] for p in host.edges if rng.random() < 0.75)
            g = masks.graph(sub)
            connected = masks.connected(sub)
            assert connected == brute_connected(g)
            comps = class_component_sizes(masks, sub)
            if connected:
                assert root_bound(g)[0] == gossip_bound(host.n, comps)
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


def test_deep_search_gives_up_on_its_bracket(monkeypatch):
    # 1,035 edges and no spanning class: the search goes one frame deeper per
    # decided edge, past the default recursion limit, on a stack of its own,
    # so it neither needs nor touches the interpreter's limit
    limit = sys.getrecursionlimit()

    def refuse(_):
        raise AssertionError("the search must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    with pytest.raises(SearchSpaceExceeded, match=r"optimum in \[49, 102\]$") as info:
        minimum_spanner(gen_random_host(46, 1035, 0), budget_cap=5000)
    assert sys.getrecursionlimit() == limit
    # the bracket is data as well: the root bound and the incumbent
    assert (info.value.lower, info.value.upper) == (49, 102)
    assert str(info.value) == "spanner search exceeded budget of 5000 nodes; optimum in [49, 102]"


def search_nodes(host):
    """The node count of host's unbudgeted search: the least budget it
    completes in, found by doubling and then bisection."""

    def completes(budget):
        try:
            minimum_spanner(host, budget_cap=budget)
        except SearchSpaceExceeded:
            return False
        return True

    hi = 1
    while not completes(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if completes(mid) else (mid, hi)
    return hi


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(st.data())
def test_budgeted_search_brackets_the_optimum(data):
    # on hosts where the search branches, every budget short of its node
    # count gives up on a bracket that holds the optimum, and the node count
    # itself finds it; a few budgets per host share one brute-force optimum
    n = data.draw(st.integers(4, 6), label="n")
    t = data.draw(st.integers(n - 1, n * (n - 1) // 2), label="t")
    host = gen_random_host(n, t, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    assume(not root_bound(host)[1])
    nodes = search_nodes(host)
    opt = brute_minimum_spanner(host)
    for budget in data.draw(st.lists(st.integers(0, nodes), min_size=1, max_size=4), label="budgets"):
        if budget < nodes:
            with pytest.raises(SearchSpaceExceeded) as info:
                minimum_spanner(host, budget_cap=budget)
            assert info.value.lower <= opt <= info.value.upper
        else:
            assert minimum_spanner(host, budget_cap=budget)[1] == opt


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
