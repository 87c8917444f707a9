import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncg import (
    DirectedTemporalGraph,
    SetCoverInstance,
    StrategyProfile,
    TemporalGraph,
    check_ne,
    compress_labels,
    empty_profile,
    gen_hypercube,
    gen_random_directed,
    gen_random_host,
    gen_random_profile,
    gen_random_setcover,
    gen_t2_family,
    is_minimal_spanner,
    is_temporal_path,
    is_temporal_spanner,
    is_temporally_connected,
    mask_to_set,
    minimum_spanner,
    reach,
    run_dynamics,
    run_experiment,
    set_to_mask,
)
from tncg.core import _reach_sweep, _sweep_events, reach_evaluations, reset_reach_evaluations
from tncg.game import _CreatedState
from tncg.optimum import _EdgeMasks, _minimal_keep
from tncg.responses import _AgentView

from oracles import brute_connected, brute_reach, sweep_event_classes


def path_graph(labels):
    return TemporalGraph(len(labels) + 1, {(i, i + 1): lab for i, lab in enumerate(labels)})


def random_graph(rng, n, t, p=0.5):
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges[(u, v)] = rng.randint(1, t)
    return TemporalGraph(n, edges)


def matching_classes_graph(rng, n, complete):
    """Labels 1, 2, ... in turn take a random matching of 3..n//2 pairs
    from the pairs left, fewer only when those run out; one label in four
    also takes a pair that touches its matching, so it is no matching.  A
    complete graph uses every pair, otherwise half of them are left out."""
    left = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(left)
    stop = 0 if complete else len(left) // 2
    edges = {}
    label = 0
    while len(left) > stop:
        label += 1
        size = rng.randint(3, n // 2)
        used, rest = set(), []
        for p in left:
            if len(used) < 2 * size and not used & set(p):
                edges[p] = label
                used |= set(p)
            else:
                rest.append(p)
        if rng.random() < 0.25:
            touching = [p for p in rest if used & set(p)]
            if touching:
                edges[touching[0]] = label
                rest.remove(touching[0])
        left = rest
    return TemporalGraph(n, edges)


def distinct_label_graph(rng, n):
    """A temporal clique: every pair of K_n has its own label."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return TemporalGraph(n, dict(zip(pairs, rng.sample(range(1, len(pairs) + 1), len(pairs)))))


def test_reach_ascending_path():
    g = path_graph([1, 2, 3])
    assert reach(g, 0) == {0, 1, 2, 3}
    assert reach(g, 3) == {2, 3}  # one hop back, then labels decrease


def test_reach_descending_path_blocks():
    g = path_graph([2, 1])
    assert reach(g, 0) == {0, 1}
    assert reach(g, 2) == {0, 1, 2}


def test_reach_equal_labels_flow_both_ways():
    g = path_graph([2, 2, 2])
    for u in range(4):
        assert reach(g, u) == {0, 1, 2, 3}


def test_reach_singleton_and_isolated():
    g = TemporalGraph(3, {(0, 1): 1})
    assert reach(g, 2) == {2}
    assert reach(g, 0) == {0, 1}


def test_reach_start_label_filters_classes():
    g = path_graph([1, 2])
    # edge 0-1 has label 1 < 2 so it is invisible from start 2
    assert mask_to_set(g.reach_mask(0, start_label=2)) == {0}
    assert mask_to_set(g.reach_mask(1, start_label=2)) == {1, 2}


def test_graph_validation():
    with pytest.raises(ValueError):
        TemporalGraph(2, {(0, 0): 1})
    with pytest.raises(ValueError):
        TemporalGraph(2, {(0, 1): 0})
    with pytest.raises(ValueError):
        TemporalGraph(2, {(0, 2): 1})
    with pytest.raises(ValueError):
        TemporalGraph(0, {})


def test_pairs_normalized():
    g = TemporalGraph(3, {(2, 0): 4, (1, 2): 1})
    assert g.label(0, 2) == 4
    assert g.label(2, 0) == 4
    assert g.has_edge(2, 1)
    assert g.label(0, 1) is None
    assert g.edge_count == 2
    assert g.lifetime == 4


def test_validate_host_completeness_and_labels():
    full = TemporalGraph(3, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    full.validate_host()
    missing_pair = TemporalGraph(3, {(0, 1): 1, (0, 2): 2})
    with pytest.raises(ValueError):
        missing_pair.validate_host()
    gap = TemporalGraph(3, {(0, 1): 1, (0, 2): 3, (1, 2): 1})
    with pytest.raises(ValueError):
        gap.validate_host()


def test_mask_round_trip():
    s = {0, 3, 5}
    assert mask_to_set(set_to_mask(s)) == s
    assert set_to_mask(mask_to_set(0b101101)) == 0b101101


def test_is_temporal_path():
    g = path_graph([1, 2, 2])
    assert is_temporal_path(g, [0, 1, 2, 3])
    assert is_temporal_path(g, [0])
    assert not is_temporal_path(g, [3, 2, 1, 0])  # 2,2,1 decreasing at the end
    assert is_temporal_path(g, [3, 2, 1])
    assert not is_temporal_path(g, [0, 1, 0])  # not simple
    assert not is_temporal_path(g, [0, 2])  # no such edge


def test_temporally_connected():
    assert is_temporally_connected(path_graph([1, 1]))
    assert not is_temporally_connected(path_graph([2, 1]))  # 0 cannot reach 2
    assert is_temporally_connected(TemporalGraph(1, {}))


def test_spanner_predicate_requires_subgraph():
    host = TemporalGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    sub = TemporalGraph(3, {(0, 1): 1, (0, 2): 1})
    assert is_temporal_spanner(host, sub)
    relabeled = TemporalGraph(3, {(0, 1): 2, (0, 2): 1})
    with pytest.raises(ValueError):
        is_temporal_spanner(host, relabeled)
    extra = TemporalGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    assert is_temporal_spanner(host, extra)
    disconnected = TemporalGraph(3, {(0, 1): 1})
    assert not is_temporal_spanner(host, disconnected)
    assert is_minimal_spanner(host, sub)
    assert not is_minimal_spanner(host, extra)          # (1, 2) can go
    assert not is_minimal_spanner(host, disconnected)   # not a spanner


def test_compress_labels_keeps_order_and_reach():
    g = TemporalGraph(4, {(0, 1): 3, (1, 2): 7, (2, 3): 7, (0, 3): 9})
    c = compress_labels(g)
    assert sorted(set(c.edges.values())) == [1, 2, 3]
    assert c.label(0, 1) == 1 and c.label(1, 2) == 2 and c.label(0, 3) == 3
    for u in range(4):
        assert reach(c, u) == reach(g, u)


def test_reach_against_path_enumeration_randomized():
    rng = random.Random(90125)
    for _ in range(400):
        n = rng.randint(2, 7)
        t = rng.randint(1, 5)
        g = random_graph(rng, n, t, p=rng.uniform(0.2, 0.9))
        for u in range(n):
            assert reach(g, u) == brute_reach(g, u), (g.edges, u)


@st.composite
def graphs_with_source(draw):
    # few labels on up to 7 nodes: label classes come out as paths and stars,
    # where merging a class takes more than one pass
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    labels = draw(st.lists(st.sampled_from([None, 1, 2, 3]), min_size=len(pairs), max_size=len(pairs)))
    g = TemporalGraph(n, {p: lab for p, lab in zip(pairs, labels) if lab is not None})
    return g, draw(st.integers(0, n - 1)), draw(st.integers(1, 4))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(graphs_with_source())
def test_reach_from_start_label_matches_oracle(case):
    g, u, start = case
    upper = TemporalGraph(g.n, {p: lab for p, lab in g.edges.items() if lab >= start})
    assert mask_to_set(g.reach_mask(u, start_label=start)) == brute_reach(upper, u)


def assert_sweep_skips_each_node(g):
    """A sweep that leaves x out reaches, from every other y, what y
    reaches in g with x's edges removed over labels >= s_y; one sweep
    serves start labels s_y from 1 to lifetime + 1."""
    events = _sweep_events(g._label_classes())
    top = g.lifetime + 1
    for x in range(g.n):
        rest = {p: lab for p, lab in g.edges.items() if x not in p}
        starts = sorted((-(1 + (x + y) % top), y) for y in range(g.n) if y != x)
        got = _reach_sweep(g.n, events, starts, skip=x)
        uppers = {}
        for neg, y in starts:
            if neg not in uppers:
                uppers[neg] = TemporalGraph(g.n, {p: lab for p, lab in rest.items() if lab >= -neg})
            assert mask_to_set(got[y]) == brute_reach(uppers[neg], y), (g.edges, x, y, -neg)


def test_reach_and_edge_masks_on_long_label_classes():
    # two labels on sparse graphs of 8-14 nodes give classes of a dozen or
    # more pairs, longer than the Hypothesis tests above draw
    rng = random.Random(2305)
    longest = connected = 0
    for _ in range(200):
        n = rng.randint(8, 14)
        g = random_graph(rng, n, 2, p=0.25)
        for s in (1, 2):
            longest = max(longest, sum(lab == s for lab in g.edges.values()))
            upper = TemporalGraph(n, {p: lab for p, lab in g.edges.items() if lab >= s})
            for u in range(n):
                assert mask_to_set(g.reach_mask(u, start_label=s)) == brute_reach(upper, u)
        assert_sweep_skips_each_node(g)
        got = _EdgeMasks(g).connected((1 << g.edge_count) - 1)
        assert got == brute_connected(g), g.edges
        connected += got
    assert longest >= 12 and 0 < connected < 200


def test_reach_and_edge_masks_on_matching_classes():
    # classes that are matchings of three or more pairs, some with one pair
    # more, and temporal cliques, where every class is a single pair: the
    # one-pass branch of both sweeps does most of the work here
    rng = random.Random(1207)
    flagged = unflagged = 0
    outcomes = set()
    for trial in range(60):
        n = rng.randint(8, 14)
        if trial % 3 == 2:
            g = distinct_label_graph(rng, n)
        else:
            g = matching_classes_graph(rng, n, complete=trial % 3 == 1)
        for _, pairs, matching in g._label_classes():
            assert matching == (len({x for p in pairs for x in p}) == 2 * len(pairs))
            flagged += matching and len(pairs) >= 3
            unflagged += not matching
        s = rng.randint(1, g.lifetime)
        upper = TemporalGraph(n, {p: lab for p, lab in g.edges.items() if lab >= s})
        for u in range(n):
            assert mask_to_set(g.reach_mask(u)) == brute_reach(g, u)
            assert mask_to_set(g.reach_mask(u, start_label=s)) == brute_reach(upper, u)
        assert_sweep_skips_each_node(g)
        masks = _EdgeMasks(g)
        subs = [masks.all, rng.getrandbits(g.edge_count)]
        if masks.connected(masks.all):
            # a minimal spanner and each one-edge cut of it sit on the edge
            # of connectivity, where a merge that stops early shows
            keep = _minimal_keep(masks)
            subs += [keep] + [keep ^ b for b in masks.bit.values() if keep & b]
        for sub in subs:
            kept = TemporalGraph(n, {p: lab for p, lab in g.edges.items() if sub & masks.bit[p]})
            got = masks.connected(sub)
            assert got == brute_connected(kept), (g.edges, sub)
            outcomes.add(got)
    assert flagged >= 100 and unflagged >= 50 and outcomes == {True, False}


def test_created_state_moves_on_matching_classes_match_fresh_state():
    # the kept event list, patched move by move, against a state built
    # from the profile at once: label by label the same pairs and matching
    # split, the same covers
    rng = random.Random(1208)
    flagged = unflagged = 0
    for trial in range(16):
        n = rng.randint(8, 14)
        if trial % 2:
            host = distinct_label_graph(rng, n)
        else:
            host = matching_classes_graph(rng, n, complete=True)
        profile = StrategyProfile(n, [()] * n)
        state = _CreatedState(host, profile)
        for step in range(4 * n):
            v = rng.randrange(n)
            others = [w for w in range(n) if w != v]
            profile = profile.with_strategy(v, rng.sample(others, rng.randint(0, n // 2)))
            state.move(v, profile[v])
            if step % n:
                continue
            fresh = _CreatedState(host, profile)
            classes = sweep_event_classes(state.events)
            assert classes == sweep_event_classes(fresh.events)
            for pairs, matching in classes.values():
                flagged += matching and len(pairs) >= 3
                unflagged += not matching
            for x in range(n):
                a, b = _AgentView(state, x), _AgentView(fresh, x)
                assert (a.covers, a.in_mask, a.cur_cost) == (b.covers, b.in_mask, b.cur_cost)
    assert flagged >= 20 and unflagged >= 5


def test_reach_monotone_in_start_label():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, 6, 4)
        for u in range(6):
            prev = None
            for start in range(1, 6):
                cur = g.reach_mask(u, start_label=start)
                if prev is not None:
                    assert cur & prev == cur  # raising the start never adds nodes
                prev = cur


def test_reach_evaluation_counter():
    g = path_graph([1, 2])
    reset_reach_evaluations()
    g.reach_mask(0)
    g.reach_mask(1)
    assert reach_evaluations() == 2


def test_edges_are_read_only_and_pickle():
    g = TemporalGraph(3, {(0, 1): 1, (1, 2): 2})
    assert g.reach_mask(2) == 0b110
    with pytest.raises(TypeError):
        g.edges[(0, 2)] = 1
    assert g.reach_mask(2) == 0b110 and g.edge_count == 2
    assert dict(g.edges) == {(0, 1): 1, (1, 2): 2}
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g)
    assert back.reach_mask(0) == g.reach_mask(0) == 0b111


@pytest.mark.parametrize("call, name", [
    (lambda h, p, out: minimum_spanner(h, budget_cap=True), "budget_cap"),
    (lambda h, p, out: check_ne(h, p, budget_cap=2.5), "budget_cap"),
    (lambda h, p, out: run_dynamics(h, p, max_steps=2.5), "max_steps"),
    (lambda h, p, out: run_experiment({"scenario": "br-cycle"}, out_dir=out, threads=True), "threads"),
    (lambda h, p, out: TemporalGraph(True, {}), "node count"),
    (lambda h, p, out: gen_random_host(5, True, 0), "t"),
    (lambda h, p, out: gen_random_host(5.0, 3, 0), "n"),
    (lambda h, p, out: StrategyProfile(2.0, [set(), set()]), "node count"),
    (lambda h, p, out: StrategyProfile(True, [set()]), "node count"),
    (lambda h, p, out: gen_hypercube(3.0), "dimension"),
    (lambda h, p, out: gen_t2_family(5.0), "n"),
    (lambda h, p, out: SetCoverInstance(2.5, [[1]]), "universe size"),
    (lambda h, p, out: SetCoverInstance(True, [[1]]), "universe size"),
    (lambda h, p, out: gen_random_directed(3, 2.0, 1, 0), "arc_count"),
    (lambda h, p, out: gen_random_host(6, 4, None), "seed"),
    (lambda h, p, out: gen_random_profile(h, 4, "1"), "seed"),
    (lambda h, p, out: gen_random_directed(3, 2, 1, 1.5), "seed"),
    (lambda h, p, out: gen_random_setcover(4, 3, True), "seed"),
    (lambda h, p, out: run_dynamics(h, p, schedule="random", seed=None), "seed"),
], ids=["minimum_spanner", "check_ne", "run_dynamics", "run_experiment", "TemporalGraph",
        "gen_random_host-t", "gen_random_host-n", "StrategyProfile-float", "StrategyProfile-bool",
        "gen_hypercube", "gen_t2_family", "SetCoverInstance-float", "SetCoverInstance-bool",
        "gen_random_directed-arc_count", "gen_random_host-seed", "gen_random_profile-seed",
        "gen_random_directed-seed", "gen_random_setcover-seed", "run_dynamics-seed"])
def test_integer_parameters_reject_bool_and_float_by_name(call, name, tmp_path):
    # a bool would stand for 0 or 1, and a float would be compared as a count;
    # a seed of None would draw from the OS and make the run irreproducible
    host, profile = gen_hypercube(3)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        call(host, profile, tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("call, error", [
    (lambda g: empty_profile(-1), r"^node count must be >= 1, got -1$"),
    (lambda g: g.reach_mask(1.0), r"^node 1\.0 out of range$"),
    (lambda g: g.reach_mask("1"), r"^node '1' out of range$"),
    (lambda g: DirectedTemporalGraph(3, {(0, 1): 1.5}), r"^arc \(0, 1\) has invalid label 1\.5$"),
    (lambda g: DirectedTemporalGraph(3, {(0, 1): "a"}), r"^arc \(0, 1\) has invalid label 'a'$"),
    (lambda g: DirectedTemporalGraph(3, {(True, 2): 1}), r"^arc \(True, 2\) out of range$"),
    (lambda g: gen_random_directed(3, 2, 0, 0), r"^t must be >= 1, got 0$"),
    (lambda g: is_temporal_path(g, [0.0]), None),
    (lambda g: is_temporal_path(g, []), None),
    (lambda g: TemporalGraph(3, {(True, 2): 1}), r"^edge \(True, 2\) has a non-integer node$"),
    (lambda g: TemporalGraph(3, {(0, 2): 1, (0.0, 1): 2}), r"^edge \(0\.0, 1\) has a non-integer node$"),
    (lambda g: SetCoverInstance(2, [[1.0, 2]]), r"^set 1 has non-integer element 1\.0$"),
    (lambda g: SetCoverInstance(2, [[1, 2], [True]]), r"^set 2 has non-integer element True$"),
    (lambda g: SetCoverInstance(2, [[1], [2]], cover=[1, 2.0]), r"^cover index 2\.0 is not an integer$"),
    (lambda g: g.reach_mask(0, start_label="2"), r"^start_label must be an integer, got '2'$"),
    (lambda g: g.reach_mask(0, start_label=None), r"^start_label must be an integer, got None$"),
    (lambda g: g.reach_mask(0, start_label=True), r"^start_label must be an integer, got True$"),
    (lambda g: g.reach_mask(0, start_label=1.5), r"^start_label must be an integer, got 1\.5$"),
    (lambda g: TemporalGraph(3, {(0, 1): 1, (1, 0): 2}), r"^edge \(0, 1\) given conflicting labels$"),
    (lambda g: is_temporal_spanner(g, TemporalGraph(2, {(0, 1): 1})),
     r"^node count mismatch: sub has 2, host has 3$"),
    (lambda g: DirectedTemporalGraph(3, {(1, 1): 1}), r"^self-loop arc at 1$"),
], ids=["empty_profile", "reach_mask-float", "reach_mask-str", "arc-label-float", "arc-label-str",
        "arc-node-bool", "gen_random_directed-t", "path-float-node", "path-empty",
        "edge-node-bool", "edge-node-float", "set-element-float", "set-element-bool",
        "cover-index-float", "start-label-str", "start-label-none", "start-label-bool",
        "start-label-float", "edge-conflicting-labels", "spanner-node-count", "arc-self-loop"])
def test_nodes_labels_and_paths_are_checked(call, error):
    # a float or bool node, a non-integer label or start label, a count below
    # its range, a self-loop, conflicting labels or a subgraph of another node
    # count ends in a ValueError; a list that is no path of g is not one
    g = TemporalGraph(3, {(0, 1): 1, (1, 2): 2, (0, 2): 1})
    if error is None:
        assert call(g) is False
    else:
        with pytest.raises(ValueError, match=error):
            call(g)
