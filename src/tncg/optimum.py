"""Temporal spanner optima and the price-of-anarchy ratio."""

from __future__ import annotations

from fractions import Fraction

from .core import TemporalGraph, _mono_spanning_tree, is_temporally_connected
from .errors import NotASpanner, NotTemporallyConnected, SearchSpaceExceeded
from .game import StrategyProfile, social_cost
from .responses import DEFAULT_BUDGET


def minimal_spanner(host: TemporalGraph) -> TemporalGraph:
    """Greedy single-pass removal, descending label then lexicographic pair.

    One pass suffices for minimality: an edge kept because its removal
    disconnected the graph at the time stays non-removable in every later
    subgraph, since deleting edges never adds temporal paths.
    """
    if not is_temporally_connected(host):
        raise NotTemporallyConnected("graph is not temporally connected")
    edges = dict(host.edges)
    order = sorted(edges, key=lambda p: (-edges[p], p))
    for pair in order:
        lab = edges.pop(pair)
        if not is_temporally_connected(TemporalGraph(host.n, edges)):
            edges[pair] = lab
    return TemporalGraph(host.n, edges)


def minimum_spanner(
    host: TemporalGraph, budget_cap: int = DEFAULT_BUDGET
) -> tuple[TemporalGraph, int]:
    """Exact minimum temporal spanner by branch and bound.

    Returns the spanner and its size.  Any label class containing a spanning
    tree settles the instance at n-1 edges immediately.  Otherwise edges are
    decided include/exclude in lexicographic order, pruning branches whose
    retained edge set cannot reach temporal connectivity and branches that
    cannot beat the incumbent.  budget_cap bounds search nodes; exceeding it
    raises SearchSpaceExceeded.
    """
    if not is_temporally_connected(host):
        raise NotTemporallyConnected("graph is not temporally connected")
    n = host.n
    if n <= 1:
        return TemporalGraph(n, {}), 0
    # a single-label spanning tree hits the n-1 lower bound exactly
    mono = _mono_spanning_tree(host)
    if mono is not None:
        label, tree = mono
        return TemporalGraph(n, {p: label for p in tree}), n - 1

    incumbent = minimal_spanner(host)
    best = [sorted(incumbent.edges), incumbent.edge_count]
    edges = sorted(host.edges)
    m = len(edges)
    state = [0]

    def components(pairs) -> int:
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        comps = n
        for (u, v) in pairs:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return comps

    def rec(idx: int, included: list) -> None:
        state[0] += 1
        if state[0] > budget_cap:
            raise SearchSpaceExceeded(
                f"spanner search exceeded budget of {budget_cap} nodes"
            )
        count = len(included)
        if count >= best[1]:
            return
        # static connectivity over included edges lower-bounds the deficit
        if count + components(included) - 1 >= best[1]:
            return
        sub = TemporalGraph(n, {p: host.edges[p] for p in included})
        if is_temporally_connected(sub):
            best[0] = list(included)
            best[1] = count
            return
        if idx == m:
            return
        remaining = edges[idx:]
        full = TemporalGraph(
            n, {p: host.edges[p] for p in included + remaining}
        )
        if not is_temporally_connected(full):
            return
        included.append(edges[idx])
        rec(idx + 1, included)
        included.pop()
        rec(idx + 1, included)

    rec(0, [])
    sub = TemporalGraph(n, {p: host.edges[p] for p in best[0]})
    return sub, best[1]


def poa_ratio(
    host: TemporalGraph,
    profile: StrategyProfile,
    budget_cap: int = DEFAULT_BUDGET,
) -> Fraction:
    """Social cost of the profile over the minimum spanner size, exact.

    The profile must make the host temporally connected (zero unreached
    pairs); otherwise its cost is not comparable to a spanner.
    """
    sc = social_cost(host, profile)
    if sc.unreached > 0:
        raise NotASpanner(
            f"profile leaves {sc.unreached} unreached pairs; ratio undefined"
        )
    _, opt = minimum_spanner(host, budget_cap=budget_cap)
    return Fraction(sc.edges, opt)
