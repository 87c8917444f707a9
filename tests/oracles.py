"""Independent reference implementations used to cross-check the package.

Everything here favors obviousness over speed: reachability enumerates
simple paths by DFS, optima enumerate subsets.  Keep these free of package
reachability internals so disagreements point at real bugs.
"""

from itertools import combinations

from tncg import TemporalGraph


def brute_reach(g: TemporalGraph, u: int) -> set:
    """Reachable set via DFS over simple paths with non-decreasing labels."""
    adj = {v: [] for v in range(g.n)}
    for (a, b), lab in g.edges.items():
        adj[a].append((b, lab))
        adj[b].append((a, lab))
    reached = {u}
    stack = [(u, 0, frozenset([u]))]
    while stack:
        node, last, path = stack.pop()
        for (nxt, lab) in adj[node]:
            if nxt in path or lab < last:
                continue
            reached.add(nxt)
            stack.append((nxt, lab, path | {nxt}))
    return reached


def brute_connected(g: TemporalGraph) -> bool:
    return all(len(brute_reach(g, u)) == g.n for u in range(g.n))


def brute_minimum_spanner(host: TemporalGraph, max_extra: int = 64) -> int:
    """Smallest spanner size by ascending-cardinality subset enumeration.

    Uses the package's temporal connectivity check, which the reachability
    oracle validates separately; the search itself is exhaustive.
    """
    from tncg import is_temporally_connected

    edges = sorted(host.edges)
    for r in range(host.n - 1, len(edges) + 1):
        for combo in combinations(edges, r):
            sub = TemporalGraph(host.n, {p: host.edges[p] for p in combo})
            if is_temporally_connected(sub):
                return r
    raise AssertionError("graph itself is not temporally connected")


def brute_created_graph(host, profile) -> TemporalGraph:
    """Undirected created graph: the host pair of every bought arc."""
    edges = {}
    for (a, b) in profile.arcs():
        pair = (a, b) if a < b else (b, a)
        edges[pair] = host.edges[pair]
    return TemporalGraph(host.n, edges)


def brute_agent_cost(host, profile, v):
    """Agent cost from scratch: undirected created graph, DFS reachability."""
    from tncg import CostVector

    reached = brute_reach(brute_created_graph(host, profile), v)
    return CostVector(host.n - len(reached), len(profile[v]))


def brute_best_response(host, profile, v):
    """Scan every strategy; return (lex-smallest strategy among minima, cost)."""
    others = [w for w in range(host.n) if w != v]
    best = None
    for r in range(0, len(others) + 1):
        for combo in combinations(others, r):
            cand = profile.with_strategy(v, combo)
            cost = brute_agent_cost(host, cand, v)
            key = (cost.key(), combo)
            if best is None or key < best[0]:
                best = (key, frozenset(combo), cost)
    return best[1], best[2]


def brute_label_classes(host, profile) -> dict:
    """label -> sorted pairs of the undirected created graph."""
    classes = {}
    for (a, b), lab in brute_created_graph(host, profile).edges.items():
        classes.setdefault(lab, []).append((a, b))
    return {lab: sorted(pairs) for lab, pairs in classes.items()}


def candidate_greedy(view):
    """Reference greedy search over an agent view's covers: build and score
    every toggled endpoint set; ties go to the lexicographically smallest
    set.  Returns (strategy, cost) like `_AgentView.greedy`."""
    from tncg import CostVector

    best_cost = view.cur_cost
    best = None
    for w in range(view.n):
        if w == view.v:
            continue
        cand = tuple(sorted(view.current ^ {w}))
        mask = view.base | view.in_mask
        for x in cand:
            mask |= view.covers[x]
        cost = CostVector(view.n - mask.bit_count(), len(cand))
        if cost < best_cost or (cost == best_cost and best is not None and cand < best):
            best_cost = cost
            best = cand
    if best is None:
        return view.current, best_cost
    return frozenset(best), best_cost
