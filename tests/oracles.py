"""Independent reference implementations used to cross-check the package.

Everything here favors obviousness over speed.  Reachability is one search
over (node, label of the arriving edge) states: walks with non-decreasing
labels reach the same nodes as temporal paths, because cutting a walk's
loops leaves a subsequence of its labels, which still does not decrease.
Optima enumerate subsets.  Reach, costs and optima here use none of the
package's label classes, bitmasks or connectivity checks, so a
disagreement points at a real bug.
"""

from itertools import combinations

from tncg import CostVector, TemporalGraph


def _adjacency(n: int, edges) -> list:
    """node -> [(neighbor, label)] over ((a, b), label) items."""
    adj = [[] for _ in range(n)]
    for (a, b), lab in edges:
        adj[a].append((b, lab))
        adj[b].append((a, lab))
    return adj


def _walk_reach(adj: list, u: int) -> set:
    """Nodes that some walk from u with non-decreasing labels ends at."""
    seen = {(u, 0)}
    stack = [(u, 0)]
    while stack:
        node, last = stack.pop()
        for nxt, lab in adj[node]:
            if lab >= last and (nxt, lab) not in seen:
                seen.add((nxt, lab))
                stack.append((nxt, lab))
    return {node for node, _ in seen}


def _spans(n: int, edges) -> bool:
    """Every node reaches every node over the ((a, b), label) items."""
    adj = _adjacency(n, edges)
    return all(len(_walk_reach(adj, u)) == n for u in range(n))


def brute_reach(g: TemporalGraph, u: int) -> set:
    return _walk_reach(_adjacency(g.n, g.edges.items()), u)


def brute_connected(g: TemporalGraph) -> bool:
    return _spans(g.n, g.edges.items())


def brute_minimum_spanner(host: TemporalGraph) -> int:
    """Smallest spanner size by ascending-cardinality subset enumeration."""
    edges = sorted(host.edges.items())
    for r in range(host.n - 1, len(edges) + 1):
        for combo in combinations(edges, r):
            if _spans(host.n, combo):
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
    """Agent cost from scratch: undirected created graph, walk reachability."""
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
