"""Independent reference implementations used to cross-check the package.

Everything here favors obviousness over speed.  Reachability is one search
over (node, label of the arriving edge) states: walks with non-decreasing
labels reach the same nodes as temporal paths, because cutting a walk's
loops leaves a subsequence of its labels, which still does not decrease.
Optima enumerate subsets.  Reach, costs and optima here use none of the
package's label classes, bitmasks or connectivity checks, so a
disagreement points at a real bug.
"""

from itertools import combinations, product

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


def brute_completion(n: int, kept, later):
    """Fewest of the `later` ((a, b), label) items that, added to the `kept`
    ones, leave every node reaching every node, by ascending-cardinality
    subset enumeration; None if even all of them do not."""
    kept, later = list(kept), sorted(later)
    if not _spans(n, kept + later):
        return None
    for r in range(len(later) + 1):
        for combo in combinations(later, r):
            if _spans(n, kept + list(combo)):
                return r


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


def sweep_event_classes(events) -> dict:
    """label -> (frozenset of pairs, matching) read off the package's
    sweep-event list, checked against its definition on the way: each label
    is one run of events, labels descend from run to run, a class whose
    pairs share no endpoint is one (-label, u, w) event per pair and any
    other class one (-label, -1, pairs) event.  Pairs compare as sets, since
    the order within a label is free."""
    runs = {}
    last = None
    for neg, u, w in events:
        label = -neg
        if label != last:
            assert last is None or label < last, f"label {label} after {last}"
            runs[label] = []
            last = label
        runs[label].append((u, w))
    out = {}
    for label, run in runs.items():
        whole = run[0][0] < 0
        if whole:
            assert len(run) == 1, f"label {label}: a whole class is one event"
            pairs = list(run[0][1])
        else:
            assert all(u >= 0 for u, _ in run), f"label {label}: mixed events"
            pairs = run
        assert len(set(pairs)) == len(pairs), f"label {label}: a pair twice"
        matching = len({x for p in pairs for x in p}) == 2 * len(pairs)
        assert matching != whole, f"label {label}: matching split"
        out[label] = (frozenset(pairs), matching)
    return out


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


def brute_forbidden(n, edges, strategies, masks):
    """First forbidden five-node configuration, or None, by enumerating
    (z, u1, u2, x, y, e1x, e1y, e2x, e2y) in lexicographic order against
    the definition: u1 != u2 are neighbors of z in the created graph, x < y,
    e1x != e1y and e2x != e2y, and each e_ij is an arc (u_i, w) with w != z,
    label >= label({z, u_i}) and target j in its necessary set.  edges maps
    host pairs (a < b) to labels, strategies[v] is the set of endpoints v
    buys, masks maps each bought arc to its necessary-set bitmask."""
    def label(a, b):
        return edges[(min(a, b), max(a, b))]

    def usable(z, arc, target):
        u, w = arc
        return w != z and label(u, w) >= label(z, u) and masks[arc] >> target & 1

    for z in range(n):
        nbrs = [u for u in range(n) if u in strategies[z] or z in strategies[u]]
        # arcs[u][j]: u's arcs, ascending, usable toward target j
        arcs = {
            u: [[(u, w) for w in sorted(strategies[u]) if usable(z, (u, w), j)] for j in range(n)]
            for u in nbrs
        }
        for u1, u2 in product(nbrs, nbrs):
            if u1 == u2:
                continue
            for x, y in combinations(range(n), 2):
                for e1x, e1y, e2x, e2y in product(
                    arcs[u1][x], arcs[u1][y], arcs[u2][x], arcs[u2][y]
                ):
                    if e1x != e1y and e2x != e2y:
                        return z, u1, u2, x, y, e1x, e1y, e2x, e2y
    return None
