"""Temporal spanner optima and the price-of-anarchy ratio."""

from __future__ import annotations

from fractions import Fraction

from .core import Pair, TemporalGraph, _mono_spanning_tree, mask_to_set
from .errors import NotASpanner, NotTemporallyConnected, SearchSpaceExceeded
from .game import StrategyProfile, social_cost
from .responses import DEFAULT_BUDGET, _check_budget


class _EdgeMasks:
    """Bitset kernel over one host's edges, for the spanner searches.

    The edges are laid out once in the host's cached (label, pair) order and
    an edge subset is an int bitmask over that layout, so a search node is
    one int and no TemporalGraph is built until a spanner is returned.
    """

    __slots__ = ("host", "full", "all", "bit", "classes", "dense")

    def __init__(self, host: TemporalGraph):
        self.host = host
        self.full = (1 << host.n) - 1
        classes = host._label_classes()
        self.bit = {p: 1 << i for i, p in enumerate(p for _, ps, _ in classes for p in ps)}
        self.all = (1 << len(self.bit)) - 1
        # (mask of the class, its edges as (bit, u, v), None for a matching
        # or else (shift, width mask, its pairs, component memo)); a class's
        # bits are contiguous, so its kept edges shift down to a memo key
        self.classes = []
        shift = 0
        for _, pairs, matching in classes:
            es = [(self.bit[p], *p) for p in pairs]
            dense = None if matching else (shift, (1 << len(pairs)) - 1, pairs, {})
            self.classes.append((sum(b for b, _, _ in es), es, dense))
            shift += len(pairs)
        self.dense = [d for _, _, d in self.classes if d]   # for the gossip bound

    def connected(self, sub: int) -> bool:
        """True iff the edges in `sub` leave the nodes temporally connected.

        One all-sources sweep: reached[x] is the mask of sources that have
        reached x.  Label classes go in ascending order.  Edges of one label
        can be used in sequence, so each node of a component of a class's
        kept edges ends with the OR of the component's masks.  A matching
        class merges its kept edges in one pass; any other class takes its
        components from a memo keyed on its kept edges (`_components`),
        shared with `lower_bound`.
        """
        reached = [1 << x for x in range(self.host.n)]
        for cmask, es, dense in self.classes:
            if not sub & cmask:
                continue
            if dense is None:
                for b, u, v in es:
                    if sub & b:
                        reached[u] = reached[v] = reached[u] | reached[v]
                continue
            shift, width, pairs, memo = dense
            key = sub >> shift & width
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = _components(pairs, key)
            for comp in entry[0]:
                merged = 0
                for x in comp:
                    merged |= reached[x]
                for x in comp:
                    reached[x] = merged
        # every mask lies within full, so the smallest equals it iff all do
        return min(reached) == self.full

    def lower_bound(self, avail: int) -> int:
        """A lower bound on the edges of any spanner within `avail`, given
        that no label class of the host spans: max(n, 2n - 4 - D).

        n holds since a spanning tree is single-label.  D sums h(k) over the
        components of k >= 3 nodes of each label class restricted to
        `avail`, h(3) = 1 and h(k) = k - 3 above; the gossip argument of
        `minimum_spanner` needs n >= 4, and below 5 the n term wins anyway.
        Each class's term is read from the component memo it shares with
        `connected`.
        """
        n = self.host.n
        d = 0
        for shift, width, pairs, memo in self.dense:
            key = avail >> shift & width
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = _components(pairs, key)
            d += entry[1]
        return max(n, 2 * n - 4 - d)

    def graph(self, sub: int, order) -> TemporalGraph:
        """The subgraph of the edges in `sub`, inserted in `order`."""
        edges = self.host.edges
        bit = self.bit
        return TemporalGraph(
            self.host.n, {p: edges[p] for p in order if sub & bit[p]}
        )


def _components(pairs: list[Pair], key: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The components of at least 2 nodes of the pairs picked by `key`'s
    bits, as node tuples, and the sum of h(k) over them: h(k) = 0 for k = 2,
    1 for k = 3, k - 3 for k >= 4.  That is how many more two-party calls a
    gossip among a component's k nodes takes than the fewest edges, k - 1,
    that join them."""
    comp: dict[int, int] = {}       # node -> node mask of its component
    for i, (u, v) in enumerate(pairs):
        if key >> i & 1:
            merged = comp.get(u, 1 << u) | comp.get(v, 1 << v)
            todo = merged
            while todo:
                low = todo & -todo
                comp[low.bit_length() - 1] = merged
                todo ^= low
    comps = tuple(tuple(mask_to_set(c)) for c in set(comp.values()))
    return comps, sum(1 if len(c) == 3 else len(c) - 3 for c in comps if len(c) >= 3)


def _minimal_keep(masks: _EdgeMasks) -> tuple[int, list[Pair]]:
    """Keep-mask of the greedy removal pass, and the removal order."""
    edges = masks.host.edges
    order = sorted(edges, key=lambda p: (-edges[p], p))
    keep = masks.all
    for p in order:
        trial = keep ^ masks.bit[p]
        if masks.connected(trial):
            keep = trial
    return keep, order


def minimal_spanner(host: TemporalGraph) -> TemporalGraph:
    """Greedy single-pass removal, descending label then lexicographic pair.

    One pass suffices for minimality: an edge kept because its removal
    disconnected the graph at the time stays non-removable in every later
    subgraph, since deleting edges never adds temporal paths.  Each removal
    is tested on an edge bitmask; only the returned spanner is built.
    """
    masks = _EdgeMasks(host)
    if not masks.connected(masks.all):
        raise NotTemporallyConnected("graph is not temporally connected")
    keep, order = _minimal_keep(masks)
    return masks.graph(keep, order)


def minimum_spanner(
    host: TemporalGraph, budget_cap: int = DEFAULT_BUDGET
) -> tuple[TemporalGraph, int]:
    """Exact minimum temporal spanner by branch and bound.

    Returns the spanner and its size.  Any label class containing a spanning
    tree settles the instance at n-1 edges immediately.  Otherwise the
    incumbent is `minimal_spanner`'s answer, and edges are decided
    include-then-exclude, pruning branches that cannot beat the incumbent and
    branches whose retained and undecided edges together are not temporally
    connected.  budget_cap bounds search nodes; exceeding it raises
    SearchSpaceExceeded, which names the bracket [root lower bound,
    incumbent] the optimum lies in, and budget_cap < 0 raises ValueError.

    Lower bound.  A branch cannot beat the incumbent if its retained edges
    plus static components minus one reach it, or if the bound of
    `_EdgeMasks.lower_bound` over its retained and undecided edges does.
    That bound is max(n, 2n - 4 - D) for n >= 4 (n below).  n holds because
    no class spans, and a spanning-tree spanner lies in one class.  For
    2n - 4 - D, read a spanner S as a gossip schedule: in ascending label,
    the nodes of each component of a label class of S pool what they know,
    a conference call.  Replace each component with k nodes, which has at
    least k - 1 edges, by a two-party gossip among its nodes: 1 call for
    k = 2, 3 for k = 3, 2k - 4 for k >= 4.  The result is an all-to-all
    gossip, which takes at least 2n - 4 calls (Baker & Shostak 1972).  So
    |S| >= 2n - 4 minus the sum of h(k) = calls - (k - 1) over the
    components of S, and that sum is at most D, whose components contain
    them.  When the incumbent meets the bound at the root it is returned
    without a search.

    Branch order.  The edges of classes that are not matchings come first,
    since breaking one of their components is what raises the bound; then
    the rest, each group in lexicographic order.  Among spanners of the
    minimum size the one returned depends on this order, so it may differ
    from the one an earlier order found; the size does not.

    Search nodes are edge bitmasks, and each node runs at most one
    connectivity sweep, which shares the bound's memo of the components of
    non-matching classes: an exclude child keeps its parent's retained set,
    already found disconnected, and an include child's retained and
    undecided edges are its parent's, already found connected, with the
    same bound.  An include child whose retained edges are fewer than the
    bound is no spanner, so it runs no sweep.
    """
    _check_budget(budget_cap)
    masks = _EdgeMasks(host)
    if not masks.connected(masks.all):
        raise NotTemporallyConnected("graph is not temporally connected")
    n = host.n
    if n <= 1:
        return TemporalGraph(n, {}), 0
    # a single-label spanning tree hits the n-1 lower bound exactly
    mono = _mono_spanning_tree(host)
    if mono is not None:
        label, tree = mono
        return TemporalGraph(n, {p: label for p in tree}), n - 1

    keep, _ = _minimal_keep(masks)
    best = [keep, keep.bit_count()]
    root = masks.lower_bound(masks.all)
    lex = sorted(host.edges)
    if best[1] == root:
        return masks.graph(keep, lex), root
    matching = {p: flag for _, ps, flag in host._label_classes() for p in ps}
    pairs = sorted(lex, key=lambda p: matching[p])
    m = len(pairs)
    bits = [masks.bit[p] for p in pairs]
    # rest[i]: mask of the undecided edges pairs[i:]
    rest = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        rest[i] = rest[i + 1] | bits[i]
    connected = masks.connected
    lower_bound = masks.lower_bound
    nodes = [0]

    def rec(idx: int, inc: int, count: int, parts: tuple, bound: int | None):
        # parts: node masks of the static components of the retained edges;
        # bound: the parent's bound at an include child, None at an exclude
        # child, whose undecided edges lost pairs[idx - 1]
        nodes[0] += 1
        if nodes[0] > budget_cap:
            raise SearchSpaceExceeded(
                f"spanner search exceeded budget of {budget_cap} nodes; "
                f"optimum in [{root}, {best[1]}]"
            )
        # retained edges plus the static components still to join
        if count + len(parts) - 1 >= best[1]:
            return
        if bound is not None:
            # more than one static component cannot be temporally connected;
            # at idx == m inc is its parent's connected inc | rest, so this returns
            if len(parts) == 1 and count >= bound and connected(inc):
                best[0] = inc
                best[1] = count
                return
        else:
            if idx == m:
                return
            avail = inc | rest[idx]
            bound = lower_bound(avail)
            if bound >= best[1] or not connected(avail):
                return
        u, v = pairs[idx]
        pu = next(c for c in parts if c >> u & 1)
        if pu >> v & 1:
            joined = parts
        else:
            pv = next(c for c in parts if c >> v & 1)
            joined = tuple(c for c in parts if c != pu and c != pv) + (pu | pv,)
        rec(idx + 1, inc | bits[idx], count + 1, joined, bound)
        rec(idx + 1, inc, count, parts, None)

    rec(0, 0, 0, tuple(1 << x for x in range(n)), None)
    return masks.graph(best[0], lex), best[1]


def poa_ratio(
    host: TemporalGraph,
    profile: StrategyProfile,
    budget_cap: int = DEFAULT_BUDGET,
) -> Fraction:
    """Social cost of the profile over the minimum spanner size, exact.

    The profile must make the host temporally connected (zero unreached
    pairs); otherwise its cost is not comparable to a spanner.  An edgeless
    optimum (a 1-node host) leaves the ratio undefined: ValueError, as does
    budget_cap < 0.
    """
    _check_budget(budget_cap)
    sc = social_cost(host, profile)
    if sc.unreached > 0:
        raise NotASpanner(
            f"profile leaves {sc.unreached} unreached pairs; ratio undefined"
        )
    _, opt = minimum_spanner(host, budget_cap=budget_cap)
    if opt == 0:
        raise ValueError("PoA is undefined: the optimum spanner has no edges")
    return Fraction(sc.edges, opt)
