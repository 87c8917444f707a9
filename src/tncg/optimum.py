"""Temporal spanner optima and the price-of-anarchy ratio."""

from __future__ import annotations

from fractions import Fraction

from .core import Pair, TemporalGraph, _merge_class, _mono_spanning_tree
from .errors import NotASpanner, NotTemporallyConnected, SearchSpaceExceeded
from .game import StrategyProfile, social_cost
from .responses import DEFAULT_BUDGET, _check_budget


class _EdgeMasks:
    """Bitset kernel over one host's edges, for the spanner searches.

    The edges are laid out once in the host's cached (label, pair) order and
    an edge subset is an int bitmask over that layout, so a search node is
    one int and no TemporalGraph is built until a spanner is returned.
    """

    __slots__ = ("host", "full", "all", "bit", "classes")

    def __init__(self, host: TemporalGraph):
        self.host = host
        self.full = (1 << host.n) - 1
        classes = host._label_classes()
        self.bit = {p: 1 << i for i, p in enumerate(p for _, ps, _ in classes for p in ps)}
        self.all = (1 << len(self.bit)) - 1
        # (mask of the class, its edges as (bit, u, v), the host's matching
        # flag), ascending label
        self.classes = []
        for _, pairs, matching in classes:
            es = [(self.bit[p], *p) for p in pairs]
            self.classes.append((sum(b for b, _, _ in es), es, matching))

    def connected(self, sub: int) -> bool:
        """True iff the edges in `sub` leave the nodes temporally connected.

        One all-sources sweep: reached[x] is the mask of sources that have
        reached x.  Label classes go in ascending order; within a class the
        kept edges merge their endpoints' masks until nothing changes
        (`core._merge_class`), because edges of one label can be used in
        sequence.  A class whose edges share no endpoint needs one pass.
        """
        reached = [1 << x for x in range(self.host.n)]
        for cmask, es, matching in self.classes:
            if not sub & cmask:
                continue
            if matching:
                for b, u, v in es:
                    if sub & b:
                        reached[u] = reached[v] = reached[u] | reached[v]
                continue
            _merge_class(reached, [(u, v) for b, u, v in es if sub & b])
        # every mask lies within full, so the smallest equals it iff all do
        return min(reached) == self.full

    def graph(self, sub: int, order) -> TemporalGraph:
        """The subgraph of the edges in `sub`, inserted in `order`."""
        edges = self.host.edges
        bit = self.bit
        return TemporalGraph(
            self.host.n, {p: edges[p] for p in order if sub & bit[p]}
        )


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
    include-then-exclude in lexicographic order, pruning branches that
    cannot beat the incumbent (retained edges plus static components minus
    one) and branches whose retained and undecided edges together are not
    temporally connected.  budget_cap bounds search nodes; exceeding it
    raises SearchSpaceExceeded, and budget_cap < 0 raises ValueError.

    Search nodes are edge bitmasks, and each node runs at most one
    connectivity sweep: an exclude child keeps its parent's retained set,
    already found disconnected, and an include child's retained and
    undecided edges are its parent's, already found connected.  Skipping
    those repeats leaves the tree unchanged, so a budget counts the same
    nodes as it always has.
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
    pairs = sorted(host.edges)
    m = len(pairs)
    bits = [masks.bit[p] for p in pairs]
    # rest[i]: mask of the undecided edges pairs[i:]
    rest = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        rest[i] = rest[i + 1] | bits[i]
    connected = masks.connected
    nodes = [0]

    def rec(idx: int, inc: int, count: int, parts: tuple, included: bool):
        # parts: node masks of the static components of the retained edges
        nodes[0] += 1
        if nodes[0] > budget_cap:
            raise SearchSpaceExceeded(
                f"spanner search exceeded budget of {budget_cap} nodes"
            )
        # retained edges plus the static components still to join
        if count + len(parts) - 1 >= best[1]:
            return
        if included:
            # more than one static component cannot be temporally connected;
            # at idx == m inc is its parent's connected inc | rest, so this returns
            if len(parts) == 1 and connected(inc):
                best[0] = inc
                best[1] = count
                return
        else:
            if idx == m or not connected(inc | rest[idx]):
                return
        u, v = pairs[idx]
        pu = next(c for c in parts if c >> u & 1)
        if pu >> v & 1:
            joined = parts
        else:
            pv = next(c for c in parts if c >> v & 1)
            joined = tuple(c for c in parts if c != pu and c != pv) + (pu | pv,)
        rec(idx + 1, inc | bits[idx], count + 1, joined, True)
        rec(idx + 1, inc, count, parts, False)

    rec(0, 0, 0, tuple(1 << x for x in range(n)), False)
    return masks.graph(best[0], pairs), best[1]


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
