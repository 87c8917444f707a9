"""Temporal spanner optima, the spanner minimality predicate and the
price-of-anarchy ratio."""

from __future__ import annotations

from fractions import Fraction

from .core import TemporalGraph, _mono_spanning_tree, is_temporal_spanner
from .errors import NotASpanner, NotTemporallyConnected, SearchSpaceExceeded
from .game import StrategyProfile, social_cost
from .responses import DEFAULT_BUDGET, _check_budget


class _EdgeMasks:
    """Bitset kernel over one host's edges, for the spanner searches and
    the minimality predicate.

    The edges are laid out once in the host's cached (label, pair) order and
    an edge subset is an int bitmask over that layout, so no TemporalGraph
    is built until a spanner is returned.  `connected` tests an edge subset
    for `minimal_spanner`, `_minimal_keep` and `is_minimal_spanner`.
    `minimum_spanner` merges `classes` itself for its tables and decides
    edges in this layout, so a search node's undecided edges are the bits
    from its next edge's up.
    """

    __slots__ = ("host", "full", "all", "bit", "classes")

    def __init__(self, host: TemporalGraph):
        self.host = host
        self.full = (1 << host.n) - 1
        classes = host._label_classes()
        self.bit = {p: 1 << i for i, p in enumerate(p for _, ps, _ in classes for p in ps)}
        self.all = (1 << len(self.bit)) - 1
        # (mask of the class, its edges as (bit, u, v), matching)
        self.classes = []
        for _, pairs, matching in classes:
            es = [(self.bit[p], *p) for p in pairs]
            self.classes.append((sum(b for b, _, _ in es), es, matching))

    def connected(self, sub: int) -> bool:
        """True iff the edges in `sub` leave the nodes temporally connected.

        One all-sources sweep: reached[x] is the mask of sources that have
        reached x.  Label classes go in ascending order, each merged by
        `_merge`.
        """
        reached = [1 << x for x in range(self.host.n)]
        for cmask, es, matching in self.classes:
            if sub & cmask:
                _merge(reached, es, matching, sub)
        # every mask lies within full, so the smallest equals it iff all do
        return min(reached) == self.full

    def graph(self, sub: int) -> TemporalGraph:
        """The subgraph of the edges in `sub`, in lexicographic pair order."""
        bit = self.bit
        return TemporalGraph(
            self.host.n, {p: lab for p, lab in sorted(self.host.edges.items()) if sub & bit[p]}
        )


def _merge(
    reached: list[int], es: list[tuple[int, int, int]], matching: bool, sub: int
) -> list[int]:
    """Merge the edges of one label class that `sub` keeps into `reached`:
    edges of one label can be used in sequence, so each node of a component
    of the kept edges ends with the OR of the component's masks.  A matching
    takes one pass and returns [], as its components have at most 2 nodes;
    any other class is joined edge by edge (`_join`) and returns comp,
    comp[x] the node mask of x's component."""
    if matching:
        for b, u, v in es:
            if sub & b:
                reached[u] = reached[v] = reached[u] | reached[v]
        return []
    comp = [1 << x for x in range(len(reached))]
    for b, u, v in es:
        if sub & b and not comp[u] >> v & 1:
            _join(reached, comp, u, v)
    return comp


def _join(reached: list[int], comp: list[int], u: int, v: int) -> None:
    """Merge the class components of u and v in place: each node of the
    union gets the union as its component and the OR of the two masks."""
    merged = comp[u] | comp[v]
    mask = reached[u] | reached[v]
    todo = merged
    while todo:
        low = todo & -todo
        x = low.bit_length() - 1
        reached[x] = mask
        comp[x] = merged
        todo ^= low


def _excess(comp: list[int]) -> int:
    """A class's term of D: the sum of h(k) over its components of k >= 3
    nodes, h(3) = 1 and h(k) = k - 3 above.  That is how many more
    two-party calls a gossip among a component's k nodes takes than the
    fewest edges, k - 1, that join them."""
    d = 0
    for m in set(comp):
        k = m.bit_count()
        if k > 3:
            d += k - 3
        elif k == 3:
            d += 1
    return d


def _minimal_keep(masks: _EdgeMasks) -> int:
    """Keep-mask of the greedy removal pass: descending label, then
    ascending pair."""
    keep = masks.all
    for _, es, _ in reversed(masks.classes):
        for b, _, _ in es:
            if masks.connected(keep ^ b):
                keep ^= b
    return keep


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
    return masks.graph(_minimal_keep(masks))


def is_minimal_spanner(host: TemporalGraph, sub: TemporalGraph) -> bool:
    """True iff sub is a spanner of host and dropping any single edge
    breaks it; each drop is tested on an edge bitmask."""
    if not is_temporal_spanner(host, sub):
        return False
    masks = _EdgeMasks(sub)
    return not any(masks.connected(masks.all ^ b) for b in masks.bit.values())


def _reaches_all(into: list[tuple[int, ...]], reached: list[int], full: int) -> bool:
    """True iff every source reaches every node z: into[z] lists the nodes y
    that reach z over the later classes, reached[y] the sources at y."""
    for ys in into:
        acc = 0
        for y in ys:
            acc |= reached[y]
        if acc != full:
            return False
    return True


def _misses(reached: list[int], need: int) -> bool:
    """True iff some source s is missing from at least `need` of the masks,
    that is n - |H_s| >= need for the broadcast bound of
    `minimum_spanner`."""
    for s in range(len(reached)):
        bit = 1 << s
        if sum(1 for r in reached if not r & bit) >= need:
            return True
    return False


def minimum_spanner(
    host: TemporalGraph, budget_cap: int = DEFAULT_BUDGET
) -> tuple[TemporalGraph, int]:
    """Exact minimum temporal spanner by branch and bound.

    Returns the spanner and its size.  Any label class containing a spanning
    tree settles the instance at n-1 edges immediately.  Otherwise the
    incumbent is `minimal_spanner`'s answer.  budget_cap bounds search
    nodes; exceeding it raises SearchSpaceExceeded, which names the bracket
    [root lower bound, incumbent] the optimum lies in and carries it as its
    `lower` and `upper`, and budget_cap < 0 raises ValueError.

    Setup.  One descending pass of `_merge` over the classes, every edge
    kept, gives later[c][y], the mask of the nodes y reaches over the
    classes from c on, and rest[c], those classes' D term (lower bound
    below).  A later[0][y] that misses a node raises NotTemporallyConnected.
    The reach table into[c][z], the nodes y whose later[c][y] holds z, is
    built only if the root bound does not settle the instance.

    Branch order.  Edges are decided in the kernel's layout, ascending label
    and then lexicographic pair, exclude first: the first spanners found
    keep late edges, which is where small ones lie when classes are large.
    Among spanners of the minimum size the one returned follows this order;
    the size does not.

    State.  The sweep of `_EdgeMasks.connected` runs down the tree with the
    decisions: reached[x] is the mask of sources that reach x over the
    retained edges, and inside a class that is not a matching comp[x] is
    x's component over the class's retained edges.  An include merges two
    components in place.  An include that adds nothing is not branched:
    its endpoints already share a component, or in a matching a mask.  A
    stack holds one frame per pending child along the current path, an
    include below its exclude sibling: it is popped after the sibling's
    subtree, and dropped if the incumbent is no larger than it by then.
    The search keeps nothing else: its memory is the stack, with its
    copies of reached and comp, and the reach table, whatever budget_cap is.

    Prunes.  At a boundary: by the broadcast bound below, n - min_s |H_s|
    more edges are needed; every source must still reach every node over
    the later classes, read from the reach table with no sweep; and the
    lower bound below must stay under the incumbent for the retained and
    undecided edges.  An exclude inside a class that is not a matching
    checks the same bound and reach with the rest of the class kept, since
    breaking one of its components is what raises the bound.  Matching
    classes are checked at their end.

    Lower bound.  max(n, 2n - 4 - D) for n >= 4, D taken over the
    retained and undecided edges.  n holds because no class spans, and a
    spanning-tree spanner lies in one class.  For 2n - 4 - D, read a
    spanner S as a gossip schedule: in ascending label, the nodes of each
    component of a label class of S pool what they know, a conference call.
    Replace each component with k nodes, which has at least k - 1 edges, by
    a two-party gossip among its nodes: 1 call for k = 2, 3 for k = 3,
    2k - 4 for k >= 4.  The result is an all-to-all gossip, which takes at
    least 2n - 4 calls (Baker & Shostak 1972).  So |S| >= 2n - 4 minus the
    sum of h(k) = calls - (k - 1) over the components of S, and that sum is
    at most D, whose components contain them.  At the root the bound is
    max(n, 2n - 4 - rest[0]); when the incumbent meets it, it is returned
    without a search.  Below the root the search carries D: d is the term
    of the decided classes' retained edges, updated as each class ends,
    and rest[c] that of the later classes.  So the bound is
    max(n, 2n - 4 - d - rest[c]) at a boundary; at an exclude inside a
    class that is not a matching, the class's own term, read from the
    rest-of-class joins of the reach check, is added to rest[c+1].

    Broadcast bound.  At a boundary let H_s be the nodes x with s in
    reached[x].  Every retained edge lies in an earlier class and every
    undecided one in a later class, so a temporal path from s to a node y
    outside H_s is a prefix of retained edges, which ends in H_s, followed
    by undecided edges only.  The undecided edges a spanner keeps
    therefore join every node outside H_s to H_s: with H_s contracted to
    one node they connect n - |H_s| + 1 nodes, so there are at least
    n - |H_s| of them, for every s.  Checking this at every node inside
    matching classes as well prunes ~5% more nodes on the `spanner-exact`
    pool but takes ~10% longer, so it runs at boundaries only.
    """
    _check_budget(budget_cap)
    masks = _EdgeMasks(host)
    n = host.n
    full = masks.full
    classes = masks.classes
    k = len(classes)
    back = [1 << x for x in range(n)]
    later = [back[:]]
    rest = [0]
    for _, es, matching in reversed(classes):
        rest.append(rest[-1] + _excess(_merge(back, es, matching, masks.all)))
        later.append(back[:])
    later.reverse()
    rest.reverse()
    if min(back) != full:
        raise NotTemporallyConnected("graph is not temporally connected")
    if n <= 1:
        return TemporalGraph(n, {}), 0
    # a single-label spanning tree hits the n-1 lower bound exactly
    mono = _mono_spanning_tree(host)
    if mono is not None:
        label, tree = mono
        return TemporalGraph(n, {p: label for p in tree}), n - 1

    keep = _minimal_keep(masks)
    best_inc, best = keep, keep.bit_count()
    root = max(n, 2 * n - 4 - rest[0])
    if best == root:
        return masks.graph(keep), root
    into = [[tuple(y for y in range(n) if reach[y] >> z & 1) for z in range(n)] for reach in later]
    singles = [1 << x for x in range(n)]
    nodes = 0
    # a frame decides edge j of class c; j == 0 is the boundary before class
    # c, c == k the end; comp is None in a matching; d is the D term of the
    # kept edges of the classes before c
    stack = [(0, 0, 0, 0, singles, None, 0)]
    while stack:
        c, j, inc, count, reached, comp, d = stack.pop()
        if count >= best:
            continue
        nodes += 1
        if nodes > budget_cap:
            raise SearchSpaceExceeded(
                f"spanner search exceeded budget of {budget_cap} nodes; "
                f"optimum in [{root}, {best}]",
                lower=root, upper=best,
            )
        if j == 0:
            deficient = n - reached.count(full)
            if not deficient:
                best_inc, best = inc, count
                continue
            if c == k:
                continue
            # the broadcast bound: a source missing from `need` masks needs
            # `need` more edges; only a deficient mask misses a source
            need = best - count
            if deficient >= need and _misses(reached, need):
                continue
            if not _reaches_all(into[c], reached, full):
                continue
            if max(n, 2 * n - 4 - d - rest[c]) >= best:
                continue
            comp = None if classes[c][2] else singles
        es = classes[c][1]
        b, u, v = es[j]
        c2, j2 = (c, j + 1) if j + 1 < len(es) else (c + 1, 0)
        if count + 1 < best:
            if comp is None:
                if reached[u] != reached[v]:
                    r = reached[:]
                    r[u] = r[v] = reached[u] | reached[v]
                    stack.append((c2, j2, inc | b, count + 1, r, None, d))
            elif not comp[u] >> v & 1:
                r, cm = reached[:], comp[:]
                _join(r, cm, u, v)
                stack.append((c2, j2, inc | b, count + 1, r, cm, d if j2 else d + _excess(cm)))
        if comp is None:
            stack.append((c2, j2, inc, count, reached, None, d))
        else:
            # the rest of this class kept, then every later class
            r, cm = reached[:], comp[:]
            for _, x, y in es[j + 1:]:
                if not cm[x] >> y & 1:
                    _join(r, cm, x, y)
            if _reaches_all(into[c + 1], r, full):
                ex = _excess(cm)
                if max(n, 2 * n - 4 - d - ex - rest[c + 1]) < best:
                    # on the class's last edge nothing was joined: cm is comp
                    stack.append((c2, j2, inc, count, reached, comp, d if j2 else d + ex))
    return masks.graph(best_inc), best


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
