"""Instance generators: every named family plus random hosts.

Every host comes from `_complete_host`, so it is complete with labels 1..k.
Node numbering conventions are fixed per generator so outputs are
deterministic and golden-testable; both set-cover reductions take their set,
element and incidence nodes from `_incidence_nodes`.  Arc ownership is
likewise fixed where the underlying claim does not depend on it.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterable, Optional

from .core import TemporalGraph, _check_int, _is_int, _mono_spanning_tree, norm_pair
from .game import DirectedTemporalGraph, StrategyProfile, empty_profile


class SetCoverInstance:
    """Universe {1..k}, m non-empty subsets, optional candidate cover.

    The cover, when present, must actually cover the universe (indices are
    1-based into the set list).
    """

    __slots__ = ("k", "sets", "cover")

    def __init__(
        self,
        k: int,
        sets: Iterable[Iterable[int]],
        cover: Optional[Iterable[int]] = None,
    ):
        _check_int("universe size", k, 1)
        built = tuple(frozenset(s) for s in sets)
        if not built:
            raise ValueError("at least one set is required")
        for i, s in enumerate(built, start=1):
            if not s:
                raise ValueError(f"set {i} is empty")
            for x in s:
                if not _is_int(x):
                    raise ValueError(f"set {i} has non-integer element {x!r}")
            if not s <= set(range(1, k + 1)):
                raise ValueError(f"set {i} contains elements outside 1..{k}")
        self.k = k
        self.sets = built
        if cover is None:
            self.cover = None
        else:
            c = frozenset(cover)
            for j in c:
                if not _is_int(j):
                    raise ValueError(f"cover index {j!r} is not an integer")
            if not c <= set(range(1, len(built) + 1)):
                raise ValueError("cover indices must lie in 1..m")
            if not self.is_cover(c):
                raise ValueError("supplied index set is not a cover")
            self.cover = c

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(1, self.k + 1))

    def is_cover(self, indices: Iterable[int]) -> bool:
        covered: set[int] = set()
        for i in indices:
            covered |= self.sets[i - 1]
        return covered >= self.universe

    def min_cover(self) -> tuple[int, tuple[int, ...]]:
        """Exhaustive minimum cover; lexicographically smallest witness.

        Raises ValueError when the sets do not cover the universe at all.
        """
        indices = range(1, self.m + 1)
        for r in range(0, self.m + 1):
            for combo in combinations(indices, r):
                if self.is_cover(combo):
                    return r, combo
        raise ValueError("instance is not coverable: set union misses elements")

    def __eq__(self, other):
        return (
            isinstance(other, SetCoverInstance)
            and (self.k, self.sets, self.cover) == (other.k, other.sets, other.cover)
        )

    def __repr__(self):
        return f"SetCoverInstance(k={self.k}, m={self.m}, cover={self.cover})"


class ReductionLayout:
    """Node-index map for a set-cover reduction instance."""

    __slots__ = ("x", "a", "set_nodes", "elem_nodes", "v_nodes", "w_nodes")

    def __init__(self, x, a, set_nodes, elem_nodes, v_nodes, w_nodes):
        self.x = x
        self.a = a
        self.set_nodes = tuple(set_nodes)
        self.elem_nodes = tuple(elem_nodes)
        self.v_nodes = dict(v_nodes)
        self.w_nodes = dict(w_nodes)

    def as_dict(self) -> dict:
        return {
            "x": self.x,
            "a": self.a,
            "set_nodes": list(self.set_nodes),
            "elem_nodes": list(self.elem_nodes),
            "v_nodes": {f"{i},{j}": node for (i, j), node in sorted(self.v_nodes.items())},
            "w_nodes": {str(i): node for i, node in sorted(self.w_nodes.items())},
        }


def _complete_host(n: int, label_of: Callable[[int, int], int]) -> TemporalGraph:
    """Complete host whose labels are ranked onto 1..k as compress_labels does,
    but before its one build, so it passes validate_host.  label_of(u, v) is
    called once per pair u < v, in ascending pair order, as RNG draws need."""
    edges = {(u, v): label_of(u, v) for u in range(n) for v in range(u + 1, n)}
    rank = {label: i for i, label in enumerate(sorted(set(edges.values())), start=1)}
    return TemporalGraph(n, {p: rank[label] for p, label in edges.items()})


def _incidence_nodes(sc: SetCoverInstance, first: int):
    """Node numbering shared by both reductions: set node of set i is
    first+i-1, element nodes follow, then one node per (set, member)
    incidence in set order, members ascending.  Returns the set-node and
    element-node maps (1-based keys), the incidence map and the next free
    node."""
    m, k = sc.m, sc.k
    set_node = {i: first - 1 + i for i in range(1, m + 1)}
    elem_node = {j: first - 1 + m + j for j in range(1, k + 1)}
    v_nodes = {}
    nxt = first + m + k
    for i in range(1, m + 1):
        for j in sorted(sc.sets[i - 1]):
            v_nodes[(i, j)] = nxt
            nxt += 1
    return set_node, elem_node, v_nodes, nxt


def gen_hypercube(d: int) -> tuple[TemporalGraph, StrategyProfile]:
    """Hypercube lower-bound family on n = 2^d nodes.

    Host pairs differing in exactly one bit position i get label i+1; every
    other pair gets label d+1.  Each hypercube edge is bought by its
    numerically smaller endpoint.
    """
    _check_int("dimension", d, 3)
    n = 1 << d

    def label_of(u: int, v: int) -> int:
        x = u ^ v
        return x.bit_length() if x & (x - 1) == 0 else d + 1

    strategies = [{u | 1 << i for i in range(d) if not u >> i & 1} for u in range(n)]
    return _complete_host(n, label_of), StrategyProfile(n, strategies)


def gen_t2_family(n: int) -> tuple[TemporalGraph, StrategyProfile]:
    """Lifetime-2 equilibrium family with 2(n-2) arcs, tight for the
    t(n-2) edge bound.

    Nodes 0,1,2 form a path bought as (0,1), (1,2); every remaining node j
    hangs off it via arcs (2,j) and (j,0).  Pair {1,2} and pairs {0,j} carry
    label 1; everything else label 2.
    """
    _check_int("n", n)
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    host = _complete_host(n, lambda u, v: 1 if (u, v) == (1, 2) or (u == 0 and v >= 3) else 2)
    strategies: list[set[int]] = [set() for _ in range(n)]
    strategies[0] = {1}
    strategies[1] = {2}
    strategies[2] = set(range(3, n))
    for j in range(3, n):
        strategies[j] = {0}
    return host, StrategyProfile(n, strategies)


def gen_br_cycle() -> tuple[TemporalGraph, StrategyProfile, list[int]]:
    """Start state of the greedy best-response cycle on 8 nodes.

    Nodes 0..5 are the ring agents, 6 the contested endpoint, 7 the hub that
    buys to every ring agent.  Scheduling agents [0, 2, 4, 0, 2, 4] under the
    greedy rule toggles their arcs to node 6 and returns to this exact
    profile after six strictly improving moves.
    """
    drawn = {
        (0, 1): 2, (1, 2): 1,          # ring arcs bought by 1
        (2, 3): 2, (3, 4): 1,          # bought by 3
        (4, 5): 2, (0, 5): 1,          # bought by 5
        (0, 6): 3, (4, 6): 3,          # contested endpoint arcs
        (2, 6): 3,                     # host pair only; not bought initially
    }
    for i in range(6):
        drawn[(i, 7)] = 4
    n = 8
    host = _complete_host(n, lambda u, v: drawn.get((u, v), 5))
    strategies: list[set[int]] = [set() for _ in range(n)]
    strategies[1] = {0, 2}
    strategies[3] = {2, 4}
    strategies[5] = {4, 0}
    strategies[0] = {6}
    strategies[4] = {6}
    strategies[7] = {0, 1, 2, 3, 4, 5}
    schedule = [0, 2, 4, 0, 2, 4]
    return host, StrategyProfile(n, strategies), schedule


def gen_reduction_br(sc: SetCoverInstance) -> tuple[TemporalGraph, StrategyProfile, ReductionLayout]:
    """Best-response hardness instance: x's optimum equals a minimum cover.

    Nodes: x=0, set nodes 1..m, element nodes m+1..m+k, then one node per
    (set, member) incidence.  Host labels: 1 on every x-incident pair and on
    matching set-to-incidence pairs, else 2.  The created graph chains the
    set nodes and connects each incidence node to its set and element; every
    undirected edge is bought by its smaller endpoint, and x buys nothing.
    """
    set_node, elem_node, v_nodes, n = _incidence_nodes(sc, 1)
    label_one = {norm_pair(set_node[i], node) for (i, _), node in v_nodes.items()}
    host = _complete_host(n, lambda u, v: 1 if u == 0 or (u, v) in label_one else 2)
    strategies: list[set[int]] = [set() for _ in range(n)]
    for i in range(1, sc.m):
        strategies[set_node[i]].add(set_node[i + 1])
    for (i, j), node in v_nodes.items():
        strategies[set_node[i]].add(node)        # set node is the smaller index
        strategies[elem_node[j]].add(node)
    layout = ReductionLayout(
        x=0,
        a=None,
        set_nodes=set_node.values(),
        elem_nodes=elem_node.values(),
        v_nodes=v_nodes,
        w_nodes={},
    )
    return host, StrategyProfile(n, strategies), layout


def gen_reduction_ne(sc: SetCoverInstance) -> tuple[TemporalGraph, StrategyProfile, ReductionLayout]:
    """Equilibrium hardness instance: NE iff the supplied cover is minimum.

    Nodes: x=0, helper a=1, set nodes, element nodes, incidence nodes, and
    one w node per set outside the cover.  x buys exactly the cover; every
    other agent plays a best response by construction.  Labels follow the
    three-case scheme over {1,2,3}; when the cover is all of M no label-1
    pair exists and the labels compress to 1..2.

    The equivalence needs every set to be a proper subset of the universe: a
    full set outside the cover reaches all elements through its own incidence
    nodes and everything else through a at time 3, so its w arc stops being
    a best response.  gen_random_setcover only emits proper subsets.
    """
    if sc.cover is None:
        raise ValueError("instance must carry a candidate cover")
    m, k = sc.m, sc.k
    cover = sc.cover
    outside = [i for i in range(1, m + 1) if i not in cover]
    set_node, elem_node, v_nodes, nxt = _incidence_nodes(sc, 2)
    w_nodes = {i: nxt + r for r, i in enumerate(outside)}
    n = nxt + len(outside)
    x, a = 0, 1

    label = {}
    # case 1: a set outside the cover with x, its w node, or one of its
    # incidence nodes
    for i in outside:
        label[norm_pair(set_node[i], x)] = 1
        label[norm_pair(set_node[i], w_nodes[i])] = 1
        for j in sorted(sc.sets[i - 1]):
            label[norm_pair(set_node[i], v_nodes[(i, j)])] = 1
    # case 2: a cover set with x or one of its incidence nodes; w-to-x;
    # last element to a; the element chain
    for i in sorted(cover):
        label[norm_pair(set_node[i], x)] = 2
        for j in sorted(sc.sets[i - 1]):
            label[norm_pair(set_node[i], v_nodes[(i, j)])] = 2
    for i in outside:
        label[norm_pair(w_nodes[i], x)] = 2
    label[norm_pair(elem_node[k], a)] = 2
    for j in range(1, k):
        label[norm_pair(elem_node[j], elem_node[j + 1])] = 2
    host = _complete_host(n, lambda u, v: label.get((u, v), 3))

    strategies: list[set[int]] = [set() for _ in range(n)]
    strategies[x] = {set_node[i] for i in sorted(cover)}
    strategies[a] = {x} | {set_node[i] for i in range(1, m + 1)} | {w_nodes[i] for i in outside}
    for j in range(1, k):
        strategies[elem_node[j]].add(elem_node[j + 1])
    strategies[elem_node[k]].add(a)
    for (i, j), node in v_nodes.items():
        strategies[node].add(set_node[i])
        strategies[elem_node[j]].add(node)
    for i in outside:
        strategies[set_node[i]].add(w_nodes[i])
        strategies[w_nodes[i]].add(x)

    layout = ReductionLayout(
        x=x,
        a=a,
        set_nodes=set_node.values(),
        elem_nodes=elem_node.values(),
        v_nodes=v_nodes,
        w_nodes=w_nodes,
    )
    return host, StrategyProfile(n, strategies), layout


def gen_t2_equilibrium(host: TemporalGraph) -> StrategyProfile:
    """Spanning-tree equilibrium on a complete host of lifetime <= 2.

    One of the two label classes always contains a spanning connected
    subgraph on a complete host; a spanning tree of that class, each edge
    bought by the child in a rooted orientation from node 0, is a Nash
    equilibrium.  Lifetime-1 hosts (every pair label 1) are the degenerate
    case of the same argument.
    """
    host.validate_host()
    t = host.lifetime
    if t > 2:
        raise ValueError(f"host lifetime must be <= 2, got {t}")
    if host.n == 1:
        return empty_profile(1)   # no pairs, so no label class to span
    mono = _mono_spanning_tree(host)
    if mono is None:
        raise AssertionError(
            "no monochromatic spanning tree; impossible on a complete host"
        )
    _, tree = mono
    adj: dict[int, list[int]] = {u: [] for u in range(host.n)}
    for (u, v) in tree:
        adj[u].append(v)
        adj[v].append(u)
    parent = {0: None}
    order = [0]
    for node in order:
        for nxt in sorted(adj[node]):
            if nxt not in parent:
                parent[nxt] = node
                order.append(nxt)
    strategies: list[set[int]] = [set() for _ in range(host.n)]
    for child, par in parent.items():
        if par is not None:
            strategies[child].add(par)
    return StrategyProfile(host.n, strategies)


def gen_random_host(n: int, t: int, seed: int) -> TemporalGraph:
    """Complete host with labels uniform in {1..t}, compressed to be
    consecutive; deterministic in seed."""
    _check_int("n", n)
    _check_int("t", t)
    _check_int("seed", seed)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    max_t = n * (n - 1) // 2
    if not (1 <= t <= max_t):
        raise ValueError(f"need 1 <= t <= {max_t}, got {t}")
    rng = random.Random(seed)
    return _complete_host(n, lambda u, v: rng.randint(1, t))


def _sample_arcs(n: int, arc_count: int, rng: random.Random) -> list[tuple[int, int]]:
    """arc_count distinct ordered pairs of distinct nodes, uniformly sampled."""
    population = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not (0 <= arc_count <= len(population)):
        raise ValueError(f"arc count {arc_count} out of range")
    return rng.sample(population, arc_count)


def gen_random_profile(host: TemporalGraph, arc_count: int, seed: int) -> StrategyProfile:
    """Uniformly sampled distinct arcs; experiment plumbing."""
    _check_int("seed", seed)
    strategies: list[set[int]] = [set() for _ in range(host.n)]
    for (u, v) in _sample_arcs(host.n, arc_count, random.Random(seed)):
        strategies[u].add(v)
    return StrategyProfile(host.n, strategies)


def gen_random_directed(n: int, arc_count: int, t: int, seed: int):
    """Standalone random directed temporal graph; experiment plumbing."""
    _check_int("n", n, 1)
    _check_int("arc_count", arc_count)
    _check_int("t", t, 1)
    _check_int("seed", seed)
    rng = random.Random(seed)
    arcs = {}
    for (u, v) in _sample_arcs(n, arc_count, rng):
        arcs[(u, v)] = rng.randint(1, t)
    return DirectedTemporalGraph(n, arcs)


def gen_random_setcover(
    k_max: int, m_max: int, seed: int, k_min: int = 2, m_min: int = 2
) -> SetCoverInstance:
    """Random coverable instance; membership is an unbiased coin per element,
    sets resampled until non-empty and proper (a set equal to the whole
    universe collapses the equilibrium reduction, see gen_reduction_ne), then
    uncovered elements are patched in without filling any set."""
    _check_int("seed", seed)
    rng = random.Random(seed)
    k = rng.randint(max(k_min, 2), k_max)
    m = rng.randint(max(m_min, 2), m_max)
    sets: list[set[int]] = []
    for _ in range(m):
        s = {j for j in range(1, k + 1) if rng.random() < 0.5}
        while not (0 < len(s) < k):
            s = {j for j in range(1, k + 1) if rng.random() < 0.5}
        sets.append(s)
    covered = set().union(*sets)
    for j in range(1, k + 1):
        if j in covered:
            continue
        hosts = [i for i in range(m) if len(sets[i]) < k - 1]
        if hosts:
            sets[rng.choice(hosts)].add(j)
        else:
            # every set is the universe minus j; replant one as {j}
            sets[rng.randrange(m)] = {j}
    return SetCoverInstance(k, sets)
