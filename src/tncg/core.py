"""Temporal graphs and reachability primitives.

A temporal graph is an undirected graph where every edge carries a single
integer time label >= 1.  A temporal path is a simple path whose edge labels
are non-decreasing along the walk; traversal itself takes no time, so several
edges of the same label may be used in sequence.

Node sets are manipulated as bitmasks (Python ints) in the hot paths; the
public API exchanges ordinary sets.  Reach sets come from `_reach_sweep`: one
pass over a sweep-event list, in descending label order, serves any number
of sources.  A label class whose pairs share no endpoint (a matching, see
`_is_matching`) is one event (-label, u, w) per pair, each settled by one
union; any other class is one event (-label, -1, pairs), merged to a fixed
point.  `_set_class` rewrites one label's events in place from the label's
pairs.  A sweep can leave one node out (G - skip) with no copy of the list:
skip's mask is reset to 0 after each matching pair, and other classes, where
a path of one label could pass through skip, are merged without skip's
pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

Pair = tuple[int, int]

# Running count of reach sweeps, for operation-count assertions in tests; one
# sweep serves any number of sources.  Cheap enough to keep always-on.
_REACH_EVALS = 0


def reach_evaluations() -> int:
    return _REACH_EVALS


def reset_reach_evaluations() -> None:
    global _REACH_EVALS
    _REACH_EVALS = 0


def _is_int(x) -> bool:
    """Counts, labels and nodes are ints; a bool would silently stand for 0 or 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(name: str, value, low: int | None = None) -> None:
    """ValueError naming `name` unless value is an int (not a bool) >= low."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def norm_pair(u: int, v: int) -> Pair:
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


class TemporalGraph:
    """Immutable undirected graph with one integer label per edge.

    `edges` maps normalized pairs (u, v) with u < v to labels >= 1.  It is a
    read-only view, because the edges grouped by label and the label table
    are cached lazily and would go stale if the edges changed.
    """

    __slots__ = ("n", "edges", "_classes", "_rows")

    def __init__(self, n: int, edges: Mapping[tuple[int, int], int]):
        _check_int("node count", n, 1)
        norm: dict[Pair, int] = {}
        for (u, v), label in edges.items():
            # nodes are plain ints, so no bool: two `type` tests cost ~12% of
            # a dense build where isinstance tests cost ~40%, which is also
            # why the label test inlines `_is_int`
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer node")
            p = norm_pair(u, v)
            if not (0 <= p[0] and p[1] < n):
                raise ValueError(f"edge {p} out of range for n={n}")
            if not isinstance(label, int) or isinstance(label, bool) or label < 1:
                raise ValueError(f"edge {p} has invalid label {label!r}")
            if p in norm and norm[p] != label:
                raise ValueError(f"edge {p} given conflicting labels")
            norm[p] = label
        self.n = n
        self.edges = MappingProxyType(norm)
        self._classes: list[tuple[int, list[Pair], bool]] | None = None
        self._rows: list[list[int]] | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def lifetime(self) -> int:
        """Largest label present (0 for an edgeless graph)."""
        return max(self.edges.values(), default=0)

    def label(self, u: int, v: int) -> int | None:
        return self.edges.get(norm_pair(u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return norm_pair(u, v) in self.edges

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def validate_host(self) -> None:
        """Hosts must be complete with labels exactly {1..lifetime}.

        Raises ValueError on the first violation found.
        """
        if not self.is_complete():
            raise ValueError(
                f"host must be complete: {self.edge_count} edges, "
                f"expected {self.n * (self.n - 1) // 2}"
            )
        present = set(self.edges.values())
        if present:
            t = max(present)
            missing = set(range(1, t + 1)) - present
            if missing:
                raise ValueError(
                    f"host labels must be consecutive 1..{t}; missing {sorted(missing)}"
                )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TemporalGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.edges.items())))

    def __reduce__(self):
        # the read-only view does not pickle; rebuild from a plain dict
        return (TemporalGraph, (self.n, dict(self.edges)))

    def __repr__(self):
        return f"TemporalGraph(n={self.n}, edges={self.edge_count}, lifetime={self.lifetime})"

    def _label_classes(self) -> list[tuple[int, list[Pair], bool]]:
        """(label, pairs, matching) per label present, ascending label, pairs
        ascending; see `_is_matching`."""
        if self._classes is None:
            by_label: dict[int, list[Pair]] = {}
            for p, label in sorted(self.edges.items()):
                by_label.setdefault(label, []).append(p)
            self._classes = [
                (label, pairs, _is_matching(pairs)) for label, pairs in sorted(by_label.items())
            ]
        return self._classes

    def _label_rows(self) -> list[list[int]]:
        """n x n table: rows[u][v] is the label of {u, v}, 0 where no edge."""
        if self._rows is None:
            rows = [[0] * self.n for _ in range(self.n)]
            for (u, v), label in self.edges.items():
                rows[u][v] = rows[v][u] = label
            self._rows = rows
        return self._rows

    def reach_mask(self, u: int, start_label: int = 1) -> int:
        """Bitmask of nodes temporally reachable from u.

        Only labels >= start_label may be used.
        """
        if not (_is_int(u) and 0 <= u < self.n):
            raise ValueError(f"node {u!r} out of range")
        _check_int("start_label", start_label)
        events = _sweep_events(self._label_classes())
        return _reach_sweep(self.n, events, [(-start_label, u)])[u]

    def reach(self, u: int) -> set[int]:
        return mask_to_set(self.reach_mask(u))


def mask_to_set(mask: int) -> set[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


def set_to_mask(nodes: Iterable[int]) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


def _is_matching(pairs: Iterable[Pair]) -> bool:
    """True iff no two pairs share an endpoint.  Merging such a class takes
    one pass, so its pairs are single sweep events, for which `_reach_sweep`
    needs no `_merge_class`, and `optimum._merge` tracks no components for
    it."""
    seen: set[int] = set()
    for u, v in pairs:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def _merge_class(reached: list[int], pairs: Iterable[Pair]) -> None:
    """Merge the masks of each pair's endpoints until nothing changes, so each
    node of a component of one label class ends with the component's union.
    The last pass only confirms, which a matching does not need.
    `_reach_sweep` uses it; `optimum._merge` joins components edge by edge
    instead, since the spanner search needs them."""
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            a, b = reached[u], reached[v]
            if a != b:
                reached[u] = reached[v] = a | b
                changed = True


def _class_events(label: int, pairs: Iterable[Pair], matching: bool) -> list[tuple]:
    """The sweep events of one label class: (-label, u, w) per pair of a
    matching, else one (-label, -1, pairs) for the whole class."""
    if matching:
        return [(-label, u, w) for u, w in pairs]
    return [(-label, -1, tuple(pairs))]


def _set_class(events: list[tuple], label: int, pairs: list[Pair]) -> None:
    """Rewrite label's slice of a sweep-event list as the events of pairs,
    the matching flag decided afresh; no pairs leaves no events."""
    # (-label,) sorts just before the label's events, (1 - label,) just after
    lo = bisect_left(events, (-label,))
    hi = bisect_left(events, (1 - label,), lo)
    events[lo:hi] = _class_events(label, pairs, _is_matching(pairs))


def _sweep_events(classes: list[tuple[int, list[Pair], bool]]) -> list[tuple]:
    """The sweep-event list of (label, pairs, matching) classes in ascending
    label order, as `_label_classes` gives them."""
    return [e for c in reversed(classes) for e in _class_events(*c)]


@lru_cache(maxsize=16)
def _singletons(n: int) -> tuple[int, ...]:
    """Each node's own mask, 1 << x for x in range(n), then a spare 0.  A
    copy starts every sweep; at n = 30 it costs a twentieth of building
    the list anew."""
    return (*(1 << x for x in range(n)), 0)


def _reach_sweep(
    n: int,
    events: list[tuple],
    starts: Iterable[tuple[int, int]],
    skip: int | None = None,
) -> list[int]:
    """Reach masks of many sources in one pass over a sweep-event list.

    events: (-label, u, w) per pair of a matching class, (-label, -1, pairs)
    per other class, labels descending; a matching pair is merged by one
    union, any other class by `_merge_class`.  starts: (-s, x) pairs sorted
    ascending, one per node x (each listed once) whose reach over labels
    >= s is wanted; x's mask is read off before the first event below s.
    The result is indexed by node, 0 where not asked.  A path from x walks
    inside x's component C in the lowest class l it uses, then on higher
    labels, so merging class l gives R_l(x) = union of R_{l+1}(y) over y in
    C (Wu et al., "Path problems in temporal graphs", VLDB 2014).

    With skip the sweep runs on G - skip: skip's mask starts at 0 and is
    reset to 0 after each matching pair (spare slot n takes that store
    without skip).  Sound only for matchings, where skip's pair is the only
    pair at either endpoint, so its partner gains nothing; in any other
    class skip could pass a mask on, so that class is merged without skip's
    pairs.
    """
    global _REACH_EVALS
    _REACH_EVALS += 1
    reached = list(_singletons(n))
    sink = n if skip is None else skip
    reached[sink] = 0
    out = [0] * n
    pending = iter(starts)
    for top, x in pending:
        break
    else:
        return out
    for neg, u, w in events:
        if neg > top:
            # x's start label lies above this event's: read x and the
            # starts after it up to the first at or below the event's label
            out[x] = reached[x]
            for top, x in pending:
                if neg <= top:
                    break
                out[x] = reached[x]
            else:
                return out
        if u >= 0:
            reached[u] = reached[w] = reached[u] | reached[w]
            reached[sink] = 0
        else:
            _merge_class(reached, w if skip is None else [p for p in w if skip not in p])
    out[x] = reached[x]
    for _, x in pending:
        out[x] = reached[x]
    return out


def reach(g: TemporalGraph, u: int) -> set[int]:
    """Set of nodes temporally reachable from u (always includes u)."""
    return g.reach(u)


def _mono_spanning_tree(g: TemporalGraph) -> tuple[int, list[Pair]] | None:
    """(label, tree) for the first label class that spans all nodes, else None.

    The tree is the lexicographic Kruskal forest of that class: its pairs in
    ascending order, each kept when it joins two components.
    """
    for label, pairs, _ in g._label_classes():
        parent = list(range(g.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        tree = []
        for (u, v) in pairs:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                tree.append((u, v))
        if len(tree) == g.n - 1:
            return label, tree
    return None


def is_temporal_path(g: TemporalGraph, nodes: list[int]) -> bool:
    """True iff `nodes` is a simple path in g with non-decreasing labels;
    a path has at least one node, and each is an int in range(g.n)."""
    if not nodes or len(nodes) != len(set(nodes)):
        return False
    if not all(_is_int(v) and 0 <= v < g.n for v in nodes):
        return False
    last = 0
    for a, b in zip(nodes, nodes[1:]):
        label = g.label(a, b)
        if label is None or label < last:
            return False
        last = label
    return True


def is_temporally_connected(g: TemporalGraph) -> bool:
    """True iff every node temporally reaches every other node."""
    full = (1 << g.n) - 1
    starts = [(-1, x) for x in range(g.n)]
    return all(m == full for m in _reach_sweep(g.n, _sweep_events(g._label_classes()), starts))


def is_temporal_spanner(host: TemporalGraph, sub: TemporalGraph) -> bool:
    """True iff sub keeps host's node set temporally connected.

    sub must be a label-preserving subgraph of host (same n, every sub edge
    present in host with an equal label); anything else raises ValueError.
    """
    if sub.n != host.n:
        raise ValueError(f"node count mismatch: sub has {sub.n}, host has {host.n}")
    for p, label in sub.edges.items():
        if host.edges.get(p) != label:
            raise ValueError(f"edge {p} (label {label}) not in host with equal label")
    return is_temporally_connected(sub)


def compress_labels(g: TemporalGraph) -> TemporalGraph:
    """Renumber labels order-preservingly onto {1..k}.

    Temporal paths are invariant under any order-preserving relabeling, so
    reachability is unchanged.
    """
    present = sorted(set(g.edges.values()))
    remap = {label: i + 1 for i, label in enumerate(present)}
    return TemporalGraph(g.n, {p: remap[label] for p, label in g.edges.items()})
