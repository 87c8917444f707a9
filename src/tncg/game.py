"""Game model: strategy profiles, created graphs, and cost vectors.

Agents are the nodes of a complete temporal host graph.  Each agent v picks a
strategy S_v of endpoints to buy arcs to; arc (v, w) inherits the host label
of pair {v, w}.  Reachability in the created graph ignores arc directions,
directions only track who pays.

Costs are lexicographic pairs (unreached, edges): an agent first minimizes
the number of nodes it cannot reach, then the number of arcs it buys.  This
is the limit of |S_v| + K * unreached for any K > n - 1; `numeric` exposes
that scalar view for reporting.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .core import TemporalGraph, _check_int, _is_int, _is_matching, _reach_sweep


@dataclass(frozen=True, order=True)
class CostVector:
    unreached: int
    edges: int

    def key(self) -> tuple[int, int]:
        return (self.unreached, self.edges)

    def numeric(self, k: int | float) -> int | float:
        """Scalar cost |edges| + k * unreached; equivalent order for k > n-1."""
        return self.edges + k * self.unreached

    def as_dict(self, k: int | None = None) -> dict:
        d = {"unreached": self.unreached, "edges": self.edges}
        if k is not None:
            d["numeric"] = self.numeric(k)
        return d

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(self.unreached + other.unreached, self.edges + other.edges)


class StrategyProfile:
    """Immutable tuple of per-agent endpoint sets.

    strategies[v] is a frozenset not containing v; endpoints lie in range(n).
    """

    __slots__ = ("n", "strategies")

    def __init__(self, n: int, strategies: Sequence[Iterable[int]] | Mapping[int, Iterable[int]]):
        _check_int("node count", n, 1)
        if isinstance(strategies, Mapping):
            for v in strategies:
                _check_agent(n, v)
            seq: list[Iterable[int]] = [strategies.get(v, ()) for v in range(n)]
        else:
            seq = list(strategies)
            if len(seq) != n:
                raise ValueError(f"expected {n} strategies, got {len(seq)}")
        self.strategies = tuple(_checked_strategy(n, v, s) for v, s in enumerate(seq))
        self.n = n

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.strategies[v]

    def with_strategy(self, v: int, s: Iterable[int]) -> "StrategyProfile":
        """The profile with S_v replaced; only the new strategy is validated."""
        _check_agent(self.n, v)
        seq = list(self.strategies)
        seq[v] = _checked_strategy(self.n, v, s)
        out = object.__new__(StrategyProfile)
        out.n, out.strategies = self.n, tuple(seq)
        return out

    def arcs(self) -> list[tuple[int, int]]:
        """All bought arcs (owner, endpoint), ascending."""
        return [(v, w) for v in range(self.n) for w in sorted(self.strategies[v])]

    @property
    def arc_count(self) -> int:
        return sum(len(s) for s in self.strategies)

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Hashable exact representation, used as a dynamics state key."""
        return tuple(tuple(sorted(s)) for s in self.strategies)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StrategyProfile)
            and self.n == other.n
            and self.strategies == other.strategies
        )

    def __hash__(self):
        return hash((self.n, self.strategies))

    def __repr__(self):
        return f"StrategyProfile(n={self.n}, arcs={self.arc_count})"


def _check_agent(n: int, v: int) -> None:
    if not (_is_int(v) and 0 <= v < n):
        raise ValueError(f"agent {v!r} out of range")


def _checked_strategy(n: int, v: int, s: Iterable[int]) -> frozenset[int]:
    fs = frozenset(s)
    for w in fs:
        if not (_is_int(w) and 0 <= w < n):
            raise ValueError(f"agent {v}: endpoint {w!r} out of range")
    if v in fs:
        raise ValueError(f"agent {v} buys an arc to itself")
    return fs


def empty_profile(n: int) -> StrategyProfile:
    return StrategyProfile(n, [() for _ in range(n)])


class DirectedTemporalGraph:
    """Directed arcs with labels; the created graph of a profile.

    Antiparallel arcs may coexist; in a created graph they share the label
    of their host pair.
    """

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: Mapping[tuple[int, int], int]):
        _check_int("node count", n, 1)
        for (u, v), label in arcs.items():
            if u == v:
                raise ValueError(f"self-loop arc at {u!r}")
            # `_is_int` inlined, as in TemporalGraph.__init__: a call per arc
            # would slow every dense graph built
            if (not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n)
                    or isinstance(u, bool) or isinstance(v, bool)):
                raise ValueError(f"arc ({u!r}, {v!r}) out of range")
            if not isinstance(label, int) or isinstance(label, bool) or label < 1:
                raise ValueError(f"arc ({u}, {v}) has invalid label {label!r}")
        self.n = n
        self.arcs = dict(arcs)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def _check_profile_n(host: TemporalGraph, profile: StrategyProfile) -> None:
    if profile.n != host.n:
        raise ValueError(f"profile n={profile.n} does not match host n={host.n}")


def _labelled_arcs(host: TemporalGraph, profile: StrategyProfile):
    """(v, w, label) per bought arc, labels from the host."""
    _check_profile_n(host, profile)
    rows = host._label_rows()
    for v in range(profile.n):
        for w in profile.strategies[v]:
            label = rows[v][w]
            if not label:
                raise ValueError(f"arc ({v}, {w}) has no host pair")
            yield v, w, label


def created_graph(host: TemporalGraph, profile: StrategyProfile) -> DirectedTemporalGraph:
    """Directed created graph: arc (v, w) per w in S_v, labels from the host."""
    arcs = _labelled_arcs(host, profile)
    return DirectedTemporalGraph(host.n, {(v, w): label for v, w, label in arcs})


class _CreatedState:
    """A profile's created graph kept for repeated evaluation: `classes`
    holds its pairs grouped by host label as (label, pairs, matching),
    ascending label, each pair once even when both arcs are bought.  This is
    the list `core._reach_sweep` reads, for every agent's view too, since the
    sweep leaves the viewing agent out itself.

    A move patches only the moving agent's changed arcs: a toggled pair's
    label is bisected in the list, and that one entry is inserted, patched
    with a fresh matching flag, or deleted with its last pair.  buyers[x]
    holds the agents that buy an arc to x.  Each agent's endpoints grouped
    by start label are cached on first use.
    """

    __slots__ = ("n", "rows", "strategies", "buyers", "classes", "_starts")

    def __init__(self, host: TemporalGraph, profile: StrategyProfile):
        n = self.n = host.n
        self.rows = host._label_rows()
        self.strategies = list(profile.strategies)
        self.buyers: list[set[int]] = [set() for _ in range(n)]
        self._starts: list[dict[int, list[int]] | None] = [None] * n
        grouped: dict[int, dict[tuple[int, int], None]] = {}
        for v, w, label in _labelled_arcs(host, profile):
            self.buyers[w].add(v)
            if w not in self.buyers[v]:
                grouped.setdefault(label, {})[(v, w) if v < w else (w, v)] = None
        # flags in one pass here: a rescan per toggle is quadratic in class size
        self.classes = [(lab, ps, _is_matching(ps)) for lab, ps in sorted(grouped.items())]

    def move(self, v: int, strategy: frozenset[int]) -> None:
        old = self.strategies[v]
        for w in old - strategy:
            self._toggle(v, w, False)
        for w in strategy - old:
            self._toggle(v, w, True)
        self.strategies[v] = strategy

    def _toggle(self, v: int, w: int, add: bool) -> None:
        """Add or drop arc (v, w); its pair changes only without a twin (w, v)."""
        (self.buyers[w].add if add else self.buyers[w].discard)(v)
        if w in self.buyers[v]:
            return
        label = self.rows[v][w]
        classes = self.classes
        i = bisect_left(classes, label, key=itemgetter(0))
        if i == len(classes) or classes[i][0] != label:
            classes.insert(i, (label, {}, True))
        pairs = classes[i][1]
        pair = (v, w) if v < w else (w, v)
        if add:
            pairs[pair] = None
        else:
            del pairs[pair]
        if pairs:
            classes[i] = (label, pairs, _is_matching(pairs))
        else:
            del classes[i]

    def starts(self, v: int) -> dict[int, list[int]]:
        """v's endpoints grouped by the label of their pair with v."""
        got = self._starts[v]
        if got is None:
            got = {}
            for w, label in enumerate(self.rows[v]):
                if label:
                    got.setdefault(label, []).append(w)
                elif w != v:
                    raise ValueError(f"host pair ({v}, {w}) missing; host must be complete")
            self._starts[v] = got
        return got


def agent_cost(host: TemporalGraph, profile: StrategyProfile, v: int) -> CostVector:
    _check_agent(host.n, v)
    return _agent_costs(_CreatedState(host, profile))[v]


def _agent_costs(state: _CreatedState) -> list[CostVector]:
    """Every agent's cost, from one reach sweep over the created graph."""
    n = state.n
    reached = _reach_sweep(n, state.classes, {1: range(n)})
    return [CostVector(n - reached[v].bit_count(), len(state.strategies[v])) for v in range(n)]


def social_cost(host: TemporalGraph, profile: StrategyProfile) -> CostVector:
    """Sum of agent costs; the edges component equals the total arc count."""
    return sum(_agent_costs(_CreatedState(host, profile)), CostVector(0, 0))
