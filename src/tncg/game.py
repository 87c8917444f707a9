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

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Mapping, Sequence

from .core import TemporalGraph, _reach_sweep


@total_ordering
@dataclass(frozen=True)
class CostVector:
    unreached: int
    edges: int

    def key(self) -> tuple[int, int]:
        return (self.unreached, self.edges)

    def __lt__(self, other: "CostVector") -> bool:
        return self.key() < other.key()

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
        if isinstance(strategies, Mapping):
            seq: list[Iterable[int]] = [strategies.get(v, ()) for v in range(n)]
        else:
            seq = list(strategies)
            if len(seq) != n:
                raise ValueError(f"expected {n} strategies, got {len(seq)}")
        built = []
        for v, s in enumerate(seq):
            fs = frozenset(s)
            for w in fs:
                if not (0 <= w < n):
                    raise ValueError(f"agent {v}: endpoint {w} out of range")
            if v in fs:
                raise ValueError(f"agent {v} buys an arc to itself")
            built.append(fs)
        self.n = n
        self.strategies = tuple(built)

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.strategies[v]

    def with_strategy(self, v: int, s: Iterable[int]) -> "StrategyProfile":
        seq = list(self.strategies)
        seq[v] = frozenset(s)
        return StrategyProfile(self.n, seq)

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


def empty_profile(n: int) -> StrategyProfile:
    return StrategyProfile(n, [() for _ in range(n)])


class DirectedTemporalGraph:
    """Directed arcs with labels; the created graph of a profile.

    Antiparallel arcs may coexist; in a created graph they share the label
    of their host pair.
    """

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: Mapping[tuple[int, int], int]):
        for (u, v), label in arcs.items():
            if u == v:
                raise ValueError(f"self-loop arc at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range")
            if label < 1:
                raise ValueError(f"arc ({u}, {v}) has invalid label {label}")
        self.n = n
        self.arcs = dict(arcs)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def _labelled_arcs(host: TemporalGraph, profile: StrategyProfile):
    """(v, w, label) per bought arc, labels from the host."""
    if profile.n != host.n:
        raise ValueError(f"profile n={profile.n} does not match host n={host.n}")
    for v in range(profile.n):
        for w in profile.strategies[v]:
            label = host.label(v, w)
            if label is None:
                raise ValueError(f"arc ({v}, {w}) has no host pair")
            yield v, w, label


def created_graph(host: TemporalGraph, profile: StrategyProfile) -> DirectedTemporalGraph:
    """Directed created graph: arc (v, w) per w in S_v, labels from the host."""
    arcs = _labelled_arcs(host, profile)
    return DirectedTemporalGraph(host.n, {(v, w): label for v, w, label in arcs})


def _arc_classes(
    host: TemporalGraph, profile: StrategyProfile, skip: int | None = None
) -> list[tuple[int, list[tuple[int, int]]]]:
    """The created graph's pairs by host label, ascending, as `core._reach_sweep`
    reads them; each pair once, and none at agent `skip` (the graph G - skip).
    """
    by_label: dict[int, list[tuple[int, int]]] = {}
    for v, w, label in _labelled_arcs(host, profile):
        if skip not in (v, w) and not (w < v and v in profile.strategies[w]):
            by_label.setdefault(label, []).append((v, w))
    return sorted(by_label.items())


def agent_cost(host: TemporalGraph, profile: StrategyProfile, v: int) -> CostVector:
    if not (0 <= v < host.n):
        raise ValueError(f"agent {v} out of range")
    return _agent_costs(host, profile)[v]


def _agent_costs(host: TemporalGraph, profile: StrategyProfile) -> list[CostVector]:
    """Every agent's cost, from one reach sweep over the created graph."""
    n = host.n
    reached = _reach_sweep(n, _arc_classes(host, profile), {1: range(n)})
    return [
        CostVector(n - reached[v].bit_count(), len(profile.strategies[v]))
        for v in range(n)
    ]


def social_cost(host: TemporalGraph, profile: StrategyProfile) -> CostVector:
    """Sum of agent costs; the edges component equals the total arc count."""
    return sum(_agent_costs(host, profile), CostVector(0, 0))
