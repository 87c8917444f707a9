"""Equilibrium verification and structural audits.

check_ge / check_ne decide stability against single-edge moves and arbitrary
strategy changes respectively, in one search whose agent views the audit
reuses; an agent whose arcs provably cannot be improved on is settled with
no view and no search (`_settled`).  The remaining operations are detectors
for structural facts about equilibria: necessary sets, the five-node
forbidden configuration, the dense-graph large-node witness, edge-count
bounds, and the relabeling that turns any greedy equilibrium into a Nash
equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .core import TemporalGraph, _is_int, mask_to_set, norm_pair, set_to_mask
from .errors import PreconditionViolated
from .game import CostVector, DirectedTemporalGraph, StrategyProfile
from .game import _agent_costs, _check_profile_n, _CreatedState, _labelled_arcs
from .responses import DEFAULT_BUDGET, _AgentView, _check_budget


@dataclass(frozen=True)
class BoundsReport:
    n: int
    t: int
    arcs: int
    arc_bound: int                # t * (n - 2)
    arc_bound_applies: bool       # the bound is only claimed for n > 2, t > 1
    arc_bound_ok: bool
    dense_threshold: float        # sqrt(6) * n^1.5 + n, for display
    dense_ok: bool                # arcs strictly below the threshold (exact test)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ForbiddenStructure:
    """Witness nodes and arcs of the excluded five-node configuration."""

    z: int
    u1: int
    u2: int
    x: int
    y: int
    e1x: tuple[int, int]
    e1y: tuple[int, int]
    e2x: tuple[int, int]
    e2y: tuple[int, int]

    def as_dict(self) -> dict:
        return {
            "z": self.z, "u1": self.u1, "u2": self.u2, "x": self.x, "y": self.y,
            "e1x": list(self.e1x), "e1y": list(self.e1y),
            "e2x": list(self.e2x), "e2y": list(self.e2y),
        }


@dataclass(frozen=True)
class ProfileAudit:
    antiparallel_free: bool
    bounds: BoundsReport
    necessary_ok: bool            # every arc has a non-empty necessary set
    forbidden: Optional[ForbiddenStructure]

    @property
    def ok(self) -> bool:
        bounds_ok = self.bounds.dense_ok and (
            self.bounds.arc_bound_ok or not self.bounds.arc_bound_applies
        )
        return (
            self.antiparallel_free
            and bounds_ok
            and self.necessary_ok
            and self.forbidden is None
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


@dataclass(frozen=True)
class EquilibriumReport:
    mode: str                     # "ne" or "ge"
    stable: bool
    witness: Optional[tuple[int, tuple[int, ...]]]
    agent_costs: tuple[CostVector, ...]
    audit: Optional[ProfileAudit] = None

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.witness is not None:
            d["witness"] = {"agent": self.witness[0], "strategy": self.witness[1]}
        if self.audit is not None:
            d["audit"] = self.audit.as_dict()
        return d


def check_ge(
    host: TemporalGraph, profile: StrategyProfile, audit: bool = False
) -> EquilibriumReport:
    """Stable iff no agent has an improving single-arc addition or deletion;
    the witness is the first improving agent with its best greedy move."""
    return _check(host, profile, "greedy", DEFAULT_BUDGET, audit)


def check_ne(
    host: TemporalGraph,
    profile: StrategyProfile,
    budget_cap: int = DEFAULT_BUDGET,
    audit: bool = False,
) -> EquilibriumReport:
    """Stable iff no agent has any improving strategy (exact best responses);
    budget_cap < 0 raises ValueError before any agent is looked at.  Settled
    agents need no search, so a check whose unsettled agents fit in the
    budget answers even where searching every agent would exceed it."""
    return _check(host, profile, "exact", budget_cap, audit)


def _check(
    host: TemporalGraph, profile: StrategyProfile, rule: str, budget_cap: int, audit: bool
) -> EquilibriumReport:
    """The witness is the first improving agent in ascending order, with its
    best move under rule.  One reach sweep gives every agent's cost; an
    agent that reaches everyone and is `_settled` cannot improve and gets
    no view, every other agent gets a view (one more sweep) and a search.
    All views share one created-graph state, and the audit reuses the views
    the search built."""
    _check_budget(budget_cap)
    state = _CreatedState(host, profile)
    costs = _agent_costs(state)
    nbrs = [set_to_mask(state.strategies[x] | state.buyers[x]) for x in range(state.n)]
    views: dict[int, _AgentView] = {}
    witness = None
    for v in range(host.n):
        if costs[v].unreached == 0 and _settled(state, nbrs, v):
            continue
        view = views[v] = _AgentView(state, v)
        got = view.best(rule, budget_cap)
        if got is not None:
            witness = (v, tuple(sorted(got[0])))
            break
    return EquilibriumReport(
        mode="ge" if rule == "greedy" else "ne",
        stable=witness is None,
        witness=witness,
        agent_costs=tuple(costs),
        audit=_audit(host, profile, state, views) if audit else None,
    )


def _settled(state: _CreatedState, nbrs: list[int], v: int) -> bool:
    """Whether each arc v buys is the only way into its part of G - v.

    G - v is the created graph's pairs not touching v, as a static graph;
    nbrs[x] is x's neighbour mask in the created graph.  v is settled when
    the part of each endpoint w in S_v holds no other endpoint of S_v and
    no agent that buys an arc to v (w itself included); an agent with no
    arcs is settled at once.

    Why a settled agent that reaches everyone cannot improve, under either
    rule: a temporal path from v starts with a v-incident edge, to an
    endpoint or a buyer, and then stays inside that node's part of G - v.
    G - v and the buyers do not depend on S_v, so every strategy that
    reaches everyone buys an arc into each part that holds no buyer.  The
    parts of v's |S_v| endpoints are such parts and pairwise distinct, so no
    strategy reaches everyone with fewer arcs, and none beats reaching
    everyone: the current strategy is optimal, and no add or drop improves.
    """
    ends, buyers = state.strategies[v], state.buyers[v]
    if not buyers and len(ends) < 2:
        return True                     # no part can hold a second way in
    own, buyers = set_to_mask(ends), set_to_mask(buyers)
    keep = ~(1 << v)
    for w in ends:
        part = frontier = 1 << w
        if part & buyers:
            return False
        fence = (own | buyers) & ~part
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown |= nbrs[low.bit_length() - 1]
            frontier = grown & keep & ~part
            if frontier & fence:
                return False
            part |= frontier
    return True


def necessary_set(
    host: TemporalGraph, profile: StrategyProfile, u: int, w: int
) -> set[int]:
    """A_G(e) for arc e=(u, w): nodes u reaches only through its arc e.

    Removing the arc removes the undirected pair only when the antiparallel
    twin is absent; with the twin present the set is empty.
    """
    view = _AgentView(_CreatedState(host, profile), u)
    if not (_is_int(w) and 0 <= w < host.n):
        raise ValueError(f"agent {u}: endpoint {w!r} out of range")
    if w not in view.current:
        raise ValueError(f"arc ({u}, {w}) is not present in the profile")
    return mask_to_set(view.necessary()[w])


def _necessary_masks(state: _CreatedState, views: dict) -> dict[tuple[int, int], int]:
    """Every arc's necessary-set mask; builds the owner views missing from views."""
    return {
        (u, w): mask
        for u in range(state.n)
        if state.strategies[u]
        for w, mask in (views.get(u) or _AgentView(state, u)).necessary().items()
    }


def find_forbidden_structure(
    host: TemporalGraph, profile: StrategyProfile
) -> Optional[ForbiddenStructure]:
    """Search for the five-node configuration no profile may contain.

    A witness consists of z, two distinct neighbors u1, u2 of z in the created
    graph, and four pairwise distinct arcs e_ij (i per agent, j per target)
    such that e_ij is bought by u_i, is not the {z, u_i} edge, carries a label
    >= label({z, u_i}), and target j lies in the necessary set of e_ij, for
    two distinct targets x != y.  Returns the first witness in ascending
    order of (z, u1, u2, x, y, e1x, e1y, e2x, e2y), or None; a None on every
    input is the expected outcome.  Only pairs u1 < u2 are scanned: the
    conditions are symmetric in the two agents, so a witness for (u2, u1)
    is one for (u1, u2) with the agents swapped, and the first witness
    always has u1 < u2.
    """
    state = _CreatedState(host, profile)
    return _find_forbidden(state, _necessary_masks(state, {}))


def _find_forbidden(
    state: _CreatedState, a_masks: dict[tuple[int, int], int]
) -> Optional[ForbiddenStructure]:
    rows = state.rows
    for z in range(state.n):
        nbrs = sorted(state.strategies[z] | state.buyers[z])
        if len(nbrs) < 2:
            continue
        # per neighbor u: target -> u's arcs, ascending, that are not the
        # {z,u} pair, carry label >= label({z,u}) and have the target in
        # their necessary set; a witness needs two targets per agent
        targets = []
        for u in nbrs:
            t: dict[int, list[tuple[int, int]]] = {}
            for w in sorted(state.strategies[u]):
                if w != z and rows[u][w] >= rows[z][u]:
                    for node in mask_to_set(a_masks[(u, w)]):
                        t.setdefault(node, []).append((u, w))
            if len(t) >= 2:
                targets.append((u, t))
        for i, (u1, t1) in enumerate(targets):
            for u2, t2 in targets[i + 1:]:
                common = sorted(t1.keys() & t2.keys())
                for xi, x in enumerate(common):
                    for y in common[xi + 1:]:
                        pick1 = _distinct_pair(t1[x], t1[y])
                        pick2 = _distinct_pair(t2[x], t2[y])
                        if pick1 and pick2:
                            return ForbiddenStructure(z, u1, u2, x, y, *pick1, *pick2)
    return None


def _distinct_pair(arcs_x, arcs_y):
    for a in arcs_x:
        for b in arcs_y:
            if a != b:
                return a, b
    return None


def _dense_below_threshold(n: int, arcs: int) -> bool:
    """Exact test for arcs < sqrt(6) * n^1.5 + n using integer arithmetic."""
    if arcs <= n:
        return True
    return (arcs - n) ** 2 < 6 * n**3


def _ceil_sqrt_over(y: int, d: int) -> int:
    """ceil(sqrt(y) / d) for non-negative integers, exactly."""
    s = math.isqrt(y)
    if s * s == y and s % d == 0:
        return s // d
    return s // d + 1


@dataclass(frozen=True)
class LargeNodeWitness:
    z: int
    members: tuple[int, ...]
    trimmed: dict[int, tuple[tuple[int, int], ...]]   # u -> its set E_u of arcs

    def as_dict(self) -> dict:
        return {**asdict(self), "trimmed": {str(u): arcs for u, arcs in self.trimmed.items()}}


def find_large_node(g: DirectedTemporalGraph) -> LargeNodeWitness:
    """Dense-graph witness: a node z with ceil(sqrt(6n)/3) in-neighbors that
    each keep >= (2/3)sqrt(6n) other out-arcs labeled at least their arc to z.

    Constructive procedure: per node, trim the ceil((2/3)sqrt(6n)) out-arcs
    with the largest labels (ties broken toward smaller endpoints); by
    pigeonhole the trimmed graph has a node z of in-degree >= ceil(sqrt(6n)/3),
    and each surviving in-neighbor's trimmed arcs form its set E_u.

    Raises PreconditionViolated below the sqrt(6)*n^1.5 + n arc threshold.
    """
    n = g.n
    arcs = g.arc_count
    if _dense_below_threshold(n, arcs):
        raise PreconditionViolated(
            f"{arcs} arcs is below the density threshold "
            f"{math.sqrt(6) * n ** 1.5 + n:.2f} for n={n}"
        )
    trim_count = _ceil_sqrt_over(24 * n, 3)     # ceil((2/3) sqrt(6n))
    m_size = _ceil_sqrt_over(6 * n, 3)          # ceil((1/3) sqrt(6n))
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, w) in g.arcs:
        out_arcs[u].append((u, w))
    kept: dict[tuple[int, int], int] = {}
    removed: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u in range(n):
        ordered = sorted(out_arcs[u], key=lambda a: (-g.arcs[a], a[1]))
        removed[u] = ordered[:trim_count]
        for a in ordered[trim_count:]:
            kept[a] = g.arcs[a]
    indeg = [0] * n
    for (_, w) in kept:
        indeg[w] += 1
    z = max(range(n), key=lambda v: (indeg[v], -v))
    if indeg[z] < m_size:
        raise AssertionError(
            "pigeonhole failure: max trimmed in-degree below the guaranteed bound"
        )
    members = sorted(u for (u, w) in kept if w == z)[:m_size]
    trimmed = {u: tuple(sorted(removed[u])) for u in members}
    return LargeNodeWitness(z, tuple(members), trimmed)


def verify_large_node(g: DirectedTemporalGraph, witness: LargeNodeWitness) -> bool:
    """Independent re-check of the three witness conditions by enumeration."""
    n = g.n
    if len(set(witness.members)) != _ceil_sqrt_over(6 * n, 3):
        return False
    for u in witness.members:
        if (u, witness.z) not in g.arcs:
            return False
        eu = witness.trimmed.get(u, ())
        # at least (2/3) sqrt(6n) arcs, exactly: 9 * |E_u|^2 >= 24n
        if 9 * len(eu) ** 2 < 24 * n or len(set(eu)) != len(eu):
            return False
        base_label = g.arcs[(u, witness.z)]
        for (a, b) in eu:
            if a != u or b == witness.z or (a, b) not in g.arcs:
                return False
            if g.arcs[(a, b)] < base_label:
                return False
    return True


def audit_edge_bounds(host: TemporalGraph, profile: StrategyProfile) -> BoundsReport:
    """Edge-count bounds a greedy equilibrium must satisfy.

    The t(n-2) bound is claimed for n > 2, t > 1; outside that range it is
    reported as not applicable.  The density bound (strictly fewer than
    sqrt(6)*n^1.5 + n arcs) holds for every equilibrium.
    """
    _check_profile_n(host, profile)
    n = host.n
    t = host.lifetime
    arcs = profile.arc_count
    applies = n > 2 and t > 1
    bound = t * (n - 2)
    return BoundsReport(
        n=n,
        t=t,
        arcs=arcs,
        arc_bound=bound,
        arc_bound_applies=applies,
        arc_bound_ok=arcs <= bound,
        dense_threshold=math.sqrt(6) * n**1.5 + n,
        dense_ok=_dense_below_threshold(n, arcs),
    )


def audit_profile(host: TemporalGraph, profile: StrategyProfile) -> ProfileAudit:
    return _audit(host, profile, _CreatedState(host, profile), {})


def _audit(
    host: TemporalGraph, profile: StrategyProfile, state: _CreatedState, views: dict
) -> ProfileAudit:
    masks = _necessary_masks(state, views)
    return ProfileAudit(
        antiparallel_free=not any(v in profile.strategies[w] for v, w in profile.arcs()),
        bounds=audit_edge_bounds(host, profile),
        necessary_ok=all(masks.values()),
        forbidden=_find_forbidden(state, masks),
    )


def freeze_relabel(host: TemporalGraph, profile: StrategyProfile) -> TemporalGraph:
    """New host where every pair outside the created graph gets label t+1.

    Created arcs keep their labels, so the profile's reachability and social
    cost are unchanged; a greedy equilibrium becomes a Nash equilibrium on
    the new host.  The result can skip intermediate labels; compress_labels
    restores consecutiveness when a strict host value is needed.
    """
    t = host.lifetime
    created = {norm_pair(v, w) for v, w, _ in _labelled_arcs(host, profile)}
    edges = {
        p: (label if p in created else t + 1)
        for p, label in host.edges.items()
    }
    return TemporalGraph(host.n, edges)
