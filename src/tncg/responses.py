"""Greedy and exact best responses.

Both rest on one decomposition: every temporal path leaving agent v uses
exactly one v-incident edge, its first hop.  For an endpoint w the
continuation cover

    cover[w] = nodes reachable from w using labels >= label({v, w})
               in the created graph with v removed

does not depend on v's own strategy.  v's reach under strategy S is then
{v} | in-neighbor covers | union of cover[w] for w in S, so evaluating any
strategy is a few bitmask unions and exact best response is a minimum set
cover over fixed candidate masks.  All n-1 covers come from one reach sweep
over the created graph's sweep events that leaves v out (`skip=v`), each
endpoint w read off at its own start label({v, w}); greedy scores each add
by one popcount if v misses someone, and only drops if v reaches everyone.

A view reads a `game._CreatedState`: its one sweep-event list, kept across a
whole dynamics run and shared as is by every view of one check, and v's
start list, sorted once per state, with labels from the host's label table,
so no graph is built, no arc regrouped and no list copied or sorted per
view.  The view decides an agent's moves: `best`, the one improvement
test, maps a rule to its search and returns a strategy only when it
strictly lowers the cost, and `necessary()` is the one necessary-set
computation, for greedy's drops and the structural audit.  A check builds
no view for an agent it can settle from the created graph alone
(`equilibrium._settled`); dynamics activates every agent through a view.
"""

from __future__ import annotations

from .core import TemporalGraph, _check_int, _reach_sweep
from .errors import SearchSpaceExceeded
from .game import CostVector, StrategyProfile, _check_agent, _CreatedState

DEFAULT_BUDGET = 10_000_000


def _check_budget(budget_cap: int) -> None:
    _check_int("budget_cap", budget_cap, 0)


class _AgentView:
    """Per-agent cover data for one agent v of a created-graph state."""

    __slots__ = ("n", "v", "current", "covers", "in_mask", "base", "cur_mask", "cur_cost")

    def __init__(self, state: _CreatedState, v: int):
        n = state.n
        _check_agent(n, v)
        covers = _reach_sweep(n, state.events, state.starts(v), skip=v)
        self.n = n
        self.v = v
        self.current = state.strategies[v]
        self.covers = covers
        self.base = 1 << v
        in_mask = 0
        for u in state.buyers[v]:
            in_mask |= covers[u]
        self.in_mask = in_mask
        cur = self.base | in_mask
        for w in self.current:
            cur |= covers[w]
        self.cur_mask = cur
        self.cur_cost = CostVector(n - cur.bit_count(), len(self.current))

    def necessary(self) -> dict[int, int]:
        """Necessary-set mask per current endpoint w, the nodes v reaches only
        through arc (v, w): cur_mask less base | in_mask and the prefix and
        suffix unions of the other covers.  An antiparallel twin puts
        cover[w] into in_mask, so its arc's set is empty."""
        covers, cur = self.covers, self.cur_mask
        own = tuple(self.current)
        suffix = [0] * (len(own) + 1)
        for i in range(len(own) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | covers[own[i]]
        prefix = self.base | self.in_mask
        masks = {}
        for i, w in enumerate(own):
            masks[w] = cur & ~(prefix | suffix[i + 1])
            prefix |= covers[w]
        return masks

    def greedy(self) -> tuple[frozenset[int], CostVector]:
        """Best single-arc toggle and its cost; (current, cur_cost) if none improves.

        An add costs one more arc, so it improves only by reaching more
        nodes, and then it beats every drop, which cannot reach more.  The
        add reaching most wins, ties to the smallest w (the lexicographically
        smallest set).  On a complete host an agent that misses some z has
        an improving add, since covers[z] holds z, and one that reaches
        everyone has none, so only the latter look at drops: a drop improves
        when it keeps everyone reached, so when its arc's necessary set is
        empty, and the largest such w gives the lexicographically smallest set.
        """
        current, cur = self.current, self.cur_mask
        if cur != (1 << self.n) - 1:
            # covers[v] is 0, and the cover of a current endpoint lies within
            # cur_mask, so neither can win an add
            best_w, best_pop = -1, cur.bit_count()
            for w, cover in enumerate(self.covers):
                pop = (cur | cover).bit_count()
                if pop > best_pop:
                    best_w, best_pop = w, pop
            return current | {best_w}, CostVector(self.n - best_pop, len(current) + 1)
        drop = max((w for w, mask in self.necessary().items() if not mask), default=-1)
        if drop >= 0:
            return current - {drop}, CostVector(0, len(current) - 1)
        return current, self.cur_cost

    def best(self, rule: str, budget_cap: int) -> tuple[frozenset[int], CostVector] | None:
        """The best strategy under rule ("greedy" or "exact") and its cost,
        or None when it does not strictly improve on the current cost."""
        got = self.greedy() if rule == "greedy" else self.exact(budget_cap)
        return got if got[1] < self.cur_cost else None

    def exact(self, budget_cap: int) -> tuple[frozenset[int], CostVector]:
        """Cost-minimal strategy and its cost; see exact_best_response."""
        _check_budget(budget_cap)
        universe = ((1 << self.n) - 1) & ~(self.base | self.in_mask)
        # covers[v] is 0, and each w in universe covers itself on a complete
        # host, so cands is empty only when v already reaches everyone
        cands = [(w, cover & universe) for w, cover in enumerate(self.covers) if cover & universe]
        if not cands:
            return frozenset(), CostVector(0, 0)
        cap = len(self.current) - 1 if self.cur_cost.unreached == 0 else len(cands)
        max_pop = max(m.bit_count() for _, m in cands)
        lower = -(-universe.bit_count() // max_pop)
        state = [0, budget_cap]
        for r in range(lower, cap + 1):
            if _exists_cover(universe, cands, 0, r, state):
                return frozenset(_lex_min_cover(universe, cands, r, state)), CostVector(0, r)
        return self.current, self.cur_cost


def greedy_best_response(
    host: TemporalGraph, profile: StrategyProfile, v: int
) -> tuple[frozenset[int], bool]:
    """Best single-arc addition or deletion for v, else the current strategy.

    Returns (strategy, improved).  Ties among equally good moves go to the
    lexicographically smallest resulting endpoint set.  Uses one reach sweep.
    """
    view = _AgentView(_CreatedState(host, profile), v)
    got = view.best("greedy", DEFAULT_BUDGET)
    return (got[0], True) if got is not None else (view.current, False)


def _exists_cover(
    rem: int, cands: list[tuple[int, int]], start: int, r: int, state: list[int]
) -> bool:
    """Can candidates[start:] cover rem with at most r sets?  Branches on
    the first uncovered element with the fewest covering candidates; one
    that none covers has the fewest, and no branch."""
    state[0] += 1
    if state[0] > state[1]:
        raise SearchSpaceExceeded(
            f"exact search exceeded budget of {state[1]} cover evaluations"
        )
    if rem == 0:
        return True
    if r == 0:
        return False
    max_pop = 0
    for i in range(start, len(cands)):
        gain = (cands[i][1] & rem).bit_count()
        if gain > max_pop:
            max_pop = gain
    if max_pop * r < rem.bit_count():
        return False
    bit, fewest = 0, len(cands) + 1
    probe = rem
    while probe:
        low = probe & -probe
        probe ^= low
        count = 0
        for i in range(start, len(cands)):
            if cands[i][1] & low:
                count += 1
                if count >= fewest:
                    break
        if count < fewest:
            bit, fewest = low, count
    for i in range(start, len(cands)):
        if cands[i][1] & bit:
            if _exists_cover(rem & ~cands[i][1], cands, start, r - 1, state):
                return True
    return False


def _lex_min_cover(
    universe: int, cands: list[tuple[int, int]], size: int, state: list[int]
) -> list[int]:
    """Lexicographically smallest endpoint set among covers of exactly `size`.

    Fix the smallest feasible candidate, then recheck completability with the
    remaining budget restricted to later candidates; minimum covers always
    list each member as contributing, so skipping non-contributing candidates
    is safe.
    """
    chosen: list[int] = []
    rem = universe
    start = 0
    for slot in range(size):
        placed = False
        for i in range(start, len(cands)):
            node, mask = cands[i]
            if mask & rem == 0:
                continue
            if _exists_cover(rem & ~mask, cands, i + 1, size - slot - 1, state):
                chosen.append(node)
                rem &= ~mask
                start = i + 1
                placed = True
                break
        if not placed:
            raise AssertionError("cover completion failed after existence was proven")
    return chosen


def exact_best_response(
    host: TemporalGraph,
    profile: StrategyProfile,
    v: int,
    budget_cap: int = DEFAULT_BUDGET,
) -> tuple[frozenset[int], CostVector]:
    """Cost-minimal strategy for v, holding everyone else fixed.

    On complete hosts a full cover always exists, so the optimum reaches
    everything and minimizes bought arcs: a minimum set cover over the
    candidate masks.  Sizes are tried in ascending order and the search stops
    at the first feasible size, so unreached-dominance pruning is implicit;
    returns the current strategy when nothing strictly better exists.

    Raises SearchSpaceExceeded when more than budget_cap cover evaluations
    would be needed to prove optimality, and ValueError when budget_cap < 0.
    """
    return _AgentView(_CreatedState(host, profile), v).exact(budget_cap)
