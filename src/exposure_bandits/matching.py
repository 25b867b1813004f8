"""Offline assignment of user aggregates to arms under exposure floors.

The core solver, :func:`doalg`, takes a per-type count vector summing to
tau and distributes those pulls over an allowed arm set so that every
committed arm gets at least its threshold, maximizing total utility.
Internally it is an integer transportation problem solved by
successive-shortest-path min-cost flow; each committed arm is split into
a mandatory node (capacity delta_a, with a constant bonus that forces
saturation) and an overflow node.  Total unimodularity makes the LP
optimum integral, so the result is the exact integer optimum.  The costs
are integers too, the utilities on their one binary scale and the bonus
2 * scale, so equal costs tie exactly, by node order alone.

:func:`doalg_graph_reference` solves the same problem by brute maximum
weight matching on the fully node-expanded bipartite graph (one node per
user slot, tau copies per arm, boosted weight on the first delta_a
copies).  It is kept deliberately independent of the flow solver and is
used as a cross-check on small inputs.

:class:`SubsetPrices` owns the value of every (available, kept) pair of
one aggregate: in closed form, without a solve, where the threshold-free
optimum and the slack row already meet the kept floors, else by one
:func:`doalg` solve.  It solves a pair at most once, and a solve of a
priced pair must equal its price.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, ContractError, Instance, ResourceGuardError, arm_set

__all__ = [
    "Aggregate",
    "Matching",
    "SubsetPrices",
    "build_lcb_aggregate",
    "confidence_width",
    "doalg",
    "doalg_graph_reference",
]

# bonus per mandatory unit, times the utilities' scale; any value > max
# utility gap (1) forces the solver to saturate every threshold first
_MANDATORY_BONUS = 2

_GRAPH_NODE_LIMIT = 240  # doalg_graph_reference guard, tau*(#arms) nodes


@dataclass(frozen=True)
class Aggregate:
    """Per-type pull budget for one phase.

    ``counts[u]`` is the number of rounds reserved for user type u; when
    ``has_slack`` the last entry is a synthetic type with utility 0 for
    every arm, absorbing the budget left over by the confidence floors.
    """

    counts: tuple[int, ...]
    has_slack: bool = False

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("aggregate counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def n_real(self) -> int:
        return len(self.counts) - (1 if self.has_slack else 0)


@dataclass(frozen=True)
class Matching:
    """Result of :func:`doalg`: M[row][arm] pulls of each arm by each
    aggregate row (slack row last when present).

    ``exact`` is the utility sum, an integer on the utilities' one scale
    ``scale`` (:func:`_scaled`), and ``value`` that sum correctly rounded;
    ``pull_column_sums`` holds the pulls per arm: at least its threshold
    for a committed arm, 0 for an arm outside the allowed set.
    """

    M: tuple[tuple[int, ...], ...]
    exact: int
    scale: int
    pull_column_sums: tuple[int, ...]

    @property
    def value(self) -> float:
        return self.exact / self.scale  # int / int rounds correctly

    @staticmethod
    def from_matrix(M, scaled) -> "Matching":
        """M valued by ``scaled``, the (scale, rows) pair of :func:`_scaled`."""
        rows = tuple(tuple(int(x) for x in row) for row in M)
        cols = tuple(map(sum, zip(*rows)))
        scale, weights = scaled
        exact = sum(m * w for row, w_row in zip(rows, weights) for m, w in zip(row, w_row))
        return Matching(M=rows, exact=exact, scale=scale, pull_column_sums=cols)


def _scaled(mu_eff) -> tuple[int, list[list[int]]]:
    """(scale, the rows as integers): every float is p/q, q a power of
    two, the scale is the largest q, and p/q becomes p * (scale // q)."""
    ratios = [[v.as_integer_ratio() for v in row] for row in mu_eff]
    scale = max((q for row in ratios for _, q in row), default=1)
    return scale, [[p * (scale // q) for p, q in row] for row in ratios]


def confidence_width(tau: int) -> float:
    """sqrt(tau*ln tau), the shave of the confidence floors; raises
    ValueError for tau < 2, where it is not positive."""
    if tau < 2:
        raise ValueError("tau must be >= 2 so the confidence width is positive")
    return math.sqrt(tau * math.log(tau))


def build_lcb_aggregate(P, tau: int) -> Aggregate:
    """Lower-confidence per-type counts: floor(P_u*tau - sqrt(tau*ln tau)),
    clamped at 0, with the remainder going to the slack type.

    The shave guarantees that with probability >= 1 - 2n/tau^2 every real
    type actually arrives at least counts[u] times in a tau-round phase.
    """
    width = confidence_width(tau)
    counts = [max(0, math.floor(p * tau - width)) for p in P]
    slack = tau - sum(counts)
    if slack < 0:
        raise ContractError(f"shaved counts {counts} exceed the phase length {tau}")
    return Aggregate(counts=tuple(counts) + (slack,), has_slack=True)


def _mu_eff(aggregate: Aggregate, instance: Instance):
    """Utility rows for the aggregate: real types use instance.mu, the
    slack row is identically 0."""
    rows = [list(instance.mu[u]) for u in range(aggregate.n_real)]
    if aggregate.has_slack:
        rows.append([0.0] * instance.k)
    return rows


class SubsetPrices:
    """The exact value and the matching of each (available, kept) pair
    of one aggregate, the one place the planners get either from.  Arm
    sets are bit masks.

    Send every pull of each real row r (count c_r > 0) to its first best
    arm b_r(A) in A, the lowest-index arm of largest scaled utility w_r:
    no matching on A is worth more than that assignment's
    U(A) = sum_r c_r w_r[b_r(A)] (:meth:`free`), and it leaves g_a pulls
    on each arm a.  When the slack row's s pulls, worth 0 to every arm,
    make up every kept arm's shortfall, sum over a in K of
    max(0, delta_a - g_a) <= s, the assignment meets every floor of K, so
    U(A) is the exact value ``doalg(...).exact`` of (A, K) (:meth:`value`).
    U and each b_r are one table by mask, filled on demand, each set
    from the set without its highest arm.

    :meth:`exact` reads a pair's value from that price, or else from its
    solve; :meth:`matching` solves a pair at most once, and refuses a
    solve that differs from the pair's price.
    """

    def __init__(self, aggregate: Aggregate, instance: Instance):
        self.scale, weights = _scaled(_mu_eff(aggregate, instance))
        real = aggregate.n_real
        # (count, scaled utilities) of each real row that has pulls
        self._rows = [(c, w) for c, w in zip(aggregate.counts[:real], weights) if c > 0]
        self._slack = aggregate.counts[-1] if aggregate.has_slack else 0
        self._delta = instance.delta
        # mask -> (U, each row's first best arm); the empty set has none
        self._table: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
        self._aggregate, self._instance = aggregate, instance
        # (A, K) -> the pair's doalg matching, or NEG_INF
        self._solves: dict[tuple[int, int], object] = {}

    def _entry(self, A: int) -> tuple[int, tuple[int, ...]]:
        table = self._table
        missing = []
        while A not in table:
            missing.append(A)
            A ^= 1 << (A.bit_length() - 1)
        rows = self._rows
        for A in reversed(missing):
            a = A.bit_length() - 1
            parent = A ^ (1 << a)
            if parent:
                # a is above every arm of the parent, so it takes a row
                # only with a strictly larger utility
                U, parent_best = table[parent]
                best = []
                for (c, w), b in zip(rows, parent_best):
                    if w[a] > w[b]:
                        U += c * (w[a] - w[b])
                        b = a
                    best.append(b)
                table[A] = U, tuple(best)
            else:
                table[A] = sum(c * w[a] for c, w in rows), (a,) * len(rows)
        return table[A]

    def free(self, A: int) -> int:
        """U(A), the most any matching on the arms of A is worth, on the
        utilities' scale: every real pull on its row's best arm of A."""
        return self._entry(A)[0]

    def value(self, A: int, K: int) -> int | None:
        """The exact value of allowing A and keeping K (a submask of A),
        U(A), when the slack row covers every kept floor that U(A)'s
        assignment leaves short; None when A is empty or it does not.
        Raises ValueError, as :func:`doalg` does, when K is not in A."""
        if K & ~A:
            raise ValueError("committed arms must be a subset of allowed arms")
        if not A:
            return None
        U, best = self._entry(A)
        got: dict[int, int] = {}
        for (c, _), b in zip(self._rows, best):
            got[b] = got.get(b, 0) + c
        short = 0
        while K:
            a = K.bit_length() - 1
            K ^= 1 << a
            d = self._delta[a] - got.get(a, 0)
            if d > 0:
                short += d
        return U if short <= self._slack else None

    def exact(self, A: int, K: int):
        """The exact value of allowing A and keeping K: its price where
        :meth:`value` has one, else its solve's, or NEG_INF when no
        matching meets K's floors on A."""
        v = self.value(A, K)
        if v is not None:
            return v
        m = self.matching(A, K)
        return m if m is NEG_INF else m.exact

    def matching(self, A: int, K: int):
        """The :func:`doalg` matching of allowing A and keeping K (or
        NEG_INF), solved once; raises ContractError when the pair has a
        price the solve does not reach."""
        m = self._solves.get((A, K))
        if m is None:
            arms = [arm_set(A), arm_set(K)]
            m = doalg(self._aggregate, *arms, self._instance)
            v = self.value(A, K)
            if v is not None and (m is NEG_INF or m.exact != v):
                raise ContractError(
                    f"the solve of {set(arms[0])} keeping {set(arms[1])} "
                    f"differs from its closed-form value"
                )
            self._solves[A, K] = m
        return m


def doalg(
    aggregate: Aggregate,
    allowed: frozenset[int] | set[int],
    committed: frozenset[int] | set[int],
    instance: Instance,
):
    """Optimal transportation of the aggregate onto ``allowed`` arms with
    column-sum floors ``delta_a`` on every ``committed`` arm.

    Returns a :class:`Matching`, or the ``NEG_INF`` sentinel when the
    committed thresholds cannot fit in the budget, or when no arm is
    allowed and the aggregate has pulls (with no pulls, the matching is
    k zero columns).

    Arc costs are the negated utilities as integers on their one scale
    (:func:`_scaled`), and a mandatory unit earns 2 * scale more.  When
    several matchings are optimal (arms of equal utility for a row), the
    order in which the graph is laid out picks one, exactly: nodes are
    the aggregate's nonempty rows in order, then each allowed arm's
    mandatory and overflow node in arm order, then the sink and the
    source, and arcs are added in that order.  Every shortest-path pass
    settles nodes of equal distance in node order and keeps the first
    arc that reaches a node, so reordering the nodes or arcs can move
    pulls between tied arms and change the replayed trajectories.  (No
    two arcs join the same pair of nodes, so it is the node order that
    decides in practice.)
    """
    allowed = frozenset(allowed)
    committed = frozenset(committed)
    if not committed <= allowed:
        raise ValueError("committed arms must be a subset of allowed arms")
    if any(not 0 <= a < instance.k for a in allowed):
        raise ValueError("arm index out of range")
    tau = aggregate.total
    if sum(instance.delta[a] for a in committed) > tau:
        return NEG_INF
    if not allowed and tau > 0:
        return NEG_INF

    scale, weights = scaled = _scaled(_mu_eff(aggregate, instance))
    arms = sorted(allowed)
    rows = [r for r in range(len(aggregate.counts)) if aggregate.counts[r] > 0]

    # node layout: rows, then (mandatory, overflow) per arm, then sink
    n_rows = len(rows)
    sink = n_rows + 2 * len(arms)
    graph = _FlowGraph(sink + 1)
    add = graph.add_edge
    # arc ids of each row's (mandatory, overflow) arcs, arm by arm
    row_arcs = []
    for i, r in enumerate(rows):
        w_r = weights[r]
        arcs = []
        for j, a in enumerate(arms):
            mand = n_rows + 2 * j
            arcs.append((a, add(i, mand, tau, -w_r[a]), add(i, mand + 1, tau, -w_r[a])))
        row_arcs.append(arcs)
    for j, a in enumerate(arms):
        d = instance.delta[a] if a in committed else 0
        if d:
            add(n_rows + 2 * j, sink, d, -_MANDATORY_BONUS * scale)
        add(n_rows + 2 * j + 1, sink, tau, 0)

    graph.solve_from_supplies([aggregate.counts[r] for r in rows], sink)

    cap = graph.cap
    M = [[0] * instance.k for _ in aggregate.counts]
    for r, arcs in zip(rows, row_arcs):
        Mr = M[r]
        for a, mand, over in arcs:
            Mr[a] = cap[mand ^ 1] + cap[over ^ 1]
    return Matching.from_matrix(M, scaled)


class _FlowGraph:
    """Min-cost max-flow by successive shortest paths with potentials.

    Costs are integers and may be negative on forward arcs (utilities
    are negated), so potentials are initialized by Bellman-Ford once;
    afterwards reduced costs stay nonnegative and Dijkstra drives each
    augmentation.  Both scan each node's arcs in id order and skip the
    saturated ones.  Distances compare exactly, with no tolerance: nodes
    of equal distance settle in node order, and a node keeps the first
    arc that reaches it at its shortest distance.  Arc e and its reverse
    e ^ 1 are stored side by side; the flow on a forward arc is the
    residual capacity of its reverse.
    """

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        """Add the arc u -> v and its reverse; returns the arc's id."""
        e = len(self.to)
        self.head[u].append(e)
        self.head[v].append(e + 1)
        self.to += (v, u)
        self.cap += (cap, 0)
        self.cost += (cost, -cost)
        return e

    def solve_from_supplies(self, supplies: list[int], sink: int) -> None:
        # single virtual source feeding each supply row
        src = self.n
        self.n += 1
        self.head.append([])
        for i, s in enumerate(supplies):
            self.add_edge(src, i, s, 0)
        need = sum(supplies)
        n, head, to, cap, cost = self.n, self.head, self.to, self.cap, self.cost
        heappush, heappop = heapq.heappush, heapq.heappop

        INF = float("inf")
        # Bellman-Ford initial potentials (graph is a DAG here, but keep
        # the general form for safety)
        pot = [INF] * n
        pot[src] = 0
        for _ in range(n - 1):
            changed = False
            for u in range(n):
                pu = pot[u]
                if pu == INF:
                    continue
                for e in head[u]:
                    if cap[e] and pu + cost[e] < pot[to[e]]:
                        pot[to[e]] = pu + cost[e]
                        changed = True
            if not changed:
                break

        while need > 0:
            dist = [INF] * n
            prev_edge = [-1] * n
            dist[src] = 0
            pq = [(0, src)]
            while pq:
                d, u = heappop(pq)
                if d > dist[u]:
                    continue
                du = d + pot[u]
                for e in head[u]:
                    if not cap[e]:
                        continue
                    v = to[e]
                    nd = du + cost[e] - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = e
                        heappush(pq, (nd, v))
            if dist[sink] == INF:
                raise ContractError("transportation problem unexpectedly infeasible")
            pot = [p + d if d < INF else p for p, d in zip(pot, dist)]
            # push the bottleneck along the path
            push = need
            v = sink
            while v != src:
                e = prev_edge[v]
                if cap[e] < push:
                    push = cap[e]
                v = to[e ^ 1]
            v = sink
            while v != src:
                e = prev_edge[v]
                cap[e] -= push
                cap[e ^ 1] += push
                v = to[e ^ 1]
            need -= push


def doalg_graph_reference(
    aggregate: Aggregate,
    allowed: frozenset[int] | set[int],
    instance: Instance,
):
    """Literal node-expanded formulation: one node per user slot, tau
    copies per allowed arm, the first delta_a copies carrying weight
    2 + mu.  Solved as a dense assignment problem, on mu times the power
    of two that brings its largest entry into [0.5, 1), so adding the 2
    rounds away no utility the floats tell apart from the largest; the
    matching is valued on mu itself.

    Only the single-subset case (every allowed arm committed).  Small
    inputs only; meant as an independent oracle for :func:`doalg`.
    """
    allowed = frozenset(allowed)
    tau = aggregate.total
    arms = sorted(allowed)
    if tau * max(1, len(arms)) > _GRAPH_NODE_LIMIT:
        raise ResourceGuardError(
            f"graph reference limited to tau*|allowed| <= {_GRAPH_NODE_LIMIT}"
        )
    if sum(instance.delta[a] for a in arms) > tau:
        return NEG_INF
    if not allowed and tau > 0:
        return NEG_INF

    from scipy.optimize import linear_sum_assignment

    mu_eff = _mu_eff(aggregate, instance)
    top = max(v for row in mu_eff for v in row)
    shift = math.frexp(top)[1] if top else 0
    user_rows = [
        r for r in range(len(aggregate.counts)) for _ in range(aggregate.counts[r])
    ]
    weights = np.zeros((len(user_rows), tau * len(arms)))
    col_arm = []
    col_boosted = []
    for j, a in enumerate(arms):
        for copy in range(tau):
            col_arm.append(a)
            col_boosted.append(copy < instance.delta[a])
    for i, r in enumerate(user_rows):
        for j in range(weights.shape[1]):
            w = math.ldexp(mu_eff[r][col_arm[j]], -shift)
            if col_boosted[j]:
                w += _MANDATORY_BONUS
            weights[i, j] = w
    ri, ci = linear_sum_assignment(weights, maximize=True)

    M = [[0] * instance.k for _ in aggregate.counts]
    for i, j in zip(ri.tolist(), ci.tolist()):
        M[user_rows[i]][col_arm[j]] += 1
    result = Matching.from_matrix(M, _scaled(mu_eff))
    # every boosted copy must be matched or the thresholds went unmet
    boosted_matched = sum(1 for j in ci.tolist() if col_boosted[j])
    if boosted_matched != sum(instance.delta[a] for a in arms):
        raise ContractError("the assignment left a threshold copy unmatched")
    return result

