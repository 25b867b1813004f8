"""Offline assignment of user aggregates to arms under exposure floors.

The core solver, :func:`doalg`, takes a per-type count vector summing to
tau and distributes those pulls over an allowed arm set so that every
committed arm gets at least its threshold, maximizing total utility.
Internally it is an integer transportation problem solved by
successive-shortest-path min-cost flow; each committed arm is split into
a mandatory node (capacity delta_a, with a constant bonus that forces
saturation) and an overflow node.  Total unimodularity makes the LP
optimum integral, so the result is the exact integer optimum.

:func:`doalg_graph_reference` solves the same problem by brute maximum
weight matching on the fully node-expanded bipartite graph (one node per
user slot, tau copies per arm, boosted weight on the first delta_a
copies).  It is kept deliberately independent of the flow solver and is
used as a cross-check on small inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, Instance, ResourceGuardError

__all__ = [
    "Aggregate",
    "Matching",
    "build_lcb_aggregate",
    "doalg",
    "doalg_graph_reference",
]

# bonus per mandatory unit; any value > max utility gap (1) forces the
# solver to saturate every threshold before chasing utility
_MANDATORY_BONUS = 2.0

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

    ``value`` is the exact utility sum; column sums are cached because the
    phase policies replay them as quotas.
    """

    M: tuple[tuple[int, ...], ...]
    value: float
    pull_column_sums: tuple[int, ...]

    @staticmethod
    def from_matrix(M, mu_eff) -> "Matching":
        rows = tuple(tuple(int(x) for x in row) for row in M)
        k = len(rows[0]) if rows else 0
        cols = tuple(sum(row[a] for row in rows) for a in range(k))
        value = math.fsum(
            rows[r][a] * mu_eff[r][a]
            for r in range(len(rows))
            for a in range(k)
            if rows[r][a]
        )
        return Matching(M=rows, value=value, pull_column_sums=cols)


def build_lcb_aggregate(P, tau: int) -> Aggregate:
    """Lower-confidence per-type counts: floor(P_u*tau - sqrt(tau*ln tau)),
    clamped at 0, with the remainder going to the slack type.

    The shave guarantees that with probability >= 1 - 2n/tau^2 every real
    type actually arrives at least counts[u] times in a tau-round phase.
    """
    if tau < 2:
        raise ValueError("tau must be >= 2 so the confidence width is positive")
    width = math.sqrt(tau * math.log(tau))
    counts = [max(0, math.floor(p * tau - width)) for p in P]
    slack = tau - sum(counts)
    assert slack >= 0
    return Aggregate(counts=tuple(counts) + (slack,), has_slack=True)


def _mu_eff(aggregate: Aggregate, instance: Instance):
    """Utility rows for the aggregate: real types use instance.mu, the
    slack row is identically 0."""
    rows = [list(instance.mu[u]) for u in range(aggregate.n_real)]
    if aggregate.has_slack:
        rows.append([0.0] * instance.k)
    return rows


def doalg(
    aggregate: Aggregate,
    allowed: frozenset[int] | set[int],
    committed: frozenset[int] | set[int],
    instance: Instance,
):
    """Optimal transportation of the aggregate onto ``allowed`` arms with
    column-sum floors ``delta_a`` on every ``committed`` arm.

    Returns a :class:`Matching`, or the ``NEG_INF`` sentinel when the
    committed thresholds cannot fit in the budget (or no arm is allowed).
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
    if not allowed:
        return NEG_INF if tau > 0 else Matching(
            M=tuple(() for _ in aggregate.counts),
            value=0.0,
            pull_column_sums=(),
        )

    mu_eff = _mu_eff(aggregate, instance)
    arms = sorted(allowed)
    rows = [r for r in range(len(aggregate.counts)) if aggregate.counts[r] > 0]

    # node layout: rows, then (mandatory, overflow) per arm, then sink
    n_rows = len(rows)
    node_of_mand = {a: n_rows + 2 * i for i, a in enumerate(arms)}
    node_of_over = {a: n_rows + 2 * i + 1 for i, a in enumerate(arms)}
    sink = n_rows + 2 * len(arms)
    n_nodes = sink + 1

    graph = _FlowGraph(n_nodes)
    for i, r in enumerate(rows):
        for a in arms:
            cost = -mu_eff[r][a]
            graph.add_edge(i, node_of_mand[a], tau, cost)
            graph.add_edge(i, node_of_over[a], tau, cost)
    for a in arms:
        d = instance.delta[a] if a in committed else 0
        if d:
            graph.add_edge(node_of_mand[a], sink, d, -_MANDATORY_BONUS)
        graph.add_edge(node_of_over[a], sink, tau, 0.0)

    supplies = [aggregate.counts[r] for r in rows]
    graph.solve_from_supplies(supplies, sink)

    M = [[0] * instance.k for _ in aggregate.counts]
    for i, r in enumerate(rows):
        for a in arms:
            f = graph.flow_between(i, node_of_mand[a]) + graph.flow_between(
                i, node_of_over[a]
            )
            M[r][a] = f
    return Matching.from_matrix(M, mu_eff)


class _FlowGraph:
    """Min-cost max-flow by successive shortest paths with potentials.

    Costs may be negative on forward arcs (utilities are negated), so
    potentials are initialized by Bellman-Ford once; afterwards reduced
    costs stay nonnegative and Dijkstra drives each augmentation.
    """

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[float] = []
        self.flow_index: dict[tuple[int, int], int] = {}

    def add_edge(self, u: int, v: int, cap: int, cost: float) -> None:
        self.flow_index[(u, v)] = len(self.to)
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)

    def flow_between(self, u: int, v: int) -> int:
        e = self.flow_index.get((u, v))
        return self.cap[e ^ 1] if e is not None else 0

    def solve_from_supplies(self, supplies: list[int], sink: int) -> None:
        # single virtual source feeding each supply row
        src = self.n
        self.n += 1
        self.head.append([])
        for i, s in enumerate(supplies):
            self.add_edge(src, i, s, 0.0)
        need = sum(supplies)

        INF = float("inf")
        # Bellman-Ford initial potentials (graph is a DAG here, but keep
        # the general form for safety)
        pot = [INF] * self.n
        pot[src] = 0.0
        for _ in range(self.n - 1):
            changed = False
            for u in range(self.n):
                pu = pot[u]
                if pu == INF:
                    continue
                for e in self.head[u]:
                    if self.cap[e] > 0 and pu + self.cost[e] < pot[self.to[e]]:
                        pot[self.to[e]] = pu + self.cost[e]
                        changed = True
            if not changed:
                break

        while need > 0:
            dist = [INF] * self.n
            prev_edge = [-1] * self.n
            dist[src] = 0.0
            pq = [(0.0, src)]
            while pq:
                d, u = heapq.heappop(pq)
                if d > dist[u] + 1e-12:
                    continue
                for e in self.head[u]:
                    if self.cap[e] <= 0:
                        continue
                    v = self.to[e]
                    nd = d + self.cost[e] + pot[u] - pot[v]
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        prev_edge[v] = e
                        heapq.heappush(pq, (nd, v))
            if dist[sink] == INF:
                raise AssertionError("transportation problem unexpectedly infeasible")
            for v in range(self.n):
                if dist[v] < INF:
                    pot[v] += dist[v]
            # push the bottleneck along the path
            push = need
            v = sink
            while v != src:
                e = prev_edge[v]
                push = min(push, self.cap[e])
                v = self.to[e ^ 1]
            v = sink
            while v != src:
                e = prev_edge[v]
                self.cap[e] -= push
                self.cap[e ^ 1] += push
                v = self.to[e ^ 1]
            need -= push


def doalg_graph_reference(
    aggregate: Aggregate,
    allowed: frozenset[int] | set[int],
    instance: Instance,
):
    """Literal node-expanded formulation: one node per user slot, tau
    copies per allowed arm, the first delta_a copies carrying weight
    2 + mu.  Solved as a dense assignment problem.

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
    if not arms:
        return NEG_INF if tau > 0 else Matching(
            M=tuple(() for _ in aggregate.counts),
            value=0.0,
            pull_column_sums=(),
        )

    from scipy.optimize import linear_sum_assignment

    mu_eff = _mu_eff(aggregate, instance)
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
            w = mu_eff[r][col_arm[j]]
            if col_boosted[j]:
                w += _MANDATORY_BONUS
            weights[i, j] = w
    ri, ci = linear_sum_assignment(weights, maximize=True)

    M = [[0] * instance.k for _ in aggregate.counts]
    for i, j in zip(ri.tolist(), ci.tolist()):
        M[user_rows[i]][col_arm[j]] += 1
    result = Matching.from_matrix(M, mu_eff)
    # every boosted copy must be matched or the thresholds went unmet
    boosted_matched = sum(1 for j in ci.tolist() if col_boosted[j])
    assert boosted_matched == sum(instance.delta[a] for a in arms)
    return result

