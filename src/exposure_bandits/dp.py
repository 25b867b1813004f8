"""Phase-optimal play for a committed arm subset, and subset selection.

For a committed subset Z the value function MER maps a within-phase pull
history (a count vector over Z) to the best expected reward obtainable in
the remaining rounds while still meeting every threshold of Z.  States
that cannot meet the remaining demand are a typed sentinel.  The
exhaustive planner evaluates MER's root for the subsets that can still
beat the best found so far and commits to the best, replaying the table
greedily each round.

The table holds only the reachable states, the count vectors over Z
with total at most tau, C(tau+m, m) of them for m = |Z| arms, not the
(tau+1)^m grid of all count vectors.  They are ranked by the
combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): with prefix sums
S_j = c_0 + ... + c_{j-1}, a count vector c has rank
sum_{j=1..m} C(S_j + j - 1, j).  The j = m term, C(s + m - 1, m), counts
every state of smaller total s, so each layer of equal total is one
contiguous run, and the root (the zero vector) has rank 0.  Pulling arm
a moves a state at position i of layer s to position i + hop_a(i) of
layer s+1, where hop_a(i) = sum_{j=a+1..m-1} C(S_j + j - 1, j - 1)
depends only on the counts of the first m-1 arms; the backward sweep,
the action table and the policies walk the table by these successor
positions.  The resource guard counts states: a table of more than
TABLE_CELL_CAP states is refused before anything is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    NEG_INF,
    Instance,
    InfeasibleError,
    ResourceGuardError,
    best_subset,
)
from .env import CommittedPolicy

__all__ = [
    "MerTable",
    "table_cells",
    "largest_commitment",
    "mer_table",
    "dp_step",
    "dp_star",
    "planned_total_value",
    "DpPolicy",
]

TABLE_CELL_CAP = 10**7
_ACTION_CHUNK = 1 << 18  # decision states per vectorised tie-rule pass


def table_cells(tau: int, m: int) -> int:
    """States of the MER table over m committed arms, the count vectors
    with total <= tau, C(tau+m, m); raises ResourceGuardError when that
    exceeds TABLE_CELL_CAP."""
    size = math.comb(tau + m, m)
    if size > TABLE_CELL_CAP:
        raise ResourceGuardError(f"table of {size} states exceeds cap {TABLE_CELL_CAP}")
    return size


def largest_commitment(delta, tau: int) -> int:
    """The most arms a feasible commitment holds: the largest m whose m
    smallest thresholds fit in tau together."""
    m = total = 0
    for d in sorted(delta):
        total += d
        if total > tau:
            break
        m += 1
    return m


def _ranked_heads(tau: int, m: int) -> np.ndarray:
    """Prefix sums (S_1, ..., S_{m-1}) of the first m-1 arms' counts, one
    row per position in the layer of total tau, in rank order.

    The rows are the nondecreasing sequences with entries in [0, tau],
    ordered by S_{m-1}, then S_{m-2}, and so on; the first
    C(s + m - 1, m - 1) of them, those with S_{m-1} <= s, are the
    positions of layer s.
    """
    S = np.zeros((1, 0), dtype=np.int64)
    for j in range(1, m):
        # rows ending in v extend every row of the previous level whose
        # last entry is at most v: its first C(v + j - 1, j - 1) rows
        lens = np.array([math.comb(v + j - 1, j - 1) for v in range(tau + 1)])
        firsts = np.repeat(np.cumsum(lens) - lens, lens)
        rows = np.arange(lens.sum()) - firsts
        last = np.repeat(np.arange(tau + 1), lens)
        S = np.column_stack([S[rows], last])
    return S


class MerTable:
    """Backward-induction values over the count vectors over Z with total
    at most tau.

    ``values`` holds one float per state, indexed by the state's rank
    (see the module docstring): layer s, the states with s pulls so far,
    is the run ``values[starts[s]:starts[s+1]]``.  -inf encodes the
    infeasible sentinel internally, surfaced as NEG_INF at the API edge.
    ``state_count`` is the number of decision states, those with fewer
    than tau pulls: the first ``starts[tau]`` ranks.  Within a layer a
    state is known by its position i; ``heads[i]`` are the counts of the
    first m-1 arms of Z and ``next[j, i]`` the position in the next layer
    after one more pull of ``Z[j]``.  Immutable once built.
    """

    __slots__ = (
        "Z", "tau", "values", "state_count", "deltas", "starts", "heads",
        "next", "_mu_cols",
    )

    def __init__(self, Z, tau, deltas, mu_cols):
        self.Z = Z  # sorted tuple of arms
        self.tau = tau
        self.deltas = deltas  # thresholds restricted to Z
        self._mu_cols = mu_cols  # mu restricted to Z, shape (n, |Z|)
        m = len(Z)
        self.starts = np.array(
            [math.comb(s + m - 1, m) for s in range(tau + 2)], dtype=np.int64
        )
        self.state_count = int(self.starts[tau])
        S = _ranked_heads(tau, m)
        self.heads = np.diff(S, axis=1, prepend=0)
        # hop_a = sum_{j=a+1..m-1} C(S_j + j - 1, j - 1); C(S_1, 0) = 1
        terms = np.ones((len(S), max(m - 1, 0)), dtype=np.int64)
        for j in range(2, m):
            comb = np.array([math.comb(v + j - 1, j - 1) for v in range(tau + 1)])
            terms[:, j - 1] = comb[S[:, j - 1]]
        hops = np.zeros((m, len(S)), dtype=np.int64)
        hops[: m - 1] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1].T
        self.next = hops + np.arange(len(S))
        self.values = None

    def counts(self, s, rows) -> np.ndarray:
        """The count vectors at positions ``rows`` of layers ``s`` (one
        layer, or one per position), one row per arm of Z, one column per
        position."""
        heads = self.heads[rows].T
        return np.vstack([heads, s - heads.sum(axis=0)])

    def successor_values(self, s, rows) -> np.ndarray:
        """Values after one more pull of each arm of Z from positions
        ``rows`` of layers ``s`` < tau (one layer, or one per position),
        one row per arm, one column per position."""
        return self.values[self.starts[s + 1] + self.next[:, rows]]

    def index_of(self, counts) -> int:
        """The rank of a count vector over Z."""
        if len(counts) != len(self.Z):
            raise ValueError("counts must align with Z")
        if any(c < 0 for c in counts) or sum(counts) > self.tau:
            raise ValueError("counts must be nonnegative with total <= tau")
        rank, S = 0, 0
        for j, c in enumerate(counts, 1):
            S += c
            rank += math.comb(S + j - 1, j)
        return rank

    def lookup(self, counts):
        v = self.values[self.index_of(counts)]
        return NEG_INF if v == -np.inf else float(v)

    @property
    def root_value(self):
        v = self.values[0]
        return NEG_INF if v == -np.inf else float(v)


def mer_table(Z, instance: Instance) -> MerTable:
    """Build the value table for committed subset Z.

    A state is a vector of per-arm pull counts with total <= tau.  It is
    sentinel exactly when the remaining rounds cannot cover the remaining
    demand: tau - |H| < sum_a max(0, delta_a - H(a)).  Non-sentinel
    states follow the expectation-of-max recursion over arrival types,
    one layer of equal total at a time, from the last round back.
    """
    Z = tuple(sorted(set(Z)))
    if not Z:
        raise ValueError("Z must be nonempty")
    if any(not 0 <= a < instance.k for a in Z):
        raise ValueError("arm index out of range")
    tau = instance.tau
    size = table_cells(tau, len(Z))

    deltas = tuple(instance.delta[a] for a in Z)
    mu_cols = np.asarray(instance.mu, dtype=np.float64)[:, list(Z)]
    table = MerTable(Z, tau, deltas, mu_cols)
    starts, heads = table.starts.tolist(), table.heads
    # demand still owed by the first m-1 arms, per position
    head_deltas = np.array(deltas[:-1], dtype=np.int64)
    head_deficit = np.maximum(head_deltas - heads, 0).sum(axis=1)
    head_total = heads.sum(axis=1)
    # no state with at most this many pulls owes more than the rounds left
    always_feasible = tau - sum(deltas)
    mu_rows = mu_cols.tolist()

    table.values = values = np.empty(size, dtype=np.float64)
    for s in range(tau, -1, -1):
        layer = values[starts[s] : starts[s + 1]]
        width = len(layer)
        if s <= always_feasible:
            rows = slice(0, width)
        else:
            deficit = head_deficit[:width] + np.maximum(
                head_total[:width] + (deltas[-1] - s), 0
            )
            rows = np.flatnonzero(deficit <= tau - s)
            layer[:] = -np.inf
        if s == tau:
            layer[rows] = 0.0
            continue
        # succ[j] = value after one more pull of Z[j]
        succ = table.successor_values(s, rows)
        # E_u[ max_j mu[u][Z_j] + succ_j ]
        exp = np.zeros(succ.shape[1], dtype=np.float64)
        for p, mu_u in zip(instance.P, mu_rows):
            best = succ[0] + mu_u[0]
            for j in range(1, len(Z)):
                np.maximum(best, succ[j] + mu_u[j], out=best)
            exp += p * best
        layer[rows] = exp
    return table


def _best_moves(table: MerTable, s, rows) -> np.ndarray:
    """The arm to pull at positions ``rows`` of layers ``s`` for every
    arriving type u, as an int8 array of indices into Z with one row per
    position and one column per type.

    The positions must be decision states (non-sentinel, s < tau).  The
    pull maximizes mu[u][a] + value(counts + e_a) over Z; ties break
    toward the largest remaining deficit delta_a - counts[a], then the
    smallest arm index.
    """
    succ = table.successor_values(s, rows)
    deficit = np.maximum(np.array(table.deltas)[:, None] - table.counts(s, rows), 0)
    mu_cols = table._mu_cols
    acts = np.empty((succ.shape[1], mu_cols.shape[0]), dtype=np.int8)
    for u, mu_u in enumerate(mu_cols.tolist()):
        # scan the arms upward; only a strictly better (score, deficit)
        # pair takes over, so full ties stay with the smaller arm
        best = succ[0] + mu_u[0]
        best_deficit = deficit[0]
        arm = np.zeros(len(best), dtype=np.int8)
        for j in range(1, len(mu_u)):
            score = succ[j] + mu_u[j]
            better = (score > best) | ((score == best) & (deficit[j] > best_deficit))
            arm[better] = j
            best = np.where(better, score, best)
            best_deficit = np.where(better, deficit[j], best_deficit)
        acts[:, u] = arm
    return acts


def dp_step(table: MerTable, counts, u: int) -> int:
    """Arm to pull now at within-phase counts over Z, by the rule of
    :func:`_best_moves`.  Calling this on a sentinel state or an exhausted
    phase raises ValueError.
    """
    rank = table.index_of(counts)
    if table.values[rank] == -np.inf:
        raise ValueError("dp_step called on an infeasible state")
    s = sum(counts)
    if s >= table.tau:
        raise ValueError("phase already exhausted")
    row = np.array([rank - table.starts[s]])
    return table.Z[int(_best_moves(table, s, row)[0, u])]


class DpPolicy(CommittedPolicy):
    """Round-by-round policy committing to the best subset up front.

    The per-(state, type) choice of :func:`_best_moves` is precomputed
    into an int8 action table with one row per decision state (by rank)
    and one column per type, so a round costs one table lookup and one
    successor lookup; :meth:`plan_phases` makes them for every phase of
    a block at once.  Every phase plays alike, so the play never reads
    the horizon.
    """

    horizon_free = True

    def __init__(self, instance: Instance):
        Z, table = dp_star(instance)
        self.instance = instance
        self.Z = Z
        self.table = table
        acts = np.zeros((table.state_count, instance.n), dtype=np.int8)
        # decision states a chunk of ranks at a time, across layers
        for lo in range(0, table.state_count, _ACTION_CHUNK):
            hi = min(lo + _ACTION_CHUNK, table.state_count)
            ranks = lo + np.flatnonzero(table.values[lo:hi] != -np.inf)
            s = np.searchsorted(table.starts, ranks, side="right") - 1
            acts[ranks] = _best_moves(table, s, ranks - table.starts[s])
        self._acts = acts
        self._starts = table.starts.tolist()
        self._arms = list(table.Z)
        self._tau = instance.tau
        self._pos = 0

    def start(self, rng) -> None:
        super().start(rng)
        self._pos = 0

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        s = t % self._tau
        if s == 0:
            self._pos = 0
        j = self._acts.item(self._starts[s] + self._pos, u)
        self._pos = self.table.next.item(j, self._pos)
        return self._arms[j]

    def plan_phases(self, arrivals: np.ndarray, first: int) -> np.ndarray:
        """Every phase's pulls, one vectorised table lookup per round of
        the phase; every phase plays alike, whatever its index (see
        :class:`~exposure_bandits.env.CommittedPolicy`)."""
        nxt = self.table.next
        arms = np.array(self._arms, dtype=np.int16)
        pos = np.zeros(arrivals.shape[0], dtype=np.intp)
        pulls = np.empty(arrivals.shape[::-1], dtype=np.int16)
        for r, u in enumerate(np.ascontiguousarray(arrivals.T)):
            j = self._acts[self._starts[r] + pos, u]
            pos = nxt[j, pos]
            pulls[r] = arms[j]
        return pulls.T


def dp_star(instance: Instance):
    """Search the nonempty subsets for the best committed value.

    Ties break toward smaller cardinality, then lexicographically (the
    enumeration order).  The search is
    :func:`~exposure_bandits.core.best_subset` with the bound
    tau * sum_u P_u * max_{a in Z} mu[u][a]: no phase policy earns more
    than the best arm of Z for each arriving type, so a subset whose
    bound falls below the best root found is never tabled, and the
    result is that of trying every subset.  Raises ResourceGuardError up
    front when the table of the largest feasible commitment (see
    :func:`largest_commitment`) exceeds the cap.
    """
    tau = instance.tau
    table_cells(tau, largest_commitment(instance.delta, tau))
    weighted = list(zip(instance.P, instance.mu))

    def bound(Z):
        return tau * sum(p * max(row[a] for a in Z) for p, row in weighted)

    def evaluate(Z):
        table = mer_table(Z, instance)
        return table.root_value, table

    Z, table = best_subset(instance, bound, evaluate)
    return frozenset(Z), table


def planned_total_value(instance: Instance, table: MerTable) -> float:
    """Expected total reward of replaying the committed phase policy for
    all T/tau phases: phases are i.i.d., so it is phases * root."""
    root = table.root_value
    if root is NEG_INF:
        raise InfeasibleError("infeasible commitment has no planned value")
    return instance.phases * root
