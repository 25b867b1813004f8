"""Phase-optimal play for a committed arm subset, and subset selection.

For a committed subset Z the value function MER maps a within-phase pull
history (a count vector over Z) to the best expected reward obtainable in
the remaining rounds while still meeting every threshold of Z.  States
that cannot meet the remaining demand are a typed sentinel.  The
exhaustive planner evaluates MER's root for all 2^k - 1 subsets and
commits to the best, replaying the table greedily each round.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NEG_INF,
    Instance,
    InfeasibleError,
    ResourceGuardError,
    iter_subsets,
    validate,
)
from .env import CommittedPolicy

__all__ = [
    "MerTable",
    "table_cells",
    "mer_table",
    "dp_step",
    "dp_star",
    "planned_total_value",
    "DpPolicy",
]

TABLE_CELL_CAP = 10**7


def table_cells(tau: int, m: int) -> int:
    """Cells of the MER table over m committed arms, (tau+1)^m; raises
    ResourceGuardError when that exceeds TABLE_CELL_CAP."""
    size = (tau + 1) ** m
    if size > TABLE_CELL_CAP:
        raise ResourceGuardError(f"table of {size} cells exceeds cap {TABLE_CELL_CAP}")
    return size


class MerTable:
    """Backward-induction values over count vectors restricted to Z.

    The table is a flat float array indexed in mixed radix tau+1 per arm
    of Z; -inf encodes the infeasible sentinel internally, surfaced as
    NEG_INF at the API edge.  Immutable once built.
    """

    __slots__ = ("Z", "tau", "values", "strides", "state_count", "deltas", "_mu_cols")

    def __init__(self, Z, tau, values, strides, state_count, deltas, mu_cols):
        self.Z = Z  # sorted tuple of arms
        self.tau = tau
        self.values = values
        self.strides = strides
        self.state_count = state_count  # decision states: total <= tau-1
        self.deltas = deltas  # thresholds restricted to Z
        self._mu_cols = mu_cols  # mu restricted to Z, shape (n, |Z|)

    def index_of(self, counts) -> int:
        if len(counts) != len(self.Z):
            raise ValueError("counts must align with Z")
        return int(sum(c * s for c, s in zip(counts, self.strides)))

    def lookup(self, counts):
        v = self.values[self.index_of(counts)]
        return NEG_INF if v == -np.inf else float(v)

    @property
    def root_value(self):
        v = self.values[0]
        return NEG_INF if v == -np.inf else float(v)


def mer_table(Z, instance: Instance) -> MerTable:
    """Build the full value table for committed subset Z.

    A state is a vector of per-arm pull counts with total <= tau.  It is
    sentinel exactly when the remaining rounds cannot cover the remaining
    demand: tau - |H| < sum_a max(0, delta_a - H(a)).  Non-sentinel
    states follow the expectation-of-max recursion over arrival types.
    """
    validate(instance)
    Z = tuple(sorted(set(Z)))
    if not Z:
        raise ValueError("Z must be nonempty")
    if any(not 0 <= a < instance.k for a in Z):
        raise ValueError("arm index out of range")
    tau, n = instance.tau, instance.n
    m = len(Z)
    size = table_cells(tau, m)

    strides = tuple((tau + 1) ** j for j in range(m))
    idx = np.arange(size, dtype=np.int64)
    digits = np.empty((m, size), dtype=np.int32)
    rem = idx
    # mixed-radix digit j has stride (tau+1)^j, so divmod peels j ascending
    for j in range(m):
        rem, digits[j] = np.divmod(rem, tau + 1)
    totals = digits.sum(axis=0, dtype=np.int64)

    deficit = np.zeros(size, dtype=np.int64)
    for j, a in enumerate(Z):
        deficit += np.maximum(instance.delta[a] - digits[j], 0)
    sentinel = (tau - totals) < deficit

    values = np.full(size, -np.inf, dtype=np.float64)
    values[(totals == tau) & ~sentinel] = 0.0

    mu_cols = np.asarray(instance.mu, dtype=np.float64)[:, list(Z)]
    P = np.asarray(instance.P, dtype=np.float64)

    order = np.argsort(totals, kind="stable")
    sorted_totals = totals[order]
    bounds = np.searchsorted(sorted_totals, np.arange(tau + 2))
    for s in range(tau - 1, -1, -1):
        layer = order[bounds[s] : bounds[s + 1]]
        layer = layer[~sentinel[layer]]
        if layer.size == 0:
            continue
        # succ[j] = value after one more pull of Z[j]
        succ = np.empty((layer.size, m), dtype=np.float64)
        for j in range(m):
            succ[:, j] = values[layer + strides[j]]
        # E_u[ max_j mu[u][Z_j] + succ_j ]
        exp = np.zeros(layer.size, dtype=np.float64)
        for u in range(n):
            exp += P[u] * (succ + mu_cols[u]).max(axis=1)
        values[layer] = exp

    state_count = int((totals <= tau - 1).sum())
    deltas = tuple(instance.delta[a] for a in Z)
    return MerTable(Z, tau, values, strides, state_count, deltas, mu_cols)


def _best_moves(table: MerTable, states: np.ndarray) -> np.ndarray:
    """The arm to pull at each of ``states`` for every arriving type u, as
    an int8 array of indices into Z with one row per state and one column
    per type.

    ``states`` are flat indices of decision states (non-sentinel, fewer
    than tau pulls).  The pull maximizes mu[u][a] + value(counts + e_a)
    over Z; ties break toward the largest remaining deficit
    delta_a - counts[a], then the smallest arm index.
    """
    m = len(table.Z)
    succ = np.empty((states.size, m), dtype=np.float64)
    tie_key = np.empty((states.size, m), dtype=np.int64)
    for j, (stride, delta) in enumerate(zip(table.strides, table.deltas)):
        succ[:, j] = table.values[states + stride]
        deficit = np.maximum(delta - states // stride % (table.tau + 1), 0)
        tie_key[:, j] = deficit * m + (m - 1 - j)
    mu_cols = table._mu_cols
    acts = np.empty((states.size, mu_cols.shape[0]), dtype=np.int8)
    for u, mu_u in enumerate(mu_cols):
        scores = succ + mu_u
        cand = scores == scores.max(axis=1, keepdims=True)
        acts[:, u] = np.where(cand, tie_key, -1).argmax(axis=1)
    return acts


def dp_step(table: MerTable, counts, u: int) -> int:
    """Arm to pull now at within-phase counts over Z, by the rule of
    :func:`_best_moves`.  Calling this on a sentinel state or an exhausted
    phase raises ValueError.
    """
    base = table.index_of(counts)
    if table.values[base] == -np.inf:
        raise ValueError("dp_step called on an infeasible state")
    if sum(counts) >= table.tau:
        raise ValueError("phase already exhausted")
    return table.Z[int(_best_moves(table, np.array([base]))[0, u])]


class DpPolicy(CommittedPolicy):
    """Round-by-round policy committing to the best subset up front.

    The per-(state, type) choice of :func:`_best_moves` is precomputed for
    every decision state into one flat int8 action table, so a round costs
    one table lookup; :meth:`plan_phases` makes that lookup for every
    phase of an episode at once.
    """

    wants_feedback = False

    def __init__(self, instance: Instance):
        Z, table = dp_star(instance)
        self.instance = instance
        self.Z = Z
        self.table = table
        n = instance.n
        # decision states: feasible, with fewer than tau pulls so far
        states = np.flatnonzero(table.values != -np.inf)
        totals = sum(states // s % (table.tau + 1) for s in table.strides)
        states = states[totals < table.tau]
        acts = np.zeros((table.values.size, n), dtype=np.int8)
        acts[states] = _best_moves(table, states)
        # row-major: the entry of (state, u) sits at state * n + u
        self._acts = acts.ravel()
        self._arms = list(table.Z)
        self._strides = [s * n for s in table.strides]
        self._tau = instance.tau
        self._state = 0

    def start(self, rng) -> None:
        super().start(rng)
        self._state = 0

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        if t % self._tau == 0:
            self._state = 0
        j = self._acts.item(self._state + u)
        self._state += self._strides[j]
        return self._arms[j]

    def plan_phases(self, arrivals: np.ndarray) -> np.ndarray:
        """Every phase's pulls, one vectorised table lookup per round of
        the phase (see :class:`~exposure_bandits.env.CommittedPolicy`)."""
        strides = np.array(self._strides, dtype=np.intp)
        arms = np.array(self._arms, dtype=np.int16)
        state = np.zeros(arrivals.shape[0], dtype=np.intp)
        pulls = np.empty(arrivals.shape[::-1], dtype=np.int16)
        for r, u in enumerate(np.ascontiguousarray(arrivals.T)):
            j = self._acts[state + u]
            state += strides[j]
            pulls[r] = arms[j]
        return pulls.T


def dp_star(instance: Instance):
    """Search all nonempty subsets for the best committed value.

    Ties break toward smaller cardinality, then lexicographically (the
    enumeration order).  Raises InfeasibleError when every subset is
    infeasible (even the cheapest threshold exceeds tau).
    """
    validate(instance)
    if instance.k > 16:
        raise ResourceGuardError("2^k subset enumeration limited to k <= 16")
    best_Z = None
    best_table = None
    best_value = None
    for Z in iter_subsets(instance.k):
        table = mer_table(Z, instance)
        v = table.root_value
        if v is NEG_INF:
            continue
        if best_value is None or v > best_value:
            best_Z, best_table, best_value = Z, table, v
    if best_Z is None:
        raise InfeasibleError("every commitment is infeasible for this instance")
    return frozenset(best_Z), best_table


def planned_total_value(instance: Instance, table: MerTable) -> float:
    """Expected total reward of replaying the committed phase policy for
    all T/tau phases: phases are i.i.d., so it is phases * root."""
    root = table.root_value
    if root is NEG_INF:
        raise InfeasibleError("infeasible commitment has no planned value")
    return instance.phases * root
