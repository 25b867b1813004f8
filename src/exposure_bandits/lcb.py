"""Confidence-floor phase policies and committed-subset selection.

Instead of re-solving per realized arrivals, these policies solve one
assignment offline against shaved per-type counts (the floors hold with
high probability in every phase) and replay it online: each arriving
user consumes a unit from their own matching row, overflow arrivals
consume the slack row, and the rare phase where some floor is missed
falls back to salvaging the best live entry.

Subset selection comes in two flavors: exhaustive search over all
2^k - 1 subsets, and the k-step greedy that needs only O(k^2) solver
calls and inherits a (1 - 1/e) guarantee from submodularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    NEG_INF,
    ContractError,
    Instance,
    InfeasibleError,
    ResourceGuardError,
    iter_subsets,
    validate,
)
from .env import Policy
from .matching import Aggregate, Matching, build_lcb_aggregate, doalg

__all__ = [
    "LcbState",
    "GreedyTrace",
    "lcb_policy_step",
    "lcb_replay",
    "lcb_star",
    "greedy_subset",
    "LcbPolicy",
    "AlcbPolicy",
    "subset_value_oracle",
]


class LcbState:
    """Live within-phase state of the replayed matching.

    ``M_live`` counts down from the template; the total remaining mass
    always equals the rounds left in the phase, which is what guarantees
    the step function can always pick something.
    """

    __slots__ = (
        "M_template",
        "M_live",
        "row_mass",
        "bad_event_flag",
        "phase_pulls",
        "deltas_eff",
        "mu",
        "ustar",
        "k",
    )

    def __init__(self, template: Matching, mu, deltas_eff, ustar: int):
        self.M_template = template
        self.mu = mu
        self.deltas_eff = deltas_eff  # committed thresholds, 0 elsewhere
        self.ustar = ustar  # slack row index, -1 when absent
        self.k = len(deltas_eff)
        self.reset()

    def reset(self) -> None:
        self.M_live = [list(row) for row in self.M_template.M]
        self.row_mass = [sum(row) for row in self.M_live]
        self.phase_pulls = [0] * self.k
        self.bad_event_flag = False


def lcb_policy_step(state: LcbState, u: int) -> int:
    """Serve one arrival from the live matching and return the arm.

    Row choice: the arrival's own row while it has mass, else the slack
    row, else (bad event) any row with mass.  Arm choice within the row
    maximizes the *actual* arriving type's utility; ties prefer the arm
    with the largest remaining committed deficit, then the smallest
    index.  The bad-event salvage maximizes the same utility over all
    live (row, arm) entries, ties toward smallest row then arm.
    """
    M = state.M_live
    mass = state.row_mass
    if mass[u] > 0:
        row = u
    elif state.ustar >= 0 and mass[state.ustar] > 0:
        row = state.ustar
    else:
        state.bad_event_flag = True
        row, arm = _salvage(M, mass, state.mu[u])
        M[row][arm] -= 1
        mass[row] -= 1
        state.phase_pulls[arm] += 1
        return arm

    mu_u = state.mu[u]
    Mr = M[row]
    arm = -1
    best = -1.0
    best_deficit = -1
    pulls = state.phase_pulls
    deltas = state.deltas_eff
    for a in range(state.k):
        if Mr[a] > 0:
            s = mu_u[a]
            if s > best:
                arm, best = a, s
                d = deltas[a] - pulls[a]
                best_deficit = d if d > 0 else 0
            elif s == best:
                d = deltas[a] - pulls[a]
                if d < 0:
                    d = 0
                if d > best_deficit:
                    arm, best_deficit = a, d
    Mr[arm] -= 1
    mass[row] -= 1
    pulls[arm] += 1
    return arm


def _salvage(M, mass, mu_u) -> tuple[int, int]:
    """The bad-event pick: the live (row, arm) entry of the matching ``M``
    with the highest utility ``mu_u[arm]``, ties toward the smallest row,
    then the smallest arm."""
    row = arm = -1
    best = -1.0
    for r in range(len(M)):
        if mass[r] <= 0:
            continue
        Mr = M[r]
        for a in range(len(Mr)):
            if Mr[a] > 0:
                s = mu_u[a]
                if s > best:
                    best, row, arm = s, r, a
    return row, arm


def lcb_replay(M, mu, deltas_eff, ustar: int, arrivals):
    """:func:`lcb_policy_step` for every phase at once, one vectorised
    step per round of the phase.

    ``M`` is the matching each phase starts from, of shape
    ``(phases, rows, k)``; ``deltas_eff`` holds the enforced thresholds,
    one row for all phases or one per phase; ``arrivals`` has shape
    ``(phases, tau)``.  Rows, arms and ties follow
    :func:`lcb_policy_step`; the rare bad-event rounds go through its
    salvage, phase by phase.  Returns the ``(phases, tau)`` pulls and the
    1-based phases in which the salvage fired.
    """
    phases, rows, k = M.shape
    # arm-major live matching: entry (phase p, row r, arm a) sits at
    # live[a, p * rows + r]
    live = np.array(np.moveaxis(M, 2, 0), dtype=np.int64, order="C")
    live = live.reshape(k, phases * rows)
    mass = live.sum(axis=0)
    own_base = np.arange(phases) * rows
    slack_cell = own_base + ustar
    deficit = np.array(
        np.broadcast_to(deltas_eff, (phases, k)).T, dtype=np.int64, order="C"
    )
    arm_base = np.arange(phases)
    mu = np.asarray(mu, dtype=np.float64)
    # an entry's key orders it like lcb_policy_step does: by utility (its
    # rank among mu's distinct values), then by remaining deficit; arms
    # are scanned upward and only a strictly larger key wins, so ties go
    # to the smaller arm
    _, rank = np.unique(mu, return_inverse=True)
    util_key = rank.reshape(mu.shape).T * (int(deficit.max(initial=0)) + 1)
    fired = np.zeros(phases, dtype=bool)
    pulls = np.empty(arrivals.shape[::-1], dtype=np.int16)
    for r, u in enumerate(np.ascontiguousarray(arrivals.T, dtype=np.intp)):
        cell = own_base + u
        own = mass[cell] > 0
        bad = None
        if not own.all():
            bad = ~own
            if ustar >= 0:
                cell = np.where(own, cell, slack_cell)
                bad &= mass[slack_cell] <= 0
        best = np.where(live[0, cell] > 0, util_key[0, u] + deficit[0], -1)
        arm = np.zeros(phases, dtype=np.intp)
        for a in range(1, k):
            key = np.where(live[a, cell] > 0, util_key[a, u] + deficit[a], -1)
            arm[key > best] = a
            np.maximum(best, key, out=best)
        if bad is not None and bad.any():
            fired |= bad
            for p in np.flatnonzero(bad).tolist():
                cells = slice(p * rows, (p + 1) * rows)
                row, arm[p] = _salvage(live[:, cells].T, mass[cells], mu[u[p]])
                cell[p] = own_base[p] + row
        live[arm, cell] -= 1
        mass[cell] -= 1
        deficit[arm, arm_base] = np.maximum(deficit[arm, arm_base] - 1, 0)
        pulls[r] = arm
    return pulls.T, (np.flatnonzero(fired) + 1).tolist()


def subset_value_oracle(instance: Instance, aggregate: Aggregate | None = None):
    """f(Z) = value of the optimal aggregate matching committed to Z,
    with results cached across calls (the greedy re-queries prefixes)."""
    if aggregate is None:
        aggregate = build_lcb_aggregate(instance.P, instance.tau)
    cache: dict[frozenset, object] = {}

    def f(Z):
        Z = frozenset(Z)
        if Z in cache:
            return cache[Z]
        m = doalg(aggregate, Z, Z, instance)
        v = NEG_INF if m is NEG_INF else m.value
        cache[Z] = v
        return v

    f.aggregate = aggregate
    return f


def lcb_star(instance: Instance):
    """Exhaustive committed-subset search against the shaved aggregate.

    Returns (Z*, template matching); ties prefer smaller subsets, then
    lexicographic order.
    """
    validate(instance)
    if instance.k > 16:
        raise ResourceGuardError("2^k subset enumeration limited to k <= 16")
    aggregate = build_lcb_aggregate(instance.P, instance.tau)
    best_Z = None
    best_m = None
    best_v = None
    for Z in iter_subsets(instance.k):
        m = doalg(aggregate, frozenset(Z), frozenset(Z), instance)
        if m is NEG_INF:
            continue
        if best_v is None or m.value > best_v:
            best_Z, best_m, best_v = Z, m, m.value
    if best_Z is None:
        raise InfeasibleError("every commitment is infeasible for this instance")
    return frozenset(best_Z), best_m


@dataclass(frozen=True)
class GreedyTrace:
    """Record of one greedy subset-selection run."""

    order: tuple[int, ...]  # arms in the order added
    prefix_values: tuple  # f of each prefix, starting with f(empty)=0
    chosen: frozenset  # best prefix
    oracle_call_count: int


def greedy_subset(instance: Instance, oracle) -> GreedyTrace:
    """k rounds of marginal-gain greedy over arms, returning the best
    feasible nonempty prefix seen, ties toward the shorter prefix (the
    value function is not monotone: committing to an expensive arm can
    hurt, so the full-size set may not be the best).  A prefix worth 0
    still counts, so the greedy commits wherever some commitment is
    feasible, as :func:`lcb_star` does.

    Uses at most k(k+1)/2 <= k^2 + k oracle calls.  Candidates valued
    at the sentinel are treated as marginal -inf; once every remaining
    candidate is infeasible the scan stops early (supersets of an
    infeasible commitment stay infeasible).
    """
    k = instance.k
    calls = 0
    chosen: list[int] = []
    prefix_values: list = [0.0]
    best_len = 0
    best_value = None
    remaining = list(range(k))
    while remaining:
        best_arm = None
        best_v = None
        for a in remaining:
            v = oracle(frozenset(chosen + [a]))
            calls += 1
            if v is NEG_INF:
                continue
            if best_v is None or v > best_v:
                best_arm, best_v = a, v
        if best_arm is None:
            break
        chosen.append(best_arm)
        remaining.remove(best_arm)
        prefix_values.append(best_v)
        if best_value is None or best_v > best_value:
            best_value = best_v
            best_len = len(chosen)
    return GreedyTrace(
        order=tuple(chosen),
        prefix_values=tuple(prefix_values),
        chosen=frozenset(chosen[:best_len]),
        oracle_call_count=calls,
    )


class LcbPolicy(Policy):
    """Replay the committed-subset matching phase after phase.

    ``bad_event_phases`` collects the 1-based phases whose arrivals
    missed some confidence floor (diagnosed by the fallback firing).
    """

    wants_feedback = False

    def __init__(self, instance: Instance, Z=None, template: Matching | None = None):
        """Commit to ``Z`` with its ``template`` matching when both are
        given, else to the commitment :func:`lcb_star` finds."""
        validate(instance)
        self.instance = instance
        if Z is None:
            Z, template = lcb_star(instance)
        self.Z = frozenset(Z)
        self.template = template
        deltas_eff = [
            instance.delta[a] if a in self.Z else 0 for a in range(instance.k)
        ]
        mu = [list(row) for row in instance.mu]
        self.state = LcbState(template, mu, deltas_eff, ustar=instance.n)
        self._tau = instance.tau
        self.bad_event_phases: list[int] = []

    def start(self, rng) -> None:
        self.state.reset()
        self.bad_event_phases = []

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        state = self.state
        if t % self._tau == 0:
            state.reset()
        flagged = state.bad_event_flag
        arm = lcb_policy_step(state, u)
        if state.bad_event_flag and not flagged:
            self.bad_event_phases.append(t // self._tau + 1)
        return arm

    def play_phases(self, arrivals: np.ndarray) -> np.ndarray:
        """Every phase's replay of the template at once, through
        :func:`lcb_replay` (see :class:`~exposure_bandits.env.Policy`)."""
        state = self.state
        template = np.asarray(self.template.M)
        M = np.broadcast_to(template, (arrivals.shape[0], *template.shape))
        pulls, self.bad_event_phases = lcb_replay(
            M, state.mu, state.deltas_eff, state.ustar, arrivals
        )
        return pulls


class AlcbPolicy(LcbPolicy):
    """Same replay as LcbPolicy, but the subset comes from the greedy
    search instead of exhaustive enumeration; keeps the trace around
    for diagnostics."""

    def __init__(self, instance: Instance):
        validate(instance)
        oracle = subset_value_oracle(instance)
        trace = greedy_subset(instance, oracle)
        if not trace.chosen:
            raise InfeasibleError("no viable commitment")
        template = doalg(oracle.aggregate, trace.chosen, trace.chosen, instance)
        if template is NEG_INF:
            raise ContractError("the greedy commitment has no feasible matching")
        super().__init__(instance, Z=trace.chosen, template=template)
        self.trace = trace
