"""Confidence-floor phase policies and committed-subset selection.

Instead of re-solving per realized arrivals, these policies solve
assignments offline against shaved per-type counts (the floors hold with
high probability in every phase) and replay them online: each arriving
user consumes a unit from their own matching row, overflow arrivals
consume the slack row, and the rare phase where some floor is missed
falls back to salvaging the best live entry.

The three matching planners share one replay (:class:`LcbPolicy`) of a
plan of segments (:class:`PlanSegment`): a matching replayed for some
phases under the thresholds of the arms it keeps.  LCB (exhaustive
search over all 2^k - 1 subsets) and A-LCB (the k-step greedy, O(k^2)
solver calls and a (1 - 1/e) guarantee from submodularity) keep one
subset for every phase, one segment; L-LCB
(:class:`~exposure_bandits.lmatch.LlcbPolicy`) replays its multi-phase plan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    NEG_INF,
    ContractError,
    Instance,
    InfeasibleError,
    best_subset,
    validate,
)
from .env import CommittedPolicy
from .matching import Aggregate, Matching, _mu_eff, build_lcb_aggregate, doalg

__all__ = [
    "PlanSegment",
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


@dataclass(frozen=True)
class PlanSegment:
    """A run of consecutive phases that replay the same matching.

    ``matching`` pulls arms of the ``available`` set; ``kept`` is the
    set that survives each of its phases, whose thresholds it meets.
    """

    phases: int
    matching: Matching
    available: frozenset
    kept: frozenset


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


def lcb_replay(lengths, M, mu, deltas_eff, ustar: int, arrivals):
    """:func:`lcb_policy_step` for every phase at once, one vectorised
    step per round of the phase.

    Segment ``i`` covers the next ``lengths[i]`` of the ``(phases, tau)``
    ``arrivals``: each such phase starts from the matching ``M[i]`` and
    enforces the thresholds ``deltas_eff[i]``.  Rows, arms and ties follow
    :func:`lcb_policy_step`; the rare bad-event rounds go through its
    salvage, phase by phase.  Returns the ``(phases, tau)`` pulls and the
    1-based phases in which the salvage fired.
    """
    M = np.asarray(M, dtype=np.int64)
    _, rows, k = M.shape
    phases = len(arrivals)
    # arm-major live matching: entry (phase p, row r, arm a) sits at
    # live[a, p * rows + r]
    live = np.repeat(np.moveaxis(M, 2, 0), lengths, axis=1).reshape(k, phases * rows)
    mass = live.sum(axis=0)
    own_base = np.arange(phases) * rows
    slack_cell = own_base + ustar
    deficit = np.repeat(np.asarray(deltas_eff, dtype=np.int64).T, lengths, axis=1)
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
    """f(Z) = value of the optimal aggregate matching committed to Z.

    Each Z is solved once: the matching is cached, and ``f.matching(Z)``
    returns it (or NEG_INF), so a caller that commits to a queried Z
    need not solve it again.
    """
    if aggregate is None:
        aggregate = build_lcb_aggregate(instance.P, instance.tau)
    cache: dict[frozenset, object] = {}

    def matching(Z):
        Z = frozenset(Z)
        m = cache.get(Z)
        if m is None:
            m = cache[Z] = doalg(aggregate, Z, Z, instance)
        return m

    def f(Z):
        m = matching(Z)
        return NEG_INF if m is NEG_INF else m.value

    f.aggregate = aggregate
    f.matching = matching
    return f


def lcb_star(instance: Instance):
    """Exhaustive committed-subset search against the shaved aggregate.

    Returns (Z*, template matching); ties prefer smaller subsets, then
    lexicographic order.  The search is
    :func:`~exposure_bandits.core.best_subset` with the bound
    sum_r counts[r] * max_{a in Z} mu_eff[r][a] over the aggregate's rows
    (the slack row earns 0): every pull of a row goes to some arm of Z,
    so no matching committed to Z is worth more, a subset whose bound
    falls below the best value found is never solved, and the result is
    that of solving every subset.
    """
    validate(instance)
    aggregate = build_lcb_aggregate(instance.P, instance.tau)
    weighted = list(zip(aggregate.counts, _mu_eff(aggregate, instance)))

    def bound(Z):
        return sum(c * max(row[a] for a in Z) for c, row in weighted)

    def evaluate(Z):
        m = doalg(aggregate, frozenset(Z), frozenset(Z), instance)
        return m.value, m

    Z, m = best_subset(instance, bound, evaluate)
    return frozenset(Z), m


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


class LcbPolicy(CommittedPolicy):
    """Replay a plan's segments (:class:`PlanSegment`) phase after phase,
    with one live state per segment.  ``LcbPolicy`` itself commits to the
    subset ``Z`` :func:`lcb_star` finds and its ``template`` matching, one
    segment; subclasses pass other segments to :meth:`_commit`.

    ``bad_event_phases`` collects the 1-based phases whose arrivals
    missed some confidence floor (diagnosed by the fallback firing).
    """

    wants_feedback = False

    def __init__(self, instance: Instance):
        self.Z, self.template = lcb_star(instance)
        self._commit(instance, [PlanSegment(instance.phases, self.template, self.Z, self.Z)])

    def _commit(self, instance: Instance, segments) -> None:
        """Replay ``segments``, which cover the instance's phases in order."""
        self.instance = instance
        self.segments = tuple(segments)
        mu = [list(row) for row in instance.mu]
        self._states = [
            LcbState(
                seg.matching,
                mu,
                [instance.delta[a] if a in seg.kept else 0 for a in range(instance.k)],
                ustar=instance.n,
            )
            for seg in self.segments
        ]
        # the first phase index past each segment
        self._ends = list(accumulate(seg.phases for seg in self.segments))
        self._tau = instance.tau
        self.bad_event_phases: list[int] = []

    def start(self, rng) -> None:
        super().start(rng)
        self.bad_event_phases = []
        self._current = None

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        if t % self._tau == 0:
            self._current = self._states[bisect_right(self._ends, t // self._tau)]
            self._current.reset()
        state = self._current
        flagged = state.bad_event_flag
        arm = lcb_policy_step(state, u)
        if state.bad_event_flag and not flagged:
            self.bad_event_phases.append(t // self._tau + 1)
        return arm

    def plan_phases(self, arrivals: np.ndarray) -> np.ndarray:
        """Every phase's replay of its segment's matching at once,
        through :func:`lcb_replay` (see
        :class:`~exposure_bandits.env.CommittedPolicy`)."""
        segs, inst = self.segments, self.instance
        pulls, self.bad_event_phases = lcb_replay(
            [s.phases for s in segs], [s.matching.M for s in segs], inst.mu,
            [state.deltas_eff for state in self._states], inst.n, arrivals)
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
        template = oracle.matching(trace.chosen)
        if template is NEG_INF:
            raise ContractError("the greedy commitment has no feasible matching")
        self.Z, self.template, self.trace = trace.chosen, template, trace
        self._commit(instance, [PlanSegment(instance.phases, template, self.Z, self.Z)])
