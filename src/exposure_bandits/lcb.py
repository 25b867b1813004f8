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

:func:`lcb_replay` plays every phase at once.  A phase in which no type
is short of its own row's mass, under a matching whose rows have no tied
utilities, is a gather by arrival rank plus one sweep over the
arrivals that overflow to the slack row; it never falls back.  Every
other phase (a shortfall, or a tie, where the remaining deficits decide)
steps through :func:`lcb_policy_step`, one arrival at a time, salvage
included: the tie-break and the salvage have that one implementation.
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
)
from .env import CommittedPolicy
from .matching import Matching, _mu_eff, build_lcb_aggregate, doalg

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
    """Live state of one phase of the replayed matching, built fresh for
    each phase from the matching's ``rows``: one per type, then the slack
    row (see :func:`_check_rows`).

    ``M_live`` counts down from the rows; the total remaining mass
    always equals the rounds left in the phase, which is what guarantees
    the step function can always pick something.
    """

    __slots__ = (
        "M_live",
        "row_mass",
        "bad_event_flag",
        "phase_pulls",
        "deltas_eff",
        "mu",
        "k",
    )

    def __init__(self, rows, mu, deltas_eff):
        _check_rows(rows, mu)
        self.M_live = [list(row) for row in rows]  # pulls per arm
        self.row_mass = [sum(row) for row in self.M_live]
        self.mu = mu
        self.deltas_eff = deltas_eff  # committed thresholds, 0 elsewhere
        self.k = len(deltas_eff)
        self.phase_pulls = [0] * self.k
        self.bad_event_flag = False


def _check_rows(rows, mu) -> None:
    """Raise ValueError unless ``rows`` holds one row per type, then the
    slack row: else the last type's own row would be read as slack."""
    if len(rows) != len(mu) + 1:
        raise ValueError(f"{len(rows)} matching rows for {len(mu)} types and the slack row")


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
    elif mass[-1] > 0:
        row = len(M) - 1
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


def lcb_replay(lengths, M, mu, deltas_eff, arrivals):
    """:func:`lcb_policy_step` for every phase at once.

    Segment ``i`` covers the next ``lengths[i]`` of the ``(phases, tau)``
    ``arrivals``: each such phase starts from the matching ``M[i]``, its
    rows laid out as :class:`LcbState`'s, and enforces the thresholds
    ``deltas_eff[i]``.  Returns the ``(phases, tau)`` pulls and the
    1-based phases in which the salvage fired.

    A phase in which no type is short of its own row's mass, under a
    matching whose rows have no tied utilities, is a gather on arrival
    rank (:func:`_rank_replay`); every other phase steps through
    :func:`lcb_policy_step` (:func:`_step_phases`).
    """
    M = np.asarray(M, dtype=np.int64)
    mu = np.asarray(mu, dtype=np.float64)
    pulls = np.empty(arrivals.shape, dtype=np.int16)
    fired: list[int] = []
    lo = 0
    for length, Ms, deltas in zip(lengths, M, deltas_eff):
        _check_rows(Ms, mu)
        phases = slice(lo, lo + length)
        ranked = _rank_replay(Ms, mu, arrivals[phases], pulls[phases])
        refused = lo + np.flatnonzero(~ranked)
        if len(refused):
            stepped, salvaged = _step_phases(
                Ms.tolist(), mu.tolist(), deltas, arrivals[refused])
            pulls[refused] = stepped
            fired += (refused[salvaged] + 1).tolist()
        lo += length
    return pulls, fired


def _step_phases(rows, mu, deltas_eff, arrivals):
    """Replay each phase of ``arrivals`` from the matching ``rows``, one
    :func:`lcb_policy_step` per arrival.  Returns the pulls, one list per
    phase, and the 0-based phases in which the salvage fired."""
    pulls, fired = [], []
    for p, phase in enumerate(arrivals.tolist()):
        state = LcbState(rows, mu, deltas_eff)
        pulls.append([lcb_policy_step(state, u) for u in phase])
        if state.bad_event_flag:
            fired.append(p)
    return pulls, fired


def _rank_replay(Ms, mu, arrivals, out):
    """Write into ``out`` the pulls of the phases of ``arrivals`` in
    which no type is short of its row of the matching ``Ms``, and return
    which phases those are; none when the matching's mass is not the
    phase length, or some type's utilities tie over the arms of its own
    row or of the slack row, where the deficits decide.

    In such a phase the overflow arrivals number exactly the slack
    row's mass, so the slack row never runs dry and the salvage never
    fires; and with no tied utilities a row serves its arms in one
    fixed order, whatever the deficits.  So type u's c-th arrival takes
    the c-th unit of row u, its arms sorted best first, one gather by
    arrival rank; only the overflow arrivals, served from the slack row,
    depend on each other (:func:`_slack_sweep`).
    """
    phases, tau = arrivals.shape
    n, k = mu.shape
    if Ms.sum() != tau:
        return np.zeros(phases, dtype=bool)
    slack_arms = np.flatnonzero(Ms[-1])
    # past its row's mass an arrival overflows to the slack row: a lone
    # slack arm serves it at once, several leave the marker k for the
    # sweep
    table = np.full((n, tau + 1), slack_arms[0] if len(slack_arms) == 1 else k,
                    dtype=np.int16)
    for u in range(n):
        support = np.flatnonzero(Ms[u])
        for arms in (support, slack_arms):
            if len(np.unique(mu[u, arms])) < len(arms):
                return np.zeros(phases, dtype=bool)
        order = support[np.argsort(-mu[u, support])]
        table[u, 1 : Ms[u].sum() + 1] = np.repeat(order, Ms[u, order])
    counts = np.empty((phases, n), dtype=np.intp)
    # type u's c-th arrival reads entry u * (tau + 1) + c of the table
    index = arrivals.astype(_counter(n * (tau + 1)))
    index *= tau + 1
    # each type's running count: one cumulative sum per type but the
    # last, whose count is the rounds so far less the others'
    last = np.tile(np.arange(1, tau + 1, dtype=_counter(tau)), (phases, 1))
    for u in range(n):
        if u < n - 1:
            so_far = np.cumsum(arrivals == u, axis=1, dtype=last.dtype)
            last -= so_far
        else:
            so_far = last
        counts[:, u] = so_far[:, -1]
        so_far *= arrivals == u
        index += so_far
    table.take(index, out=out)
    clean = (counts >= Ms[:n].sum(axis=1)).all(axis=1)
    if len(slack_arms) > 1 and clean.any():
        overflow = (out == k) & clean[:, None]
        types = arrivals[overflow].reshape(-1, Ms[-1].sum())
        picks = _slack_sweep(types, Ms[-1, slack_arms], mu[:, slack_arms])
        out[overflow] = slack_arms[picks].ravel()
    return clean


def _counter(largest: int):
    """The narrowest integer type that counts up to ``largest``."""
    return np.int16 if largest < 2**15 else np.int32


def _slack_sweep(types, units, worth) -> np.ndarray:
    """Which slack arm each phase's overflow arrivals take, as indices
    into the slack row's arms, whose ``units`` the rows of ``types`` (the
    arrivals' types in order of arrival) exhaust; ``worth[u]`` holds type
    u's utility for each arm, no two equal.

    Each arrival takes its type's best slack arm with units left: one
    step per column, over every phase at once.  A phase keeps each
    type's best arm with units left, and finds them again only after a
    pick empties an arm, at most once per arm.
    """
    phases, width = types.shape
    left = np.tile(units, (phases, 1))
    best = np.tile(worth.argmax(axis=1), (phases, 1))
    # flat offsets of each phase's row of ``best`` and of ``left``
    best_row, left_row = np.arange(phases) * len(worth), np.arange(phases) * len(units)
    picked = np.empty((width, phases), dtype=np.intp)
    for u, pick in zip(types.T.astype(np.intp), picked):
        best.take(best_row + u, out=pick)
        at = left_row + pick
        left.ravel()[at] -= 1
        emptied = np.flatnonzero(left.ravel()[at] == 0)
        if len(emptied):
            best[emptied] = np.where(left[emptied, None] > 0, worth, -1.0).argmax(axis=2)
    return picked.T


def subset_value_oracle(instance: Instance):
    """f(Z) = value of the optimal matching of the shaved aggregate
    committed to Z.

    Each Z is solved once: the matching is cached, and ``f.matching(Z)``
    returns it (or NEG_INF), so a caller that commits to a queried Z
    need not solve it again.
    """
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
    each phase from a fresh :class:`LcbState` of its segment's matching.
    ``LcbPolicy`` itself commits to the subset ``Z`` :func:`lcb_star`
    finds and its ``template`` matching, one segment; subclasses pass
    other segments to :meth:`_commit`.

    ``bad_event_phases`` collects the 1-based phases whose arrivals
    missed some confidence floor (diagnosed by the fallback firing).
    One segment plays every phase alike, so the play never reads the
    horizon; a plan of several segments (``LlcbPolicy``) does.
    """

    horizon_free = True

    def __init__(self, instance: Instance):
        self.Z, self.template = lcb_star(instance)
        self._commit(instance, [PlanSegment(instance.phases, self.template, self.Z, self.Z)])

    def _commit(self, instance: Instance, segments) -> None:
        """Replay ``segments``, which cover the instance's phases in order."""
        self.instance = instance
        self.segments = tuple(segments)
        self._mu = [list(row) for row in instance.mu]
        # each segment's thresholds: those of the arms it keeps
        self._deltas = [
            [instance.delta[a] if a in seg.kept else 0 for a in range(instance.k)]
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
            i = bisect_right(self._ends, t // self._tau)
            self._current = LcbState(self.segments[i].matching.M, self._mu, self._deltas[i])
        state = self._current
        flagged = state.bad_event_flag
        arm = lcb_policy_step(state, u)
        if state.bad_event_flag and not flagged:
            self.bad_event_phases.append(t // self._tau + 1)
        return arm

    def plan_phases(self, arrivals: np.ndarray, first: int) -> np.ndarray:
        """The replay of phases ``first`` on, each of its segment's
        matching, at once through :func:`lcb_replay` (see
        :class:`~exposure_bandits.env.CommittedPolicy`)."""
        last = first + len(arrivals)
        lengths, M, deltas = [], [], []
        for seg, seg_deltas, end in zip(self.segments, self._deltas, self._ends):
            overlap = min(end, last) - max(end - seg.phases, first)
            if overlap > 0:
                lengths.append(overlap)
                M.append(seg.matching.M)
                deltas.append(seg_deltas)
        pulls, fired = lcb_replay(lengths, M, self.instance.mu, deltas, arrivals)
        self.bad_event_phases += [p + first for p in fired]
        return pulls


class AlcbPolicy(LcbPolicy):
    """Same replay as LcbPolicy, but the subset comes from the greedy
    search instead of exhaustive enumeration; keeps the trace around
    for diagnostics."""

    def __init__(self, instance: Instance):
        oracle = subset_value_oracle(instance)
        trace = greedy_subset(instance, oracle)
        if not trace.chosen:
            raise InfeasibleError("no viable commitment")
        template = oracle.matching(trace.chosen)
        if template is NEG_INF:
            raise ContractError("the greedy commitment has no feasible matching")
        self.Z, self.template, self.trace = trace.chosen, template, trace
        self._commit(instance, [PlanSegment(instance.phases, template, self.Z, self.Z)])
