"""Confidence-floor phase policies and committed-subset selection.

Instead of re-solving per realized arrivals, these policies solve
assignments offline against shaved per-type counts (the floors hold with
high probability in every phase) and replay them online: each arriving
user consumes a unit from their own matching row, overflow arrivals
consume the slack row, and the rare phase where some floor is missed
falls back to salvaging the best live entry.

The three matching planners share one replay (:class:`LcbPolicy`) of a
:class:`Plan` of segments (:class:`PlanSegment`): a matching replayed
for some phases under the thresholds of the arms it keeps.  LCB
(exhaustive search over all 2^k - 1 subsets) and A-LCB (the k-step
greedy, O(k^2) value calls and a (1 - 1/e) guarantee from
submodularity) keep one subset for every phase, one segment; L-LCB
(:class:`~exposure_bandits.lmatch.LlcbPolicy`) replays its multi-phase plan.
All three value their arm sets, as bit masks, and solve the matchings
they replay, through one :class:`~exposure_bandits.matching.SubsetPrices`
of the shaved aggregate, which prices or solves each pair once; their
searches compare its exact integer values, never floats.

:func:`lcb_replay` plays every phase at once.  A phase in which no type
is short of its own row's mass, under a matching whose rows have no tied
utilities, is a gather by arrival rank plus one sweep over the
arrivals that overflow to the slack row; it never falls back.  Every
other phase (a shortfall, or a tie, where the remaining deficits decide)
steps through :func:`lcb_policy_step`, one arrival at a time, salvage
included: the tie-break and the salvage have that one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from .core import (
    NEG_INF,
    ContractError,
    Instance,
    InfeasibleError,
    ResourceGuardError,
    arm_set,
    best_subset,
    subset_count,
)
from .env import LONGEST_EPISODE, CommittedPolicy
from .matching import Matching, SubsetPrices, build_lcb_aggregate, confidence_width

__all__ = [
    "PlanSegment",
    "Plan",
    "LcbState",
    "GreedyTrace",
    "lcb_policy_step",
    "lcb_replay",
    "lcb_star",
    "greedy_subset",
    "LcbPolicy",
    "AlcbPolicy",
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


@dataclass(frozen=True)
class Plan:
    """The segments a matching planner replays, covering the phases in
    order.  ``runs`` is the chain of surviving sets Z^0 ⊇ Z^1 ⊇ ... ⊇ Z^N
    as (set, phases) pairs, equal neighbours merged, and ``chain`` that
    chain one entry per phase.  The value is one exact integer sum over
    the phases, divided once: by the matchings' scale for
    ``total_value``, and by that times the phases for ``value_per_phase``.
    ``chain`` and ``total_value`` raise ``ResourceGuardError``, before
    building anything per phase, for a plan of more phases than the
    longest episode the simulator accepts has rounds.
    """

    segments: tuple[PlanSegment, ...]

    @property
    def runs(self) -> list[tuple[frozenset, int]]:
        sets = [(self.segments[0].available, 1)] + [(s.kept, s.phases) for s in self.segments]
        return [(z, sum(c for _, c in run)) for z, run in groupby(sets, key=lambda zc: zc[0])]

    def _guard(self) -> None:
        phases = sum(s.phases for s in self.segments)
        if phases > LONGEST_EPISODE:
            raise ResourceGuardError(
                f"a plan of {phases} phases is longer than any episode "
                f"the simulator accepts ({LONGEST_EPISODE} rounds)"
            )

    @property
    def chain(self) -> tuple[frozenset, ...]:
        self._guard()
        return tuple(z for z, c in self.runs for _ in range(c))

    def _value(self, phases: int) -> float:
        exact = sum(s.phases * s.matching.exact for s in self.segments)
        return exact / (self.segments[0].matching.scale * phases)

    @property
    def total_value(self) -> float:
        self._guard()
        return self._value(1)

    @property
    def value_per_phase(self) -> float:
        return self._value(sum(s.phases for s in self.segments))


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
    for u, pick in zip(np.ascontiguousarray(types.T, dtype=np.intp), picked):
        best.take(best_row + u, out=pick)
        at = left_row + pick
        left.ravel()[at] -= 1
        emptied = np.flatnonzero(left.ravel()[at] == 0)
        if len(emptied):
            best[emptied] = np.where(left[emptied, None] > 0, worth, -1.0).argmax(axis=2)
    return picked.T


def lcb_star(instance: Instance):
    """Exhaustive committed-subset search against the shaved aggregate.

    Returns (Z*, template matching); ties prefer smaller subsets, then
    the lowest mask.  The search is
    :func:`~exposure_bandits.core.best_subset` over the pairs' exact
    integer values (:meth:`~exposure_bandits.matching.SubsetPrices.exact`),
    with the bound U(Z), the most any matching on Z is worth, on the same
    scale (:meth:`~exposure_bandits.matching.SubsetPrices.free`): a subset
    that can at most tie one tried before is never valued, and the
    result is that of solving every subset.  A subset whose floors the
    slack row covers is worth U(Z) exactly, with no solve; only the
    others, and the winner's matching, are solved, each once.
    """
    prices = SubsetPrices(build_lcb_aggregate(instance.P, instance.tau), instance)
    Z, _ = best_subset(instance, prices.free, lambda Z: (prices.exact(Z, Z), None))
    return arm_set(Z), prices.matching(Z, Z)


@dataclass(frozen=True)
class GreedyTrace:
    """Record of one greedy subset-selection run: the best prefix, as a
    bit mask (0 when no commitment is feasible), and the number of
    values the greedy read."""

    chosen: int
    oracle_call_count: int


def greedy_subset(instance: Instance, value) -> GreedyTrace:
    """k rounds of marginal-gain greedy over arms, returning the best
    feasible nonempty prefix seen as a bit mask, ties toward the shorter
    prefix (the value function is not monotone: committing to an
    expensive arm can hurt, so the full-size set may not be the best).
    A prefix worth 0 still counts, so the greedy commits wherever some
    commitment is feasible, as :func:`lcb_star` does.

    ``value(mask)`` is the set's exact integer value, or NEG_INF, and
    the values compare exactly; a round's marginal ties go to the
    lowest arm.  Uses at most k(k+1)/2 <= k^2 + k value calls.
    Candidates valued at the sentinel are treated as marginal -inf;
    once every remaining candidate is infeasible the scan stops early
    (supersets of an infeasible commitment stay infeasible).
    """
    calls = 0
    chosen = best = 0
    best_value = None
    remaining = list(range(instance.k))
    while remaining:
        best_arm = None
        best_v = None
        for a in remaining:
            v = value(chosen | 1 << a)
            calls += 1
            if v is NEG_INF:
                continue
            if best_v is None or v > best_v:
                best_arm, best_v = a, v
        if best_arm is None:
            break
        chosen |= 1 << best_arm
        remaining.remove(best_arm)
        if best_value is None or best_v > best_value:
            best_value, best = best_v, chosen
    return GreedyTrace(chosen=best, oracle_call_count=calls)


class LcbPolicy(CommittedPolicy):
    """Replay a :class:`Plan` phase after phase, each phase from a fresh
    :class:`LcbState` of its segment's matching.  ``LcbPolicy`` itself
    commits to the subset ``Z`` :func:`lcb_star` finds and its
    ``template`` matching, a plan of one segment; subclasses pass other
    plans to :meth:`_commit`.

    ``bad_event_phases`` collects the 1-based phases whose arrivals
    missed some confidence floor (diagnosed by the fallback firing).
    One segment plays every phase alike, so the play never reads the
    horizon; a plan of several segments (``LlcbPolicy``) does.
    """

    horizon_free = True

    def __init__(self, instance: Instance):
        self.check(instance)
        self.Z, self.template = lcb_star(instance)
        segment = PlanSegment(instance.phases, self.template, self.Z, self.Z)
        self._commit(instance, Plan((segment,)))

    @classmethod
    def check(cls, sizes) -> None:
        """Raise what building would from the sizes alone (an Instance or
        Observables): ValueError for tau < 2 (:func:`confidence_width`),
        then ResourceGuardError past the subset cap (``subset_count``)."""
        confidence_width(sizes.tau)
        subset_count(sizes.k)

    def _commit(self, instance: Instance, plan: Plan) -> None:
        """Replay ``plan``, kept as ``self.plan``, over the instance."""
        self.instance = instance
        self.plan = plan
        # each segment's thresholds: those of the arms it keeps
        self._deltas = [
            [instance.delta[a] if a in seg.kept else 0 for a in range(instance.k)]
            for seg in plan.segments
        ]
        # the first phase index past each segment
        self._ends = list(accumulate(seg.phases for seg in plan.segments))
        self.bad_event_phases: list[int] = []

    def start(self, rng) -> None:
        super().start(rng)
        self.bad_event_phases = []

    def plan_phases(self, arrivals: np.ndarray, first: int) -> np.ndarray:
        """The replay of phases ``first`` on, each of its segment's
        matching, at once through :func:`lcb_replay` (see
        :class:`~exposure_bandits.env.CommittedPolicy`)."""
        last = first + len(arrivals)
        lengths, M, deltas = [], [], []
        for seg, seg_deltas, end in zip(self.plan.segments, self._deltas, self._ends):
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
    search, over the exact prices of the shaved aggregate's
    :class:`~exposure_bandits.matching.SubsetPrices`, instead of
    exhaustive enumeration; keeps the trace around for diagnostics."""

    def __init__(self, instance: Instance):
        self.check(instance)
        prices = SubsetPrices(build_lcb_aggregate(instance.P, instance.tau), instance)
        trace = greedy_subset(instance, lambda Z: prices.exact(Z, Z))
        if not trace.chosen:
            raise InfeasibleError("no viable commitment")
        template = prices.matching(trace.chosen, trace.chosen)
        if template is NEG_INF:
            raise ContractError("the greedy commitment has no feasible matching")
        self.Z, self.template, self.trace = arm_set(trace.chosen), template, trace
        segment = PlanSegment(instance.phases, template, self.Z, self.Z)
        self._commit(instance, Plan((segment,)))

    @classmethod
    def check(cls, sizes) -> None:
        """Only LCB's tau >= 2: the greedy tries no family of subsets, so
        it has no arm cap."""
        confidence_width(sizes.tau)
