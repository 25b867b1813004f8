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
utilities, is a gather by arrival rank plus a few epochs for the
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
    """Live within-phase state of the replayed matching, whose ``rows``
    are one per type, then the slack row (see :func:`_check_rows`).

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
        "k",
    )

    def __init__(self, rows, mu, deltas_eff):
        _check_rows(rows, mu)
        self.M_template = rows  # the matching's rows, pulls per arm
        self.mu = mu
        self.deltas_eff = deltas_eff  # committed thresholds, 0 elsewhere
        self.k = len(deltas_eff)
        self.reset()

    def reset(self) -> None:
        self.M_live = [list(row) for row in self.M_template]
        self.row_mass = [sum(row) for row in self.M_live]
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
    state = LcbState(rows, mu, deltas_eff)
    pulls, fired = [], []
    for p, phase in enumerate(arrivals.tolist()):
        state.reset()
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
    depend on each other (:func:`_slack_epochs`).
    """
    phases, tau = arrivals.shape
    n, k = mu.shape
    if Ms.sum() != tau:
        return np.zeros(phases, dtype=bool)
    slack_arms = np.flatnonzero(Ms[-1])
    # past its row's mass an arrival overflows to the slack row: a lone
    # slack arm serves it at once, several leave the marker k for the
    # epochs
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
    for u, so_far in enumerate(_running_counts(arrivals, n)):
        counts[:, u] = so_far[:, -1]
        so_far *= arrivals == u
        index += so_far
    table.take(index, out=out)
    clean = (counts >= Ms[:n].sum(axis=1)).all(axis=1)
    if len(slack_arms) < 2 or not clean.any():
        return clean
    every = clean.all()
    block = out if every else out[clean]
    overflow = np.flatnonzero(block == k)
    types = (arrivals if every else arrivals[clean]).take(overflow)
    prefs = [np.argsort(-mu[u, slack_arms]) for u in range(n)]
    slots = _slack_epochs(types.reshape(len(block), -1), Ms[-1, slack_arms], prefs)
    block.ravel()[overflow] = slack_arms[slots].ravel()
    if not every:
        out[clean] = block
    return clean


def _running_counts(labels, count: int):
    """Yield, for each label in ``range(count)``, its running count along
    the rows of ``labels``, in the narrowest integer type that holds the
    row length: one cumulative sum per label but the last, whose count
    is the entries so far less the others'."""
    width = labels.shape[1]
    dtype = _counter(width)
    last = np.tile(np.arange(1, width + 1, dtype=dtype), (len(labels), 1))
    for u in range(count - 1):
        so_far = np.cumsum(labels == u, axis=1, dtype=dtype)
        last -= so_far
        yield so_far
    yield last


def _counter(largest: int):
    """The narrowest integer type that counts up to ``largest``."""
    return np.int16 if largest < 2**15 else np.int32


def _slack_epochs(types, units, prefs) -> np.ndarray:
    """Which slack arm each phase's overflow arrivals take, as indices
    into the slack row's arms, whose ``units`` the rows of ``types`` (the
    arrivals' types in order of arrival) exhaust; ``prefs[u]`` ranks the
    arms by type u's utility, best first.

    Each arrival takes its type's best slack arm with units left.  That
    runs in epochs, each vectorised over phases: every type keeps one
    arm up to the first arrival whose arm's demand in the epoch exceeds
    the arm's units left; the next epoch starts from that arrival.  An
    epoch that does not end the phase empties an arm, so a phase takes
    at most one epoch per slack arm.
    """
    phases, width = types.shape
    mine = [(types == u).astype(np.int16) for u in range(len(prefs))]
    picked = np.empty(types.shape, dtype=np.int16)
    # wide enough for units left plus the demand before an epoch
    left = np.tile(units.astype(_counter(2 * width)), (phases, 1))
    start = np.zeros(phases, dtype=np.intp)
    alive = np.arange(phases)
    cols = np.arange(width)
    while len(alive):
        # each type's best slack arm with units left
        pick = np.zeros((len(alive), width), dtype=np.int16)
        for u, pref in enumerate(prefs):
            choice = np.zeros(len(alive), dtype=np.int16)
            for j in pref[::-1]:
                choice[left[:, j] > 0] = j
            pick += mine[u] * choice[:, None]
        # demand counts from the first column, so the epoch's own is what
        # it adds to the count before ``start``
        demand = list(_running_counts(pick, len(units)))
        base = [_count_at(d, start - 1) for d in demand]
        cut = np.full(len(alive), width, dtype=np.intp)
        for d, b, units_left in zip(demand, base, left.T):
            over = d > (b + units_left)[:, None]
            first = over.argmax(axis=1)
            # argmax reads 0 on a row with no excess
            first[~np.take_along_axis(over, first[:, None], axis=1)[:, 0]] = width
            np.minimum(cut, first, out=cut)
        for j, (d, b) in enumerate(zip(demand, base)):
            left[:, j] -= _count_at(d, cut - 1) - b
        window = cols < cut[:, None]
        if start.any():
            window &= cols >= start[:, None]
            picked[alive] = np.where(window, pick, picked[alive])
        else:
            # the first epoch, which starts every phase at its first column
            np.copyto(picked, pick, where=window)
        keep = cut < width
        alive, start, left = alive[keep], cut[keep], left[keep]
        mine = [m[keep] for m in mine]
    return picked


def _count_at(counts, col):
    """``counts[p, col[p]]`` for each row p, 0 where ``col`` is -1."""
    at = np.take_along_axis(counts, np.maximum(col, 0)[:, None], axis=1)[:, 0]
    return np.where(col >= 0, at, 0)


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
    with one live state per segment.  ``LcbPolicy`` itself commits to the
    subset ``Z`` :func:`lcb_star` finds and its ``template`` matching, one
    segment; subclasses pass other segments to :meth:`_commit`.

    ``bad_event_phases`` collects the 1-based phases whose arrivals
    missed some confidence floor (diagnosed by the fallback firing).
    """

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
                seg.matching.M,
                mu,
                [instance.delta[a] if a in seg.kept else 0 for a in range(instance.k)],
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
            [state.deltas_eff for state in self._states], arrivals)
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
