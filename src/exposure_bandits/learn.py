"""The learning task: explore-estimate-plan, plus threshold-blind baselines.

The meta-policy spends an initial block of whole phases pulling every
arm up to max(delta_a, quota) times per phase (the quota from the
feasibility margin keeps every arm viable while still visiting all of
them), estimates arrival probabilities and utilities from that block,
and hands the rest of the horizon to a planner instantiated on the
estimated instance.  The exploration rule never reads the episode, so
a block of exploration phases is one array: a fixed head in every row
and one uniform draw for the rest (:func:`explore_phase_step`).

The policy object is built from an Observables view that simply does
not carry P or mu, so "the learner never reads the true parameters" is
a structural fact rather than a runtime check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ContractError,
    Instance,
    InfeasibleError,
    GammaResult,
    Observables,
    gamma_from_parts,
)
from .dp import DpPolicy
from .env import NO_PULL, Policy, RunRecord, _cell_sums, _cells, _live_counts

__all__ = [
    "Observables",
    "Estimates",
    "default_exploration_phases",
    "relaxed_exploration_phases",
    "explore_phase_step",
    "estimate",
    "concentration_radii",
    "EesPolicy",
    "baseline_policy",
    "BASELINES",
    "MyopicPolicy",
    "NeverSubsidizePolicy",
    "BlindSubsidizePolicy",
    "GreedyBanditPolicy",
]

UNOBSERVED_MU = 0.5  # the utility estimate of a cell exploration never observed


@dataclass
class Estimates:
    """Empirical parameters after the exploration block.

    eps1/eps2 are the theoretical concentration radii; they involve the
    true arrival probabilities, so the policy leaves them None and the
    evaluation harness fills them in for diagnostics.
    """

    P_hat: tuple[float, ...]
    mu_hat: tuple[tuple[float, ...], ...]
    T0: int
    observation_counts: tuple[tuple[int, ...], ...]
    eps1: tuple[float, ...] | None = None
    eps2: float | None = None


def _icbrt(x: int) -> int:
    """Exact floor cube root of a nonnegative integer: Newton's method
    in integers, which descends to it from any root at least as large."""
    if x < 0:
        raise ValueError("negative")
    r = 1 << -(-x.bit_length() // 3)  # 2^ceil(bits/3) > cube root
    while r**3 > x:
        r = (2 * r + x // (r * r)) // 3
    return r


def default_exploration_phases(T: int, gamma: GammaResult) -> int:
    """ceil(T^(2/3) / (gamma*tau)) = ceil(T^(2/3) / quota), computed in
    exact integer arithmetic.

    T^(2/3) is an integer exactly when T is a perfect cube, so the
    naive float ceil is off by one at cubes; do it exactly instead.
    """
    g = gamma.quota
    if g <= 0:
        raise InfeasibleError("exploration needs a positive per-arm quota")
    c = _icbrt(T)
    if c**3 == T:
        return -(-(c * c) // g)
    # T^(2/3) irrational: ceil(x/g) = floor(floor(x)/g) + 1
    return _icbrt(T * T) // g + 1


def relaxed_exploration_phases(T: int, tau: int, f) -> int:
    """Long-phase schedule: ceil((tau/f(tau))^(1/3) * T^(2/3) / tau),
    for an exploration budget ``f``, a callable of tau."""
    budget = f(tau)
    if budget <= 0:
        raise ValueError("exploration budget must be positive")
    return math.ceil((tau / budget) ** (1 / 3) * T ** (2 / 3) / tau)


def explore_phase_step(count: int, gamma: GammaResult, delta, tau: int, rng) -> np.ndarray:
    """The next ``count`` exploration phases' pulls, an int16
    ``(count, tau)`` array.

    Every phase starts with the same head: each arm ``a`` in arm order,
    repeated max(delta_a, quota) times, cut at ``tau``.  The rest of each
    phase is uniform over the arms, from one ``rng.integers`` draw in
    row-major order: the values, and the generator's state after them,
    of one scalar draw per round."""
    k = len(delta)
    head = np.repeat(np.arange(k, dtype=np.int16),
                     [max(d, gamma.quota) for d in delta])[:tau]
    pulls = np.empty((count, tau), dtype=np.int16)
    pulls[:, : len(head)] = head
    pulls[:, len(head):] = rng.integers(k, size=(count, tau - len(head)))
    return pulls


def estimate(record: RunRecord, T0: int, n: int, k: int) -> Estimates:
    """Empirical estimates from the first T0 rounds of a trajectory.

    P_hat is the arrival frequency; mu_hat[u][a] averages, in round
    order, the realized rewards of the live pulls of a at arrivals of u
    (the simulator's :func:`~exposure_bandits.env._live_counts`: declined
    and dead pulls carry no reward signal); unobserved cells get
    UNOBSERVED_MU.
    """
    if T0 <= 0:
        raise ValueError("exploration log is empty")
    if T0 > len(record.arrivals):
        raise ValueError("T0 exceeds the recorded horizon")
    cell = _cells(record.arrivals[:T0], record.pulls[:T0], k)
    dead = record.dead_pulls[:T0]
    obs_counts = _live_counts(cell, dead, n, k).tolist()
    reward_sums = _cell_sums(cell[~dead], n, k, record.realized_rewards[:T0][~dead]).tolist()
    arrival_counts = np.bincount(record.arrivals[:T0], minlength=n).tolist()
    P_hat = [c / T0 for c in arrival_counts]
    # a type that never arrived would make the estimated instance
    # degenerate; give it half an arrival's worth of mass and renormalize
    if any(p == 0.0 for p in P_hat):
        P_hat = [max(p, 0.5 / T0) for p in P_hat]
        s = sum(P_hat)
        P_hat = [p / s for p in P_hat]
    mu_hat = tuple(
        tuple(
            min(1.0, max(0.0, reward_sums[u][a] / obs_counts[u][a]))
            if obs_counts[u][a]
            else UNOBSERVED_MU
            for a in range(k)
        )
        for u in range(n)
    )
    return Estimates(
        P_hat=tuple(P_hat),
        mu_hat=mu_hat,
        T0=T0,
        observation_counts=tuple(tuple(row) for row in obs_counts),
    )


def concentration_radii(instance: Instance, estimates: Estimates) -> Estimates:
    """Fill in the harness-side concentration radii: for each type,
    eps1_u = sqrt(ln T / (P_u T^(2/3) - sqrt(P_u T^(2/3) ln T))) and
    eps2 = sqrt(ln T / ((1/gamma) T^(2/3))).

    These use the true P, so they live outside the policy.
    """
    T = instance.T
    logT = math.log(T)
    t23 = T ** (2 / 3)
    eps1 = []
    for p in instance.P:
        base = p * t23 - math.sqrt(p * t23 * logT)
        eps1.append(math.sqrt(logT / base) if base > 0 else math.inf)
    gamma = gamma_from_parts(instance.delta, instance.tau, instance.k)
    if gamma.gamma is None:
        eps2 = math.inf
    else:
        eps2 = math.sqrt(logT / (t23 / float(gamma.gamma)))
    estimates.eps1 = tuple(eps1)
    estimates.eps2 = eps2
    return estimates


class EesPolicy(Policy):
    """Explore in whole phases, estimate, then hand the rest of the
    horizon to ``planner``, a planner class, built on the estimates.

    ``exploration_phases`` overrides the default schedule; pass
    ``relaxed_exploration_phases(T, tau, f)`` for the long-phase one.
    Construction fails with ValueError for fewer than one phase, with
    InfeasibleError if no positive quota exists (the exploration
    schedule relies on it to keep every arm viable) or exploration
    fills the horizon, and with whatever ``planner.check`` refuses on
    the observables of the rest of the horizon, rather than after
    exploring.  The length of exploration grows with the horizon, so
    the play depends on it.
    """

    horizon_free = False

    def __init__(self, observables: Observables, planner: type[Policy] = DpPolicy,
                 exploration_phases: int | None = None):
        o = self.observables = observables
        self.planner_class = planner
        if exploration_phases is not None and exploration_phases < 1:
            raise ValueError(f"exploration needs at least one phase, not {exploration_phases}")
        self.gamma = gamma_from_parts(o.delta, o.tau, o.k)
        if not self.gamma.feasible or self.gamma.quota <= 0:
            raise InfeasibleError(
                "exploration requires a positive feasibility margin"
            )
        phases = exploration_phases
        if phases is None:
            phases = default_exploration_phases(o.T, self.gamma)
        self.exploration_phases = phases
        self.T0 = phases * o.tau
        if self.T0 >= o.T:
            raise InfeasibleError(
                f"exploration of {phases} phases does not fit the horizon"
            )
        planner.check(replace(o, T=o.T - self.T0))
        self.estimates: Estimates | None = None
        self.planner: Policy | None = None

    def start(self, rng) -> None:
        self._rng = rng
        self.estimates = None
        self.planner = None

    @property
    def bad_event_phases(self) -> list[int]:
        """The planner's fallback phases, counted from the start of the
        episode (the planner counts from its own first phase)."""
        if self.planner is None:
            return []
        return [p + self.exploration_phases for p in self.planner.bad_event_phases]

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord, reward) -> np.ndarray:
        """The exploration phases up to the end of the block, one
        :func:`explore_phase_step` call, then the planner's segments (see
        :class:`~exposure_bandits.env.Policy`)."""
        o = self.observables
        played = len(past.pulls)
        if played < self.T0:
            if len(viable) != o.k:
                # the quota schedule must have kept everything alive
                raise ContractError(
                    f"an arm departed during exploration (round {played})"
                )
            count = min(len(arrivals), self.exploration_phases - played // o.tau)
            return explore_phase_step(count, self.gamma, o.delta, o.tau, self._rng)
        if self.planner is None:
            self._plan(past)
        return self.planner.play_phases(arrivals, viable, past, reward)

    def _plan(self, record: RunRecord) -> None:
        """Estimate from the first T0 rounds of ``record`` and hand the
        rest of the horizon to the planner built on the estimates."""
        o = self.observables
        self.estimates = estimate(record, self.T0, o.n, o.k)
        self.planner = self.planner_class(Instance(
            n=o.n,
            k=o.k,
            tau=o.tau,
            T=o.T - self.T0,
            P=self.estimates.P_hat,
            delta=o.delta,
            mu=self.estimates.mu_hat,
        ))
        self.planner.start(self._rng)


class MyopicPolicy(Policy):
    """Best viable arm for the arriving type; ignores thresholds and
    the horizon."""

    horizon_free = True

    def __init__(self, instance: Instance):
        # preference order per type: utility desc, index asc
        self._pref = [
            sorted(range(instance.k), key=lambda a: (-instance.mu[u][a], a))
            for u in range(instance.n)
        ]

    def _lookup(self, viable: frozenset) -> np.ndarray:
        """Each type's pull: the first arm of its preference order in
        ``viable``, ``NO_PULL`` for a decline."""
        return np.array(
            [next((a for a in pref if a in viable), NO_PULL) for pref in self._pref],
            dtype=np.int16,
        )

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord, reward) -> np.ndarray:
        """Every phase of ``arrivals`` through one per-type lookup over
        ``viable`` (see :class:`~exposure_bandits.env.Policy`)."""
        return self._lookup(viable)[arrivals]


class NeverSubsidizePolicy(MyopicPolicy):
    """Pulls only the globally best arm for the arriving type; if that
    arm departed, it declines rather than settle for a worse one."""

    def __init__(self, instance: Instance):
        super().__init__(instance)
        self._pref = [pref[:1] for pref in self._pref]


class BlindSubsidizePolicy(MyopicPolicy):
    """Meets every viable arm's threshold first (round-robin over arms
    still in deficit), then plays myopic for the rest of the phase."""

    def __init__(self, instance: Instance):
        super().__init__(instance)
        self._delta = instance.delta
        self._tau = instance.tau
        self._k = instance.k

    def start(self, rng) -> None:
        self._cursor = 0
        self._starts = None  # cursor at each phase start of the last call
        self._first = 0  # the round the last call started at

    def _prefix(self, viable: frozenset) -> list[int]:
        """The subsidy rounds of a phase that starts at the cursor: each
        pulls the first viable arm from the cursor on still short of its
        threshold, which the cursor then moves past, until every viable
        arm has met its threshold.  They number min(tau, sum of the
        viable thresholds) from any cursor."""
        k = self._k
        counts = [0] * k
        arms = []
        while len(arms) < self._tau:
            for i in range(k):
                a = (self._cursor + i) % k
                if a in viable and counts[a] < self._delta[a]:
                    break
            else:
                break
            self._cursor = (a + 1) % k
            counts[a] += 1
            arms.append(a)
        return arms

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord, reward) -> np.ndarray:
        """Every phase of ``arrivals``: the subsidy prefix, which ignores the
        arrivals and so depends only on the cursor the phase starts from
        (one prefix per cursor value), then the myopic lookup (see
        :class:`~exposure_bandits.env.Policy`)."""
        played = len(past.pulls)
        if self._starts is not None:
            # resume from the cursor at the end of the last kept phase
            self._cursor = self._starts[(played - self._first) // self._tau]
        self._first = played
        prefixes = {}  # phase-start cursor -> (subsidy arms, cursor after)
        starts = [self._cursor]
        for _ in range(len(arrivals)):
            c = starts[-1]
            if c not in prefixes:
                self._cursor = c
                prefixes[c] = (self._prefix(viable), self._cursor)
            starts.append(prefixes[c][1])
        self._starts = starts
        pulls = self._lookup(viable)[arrivals]
        table = np.zeros((self._k, len(prefixes[starts[0]][0])), dtype=np.int16)
        for c, (arms, _) in prefixes.items():
            table[c] = arms
        pulls[:, : table.shape[1]] = table[starts[:-1]]
        return pulls


# The windows of the bandit index take log(nu) for nu below
# LOG_TABLE_SIZE from one table of math.log values (np.log rounds some
# integers the other way), grown as far as the rounds played need it.
# It caches a pure function, so it is kept across episodes; at most one
# block's worth of entries keeps it within an episode's working memory.
# Larger nu are taken one window at a time.
LOG_TABLE_SIZE = 1 << 17
_log_table = np.zeros(1)  # entry 0 is never read
_sqrt = math.sqrt  # bound once: a scalar step calls it for every arm


def _logs(first: int, count: int) -> np.ndarray:
    """``math.log`` of the integers ``first``, ..., ``first + count - 1``
    (``first >= 1``), as a float64 array."""
    global _log_table
    end = first + count
    have = len(_log_table)
    if have < end <= LOG_TABLE_SIZE:
        size = min(LOG_TABLE_SIZE, max(end, 2 * have))
        _log_table = np.concatenate(
            (_log_table, np.fromiter(map(math.log, range(have, size)), np.float64))
        )
    if end <= len(_log_table):
        return _log_table[first:end]
    return np.fromiter(map(math.log, range(first, end)), np.float64, count)


def _ucb_pick(arms, sums, counts, nu: int) -> int:
    """The bandit's pick among ``arms`` (ascending) for a type at its
    ``nu``-th arrival: the first arm never pulled, else the first arm of
    largest index ``sums[a] / c + sqrt(2 log(nu) / c)``, ``c = counts[a]``."""
    bonus = 2.0 * math.log(nu)
    best, best_a = -math.inf, None
    for a in arms:
        c = counts[a]
        if c == 0:
            return a
        idx = sums[a] / c + _sqrt(bonus / c)
        if idx > best:
            best, best_a = idx, a
    return best_a


def _indices(sums: np.ndarray, counts: np.ndarray, twolog: np.ndarray) -> np.ndarray:
    """:func:`_ucb_pick`'s index ``sums / counts + sqrt(twolog / counts)``
    elementwise, ``twolog`` holding ``2 log(nu)``: the same float
    operations in the same order, so each entry is the scalar index to
    the bit."""
    return sums / counts + np.sqrt(twolog / counts)


def _run_length(arms, sums, counts, nu: int, b: int, rewards: np.ndarray):
    """How many of a type's next ``len(rewards)`` arrivals, from its
    ``nu``-th on, pick arm ``b`` in a row when ``b``'s pulls there
    realize ``rewards``, and ``b``'s reward sum after them.

    Every round's index comes from :func:`_indices`, ``b``'s sums from a
    sequential running sum, which adds in the order the scalar steps
    do.  ``b`` is picked while its index beats every earlier arm's
    and ties or beats every later arm's; every arm has been pulled."""
    w = len(rewards)
    twolog = 2.0 * _logs(nu, w)
    total = np.empty(w + 1)
    total[0] = sums[b]
    total[1:] = rewards
    np.cumsum(total, out=total)
    mine = _indices(total[:w], np.arange(counts[b], counts[b] + w, dtype=np.float64), twolog)
    picked = np.ones(w, dtype=bool)
    for others, wins in (([a for a in arms if a < b], np.greater),
                         ([a for a in arms if a > b], np.greater_equal)):
        if others:
            theirs = _indices(np.array([[sums[a]] for a in others]),
                              np.array([[counts[a]] for a in others], dtype=np.float64),
                              twolog)
            picked &= wins(mine, theirs.max(axis=0))
    j = w if picked.all() else int(picked.argmin())
    return j, float(total[j])


class GreedyBanditPolicy(Policy):
    """Optimism index over (type, arm) cells, viable arms only, no
    subsidy: the standard bandit answer transplanted unchanged.

    Knows only the observables; learns from sampled feedback, including
    the zeros of dead pulls.  The index never reads the horizon.

    A type's state moves only at its own arrivals and the viable set is
    fixed within a segment, so each type's rounds of a segment are
    played on their own, in runs: scalar steps, each a
    :func:`_ucb_pick` that adds its pull's reward to the arm's sum,
    until one arm has been picked ``RUN`` times in a row, then a check
    of the type's next rounds at once (:func:`_run_length`), over
    windows that double from ``WINDOW`` while that arm keeps winning,
    and scalar steps again from the first round it loses.  After a check
    that wins fewer than ``RUN`` rounds the next one waits for twice as
    many picks in a row, up to ``PATIENCE_CAP``.  A call plays the whole
    phases of at most ``FIRST_ROUNDS`` rounds, and each next call twice
    as many, so a segment cut short by a departure wastes little.  After
    such a cut the state is ahead of the rounds kept, and it is rebuilt
    from ``past``: sums by a weighted count that adds in round order, as
    the scalar steps do, and counts of pulls and arrivals.
    """

    horizon_free = True
    RUN = 8  # picks of one arm in a row before its next rounds are checked at once
    WINDOW = 32  # rounds of the first check; later ones double
    WINDOW_CAP = 1 << 14  # rounds of the largest check
    PATIENCE_CAP = 256  # the most picks in a row a check ever waits for
    FETCH = 256  # rounds whose rewards are fetched at once for scalar steps
    FIRST_ROUNDS = 1 << 12  # rounds a call plays at most, at first and after a cut

    def __init__(self, observables: Observables):
        self.observables = observables
        self._n = observables.n
        self._k = observables.k

    def start(self, rng) -> None:
        n, k = self._n, self._k
        self._sums = [[0.0] * k for _ in range(n)]
        self._counts = [[0] * k for _ in range(n)]
        self._type_rounds = [0] * n
        self._played = 0  # the rounds the state covers
        self._rounds = self.FIRST_ROUNDS  # the rounds the next call plays at most

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord, reward) -> np.ndarray:
        """The pulls of the first phases of ``arrivals``, each type's in
        runs (see :class:`~exposure_bandits.env.Policy`)."""
        played = len(past.pulls)
        if played != self._played:
            # a departure cut the last call's phases short
            self._rebuild(past)
            self._rounds = self.FIRST_ROUNDS
        tau = arrivals.shape[1]
        arrivals = arrivals[: max(1, self._rounds // tau)]
        self._rounds *= 2
        flat = arrivals.ravel()
        pulls = np.full(flat.size, NO_PULL, dtype=np.int16)
        arms = sorted(viable)
        for u in range(self._n):
            rounds = np.flatnonzero(flat == u)
            if arms and len(rounds):
                pulls[rounds] = self._play_type(u, rounds, arms, reward)
            else:
                self._type_rounds[u] += len(rounds)
        self._played = played + flat.size
        return pulls.reshape(arrivals.shape)

    def _play_type(self, u: int, rounds: np.ndarray, arms: list, reward) -> np.ndarray:
        """Type ``u``'s pulls at ``rounds``, its arrivals among the
        offered ones, over the nonempty viable ``arms``."""
        sums, counts = self._sums[u], self._counts[u]
        seen = self._type_rounds[u]  # type u's arrivals before rounds[i]
        run_arms, run_ends = [], []
        every = np.arange(self._k)[:, None]
        fetch = self.FETCH
        first, got = -fetch, None
        patience = self.RUN  # picks of one arm in a row before a check
        last, streak = None, 0
        i, total = 0, len(rounds)
        while i < total:
            a = _ucb_pick(arms, sums, counts, seen + 1)
            if i - first >= fetch:
                # got[a, i - first]: the reward of a pull of a at rounds[i]
                first, got = i, memoryview(reward(every, rounds[i : i + fetch]))
            sums[a] += got[a, i - first]
            counts[a] += 1
            seen += 1
            i += 1
            if a != last:
                if last is not None:
                    run_arms.append(last)
                    run_ends.append(i - 1)
                last, streak = a, 1
                continue
            streak += 1
            if streak < patience:
                continue
            w, checked = self.WINDOW, i
            while i < total:
                w = min(w, total - i)
                j, sums[a] = _run_length(arms, sums, counts, seen + 1, a,
                                         reward(a, rounds[i : i + w]))
                counts[a] += j
                seen += j
                i += j
                if j < w:
                    break
                w = min(2 * w, self.WINDOW_CAP)
            # a check that wins fewer rounds than RUN costs more than the
            # scalar steps it replaces: wait twice as long for the next
            if i - checked < self.RUN:
                patience = min(2 * patience, self.PATIENCE_CAP)
            else:
                patience = self.RUN
        run_arms.append(last)
        run_ends.append(total)
        self._type_rounds[u] = seen
        return np.repeat(np.array(run_arms, dtype=np.int16), np.diff(run_ends, prepend=0))

    def _rebuild(self, past: RunRecord) -> None:
        """The state after the rounds of ``past``, what the scalar steps
        would have made of them."""
        n, k = self._n, self._k
        cell = _cells(past.arrivals, past.pulls, k)
        self._counts = _cell_sums(cell, n, k).tolist()
        self._sums = _cell_sums(cell, n, k, past.realized_rewards).tolist()
        self._type_rounds = np.bincount(past.arrivals, minlength=n).tolist()


BASELINES = {
    "myopic": MyopicPolicy,
    "never_subsidize": NeverSubsidizePolicy,
    "blind_subsidize": BlindSubsidizePolicy,
    "greedy_bandit": GreedyBanditPolicy,
}


def baseline_policy(kind: str, instance: Instance) -> Policy:
    """The threshold-oblivious baseline of ``kind`` (a key of
    ``BASELINES``) on ``instance``; the bandit is given only the
    instance's observables."""
    if kind not in BASELINES:
        raise ValueError(f"kind must be one of {tuple(BASELINES)}")
    cls = BASELINES[kind]
    if cls is GreedyBanditPolicy:
        return cls(Observables.from_instance(instance))
    return cls(instance)
