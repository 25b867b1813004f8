"""The learning task: explore-estimate-plan, plus threshold-blind baselines.

The meta-policy spends an initial block of whole phases pulling every
arm up to max(delta_a, quota) times per phase (the quota from the
feasibility margin keeps every arm viable while still visiting all of
them), estimates arrival probabilities and utilities from that block,
and hands the rest of the horizon to a planner instantiated on the
estimated instance.

The policy object is built from an Observables view that simply does
not carry P or mu, so "the learner never reads the true parameters" is
a structural fact rather than a runtime check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ContractError,
    Instance,
    InfeasibleError,
    GammaResult,
    Observables,
    gamma_from_parts,
    subset_count,
)
from .dp import DpPolicy, largest_commitment, table_cells
from .env import NO_PULL, Policy, RunRecord, _cells, _live_counts
from .lcb import AlcbPolicy, LcbPolicy
from .lmatch import LlcbPolicy, plan_pairs

__all__ = [
    "Observables",
    "Estimates",
    "EesConfig",
    "PLANNERS",
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

# planner kind -> the planner the learner hands the horizon to
PLANNERS = {
    "dp_star": DpPolicy,
    "lcb_star": LcbPolicy,
    "alcb_star": AlcbPolicy,
    "llcb": LlcbPolicy,
}


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


@dataclass(frozen=True)
class EesConfig:
    """Knobs of the meta-policy.

    exploration_phases overrides the schedule directly; budget_fn, when
    given, selects the relaxed long-phase schedule instead of the
    default ceil(T^(2/3) / (gamma*tau)).
    """

    sso: str = "dp_star"
    exploration_phases: int | None = None
    budget_fn: object = None  # callable tau -> exploration budget f(tau)

    def __post_init__(self):
        if self.sso not in PLANNERS:
            raise ValueError(f"sso must be one of {tuple(PLANNERS)}")


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


def relaxed_exploration_phases(T: int, tau: int, budget_fn) -> int:
    """Long-phase schedule: ceil((tau/f(tau))^(1/3) * T^(2/3) / tau)."""
    f = budget_fn(tau)
    if f <= 0:
        raise ValueError("exploration budget must be positive")
    return math.ceil((tau / f) ** (1 / 3) * T ** (2 / 3) / tau)


def explore_phase_step(counts, gamma: GammaResult, delta, rng) -> int:
    """Next exploration pull: the smallest-index arm still below its
    per-phase target max(delta_a, quota), or a uniform arm when all
    targets are met."""
    g = gamma.quota
    for a in range(len(delta)):
        if counts[a] < max(delta[a], g):
            return a
    return int(rng.integers(len(delta)))


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
    # a declined round's cell heads its type's row, which is dropped
    reward_sums = np.bincount(
        cell[~dead], weights=record.realized_rewards[:T0][~dead], minlength=n * (k + 1)
    ).reshape(n, k + 1)[:, 1:].tolist()
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
    from .core import compute_gamma

    gamma = compute_gamma(instance)
    if gamma.gamma is None:
        eps2 = math.inf
    else:
        eps2 = math.sqrt(logT / (t23 / float(gamma.gamma)))
    estimates.eps1 = tuple(eps1)
    estimates.eps2 = eps2
    return estimates


class EesPolicy(Policy):
    """Explore in whole phases, estimate, then follow a planner.

    Construction fails if no positive quota exists (the exploration
    schedule relies on it to keep every arm viable), and with
    ResourceGuardError if the dp_star planner's largest table, the
    subsets it and lcb_star search, or the llcb planner's subset pairs
    would exceed their cap, rather than after exploring.  The length of
    exploration grows with the horizon, so the play depends on it.
    """

    horizon_free = False

    def __init__(self, observables: Observables, config: EesConfig = EesConfig()):
        self.observables = observables
        self.config = config
        self.gamma = gamma_from_parts(
            observables.delta, observables.tau, observables.k
        )
        if not self.gamma.feasible or self.gamma.quota <= 0:
            raise InfeasibleError(
                "exploration requires a positive feasibility margin"
            )
        if config.exploration_phases is not None:
            phases = config.exploration_phases
        elif config.budget_fn is not None:
            phases = relaxed_exploration_phases(
                observables.T, observables.tau, config.budget_fn
            )
        else:
            phases = default_exploration_phases(observables.T, self.gamma)
        self.exploration_phases = phases
        self.T0 = phases * observables.tau
        if not 0 < self.T0 < observables.T:
            raise InfeasibleError(
                f"exploration of {phases} phases does not fit the horizon"
            )
        if config.sso == "dp_star":
            table_cells(observables.tau, largest_commitment(observables.delta, observables.tau))
        if config.sso in ("dp_star", "lcb_star"):
            subset_count(observables.k)
        elif config.sso == "llcb":
            plan_pairs(observables.k)
        self.estimates: Estimates | None = None
        self.planner: Policy | None = None

    def start(self, rng) -> None:
        self._rng = rng
        self._phase = None  # the pulls of the current exploration phase
        self._log = []  # (type, arm, reward) of each exploration round
        self.estimates = None
        self.planner = None

    @property
    def bad_event_phases(self) -> list[int]:
        """The planner's fallback phases, counted from the start of the
        episode (the planner counts from its own first phase)."""
        if self.planner is None:
            return []
        return [p + self.exploration_phases for p in self.planner.bad_event_phases]

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        o = self.observables
        if t < self.T0:
            r = t % o.tau
            if r == 0:
                # the quota schedule must have kept everything alive
                if len(viable) != o.k:
                    raise ContractError(
                        f"an arm departed during exploration (round {t})"
                    )
                self._phase = self._explore_phases(1)[0].tolist()
            return self._phase[r]
        if self.planner is None:
            self._finish_exploration()
        return self.planner.choose(t - self.T0, u, viable)

    def feedback(self, t: int, u: int, arm, value: float) -> None:
        if t < self.T0:
            self._log.append((u, arm, value))

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord) -> np.ndarray:
        """The exploration phases up to the end of the block, then the
        planner's segments (see :class:`~exposure_bandits.env.Policy`)."""
        o = self.observables
        played = len(past.pulls)
        if played < self.T0:
            if len(viable) != o.k:
                # where the loop's check at the phase start fires
                raise ContractError(
                    f"an arm departed during exploration (round {played})"
                )
            return self._explore_phases(
                min(len(arrivals), self.exploration_phases - played // o.tau))
        if self.planner is None:
            self._plan(past)
        return self.planner.play_phases(arrivals, viable, past)

    def _explore_phases(self, count: int) -> np.ndarray:
        """The next ``count`` exploration phases' pulls, one
        :func:`explore_phase_step` per round; the rule never reads the
        arrival.  :meth:`choose` asks for one phase at a time."""
        o = self.observables
        pulls = []
        for _ in range(count):
            counts = [0] * o.k
            for _ in range(o.tau):
                a = explore_phase_step(counts, self.gamma, o.delta, self._rng)
                counts[a] += 1
                pulls.append(a)
        return np.array(pulls, dtype=np.int16).reshape(-1, o.tau)

    def _finish_exploration(self) -> None:
        arrivals, pulls, rewards = map(np.array, zip(*self._log))
        # estimate reads only the per-round arrays; no arm departs while
        # exploring, so no pull is dead
        self._plan(RunRecord(
            arrivals=arrivals, pulls=pulls, realized_rewards=rewards,
            expected_reward=math.nan, departure_events=[], seed=-1,
            dead_pulls=np.zeros(self.T0, dtype=bool),
        ))

    def _plan(self, record: RunRecord) -> None:
        """Estimate from the first T0 rounds of ``record`` and hand the
        rest of the horizon to the planner built on the estimates."""
        o = self.observables
        self.estimates = estimate(record, self.T0, o.n, o.k)
        self.planner = PLANNERS[self.config.sso](Instance(
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

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        for a in self._pref[u]:
            if a in viable:
                return a
        return None

    def _lookup(self, viable: frozenset) -> np.ndarray:
        """Each type's :meth:`choose` over ``viable``, ``NO_PULL`` for
        a decline."""
        return np.array(
            [next((a for a in pref if a in viable), NO_PULL) for pref in self._pref],
            dtype=np.int16,
        )

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord) -> np.ndarray:
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
        self._subsidies = []  # the subsidy prefix of the current phase
        self._starts = None  # cursor at each phase start of the last call
        self._first = 0  # the round the last call started at

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        r = t % self._tau
        if r == 0:
            self._subsidies = self._prefix(viable)
        if r < len(self._subsidies):
            return self._subsidies[r]
        return super().choose(t, u, viable)

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
                    past: RunRecord) -> np.ndarray:
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


class GreedyBanditPolicy(Policy):
    """Optimism index over (type, arm) cells, viable arms only, no
    subsidy: the standard bandit answer transplanted unchanged.

    Knows only the observables; learns from sampled feedback, including
    the zeros of dead pulls.  The index never reads the horizon.
    """

    horizon_free = True

    def __init__(self, observables: Observables):
        self.observables = observables
        self._n = observables.n
        self._k = observables.k

    def start(self, rng) -> None:
        n, k = self._n, self._k
        self._sums = [[0.0] * k for _ in range(n)]
        self._counts = [[0] * k for _ in range(n)]
        self._type_rounds = [0] * n
        self._viable = None
        self._arms = []  # the viable set, sorted once per change

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        if viable is not self._viable:
            self._viable = viable
            self._arms = sorted(viable)
        if not viable:
            return None
        counts = self._counts[u]
        sums = self._sums[u]
        nu = self._type_rounds[u] + 1
        bonus = math.log(nu)
        best, best_a = None, None
        for a in self._arms:
            c = counts[a]
            if c == 0:
                return a
            idx = sums[a] / c + math.sqrt(2.0 * bonus / c)
            if best is None or idx > best:
                best, best_a = idx, a
        return best_a

    def feedback(self, t: int, u: int, arm, value: float) -> None:
        self._type_rounds[u] += 1
        if arm is None:
            return
        self._sums[u][arm] += value
        self._counts[u][arm] += 1


BASELINES = {
    "myopic": MyopicPolicy,
    "never_subsidize": NeverSubsidizePolicy,
    "blind_subsidize": BlindSubsidizePolicy,
    "greedy_bandit": GreedyBanditPolicy,
}


def baseline_policy(kind: str, instance: Instance | None = None,
                    observables: Observables | None = None) -> Policy:
    """Factory for the threshold-oblivious baselines.

    The informed baselines need the instance; the bandit baseline needs
    only observables (pass either; observables are derived if missing).
    """
    if kind not in BASELINES:
        raise ValueError(f"kind must be one of {tuple(BASELINES)}")
    cls = BASELINES[kind]
    if cls is GreedyBanditPolicy:
        if observables is None:
            if instance is None:
                raise ValueError("greedy_bandit needs observables")
            observables = Observables.from_instance(instance)
        return cls(observables)
    if instance is None:
        raise ValueError(f"{kind} needs the instance")
    return cls(instance)
