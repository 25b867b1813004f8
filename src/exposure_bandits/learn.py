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
    gamma_from_parts,
    validate,
)
from .dp import DpPolicy, table_cells
from .env import Policy, RunRecord
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

# planner kind -> the planner the learner hands the horizon to
PLANNERS = {
    "dp_star": DpPolicy,
    "lcb_star": LcbPolicy,
    "alcb_star": AlcbPolicy,
    "llcb": LlcbPolicy,
}


@dataclass(frozen=True)
class Observables:
    """What a learner may know up front: sizes, horizon, thresholds.

    Deliberately excludes P and mu.
    """

    n: int
    k: int
    tau: int
    T: int
    delta: tuple[int, ...]

    @staticmethod
    def from_instance(instance: Instance) -> "Observables":
        return Observables(
            n=instance.n,
            k=instance.k,
            tau=instance.tau,
            T=instance.T,
            delta=instance.delta,
        )


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
    pull_counts: tuple[tuple[int, ...], ...]
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
    default_mu: float = 0.5

    def __post_init__(self):
        if self.sso not in PLANNERS:
            raise ValueError(f"sso must be one of {tuple(PLANNERS)}")


def _icbrt(x: int) -> int:
    """Exact floor cube root of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative")
    r = round(x ** (1 / 3)) if x else 0
    while r**3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
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


def estimate(record: RunRecord, T0: int, n: int, k: int, default_mu: float = 0.5) -> Estimates:
    """Empirical estimates from the first T0 rounds of a trajectory.

    P_hat is the arrival frequency; mu_hat[u][a] averages realized
    rewards over live pulls of a at arrivals of u (dead pulls carry no
    reward signal and are excluded); unobserved cells get default_mu.
    """
    if T0 <= 0:
        raise ValueError("exploration log is empty")
    if T0 > len(record.arrivals):
        raise ValueError("T0 exceeds the recorded horizon")
    arrival_counts = [0] * n
    reward_sums = [[0.0] * k for _ in range(n)]
    obs_counts = [[0] * k for _ in range(n)]
    pull_counts = [[0] * k for _ in range(n)]
    arrivals = record.arrivals[:T0].tolist()
    pulls = record.pulls[:T0].tolist()
    rewards = record.realized_rewards[:T0].tolist()
    dead = record.dead_pulls[:T0].tolist()
    for t in range(T0):
        u = arrivals[t]
        arrival_counts[u] += 1
        a = pulls[t]
        if a < 0:
            continue
        pull_counts[u][a] += 1
        if not dead[t]:
            obs_counts[u][a] += 1
            reward_sums[u][a] += rewards[t]
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
            else default_mu
            for a in range(k)
        )
        for u in range(n)
    )
    return Estimates(
        P_hat=tuple(P_hat),
        mu_hat=mu_hat,
        T0=T0,
        pull_counts=tuple(tuple(row) for row in pull_counts),
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
    ResourceGuardError if the dp_star planner's table or the llcb
    planner's subset pairs would exceed their cap, rather than after
    exploring.
    """

    wants_feedback = True

    def __init__(self, observables: Observables, config: EesConfig = EesConfig()):
        self.obs = observables
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
            # dp_star's largest table commits to all k arms
            table_cells(observables.tau, observables.k)
        elif config.sso == "llcb":
            plan_pairs(observables.k, (observables.T - self.T0) // observables.tau)
        self.estimates: Estimates | None = None
        self.planner: Policy | None = None

    def start(self, rng) -> None:
        self._rng = rng
        self._phase_counts = [0] * self.obs.k
        self._log = []  # (type, arm, reward) of each exploration round
        self.estimates = None
        self.planner = None

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        o = self.obs
        if t < self.T0:
            if t % o.tau == 0:
                # the quota schedule must have kept everything alive
                if len(viable) != o.k:
                    raise ContractError(
                        f"an arm departed during exploration (round {t})"
                    )
                self._phase_counts = [0] * o.k
            a = explore_phase_step(
                self._phase_counts, self.gamma, o.delta, self._rng
            )
            self._phase_counts[a] += 1
            return a
        if self.planner is None:
            self._finish_exploration()
        return self.planner.choose(t - self.T0, u, viable)

    def feedback(self, t: int, u: int, arm, value: float) -> None:
        if t < self.T0:
            self._log.append((u, arm, value))

    def _finish_exploration(self) -> None:
        o = self.obs
        arrivals, pulls, rewards = zip(*self._log)
        # estimate reads only the per-round arrays; no arm departs while
        # exploring, so no pull is dead
        explored = RunRecord(
            arrivals=np.array(arrivals),
            pulls=np.array(pulls),
            realized_rewards=np.array(rewards, dtype=np.float64),
            expected_reward=math.nan,
            departure_events=[],
            seed=-1,
            dead_pulls=np.zeros(self.T0, dtype=bool),
        )
        self.estimates = estimate(explored, self.T0, o.n, o.k, self.config.default_mu)
        est_instance = Instance(
            n=o.n,
            k=o.k,
            tau=o.tau,
            T=o.T - self.T0,
            P=self.estimates.P_hat,
            delta=o.delta,
            mu=self.estimates.mu_hat,
        )
        validate(est_instance)
        self.planner = PLANNERS[self.config.sso](est_instance)
        self.planner.start(self._rng)


class MyopicPolicy(Policy):
    """Best viable arm for the arriving type; ignores thresholds."""

    wants_feedback = False

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


class NeverSubsidizePolicy(Policy):
    """Pulls only the globally best arm for the arriving type; if that
    arm departed, it declines rather than settle for a worse one."""

    wants_feedback = False

    def __init__(self, instance: Instance):
        self._best = [
            max(range(instance.k), key=lambda a: (instance.mu[u][a], -a))
            for u in range(instance.n)
        ]

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        a = self._best[u]
        return a if a in viable else None


class BlindSubsidizePolicy(Policy):
    """Meets every viable arm's threshold first (round-robin over arms
    still in deficit), then plays myopic for the rest of the phase."""

    wants_feedback = False

    def __init__(self, instance: Instance):
        self._delta = instance.delta
        self._tau = instance.tau
        self._k = instance.k
        self._pref = [
            sorted(range(instance.k), key=lambda a: (-instance.mu[u][a], a))
            for u in range(instance.n)
        ]

    def start(self, rng) -> None:
        self._counts = [0] * self._k
        self._cursor = 0

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        if t % self._tau == 0:
            self._counts = [0] * self._k
        k = self._k
        for i in range(k):
            a = (self._cursor + i) % k
            if a in viable and self._counts[a] < self._delta[a]:
                self._cursor = (a + 1) % k
                self._counts[a] += 1
                return a
        for a in self._pref[u]:
            if a in viable:
                self._counts[a] += 1
                return a
        return None


class GreedyBanditPolicy(Policy):
    """Optimism index over (type, arm) cells, viable arms only, no
    subsidy: the standard bandit answer transplanted unchanged.

    Knows only the observables; learns from sampled feedback, including
    the zeros of dead pulls.
    """

    wants_feedback = True

    def __init__(self, observables: Observables):
        self._n = observables.n
        self._k = observables.k

    def start(self, rng) -> None:
        n, k = self._n, self._k
        self._sums = [[0.0] * k for _ in range(n)]
        self._counts = [[0] * k for _ in range(n)]
        self._type_rounds = [0] * n

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        if not viable:
            return None
        counts = self._counts[u]
        sums = self._sums[u]
        nu = self._type_rounds[u] + 1
        bonus = math.log(nu)
        best, best_a = None, None
        for a in sorted(viable):
            if counts[a] == 0:
                return a
            idx = sums[a] / counts[a] + math.sqrt(2.0 * bonus / counts[a])
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
