"""Round-by-round simulator of the interaction protocol.

Each round a user type arrives, the policy pulls an arm (or declines),
and a reward is realized.  At every phase boundary, arms whose pull count
within the phase fell short of their exposure threshold depart for good.
Pulling a departed arm stays legal but yields 0 reward and is flagged, so
threshold-oblivious baselines can run unmodified.

One master seed splits into three independent streams (arrivals, reward
noise, policy randomness), so changing the reward model never perturbs
the arrival sequence.  Identical (instance, policy, seed) inputs produce
a bitwise-identical :class:`RunRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Instance, validate

__all__ = [
    "NO_PULL",
    "REWARD_MODES",
    "Policy",
    "RunRecord",
    "sample_arrivals",
    "run_episode",
    "recompute_expected_reward",
]

REWARD_MODES = ("sampled", "expected")

NO_PULL = -1  # pulls[] marker for rounds where the policy declined to act


class Policy:
    """Base class for round-by-round decision makers.

    A policy object serves one episode at a time; :meth:`start` must reset
    all per-episode state so the same object can be reused across seeds.
    Learning policies set ``wants_feedback`` and override :meth:`feedback`
    to observe realized rewards; planners that know the instance ignore it.
    """

    wants_feedback = False

    def start(self, rng: np.random.Generator) -> None:
        """Reset per-episode state; ``rng`` is the policy-private stream."""

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        """Return the arm to pull this round, or ``None`` for a no-op."""
        raise NotImplementedError

    def feedback(self, t: int, u: int, arm: int | None, value: float) -> None:
        """Observe the realized reward of this round's pull."""


@dataclass
class RunRecord:
    """Complete trajectory of one simulated episode.

    ``expected_reward`` is the exact (fsum) total of ``mu[u_t][a_t]`` over
    rounds whose pulled arm was still viable; ``dead_pulls`` flags pulls of
    departed arms, which realize 0.
    """

    arrivals: np.ndarray
    pulls: np.ndarray
    realized_rewards: np.ndarray
    expected_reward: float
    departure_events: list[tuple[int, int]]  # (phase, arm), phase 1-based
    seed: int
    dead_pulls: np.ndarray = field(repr=False, default=None)

    @property
    def realized_total(self) -> float:
        return float(self.realized_rewards.sum())


def sample_arrivals(P, length: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. user types from the arrival simplex ``P``.

    Returns an int16 array of ``length`` type indices; deterministic given
    the generator state.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    cum = np.cumsum(np.asarray(P, dtype=np.float64))
    draws = rng.random(length)
    types = np.searchsorted(cum, draws, side="right")
    # guard the upper edge: cumulative rounding could leave cum[-1] < 1
    np.clip(types, 0, len(cum) - 1, out=types)
    return types.astype(np.int16)


def recompute_expected_reward(record: RunRecord, instance: Instance) -> float:
    """Re-derive the expected-reward total from the raw trajectory.

    Independent accounting path used by tests: exact fsum over
    ``mu[u_t][a_t]`` restricted to live pulls, so it must equal
    ``record.expected_reward`` bit for bit.
    """
    alive = (record.pulls >= 0) & ~record.dead_pulls
    idx = np.nonzero(alive)[0]
    mu = np.asarray(instance.mu, dtype=np.float64)
    vals = mu[record.arrivals[idx], record.pulls[idx]]
    return math.fsum(vals.tolist())


def run_episode(
    instance: Instance,
    policy: Policy,
    seed: int,
    reward_mode: str = "expected",
) -> RunRecord:
    """Simulate ``instance.T`` rounds of ``policy`` against the instance.

    Parameters
    ----------
    reward_mode : str
        ``"expected"`` records ``mu[u][a]`` directly as the realized value
        (for planners evaluated in expectation); ``"sampled"`` draws the
        reward model (Bernoulli or deterministic), which is what learning
        policies should see as feedback.

    Raises ``ValueError`` if the policy returns an arm outside
    ``[0, k)``.  Rounds with no pull (policy returned ``None``) yield 0.
    """
    validate(instance)
    if reward_mode not in REWARD_MODES:
        raise ValueError(f"reward_mode {reward_mode!r} not in {REWARD_MODES}")
    n, k, tau, T = instance.n, instance.k, instance.tau, instance.T

    ss = np.random.SeedSequence(seed)
    arrival_rng, reward_rng, policy_rng = map(np.random.default_rng, ss.spawn(3))
    arrivals = sample_arrivals(instance.P, T, arrival_rng)
    sample_bernoulli = (
        reward_mode == "sampled" and instance.reward_kind == "bernoulli"
    )
    # positional noise: round t always consumes noise[t], so the policy's
    # choices cannot shift the reward stream
    noise = reward_rng.random(T) if sample_bernoulli else None

    mu = [list(row) for row in instance.mu]
    delta = instance.delta
    pulls = np.full(T, NO_PULL, dtype=np.int16)
    realized = np.zeros(T, dtype=np.float64)
    dead = np.zeros(T, dtype=bool)
    departures: list[tuple[int, int]] = []

    policy.start(policy_rng)
    choose = policy.choose
    feedback = policy.feedback if policy.wants_feedback else None
    expected_mode = reward_mode == "expected"

    viable = frozenset(range(k))
    counts = [0] * k
    phase = 1
    for start in range(0, T, tau):
        block = arrivals[start : start + tau].tolist()
        for off, u in enumerate(block):
            t = start + off
            a = choose(t, u, viable)
            if a is not None:
                if not 0 <= a < k:
                    raise ValueError(
                        f"policy returned arm {a} outside [0, {k}) at round {t}"
                    )
                pulls[t] = a
                counts[a] += 1
                if a in viable:
                    m = mu[u][a]
                    if expected_mode:
                        v = m
                    elif sample_bernoulli:
                        v = 1.0 if noise[t] < m else 0.0
                    else:
                        v = m
                    realized[t] = v
                else:
                    dead[t] = True
                    v = 0.0
            else:
                v = 0.0
            if feedback is not None:
                feedback(t, u, a, v)
        # the departure rule: strictly fewer pulls than the threshold;
        # meeting it exactly is enough
        gone = sorted(a for a in viable if counts[a] < delta[a])
        if gone:
            viable = viable.difference(gone)
            departures.extend((phase, a) for a in gone)
        counts = [0] * k
        phase += 1

    record = RunRecord(
        arrivals=arrivals,
        pulls=pulls,
        realized_rewards=realized,
        expected_reward=0.0,
        departure_events=departures,
        seed=seed,
        dead_pulls=dead,
    )
    record.expected_reward = recompute_expected_reward(record, instance)
    return record

