"""Round-by-round simulator of the interaction protocol.

Each round a user type arrives, the policy pulls an arm (or declines),
and a reward is realized.  At every phase boundary, arms whose pull count
within the phase fell short of their exposure threshold depart for good.
Pulling a departed arm stays legal but yields 0 reward and is flagged, so
threshold-oblivious baselines can run unmodified.

Two paths run an episode.  An arm can depart only at a phase boundary,
so the viable set is fixed for the whole of a phase, and a policy whose
play depends only on that set, the phase's arrivals and the earlier
phases can be played a phase segment at a time: it defines
``play_phases`` (see :class:`Policy`), and the segment path asks it for
the pulls of the phases not yet played, keeps them up to and including
the first phase that ends with a departure, and asks again with the
smaller viable set.  The committed planners (``DpPolicy``,
``LcbPolicy``, ``AlcbPolicy``, ``LlcbPolicy``, all
:class:`CommittedPolicy`), the explore-estimate-plan learner
(``EesPolicy``) and the informed baselines (``MyopicPolicy``,
``NeverSubsidizePolicy``, ``BlindSubsidizePolicy``) take it.  The loop
calls the policy's ``choose`` once per round and is the reference; the
round-by-round learner (``GreedyBanditPolicy``), which updates on every
reward, runs on it.  The policy's type alone picks the path.  Both
paths end every phase with the same departure rule and share the reward
accounting, and they produce identical records.

One master seed splits into three independent streams (arrivals, reward
noise, policy randomness), so changing the reward model never perturbs
the arrival sequence.  Identical (instance, policy, seed) inputs produce
a bitwise-identical :class:`RunRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import Instance

__all__ = [
    "NO_PULL",
    "REWARD_MODES",
    "Policy",
    "CommittedPolicy",
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
    ``bad_event_phases`` lists the 1-based phases of the last episode in
    which the policy's confidence-floor fallback fired; it stays empty for
    policies without one.

    A policy whose play in a phase depends only on the viable set, that
    phase's arrivals and the earlier phases may also define
    ``play_phases(arrivals, viable, past)``, the segment contract:

    - ``arrivals`` is the int16 ``(m, tau)`` block of the phases not yet
      played;
    - ``viable`` is the current viable set;
    - ``past`` is the :class:`RunRecord` prefix of the rounds played so
      far (``expected_reward`` is NaN there).

    It returns the ``(m', tau)`` pulls, ``1 <= m' <= m``, that
    :meth:`choose` would make round by round in the first ``m'`` of
    those phases if ``viable`` stayed fixed (``NO_PULL`` for a declined
    round).  :func:`run_episode` then calls it, after :meth:`start`,
    instead of calling :meth:`choose` every round: it keeps the pulls up
    to and including the first phase that ends with a departure, and
    calls again with the rest.  Such a policy must not rely on
    :meth:`feedback`, which the segment path never calls.  The committed
    planners (:class:`CommittedPolicy`), ``EesPolicy`` and the informed
    baselines define it; ``GreedyBanditPolicy``, which learns from every
    reward, does not and runs on the loop.
    """

    wants_feedback = False
    play_phases = None
    bad_event_phases = ()

    def start(self, rng: np.random.Generator) -> None:
        """Reset per-episode state; ``rng`` is the policy-private stream."""

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        """Return the arm to pull this round, or ``None`` for a no-op."""
        raise NotImplementedError

    def feedback(self, t: int, u: int, arm: int | None, value: float) -> None:
        """Observe the realized reward of this round's pull."""


class CommittedPolicy(Policy):
    """A policy whose pulls in a phase depend only on that phase's
    arrivals: it reads neither the viable set nor feedback.

    Subclasses define :meth:`plan_phases`.  The first :meth:`play_phases`
    call of an episode plans every remaining phase at once; a later
    call, made after a departure cut the segment short, slices that plan,
    so no phase is planned twice.
    """

    _plan = None

    def start(self, rng: np.random.Generator) -> None:
        self._plan = None

    def plan_phases(self, arrivals: np.ndarray) -> np.ndarray:
        """The ``(phases, tau)`` pulls for the ``(phases, tau)`` arrivals."""
        raise NotImplementedError

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord) -> np.ndarray:
        if self._plan is None:
            self._plan = self.plan_phases(arrivals)
        return self._plan[len(self._plan) - len(arrivals):]


@dataclass
class RunRecord:
    """Complete trajectory of one simulated episode.

    ``expected_reward`` is the exact total of ``mu[u_t][a_t]`` over
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
    the generator state.  A draw's type is the number of type boundaries
    (the cumulative sums of ``P`` but the last) it reaches; the last
    type also takes the draws that a rounded cumulative sum short of 1
    leaves above every boundary.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    cum = np.cumsum(np.asarray(P, dtype=np.float64))
    draws = rng.random(length)
    types = np.zeros(length, dtype=np.int16)
    for boundary in cum[:-1]:
        types += draws >= boundary
    return types


def recompute_expected_reward(record: RunRecord, instance: Instance) -> float:
    """The expected-reward total of a trajectory: ``mu[u_t][a_t]`` summed
    over live pulls, exactly and rounded once.

    Live pulls are counted per (type, arm) cell; the cells' count times
    ``mu`` products are summed as Fractions, which is exact, and rounded
    to the nearest float.  That is the correctly rounded sum, the value
    ``math.fsum`` gives over the per-round floats, at O(n*k) cost after
    the count.
    """
    n, k = instance.n, instance.k
    live = (record.pulls >= 0) & ~record.dead_pulls
    # non-live rounds land in an extra cell past the n*k real ones
    cell = np.where(live, record.arrivals.astype(np.intp) * k + record.pulls, n * k)
    counts = np.bincount(cell, minlength=n * k + 1)[: n * k].tolist()
    mu = [m for row in instance.mu for m in row]
    return float(sum(Fraction(c) * Fraction(m) for c, m in zip(counts, mu) if c))


def _departures(counts, bar: list, first_phase: int) -> list[tuple[int, int]]:
    """The departure rule at the end of consecutive phases.

    ``counts`` holds one row per phase, from phase ``first_phase`` on, of
    pulls per arm, dead pulls included; ``bar`` holds each arm's threshold
    while it is viable and 0 once it has departed.  An arm departs at the
    end of the first phase in which it got strictly fewer pulls than its
    bar (meeting the threshold exactly is enough), and its bar drops to 0
    in place.  Returns the departures as (phase, arm) pairs, ordered by
    phase, then arm.
    """
    events = []
    for phase, row in enumerate(counts, first_phase):
        for a, (c, b) in enumerate(zip(row, bar)):
            if c < b:
                bar[a] = 0
                events.append((phase, a))
    return events


def run_episode(
    instance: Instance,
    policy: Policy,
    seed: int,
    reward_mode: str = "expected",
) -> RunRecord:
    """Simulate ``instance.T`` rounds of ``policy`` against the instance.

    Policies that define ``play_phases`` take the segment path, all
    others the round-by-round loop; both give the same record.

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

    policy.start(policy_rng)
    if policy.play_phases is not None:
        pulls, realized, dead, departures = _play_segments(
            instance, policy, arrivals, noise, seed
        )
    else:
        pulls, realized, dead, departures = _play_loop(
            instance, policy, arrivals, noise
        )

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


def _play_segments(instance: Instance, policy: Policy, arrivals, noise, seed: int):
    """Phase segments from ``policy.play_phases``, each cut after the
    first phase that ends with a departure."""
    k, tau, phases = instance.k, instance.tau, instance.phases
    mu = np.asarray(instance.mu, dtype=np.float64)
    blocks = arrivals.reshape(phases, tau)
    bar = list(instance.delta)
    pulls = np.empty(instance.T, dtype=np.int16)
    realized = np.empty(instance.T, dtype=np.float64)
    dead = np.empty(instance.T, dtype=bool)
    departures: list[tuple[int, int]] = []
    viable = frozenset(range(k))
    done = 0
    while done < phases:
        lo = done * tau
        past = RunRecord(
            arrivals=arrivals[:lo],
            pulls=pulls[:lo],
            realized_rewards=realized[:lo],
            expected_reward=math.nan,
            departure_events=list(departures),
            seed=seed,
            dead_pulls=dead[:lo],
        )
        seg = np.asarray(policy.play_phases(blocks[done:], viable, past))
        if seg.ndim != 2 or seg.shape[1] != tau or not 1 <= len(seg) <= phases - done:
            raise ValueError(
                f"play_phases returned shape {seg.shape} for {phases - done} "
                f"phases of {tau} rounds"
            )
        wrong = (seg < NO_PULL) | (seg >= k)
        if wrong.any():
            t = lo + int(np.flatnonzero(wrong.ravel())[0])
            raise ValueError(
                f"policy returned arm {int(seg.flat[t - lo])} outside [0, {k}) "
                f"at round {t}"
            )
        counts = np.stack([(seg == a).sum(axis=1) for a in range(k)], axis=1)
        short = (counts < np.array(bar)).any(axis=1)
        gone = []
        if short.any():
            # the viable set changes after the first short phase: keep up
            # to it, and let the departure rule name who leaves there
            first = int(short.argmax())
            gone = _departures(counts[first : first + 1].tolist(), bar,
                               done + 1 + first)
            seg = seg[: first + 1]
        hi = lo + seg.size
        done += len(seg)
        seg = seg.ravel()
        pulls[lo:hi] = seg
        # a pull is dead when its arm is not viable; NO_PULL never is
        dead_arm = np.ones(k + 1, dtype=bool)
        dead_arm[list(viable)] = False
        dead_arm[NO_PULL] = False
        dead[lo:hi] = dead_arm[seg]
        live = (seg >= 0) & ~dead[lo:hi]
        values = mu[arrivals[lo:hi], np.maximum(seg, 0)]
        if noise is not None:
            realized[lo:hi] = np.where(live & (noise[lo:hi] < values), 1.0, 0.0)
        else:
            realized[lo:hi] = np.where(live, values, 0.0)
        viable = viable.difference(a for _, a in gone)
        departures.extend(gone)
    return pulls, realized, dead, departures


def _play_loop(instance: Instance, policy: Policy, arrivals, noise):
    """Round by round through ``policy.choose``: the reference path."""
    k, tau, T = instance.k, instance.tau, instance.T
    mu = [list(row) for row in instance.mu]
    bar = list(instance.delta)
    pulls = np.full(T, NO_PULL, dtype=np.int16)
    realized = np.zeros(T, dtype=np.float64)
    dead = np.zeros(T, dtype=bool)
    departures: list[tuple[int, int]] = []

    choose = policy.choose
    feedback = policy.feedback if policy.wants_feedback else None

    viable = frozenset(range(k))
    phase = 1
    for start in range(0, T, tau):
        block = arrivals[start : start + tau].tolist()
        counts = [0] * k
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
                    if noise is not None:
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
        gone = _departures([counts], bar, phase)
        if gone:
            viable = viable.difference(a for _, a in gone)
            departures.extend(gone)
        phase += 1
    return pulls, realized, dead, departures
