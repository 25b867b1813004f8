"""Simulator of the interaction protocol, streamed in blocks of phases.

Each round a user type arrives, the policy pulls an arm (or declines),
and a reward is realized.  At every phase boundary, arms whose pull count
within the phase fell short of their exposure threshold depart for good.
Pulling a departed arm stays legal but yields 0 reward and is flagged, so
threshold-oblivious baselines can run unmodified.

An episode walks its horizon in blocks of whole phases: ``BLOCK_ROUNDS``
rounds rounded down to whole phases, and at least one phase.  Each
block's arrivals and reward noise are drawn when the block starts, its
pulls, rewards and dead-pull flags are written straight into the
record's arrays, and its live pulls are counted per (type, arm) cell,
from which the exact expected reward is summed once at the end.  So an
episode holds its record, ``RECORD_BYTES`` per round, plus one block of
working arrays, and an episode whose record would not fit under
``EPISODE_BYTE_CAP`` is refused before anything is allocated.

An arm can depart only at a phase boundary, so the viable set is fixed
for the whole of a phase, and a block is played a phase segment at a
time: the simulator asks the policy's ``play_phases`` (see
:class:`Policy`) for the pulls of the block's phases not yet played,
keeps them up to and including the first phase that ends with a
departure, and asks again with the smaller viable set.  A learner asks
for the rewards its pulls realize, on demand.  The range check, the
dead-pull flags, the realized rewards and the live counts have this one
implementation.

One master seed splits into three independent streams (arrivals, reward
noise, policy randomness), so changing the reward model never perturbs
the arrival sequence.  Drawing a stream a block at a time gives the
same numbers as drawing it at once, so the block size never moves a
record.  Identical (instance, policy, seed) inputs produce a
bitwise-identical :class:`RunRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import Instance, Observables, ResourceGuardError

__all__ = [
    "NO_PULL",
    "REWARD_MODES",
    "BLOCK_ROUNDS",
    "RECORD_BYTES",
    "BLOCK_BYTES",
    "EPISODE_BYTE_CAP",
    "LONGEST_EPISODE",
    "Policy",
    "CommittedPolicy",
    "RunRecord",
    "sample_arrivals",
    "run_episode",
    "recompute_expected_reward",
]

REWARD_MODES = ("sampled", "expected")

NO_PULL = -1  # pulls[] marker for rounds where the policy declined to act

BLOCK_ROUNDS = 1 << 17  # rounds per block, rounded down to whole phases
# per round of the record: int16 arrival and pull, float64 reward, bool flag
RECORD_BYTES = 13
# the working arrays of one block, at most this many bytes per block round
BLOCK_BYTES = 64 * BLOCK_ROUNDS
EPISODE_BYTE_CAP = 2**31  # record plus one block
# the most rounds whose record and one block fit under the cap
LONGEST_EPISODE = (EPISODE_BYTE_CAP - BLOCK_BYTES) // RECORD_BYTES


class Policy:
    """Base class for decision makers, played a phase segment at a time.

    A policy object serves one episode at a time; :meth:`start` must reset
    all per-episode state so the same object can be reused across seeds.
    A learner is a policy built from an
    :class:`~exposure_bandits.core.Observables` view, which it keeps as
    its ``observables``; a policy built from the instance itself keeps
    ``None`` there.  :func:`run_episode` refuses an instance the view
    does not describe.  ``bad_event_phases`` lists the 1-based phases of
    the last episode in which the policy's confidence-floor fallback
    fired; it stays empty for policies without one.  A policy declares
    ``horizon_free`` when its play in round ``t`` does not depend on the
    horizon ``T``: then the first ``H`` rounds of an episode equal, seed
    for seed, the episode of horizon ``H`` (see :meth:`RunRecord.prefix`).

    A policy's play in a phase may depend only on the viable set, that
    phase's arrivals, the earlier phases and the rewards of its own
    pulls.  :func:`run_episode` plays it, after :meth:`start`, through
    ``play_phases(arrivals, viable, past, reward)``, the segment
    contract:

    - ``arrivals`` is the int16 ``(m, tau)`` rest of the current block:
      its phases not yet played;
    - ``viable`` is the current viable set;
    - ``past`` is the :class:`RunRecord` prefix of the rounds played so
      far (``expected_reward`` is NaN there), so ``len(past.pulls)`` is
      the round ``arrivals`` starts at;
    - ``reward(arm, rounds)`` gives, as a float64 array, the rewards that
      pulls of ``arm`` would realize at ``rounds``, indices into
      ``arrivals.ravel()`` (``arm`` may be an integer array that
      broadcasts against them): ``noise < mu`` when Bernoulli rewards
      are sampled, ``mu`` otherwise, and 0 for an arm outside
      ``viable``, as the record will hold them.  It draws nothing and
      costs nothing unless called; a policy that does not learn ignores
      it.

    It returns the ``(m', tau)`` pulls, ``1 <= m' <= m``, of the first
    ``m'`` of those phases, played as if ``viable`` stayed fixed
    (``NO_PULL`` where the policy declines).  The simulator keeps the
    pulls up to and including the first phase that ends with a
    departure, and calls again with the rest of the block, then with
    the next block.  A policy that learns from its rewards finds its
    state ahead of ``past`` after such a cut and must bring it back to
    ``past``.  Pulls that are not C-ordered cost :func:`_play_segments`
    strided copies.
    """

    bad_event_phases = ()
    observables = None
    horizon_free = False

    def start(self, rng: np.random.Generator) -> None:
        """Reset per-episode state; ``rng`` is the policy-private stream."""

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord, reward) -> np.ndarray:
        """The pulls of the first phases of ``arrivals`` (see above)."""
        raise NotImplementedError


class CommittedPolicy(Policy):
    """A policy whose pulls in a phase depend only on that phase's
    arrivals and its index: it reads neither the viable set nor feedback.

    Subclasses define :meth:`plan_phases`.  The first :meth:`play_phases`
    call of a block plans the rest of the block at once; a later call in
    the same block, made after a departure cut the segment short, slices
    that plan, so no phase is planned twice.  Phases count from the
    round of the episode's first call, so a policy handed the rest of an
    episode (as ``EesPolicy`` hands it to its planner) counts from there.
    """

    def start(self, rng: np.random.Generator) -> None:
        self._origin = None  # the round of the episode's first call
        self._plan = None
        self._plan_end = 0  # the round past the planned block

    def plan_phases(self, arrivals: np.ndarray, first: int) -> np.ndarray:
        """The ``(phases, tau)`` pulls for the ``(phases, tau)`` arrivals
        of the policy's phases ``first``, ``first + 1``, ... (0-based)."""
        raise NotImplementedError

    def play_phases(self, arrivals: np.ndarray, viable: frozenset,
                    past: RunRecord, reward) -> np.ndarray:
        played = len(past.pulls)
        if self._origin is None:
            self._origin = self._plan_end = played
        if played == self._plan_end:
            first = (played - self._origin) // arrivals.shape[1]
            self._plan = self.plan_phases(arrivals, first)
            self._plan_end = played + arrivals.size
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

    def prefix(self, rounds: int, tau: int) -> RunRecord:
        """The record of the first ``rounds`` rounds, a multiple of
        ``tau``: views of the arrays and the departures up to phase
        ``rounds / tau``; ``expected_reward`` is NaN."""
        return RunRecord(
            arrivals=self.arrivals[:rounds],
            pulls=self.pulls[:rounds],
            realized_rewards=self.realized_rewards[:rounds],
            expected_reward=math.nan,
            departure_events=[e for e in self.departure_events if e[0] * tau <= rounds],
            seed=self.seed,
            dead_pulls=self.dead_pulls[:rounds],
        )


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


def recompute_expected_reward(record: RunRecord, instance: Instance,
                              counts=None) -> float:
    """The expected-reward total of a trajectory: ``mu[u_t][a_t]`` summed
    over live pulls, exactly and rounded once.

    Live pulls are counted per (type, arm) cell, unless ``counts``
    gives those ``(n, k)`` counts already; the cells' count times ``mu``
    products are summed as Fractions, which is exact, and rounded to
    the nearest float.  That is the correctly rounded sum, the value
    ``math.fsum`` gives over the per-round floats, at O(n*k) cost after
    the count.
    """
    n, k = instance.n, instance.k
    if counts is None:
        cell = _cells(record.arrivals, record.pulls, k)
        counts = _live_counts(cell, record.dead_pulls, n, k)
    mu = [m for row in instance.mu for m in row]
    cells = np.asarray(counts).ravel().tolist()
    return float(sum(Fraction(c) * Fraction(m) for c, m in zip(cells, mu) if c))


def _cells(arrivals, pulls, k: int) -> np.ndarray:
    """Each round's cell ``type * (k + 1) + 1 + pull``: a type's row of
    ``k + 1`` cells starts with its declined rounds, then one per arm."""
    cell = arrivals.astype(np.intp)
    cell *= k + 1
    cell += pulls
    cell += 1
    return cell


def _cell_sums(cell, n: int, k: int, weights=None) -> np.ndarray:
    """The rounds' ``weights`` (one each by default) summed per (type,
    arm) cell of their :func:`_cells`, as an ``(n, k)`` array; a declined
    round's cell heads its type's row, which is dropped."""
    return np.bincount(cell, weights=weights, minlength=n * (k + 1)).reshape(n, k + 1)[:, 1:]


def _live_counts(cell, dead, n: int, k: int) -> np.ndarray:
    """The live pulls (neither declined nor dead) of each (type, arm)
    cell, as an ``(n, k)`` array, from the rounds' :func:`_cells` and
    dead-pull flags."""
    counts = _cell_sums(cell, n, k)
    if dead.any():
        counts -= _cell_sums(cell[dead], n, k)
    return counts


def _departures(counts, bar: list, phase: int) -> list[tuple[int, int]]:
    """The departure rule at the end of 1-based phase ``phase``.

    ``counts`` holds the phase's pulls per arm, dead pulls included;
    ``bar`` holds each arm's threshold while it is viable and 0 once it
    has departed.  An arm departs when it got strictly fewer pulls than
    its bar (meeting the threshold exactly is enough), and its bar drops
    to 0 in place.  Returns the departures as (phase, arm) pairs, ordered
    by arm.
    """
    events = [(phase, a) for a, (c, b) in enumerate(zip(counts, bar)) if c < b]
    for _, a in events:
        bar[a] = 0
    return events


def run_episode(
    instance: Instance,
    policy: Policy,
    seed: int,
    reward_mode: str = "expected",
) -> RunRecord:
    """Simulate ``instance.T`` rounds of ``policy`` against the instance,
    in phase segments from ``policy.play_phases`` (see :class:`Policy`).

    Parameters
    ----------
    reward_mode : str
        ``"expected"`` records ``mu[u][a]`` directly as the realized value
        (for planners evaluated in expectation); ``"sampled"`` draws the
        reward model (Bernoulli or deterministic), which is what learning
        policies should see as feedback.

    Raises ``ValueError`` before the episode starts if the policy's
    ``observables`` do not describe ``instance``, and during it if the
    policy returns an arm outside ``[0, k)``; ``ResourceGuardError``
    before anything is allocated if the record and one block exceed
    ``EPISODE_BYTE_CAP`` bytes.  Rounds with no pull (``NO_PULL``)
    yield 0.
    """
    if reward_mode not in REWARD_MODES:
        raise ValueError(f"reward_mode {reward_mode!r} not in {REWARD_MODES}")
    if policy.observables is not None and policy.observables != Observables.from_instance(
        instance
    ):
        raise ValueError(
            f"the policy was built for {policy.observables}, which does not "
            "describe the instance it is run on"
        )
    n, k, tau, T = instance.n, instance.k, instance.tau, instance.T
    if T > LONGEST_EPISODE:
        raise ResourceGuardError(
            f"an episode of {T} rounds needs {RECORD_BYTES * T + BLOCK_BYTES} "
            f"bytes, over the cap {EPISODE_BYTE_CAP}"
        )

    ss = np.random.SeedSequence(seed)
    arrival_rng, reward_rng, policy_rng = map(np.random.default_rng, ss.spawn(3))
    sample_bernoulli = (
        reward_mode == "sampled" and instance.reward_kind == "bernoulli"
    )
    record = RunRecord(
        arrivals=np.empty(T, dtype=np.int16),
        pulls=np.empty(T, dtype=np.int16),
        realized_rewards=np.empty(T, dtype=np.float64),
        expected_reward=math.nan,
        departure_events=[],
        seed=seed,
        dead_pulls=np.empty(T, dtype=bool),
    )
    policy.start(policy_rng)
    counts = np.zeros((n, k), dtype=np.int64)
    step = max(1, BLOCK_ROUNDS // tau) * tau
    for lo in range(0, T, step):
        hi = min(lo + step, T)
        record.arrivals[lo:hi] = sample_arrivals(instance.P, hi - lo, arrival_rng)
        # positional noise: round t always consumes the t-th draw, so the
        # policy's choices cannot shift the reward stream
        noise = reward_rng.random(hi - lo) if sample_bernoulli else None
        counts += _play_segments(instance, policy, record, lo, hi, noise)
    record.expected_reward = recompute_expected_reward(record, instance, counts)
    return record


def _state(instance: Instance, record: RunRecord):
    """The viable set and the departure bars (see :func:`_departures`)
    after the departures recorded so far."""
    gone = {a for _, a in record.departure_events}
    viable = frozenset(range(instance.k)).difference(gone)
    bar = [0 if a in gone else d for a, d in enumerate(instance.delta)]
    return viable, bar


def _play_segments(instance: Instance, policy: Policy, record: RunRecord,
                   lo: int, hi: int, noise) -> np.ndarray:
    """Rounds ``lo:hi`` in phase segments from ``policy.play_phases``,
    each cut after the first phase that ends with a departure.  Returns
    their live pulls per (type, arm) (see :func:`_live_counts`)."""
    n, k, tau = instance.n, instance.k, instance.tau
    arrivals, pulls, realized, dead = (
        record.arrivals, record.pulls, record.realized_rewards, record.dead_pulls
    )
    departures = record.departure_events
    viable, bar = _state(instance, record)
    # a type's row holds 0 for a declined round, then each arm's utility
    value = np.zeros((n, k + 1))
    value[:, 1:] = instance.mu
    block = arrivals[lo:hi].reshape(-1, tau)
    live = np.zeros((n, k), dtype=np.int64)
    start = lo
    while start < hi:
        left = (hi - start) // tau
        past = record.prefix(start, tau)
        if len(viable) == k:
            table = value.ravel()
        else:
            # a dead pull realizes 0
            table = value.copy()
            table[:, [1 + a for a in range(k) if a not in viable]] = 0.0
            table = table.ravel()
        rest = noise[start - lo :] if noise is not None else None
        seg = np.asarray(policy.play_phases(
            block[len(block) - left:], viable, past,
            _reward(table, arrivals[start:hi], rest, k),
        ))
        if seg.ndim != 2 or seg.shape[1] != tau or not 1 <= len(seg) <= left:
            raise ValueError(
                f"play_phases returned shape {seg.shape} for {left} "
                f"phases of {tau} rounds"
            )
        if seg.min() < NO_PULL or seg.max() >= k:
            i = int(np.flatnonzero((seg < NO_PULL) | (seg >= k))[0])
            raise ValueError(
                f"policy returned arm {int(seg.flat[i])} outside [0, {k}) "
                f"at round {start + i}"
            )
        # pulls per arm in each phase, after a column of declined rounds
        index = seg.astype(np.intp)
        index += (np.arange(len(seg)) * (k + 1) + 1)[:, None]
        counts = _cell_sums(index.ravel(), len(seg), k)
        short = (counts < np.array(bar)).any(axis=1)
        gone = []
        if short.any():
            # the viable set changes after the first short phase: keep up
            # to it, and let the departure rule name who leaves there
            first = int(short.argmax())
            gone = _departures(counts[first].tolist(), bar, start // tau + 1 + first)
            seg = seg[: first + 1]
        end = start + seg.size
        seg = seg.ravel()
        pulls[start:end] = seg
        if len(viable) == k:
            dead[start:end] = False
        else:
            # a pull is dead when its arm is not viable; NO_PULL never is
            dead_arm = np.ones(k + 1, dtype=bool)
            dead_arm[list(viable)] = False
            dead_arm[NO_PULL] = False
            dead[start:end] = dead_arm[seg]
        # each round's utility, 0 for a declined or dead pull
        cell = _cells(arrivals[start:end], seg, k)
        if noise is not None:
            draws = noise[start - lo : end - lo]
            realized[start:end] = draws < table[cell]
        else:
            # every cell is in range: "clip" writes straight into the record
            np.take(table, cell, out=realized[start:end], mode="clip")
        live += _live_counts(cell, dead[start:end], n, k)
        viable = viable.difference(a for _, a in gone)
        departures.extend(gone)
        start = end
    return live


def _reward(table, arrivals, noise, k: int):
    """The ``reward(arm, rounds)`` of the segment contract (see
    :class:`Policy`) over the offered ``arrivals`` and their ``noise``
    draws (``None`` when rewards are the means), from the utility table
    the segment's rounds are realized from."""

    def reward(arm, rounds):
        cell = arrivals[rounds].astype(np.intp) * (k + 1) + (np.asarray(arm) + 1)
        if noise is None:
            return table[cell]
        return (noise[rounds] < table[cell]).astype(np.float64)

    return reward
