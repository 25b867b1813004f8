from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exposure_bandits import (
    NO_PULL,
    ContractError,
    InfeasibleError,
    Instance,
    LcbPolicy,
    LlcbPolicy,
    Policy,
    ResourceGuardError,
    RunRecord,
    baseline_policy,
    recompute_expected_reward,
    run_episode,
    sample_arrivals,
)
from exposure_bandits import env, lcb
from exposure_bandits.cli import ALGORITHMS, make_policy, policy_class
from exposure_bandits.learn import GreedyBanditPolicy
from exposure_bandits.presets import (
    early_harvest,
    subsidy_wasteful,
    subsidy_worthwhile,
    symmetric_tight,
)
from conftest import IDENTITY2, make_instance, stepped_phases


class RoundByRound(Policy):
    """Plays the first offered phase round by round through
    :meth:`choose`, which returns the arm of round ``t`` for an arriving
    type ``u`` over the viable set, or ``None`` to decline: the driver of
    the scripted test policies, on the segment contract."""

    def play_phases(self, arrivals, viable, past, reward):
        t = len(past.pulls)
        picks = [self.choose(t + r, u, viable) for r, u in enumerate(arrivals[0].tolist())]
        return np.array([[NO_PULL if a is None else a for a in picks]])


class FixedArmPolicy(RoundByRound):
    """Always pulls the same arm, viable or not."""

    def __init__(self, arm):
        self.arm = arm

    def choose(self, t, u, viable):
        return self.arm


class ScriptedPolicy(RoundByRound):
    """Pulls ``script[t]`` in round t (``None`` declines)."""

    def __init__(self, script):
        self.script = script

    def choose(self, t, u, viable):
        return self.script[t]


class OwnArmPolicy(RoundByRound):
    """Each type pulls its own arm (identity preference)."""

    def choose(self, t, u, viable):
        return u


def test_sample_arrivals_matches_the_law():
    rng = np.random.default_rng(0)
    P = (0.2, 0.5, 0.3)
    draws = sample_arrivals(P, 100_000, rng)
    assert draws.min() >= 0 and draws.max() <= 2
    for u, p in enumerate(P):
        freq = float((draws == u).mean())
        sigma = math.sqrt(p * (1 - p) / 100_000)
        assert abs(freq - p) < 4 * sigma


class FixedDraws:
    """A generator stand-in whose ``random`` returns the given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, length):
        assert length == len(self.draws)
        return self.draws.copy()


@st.composite
def arrival_laws(draw):
    """A simplex and draws that hit its boundaries, their neighbouring
    floats and the ends of [0, 1), besides arbitrary ones."""
    if draw(st.booleans()):
        # float sums of these fall short of 1 (ten 0.1s sum to 0.9999...)
        P = draw(st.sampled_from([(0.1,) * 10, (0.7, 0.1, 0.1, 0.1), (1 / 3,) * 3]))
    else:
        weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
        P = tuple(w / sum(weights) for w in weights)
    cum = np.cumsum(P)
    edges = [0.0, np.nextafter(1.0, 0.0)]
    for c in cum:
        edges += [c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)]
    edges = [e for e in edges if 0.0 <= e < 1.0]
    draws = draw(st.lists(st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_max=True),
                          max_size=40))
    return P, draws


@settings(max_examples=150, deadline=None)
@given(arrival_laws())
def test_sample_arrivals_counts_the_boundaries_each_draw_reaches(law):
    P, draws = law
    cum = np.cumsum(np.asarray(P, dtype=np.float64))
    # the reference: search the cumulative sums, then clip to the last type
    want = np.clip(np.searchsorted(cum, draws, side="right"), 0, len(P) - 1)
    got = sample_arrivals(P, len(draws), FixedDraws(draws))
    assert got.dtype == np.int16
    assert got.tolist() == want.tolist()


def test_same_seed_reproduces_the_episode_exactly():
    inst = make_instance(tau=10, phases=5, delta=(2, 2))
    a = run_episode(inst, OwnArmPolicy(), 42)
    b = run_episode(inst, OwnArmPolicy(), 42)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.pulls, b.pulls)
    assert np.array_equal(a.realized_rewards, b.realized_rewards)
    assert a.expected_reward == b.expected_reward
    assert a.departure_events == b.departure_events
    c = run_episode(inst, OwnArmPolicy(), 43)
    assert not np.array_equal(a.arrivals, c.arrivals)


def test_expected_reward_matches_recomputation():
    # non-dyadic utilities, so a plain float sum would round differently;
    # arm 1 departs after phase 1, so later pulls of it are dead
    inst = make_instance(tau=10, phases=20, delta=(2, 4),
                         mu=((0.7, 0.1), (0.3, 0.6)))

    class Drifting(RoundByRound):
        def choose(self, t, u, viable):
            return u if t < inst.tau else (t + u) % 3 % 2

    mu = np.asarray(inst.mu)
    for policy in (OwnArmPolicy(), Drifting()):
        for seed in range(5):
            rec = run_episode(inst, policy, seed, reward_mode="sampled")
            live = (rec.pulls >= 0) & ~rec.dead_pulls
            exact = math.fsum(mu[rec.arrivals[live], rec.pulls[live]].tolist())
            assert rec.expected_reward == exact
            assert recompute_expected_reward(rec, inst) == exact
    assert rec.dead_pulls.any()


def test_expected_mode_realizes_the_means():
    inst = make_instance(tau=10, phases=5, delta=(0, 0))
    rec = run_episode(inst, OwnArmPolicy(), 0, reward_mode="expected")
    assert rec.realized_rewards.sum() == rec.expected_reward


def test_deterministic_kind_realizes_the_means_even_when_sampled():
    inst = make_instance(tau=10, phases=5, delta=(0, 0),
                         mu=((0.7, 0.1), (0.2, 0.6)), reward_kind="deterministic")
    rec = run_episode(inst, OwnArmPolicy(), 0, reward_mode="sampled")
    assert rec.realized_rewards.sum() == pytest.approx(rec.expected_reward, abs=1e-9)


def test_sampled_rewards_agree_with_means_within_noise():
    inst = make_instance(tau=100, phases=20, delta=(0, 0),
                         mu=((0.7, 0.1), (0.2, 0.6)))
    rec = run_episode(inst, OwnArmPolicy(), 7, reward_mode="sampled")
    # Bernoulli sum vs its mean: 4 sigma with the worst-case variance bound
    slack = 4 * math.sqrt(0.25 * inst.T)
    assert abs(rec.realized_rewards.sum() - rec.expected_reward) < slack


def test_neglected_arm_departs_and_later_pulls_are_dead():
    inst = make_instance(tau=10, phases=3, delta=(0, 4))
    rec = run_episode(inst, FixedArmPolicy(0), 0, reward_mode="expected")
    assert rec.departure_events == [(1, 1)]
    rec2 = run_episode(inst, FixedArmPolicy(1), 0, reward_mode="expected")
    assert rec2.departure_events == []
    # pin arm 1 to depart, then pull it anyway: flagged dead, zero reward
    class Stubborn(RoundByRound):
        def choose(self, t, u, viable):
            return 1 if t >= inst.tau else 0

    rec3 = run_episode(inst, Stubborn(), 0, reward_mode="expected")
    assert rec3.departure_events == [(1, 1)]
    dead = rec3.dead_pulls
    assert dead[inst.tau:].all()
    assert not dead[: inst.tau].any()
    assert rec3.realized_rewards[inst.tau:].sum() == 0.0
    assert rec3.dead_pulls.sum() == 2 * inst.tau


def test_meeting_the_threshold_exactly_is_enough():
    inst = make_instance(tau=10, phases=2, delta=(3, 3))
    # phase 1: arm 0 exactly three times, arm 1 only twice
    script = [0, 0, 0, 1, 1] + [None] * 5 + [0, 0, 0, 1, 1, 1] + [None] * 4
    rec = run_episode(inst, ScriptedPolicy(script), 0)
    assert rec.departure_events == [(1, 1)]


@st.composite
def pull_scripts(draw):
    k = draw(st.integers(1, 3))
    tau = draw(st.integers(1, 6))
    phases = draw(st.integers(1, 4))
    delta = tuple(draw(st.lists(st.integers(0, tau), min_size=k, max_size=k)))
    arms = st.one_of(st.none(), st.integers(0, k - 1))
    script = draw(st.lists(arms, min_size=tau * phases, max_size=tau * phases))
    inst = make_instance(n=1, k=k, tau=tau, phases=phases, P=(1.0,), delta=delta,
                         mu=(tuple(0.5 for _ in range(k)),))
    return inst, script


@settings(max_examples=200, deadline=None)
@given(pull_scripts())
def test_arm_departs_exactly_when_viable_and_short_of_its_threshold(case):
    inst, script = case
    rec = run_episode(inst, ScriptedPolicy(script), 0)
    viable = set(range(inst.k))
    expected = []
    for p in range(inst.phases):
        phase = script[p * inst.tau : (p + 1) * inst.tau]
        for t, a in enumerate(phase, start=p * inst.tau):
            # a pull of a departed arm is dead, a pull of a viable one is not
            assert rec.dead_pulls[t] == (a is not None and a not in viable)
        for a in sorted(viable):
            if phase.count(a) < inst.delta[a]:
                expected.append((p + 1, a))
                viable.discard(a)
    assert rec.departure_events == expected


def test_no_pull_rounds_are_recorded_as_such():
    class Abstain(RoundByRound):
        def choose(self, t, u, viable):
            return None

    inst = make_instance(tau=10, phases=2, delta=(0, 0))
    rec = run_episode(inst, Abstain(), 0)
    assert (rec.pulls == NO_PULL).all()
    assert rec.expected_reward == 0.0
    assert rec.departure_events == []  # zero thresholds never bind


def test_out_of_range_arm_raises():
    inst = make_instance(tau=10, phases=1, delta=(0, 0))
    with pytest.raises(ValueError):
        run_episode(inst, FixedArmPolicy(2), 0)
    with pytest.raises(ValueError):
        run_episode(inst, FixedArmPolicy(-2), 0)


def test_baseline_keeps_arm_alive_only_if_it_wants_to():
    inst = make_instance(tau=100, phases=5, delta=(10, 60))
    never = baseline_policy("never_subsidize", inst)
    rec = run_episode(inst, never, 0, reward_mode="expected")
    assert rec.departure_events == [(1, 1)]
    blind = baseline_policy("blind_subsidize", inst)
    rec2 = run_episode(inst, blind, 0, reward_mode="expected")
    assert rec2.departure_events == []


# -- the fast paths against the package's scalar paths ----------------------

# every algorithm id plays in phase segments, the bandit learner included;
# a new id joins this harness, and fails it unless it has a segment path
SEGMENT_IDS = ALGORITHMS
# (reward mode, reward kind)
REWARDS = [(mode, kind) for mode in ("expected", "sampled")
           for kind in ("bernoulli", "deterministic")]


def assert_same_record(record, reference):
    for f in fields(RunRecord):
        a, b = getattr(record, f.name), getattr(reference, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        elif isinstance(a, float):
            assert type(b) is float and a.hex() == b.hex(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name
    for event in record.departure_events:
        assert type(event) is tuple and all(type(x) is int for x in event)


def reported(policy):
    """What a policy reports about its last episode besides the record:
    fallback phases and, for the learners, the estimates."""
    return getattr(policy, "bad_event_phases", None), getattr(policy, "estimates", None)


def outcome(inst, policy, seed, mode):
    """The record of one episode, or the type and text of what it raised."""
    try:
        return run_episode(inst, policy, seed, reward_mode=mode)
    except Exception as exc:  # both paths must raise the same
        return type(exc), str(exc)


def scalar_run(inst, policy, seed, mode):
    """The :func:`outcome` of one episode on the package's scalar paths:
    the LCB replay steps every phase through ``lcb_policy_step``, and
    the bandit never checks a run, so each of its rounds is one
    ``_ucb_pick`` step."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lcb, "_rank_replay",
                  lambda Ms, mu, arrivals, out: np.zeros(len(arrivals), dtype=bool))
        m.setattr(GreedyBanditPolicy, "RUN", inst.T + 1)
        return outcome(inst, policy, seed, mode)


def run_both(inst, policy, seed, mode):
    """The record of one episode and the one :func:`scalar_run` plays,
    checked equal, and the first run's fallback phases (checked equal
    too)."""
    fast = outcome(inst, policy, seed, mode)
    seen = reported(policy)
    scalar = scalar_run(inst, policy, seed, mode)
    if isinstance(fast, RunRecord):
        assert_same_record(fast, scalar)
    else:
        assert fast == scalar
    assert seen == reported(policy)
    return fast, seen[0]


def indifferent_type(T):
    """Type 0 values both arms alike and both arms are kept, so its picks
    are ties, broken by the remaining deficit and then the arm index."""
    return make_instance(n=3, tau=100, phases=T // 100, P=(0.5, 0.25, 0.25),
                         delta=(30, 30), mu=((0.5, 0.5), (1.0, 0.0), (0.0, 1.0)))


def shortfall(phases):
    """At tau=4, type 0 misses its confidence floor of 1 in about 0.07%
    of the phases, so the LCB fallback fires."""
    return make_instance(tau=4, phases=phases, P=(0.84, 0.16), delta=(1, 1),
                         mu=((0.9, 0.2), (0.1, 0.8)))


def test_every_id_plays_in_segments():
    inst = subsidy_worthwhile(T=100 * 40)
    for algo in ALGORITHMS:
        policy = make_policy(algo, inst)
        assert type(policy).play_phases is not Policy.play_phases, algo


@pytest.mark.parametrize("preset", [symmetric_tight, subsidy_worthwhile, subsidy_wasteful,
                                    indifferent_type])
@pytest.mark.parametrize("algo", SEGMENT_IDS)
def test_segments_match_the_loop_on_the_presets(algo, preset):
    for mode, kind in REWARDS:
        inst = replace(preset(T=100 * 40), reward_kind=kind)
        policy = make_policy(algo, inst)
        for seed in (0, 1):
            rec, _ = run_both(inst, policy, seed, mode)
            assert isinstance(rec, RunRecord)
            if preset is subsidy_wasteful and not algo.startswith("ees-") and algo != "blind":
                # the planners let arm 1 go in phase 1, and so do the
                # baselines that never serve it
                assert rec.departure_events == [(1, 1)]


@pytest.mark.parametrize("algo", SEGMENT_IDS)
def test_segments_match_the_loop_where_the_fallback_fires(algo):
    inst = shortfall(20_000)
    policy = make_policy(algo, inst)
    mode = "sampled" if policy.observables is not None else "expected"
    rec, fallbacks = run_both(inst, policy, 12345, mode)
    assert isinstance(rec, RunRecord)
    if "lcb" in algo:
        assert fallbacks
        if algo.startswith("ees-"):
            assert min(fallbacks) > policy.exploration_phases


@pytest.mark.parametrize("phases", [4, 40])
@pytest.mark.parametrize("planner", [LcbPolicy, LlcbPolicy])
def test_segments_match_the_loop_over_few_long_phases(planner, phases):
    # tau=2000: the replay gathers each phase's pulls by arrival rank
    inst = early_harvest(tau=2000, phases=phases)
    policy = planner(inst)
    for seed in (0, 1):
        rec, fallbacks = run_both(inst, policy, seed, "expected")
        assert isinstance(rec, RunRecord)
        assert fallbacks == []


@pytest.mark.parametrize("preset", [subsidy_worthwhile, symmetric_tight])
def test_one_short_phase_among_clean_ones_steps_alone(preset, monkeypatch):
    # seed 643 draws 27 type-0 arrivals in phase 29, one below the floor
    # of 28, and meets both floors in every other phase
    stepped = stepped_phases(monkeypatch)
    inst = preset(T=100 * 50)
    policy = LcbPolicy(inst)
    assert [sum(row) for row in policy.template.M[:2]] == [28, 28]
    rec = run_episode(inst, policy, 643, reward_mode="expected")
    fallbacks = policy.bad_event_phases
    # the scalar run below steps every phase
    assert stepped == [1]
    assert_same_record(rec, scalar_run(inst, policy, 643, "expected"))
    assert policy.bad_event_phases == fallbacks
    counts = np.stack([(rec.arrivals.reshape(50, 100) == u).sum(axis=1) for u in (0, 1)], 1)
    assert np.flatnonzero((counts < 28).any(axis=1)).tolist() == [28]
    assert fallbacks == [29]


@pytest.mark.parametrize("preset", [symmetric_tight, subsidy_worthwhile, subsidy_wasteful])
def test_only_the_short_phases_step(preset, monkeypatch):
    # over 300 phases at tau=100, seed 278 draws 143 as the one phase short
    # of a floor of 28 (subsidy_wasteful's floor of 68 at P=0.9 is met in
    # every phase), seed 0 none; every other phase takes the rank gather
    short = [] if preset is subsidy_wasteful else [143]
    stepped = stepped_phases(monkeypatch)
    inst = preset(T=100 * 300)
    policy = LcbPolicy(inst)
    own = [sum(row) for row in policy.template.M[: inst.n]]
    for seed, want in ((278, short), (0, [])):
        stepped.clear()
        rec = run_episode(inst, policy, seed, reward_mode="expected")
        phases = rec.arrivals.reshape(300, 100)
        counts = np.stack([(phases == u).sum(axis=1) for u in range(inst.n)], 1)
        assert (np.flatnonzero((counts < own).any(axis=1)) + 1).tolist() == want
        # the salvage fires only in stepped phases, so the stepped ones are
        # exactly the short ones
        assert policy.bad_event_phases == want
        assert stepped == ([len(want)] if want else [])


def test_never_subsidize_plays_three_segments_on_symmetric_tight():
    inst = symmetric_tight(T=200_000)
    policy = make_policy("never-subsidize", inst)
    for mode in ("expected", "sampled"):
        rec, _ = run_both(inst, policy, 2, mode)
        assert rec.departure_events == [(52, 1), (85, 0)]


@pytest.mark.parametrize("k,tau,delta,departures", [
    # blind loses arms 1 and 2 in phase 1
    (3, 10, (4, 4, 4), [(1, 1), (1, 2)]),
    # blind loses arm 3 in phase 1; the other three then fit, in an order
    # that depends on where the cursor stood at the end of phase 1
    (4, 11, (3, 3, 3, 3), [(1, 3)]),
])
@pytest.mark.parametrize("algo", [a for a in SEGMENT_IDS if not a.startswith("ees-")])
def test_segments_resume_after_a_departure(algo, k, tau, delta, departures):
    # too tight for a learner to explore; every other id loses an arm in
    # phase 1 and plays the remaining phases in a second segment
    for mode, kind in REWARDS:
        inst = make_instance(n=2, k=k, tau=tau, phases=3, delta=delta, reward_kind=kind,
                             mu=((0.9, 0.2, 0.5, 0.1)[:k], (0.1, 0.8, 0.3, 0.2)[:k]))
        policy = make_policy(algo, inst)
        for seed in range(3):
            rec, _ = run_both(inst, policy, seed, mode)
            assert rec.departure_events[0][0] == 1
            if algo == "blind":
                assert rec.departure_events == departures


def test_the_exploration_contract_breaks_where_the_loop_breaks_it():
    # the quota schedule keeps every arm alive, so a departure during
    # exploration is a broken contract: the call that would play the
    # next phase raises (test_learn covers a departure before round 0)
    inst = make_instance(tau=100, phases=100, delta=(10, 60))
    tau = inst.tau
    arrivals = np.zeros((inst.phases, tau), dtype=np.int16)
    for policy in (make_policy(a, inst) for a in SEGMENT_IDS if a.startswith("ees-")):
        T0 = policy.T0
        for played in range(tau, T0 + 1, tau):
            policy.start(np.random.default_rng(0))
            first = policy.play_phases(arrivals, frozenset({0, 1}), past_of(0), no_reward)
            assert first.shape == (T0 // tau, tau)
            past = past_of(played)
            rest = arrivals[played // tau:]
            if played < T0:
                with pytest.raises(ContractError, match=rf"\(round {played}\)$"):
                    policy.play_phases(rest, frozenset({0}), past, no_reward)
            else:
                assert len(policy.play_phases(rest, frozenset({0}), past, no_reward)) == len(rest)
                assert policy.estimates is not None


def past_of(rounds):
    """A record of ``rounds`` played rounds: type 0 arrived every round
    and each pull of arm 0 paid 1."""
    return RunRecord(arrivals=np.zeros(rounds, dtype=np.int16),
                     pulls=np.zeros(rounds, dtype=np.int16),
                     realized_rewards=np.ones(rounds), expected_reward=math.nan,
                     departure_events=[], seed=0,
                     dead_pulls=np.zeros(rounds, dtype=bool))


def no_reward(arm, rounds):
    """The segment contract's reward, for a policy that must not read it."""
    raise AssertionError("the policy read a reward")


class StubbornRounds(RoundByRound):
    """Phase 1 serves arm 0 only; later phases cycle through the arms by
    round and type, departed or not, and every fifth round declines."""

    def __init__(self, k, tau):
        self.k, self.tau = k, tau

    def choose(self, t, u, viable):
        if t % 5 == 4:
            return None
        return 0 if t < self.tau else (t + u) % self.k


class StubbornPhases(StubbornRounds):
    """:class:`StubbornRounds`' pulls, every offered phase at once."""

    def play_phases(self, arrivals, viable, past, reward):
        t = np.arange(arrivals.size).reshape(arrivals.shape) + past.pulls.size
        pulls = np.where(t < self.tau, 0, (t + arrivals) % self.k)
        return np.where(t % 5 == 4, NO_PULL, pulls)


@pytest.mark.parametrize("mode,kind", REWARDS)
def test_batched_dead_pulls_match_the_loop(mode, kind):
    inst = make_instance(n=2, k=3, tau=10, phases=30, delta=(2, 3, 2),
                         mu=((0.7, 0.1, 0.4), (0.2, 0.6, 0.9)), reward_kind=kind)
    for seed in range(4):
        rec = run_episode(inst, StubbornPhases(inst.k, inst.tau), seed, reward_mode=mode)
        assert_same_record(rec, run_episode(inst, StubbornRounds(inst.k, inst.tau), seed,
                                            reward_mode=mode))
        assert rec.departure_events[:2] == [(1, 1), (1, 2)]
        assert rec.dead_pulls.any()
        assert (rec.pulls == NO_PULL).any()


def test_batched_path_rejects_arms_outside_the_instance():
    inst = make_instance(tau=10, phases=2)
    for policy in (StubbornPhases(3, inst.tau), StubbornRounds(3, inst.tau)):
        with pytest.raises(ValueError):
            run_episode(inst, policy, 0)


@pytest.mark.parametrize("shape", [
    lambda phases, tau: (0, tau),
    lambda phases, tau: (phases + 1, tau),
    lambda phases, tau: (1, tau + 1),
    lambda phases, tau: (tau,),
], ids=["no-phase", "one-phase-more", "one-round-more", "flat"])
def test_pulls_of_the_wrong_shape_break_the_segment_contract(shape):
    class WrongShape(Policy):
        def play_phases(self, arrivals, viable, past, reward):
            return np.zeros(shape(*arrivals.shape), dtype=np.int16)

    inst = make_instance(tau=10, phases=3)
    with pytest.raises(ValueError, match="play_phases returned shape"):
        run_episode(inst, WrongShape(), 0)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    tau = draw(st.integers(2, 8))
    phases = draw(st.integers(1, 25))
    weights = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    P = tuple(w / sum(weights) for w in weights)
    delta = tuple(draw(st.lists(st.integers(0, tau), min_size=k, max_size=k)))
    # few distinct utilities, so that ties are common
    unit = st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)
    mu = tuple(tuple(draw(st.lists(unit, min_size=k, max_size=k))) for _ in range(n))
    kind = draw(st.sampled_from(("bernoulli", "deterministic")))
    return Instance(n=n, k=k, tau=tau, T=tau * phases, P=P, delta=delta, mu=mu,
                    reward_kind=kind)


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.sampled_from(SEGMENT_IDS), st.integers(1, 24),
       st.sampled_from(("expected", "sampled")), st.integers(0, 2**32 - 1))
def test_segments_match_the_loop_on_random_instances(inst, algo, explore, mode, seed):
    try:
        # a learner explores for a drawn number of phases that leaves room
        policy = make_policy(algo, inst, min(explore, inst.phases - 1) or None)
    except (InfeasibleError, ResourceGuardError):
        return
    run_both(inst, policy, seed, mode)


def reference_streams(inst, seed):
    """The episode's arrivals and reward noise, drawn afresh from the
    seed's first two streams: types by searching the cumulative law."""
    arrival_rng, reward_rng, _ = map(np.random.default_rng,
                                     np.random.SeedSequence(seed).spawn(3))
    cum = np.cumsum(inst.P)
    arrivals = np.minimum(np.searchsorted(cum, arrival_rng.random(inst.T), side="right"),
                          inst.n - 1)
    return arrivals.tolist(), reward_rng.random(inst.T).tolist()


def live_rounds(inst, script):
    """Whether each round of ``script`` pulls a viable arm, by the
    departure rule applied phase by phase."""
    viable = set(range(inst.k))
    live = []
    for p in range(inst.phases):
        phase = script[p * inst.tau : (p + 1) * inst.tau]
        live += [a is not None and a in viable for a in phase]
        viable -= {a for a in viable if phase.count(a) < inst.delta[a]}
    return live


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.sampled_from(("expected", "sampled")), st.sampled_from((1, 3)),
       st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_every_round_realizes_what_the_reward_model_says(inst, mode, block, pin, seed, pick):
    # a script of declines and arms; thresholds up to tau make arms
    # depart, so later pulls of them are dead
    drawn = np.random.default_rng(pick).integers(-1, inst.k, inst.T).tolist()
    script = [None if a < 0 else a for a in drawn]
    types, noise = reference_streams(inst, seed)
    live = live_rounds(inst, script)
    sampled = mode == "sampled" and inst.reward_kind == "bernoulli"
    if pin and sampled and any(live):
        # a utility equal to the noise of a round that pulls it: a live
        # pull realizes 1 only when the noise is strictly below it
        t = live.index(True)
        mu = [list(row) for row in inst.mu]
        mu[types[t]][script[t]] = noise[t]
        inst = replace(inst, mu=tuple(map(tuple, mu)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(env, "BLOCK_ROUNDS", block * inst.tau)
        rec = run_episode(inst, ScriptedPolicy(script), seed, reward_mode=mode)
    assert rec.arrivals.tolist() == types
    assert rec.pulls.tolist() == [NO_PULL if a is None else a for a in script]
    assert rec.dead_pulls.tolist() == [a is not None and not v for a, v in zip(script, live)]
    for t, (u, a, x, v) in enumerate(zip(types, script, noise, live)):
        if not v:
            want = 0.0
        elif sampled:
            want = float(x < inst.mu[u][a])
        else:
            want = inst.mu[u][a]
        assert rec.realized_rewards[t].hex() == want.hex(), t
    # the live counts, at every block size, with declines and dead pulls
    expected = math.fsum(inst.mu[u][a] for u, a, v in zip(types, script, live) if v)
    assert rec.expected_reward.hex() == expected.hex()


# -- horizon-free play: a shorter episode is a prefix of a longer one --------

HORIZON_FREE_IDS = tuple(a for a in ALGORITHMS if policy_class(a).horizon_free)


def prefix_outcome(inst, algo, seed, mode):
    """The record of one episode of a fresh policy, and its fallback
    phases, or the type and text of the refusal it raised."""
    try:
        policy = make_policy(algo, inst)
        return run_episode(inst, policy, seed, reward_mode=mode), list(policy.bad_event_phases)
    except (ContractError, InfeasibleError, ResourceGuardError, ValueError) as exc:
        return type(exc), str(exc)


def is_prefix(short, long, tau) -> bool:
    """Whether the episode ``short`` (a record and its fallback phases)
    is the first rounds of the longer ``long``."""
    (record, fired), (whole, whole_fired) = short, long
    T = len(record.pulls)
    prefix = whole.prefix(T, tau)
    return (
        all(np.array_equal(getattr(record, f), getattr(prefix, f))
            for f in ("arrivals", "pulls", "realized_rewards", "dead_pulls"))
        and record.departure_events == prefix.departure_events
        and fired == [p for p in whole_fired if p <= T // tau]
    )


def test_the_horizon_free_ids_are_the_planners_and_baselines_that_never_look_ahead():
    assert set(HORIZON_FREE_IDS) == {
        "dp-star", "lcb-star", "a-lcb-star", "myopic", "never-subsidize", "blind",
        "greedy-bandit",
    }
    assert LlcbPolicy.horizon_free is False and issubclass(LlcbPolicy, LcbPolicy)


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.sampled_from(HORIZON_FREE_IDS), st.integers(1, 25),
       st.sampled_from(("expected", "sampled")), st.integers(0, 2**32 - 1))
# the fallback fires in phases 393, 1291, 1987 and 2114, and later
@example(shortfall(4000), "lcb-star", 6000, "expected", 1)
def test_a_horizon_free_episode_is_a_prefix_of_a_longer_one(inst, algo, extra, mode, seed):
    longer = replace(inst, T=inst.T + extra * inst.tau)
    short = prefix_outcome(inst, algo, seed, mode)
    long = prefix_outcome(longer, algo, seed, mode)
    if not isinstance(short[0], RunRecord):
        # a policy the instance refuses is refused at every horizon
        assert short == long
        return
    assert is_prefix(short, long, inst.tau)
    record, _ = short
    prefix = long[0].prefix(inst.T, inst.tau)
    assert recompute_expected_reward(prefix, inst).hex() == record.expected_reward.hex()


@pytest.mark.parametrize("algo,mode", [("l-lcb", "expected"), ("ees-dp-star", "sampled")])
def test_a_planner_that_looks_ahead_plays_another_prefix(algo, mode):
    # the L-LCB plan stops subsidising before the horizon ends, and EES
    # explores longer on a longer horizon: neither may read a shorter
    # horizon off a longer episode
    assert not policy_class(algo).horizon_free
    tau = subsidy_worthwhile().tau
    short, long = (prefix_outcome(subsidy_worthwhile(T=tau * phases), algo, 0, mode)
                   for phases in (400, 1500))
    assert not is_prefix(short, long, tau)
