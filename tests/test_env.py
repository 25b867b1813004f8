from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NO_PULL,
    AlcbPolicy,
    DpPolicy,
    Instance,
    LcbPolicy,
    LlcbPolicy,
    Policy,
    RunRecord,
    baseline_policy,
    recompute_expected_reward,
    run_episode,
    sample_arrivals,
)
from exposure_bandits.presets import subsidy_wasteful, subsidy_worthwhile, symmetric_tight
from conftest import IDENTITY2, make_instance


class FixedArmPolicy(Policy):
    """Always pulls the same arm, viable or not."""

    def __init__(self, arm):
        self.arm = arm

    def choose(self, t, u, viable):
        return self.arm


class ScriptedPolicy(Policy):
    """Pulls ``script[t]`` in round t (``None`` declines)."""

    def __init__(self, script):
        self.script = script

    def choose(self, t, u, viable):
        return self.script[t]


class OwnArmPolicy(Policy):
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

    class Drifting(Policy):
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
    assert rec.realized_total == rec.expected_reward


def test_deterministic_kind_realizes_the_means_even_when_sampled():
    inst = make_instance(tau=10, phases=5, delta=(0, 0),
                         mu=((0.7, 0.1), (0.2, 0.6)), reward_kind="deterministic")
    rec = run_episode(inst, OwnArmPolicy(), 0, reward_mode="sampled")
    assert rec.realized_total == pytest.approx(rec.expected_reward, abs=1e-9)


def test_sampled_rewards_agree_with_means_within_noise():
    inst = make_instance(tau=100, phases=20, delta=(0, 0),
                         mu=((0.7, 0.1), (0.2, 0.6)))
    rec = run_episode(inst, OwnArmPolicy(), 7, reward_mode="sampled")
    # Bernoulli sum vs its mean: 4 sigma with the worst-case variance bound
    slack = 4 * math.sqrt(0.25 * inst.T)
    assert abs(rec.realized_total - rec.expected_reward) < slack


def test_neglected_arm_departs_and_later_pulls_are_dead():
    inst = make_instance(tau=10, phases=3, delta=(0, 4))
    rec = run_episode(inst, FixedArmPolicy(0), 0, reward_mode="expected")
    assert rec.departure_events == [(1, 1)]
    rec2 = run_episode(inst, FixedArmPolicy(1), 0, reward_mode="expected")
    assert rec2.departure_events == []
    # pin arm 1 to depart, then pull it anyway: flagged dead, zero reward
    class Stubborn(Policy):
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
    class Abstain(Policy):
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


# -- the batched path against the loop ----------------------------------------

COMMITTED = (DpPolicy, LcbPolicy, AlcbPolicy, LlcbPolicy)
# (reward mode, reward kind)
REWARDS = [(mode, kind) for mode in ("expected", "sampled")
           for kind in ("bernoulli", "deterministic")]


class LoopOnly(Policy):
    """Runs ``inner`` on the round-by-round loop: it forwards everything
    but ``play_phases``."""

    def __init__(self, inner):
        self.inner = inner

    def start(self, rng):
        self.inner.start(rng)

    def choose(self, t, u, viable):
        return self.inner.choose(t, u, viable)


def assert_same_record(batched, loop):
    for f in fields(RunRecord):
        a, b = getattr(batched, f.name), getattr(loop, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        elif isinstance(a, float):
            assert type(b) is float and a.hex() == b.hex(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name
    for event in batched.departure_events:
        assert type(event) is tuple and all(type(x) is int for x in event)


def run_both(inst, policy, seed, mode):
    """The batched and the loop record of one episode, checked equal, and
    the batched fallback phases (checked equal too)."""
    assert policy.play_phases is not None
    assert LoopOnly(policy).play_phases is None
    batched = run_episode(inst, policy, seed, reward_mode=mode)
    fallbacks = getattr(policy, "bad_event_phases", None)
    loop = run_episode(inst, LoopOnly(policy), seed, reward_mode=mode)
    assert_same_record(batched, loop)
    assert fallbacks == getattr(policy, "bad_event_phases", None)
    return batched, fallbacks


def indifferent_type(T):
    """Type 0 values both arms alike and both arms are kept, so its picks
    are ties, broken by the remaining deficit and then the arm index."""
    return make_instance(n=3, tau=100, phases=T // 100, P=(0.5, 0.25, 0.25),
                         delta=(30, 30), mu=((0.5, 0.5), (1.0, 0.0), (0.0, 1.0)))


@pytest.mark.parametrize("mode,kind", REWARDS)
@pytest.mark.parametrize("preset", [symmetric_tight, subsidy_worthwhile, subsidy_wasteful,
                                    indifferent_type])
@pytest.mark.parametrize("factory", COMMITTED)
def test_batched_path_matches_the_loop_on_the_presets(factory, preset, mode, kind):
    inst = replace(preset(T=100 * 40), reward_kind=kind)
    policy = factory(inst)
    for seed in (0, 1):
        rec, _ = run_both(inst, policy, seed, mode)
        if preset is subsidy_wasteful:
            # the committed planners let arm 1 go in phase 1
            assert rec.departure_events == [(1, 1)]


@pytest.mark.parametrize("factory", [LcbPolicy, AlcbPolicy, LlcbPolicy])
def test_batched_fallback_phases_match_the_loop(factory):
    # at tau=4, type 0 misses its floor of 1 in about 0.07% of phases
    inst = make_instance(tau=4, phases=20_000, P=(0.84, 0.16), delta=(1, 1),
                         mu=((0.9, 0.2), (0.1, 0.8)))
    policy = factory(inst)
    _, fallbacks = run_both(inst, policy, 12345, "expected")
    assert fallbacks


class StubbornPhases(Policy):
    """Phase 1 serves arm 0 only; later phases cycle through the arms by
    round and type, departed or not, and every fifth round declines."""

    def __init__(self, k, tau):
        self.k, self.tau = k, tau

    def choose(self, t, u, viable):
        if t % 5 == 4:
            return None
        return 0 if t < self.tau else (t + u) % self.k

    def play_phases(self, arrivals):
        t = np.arange(arrivals.size).reshape(arrivals.shape)
        pulls = np.where(t < self.tau, 0, (t + arrivals) % self.k)
        return np.where(t % 5 == 4, NO_PULL, pulls)


@pytest.mark.parametrize("mode,kind", REWARDS)
def test_batched_dead_pulls_match_the_loop(mode, kind):
    inst = make_instance(n=2, k=3, tau=10, phases=30, delta=(2, 3, 2),
                         mu=((0.7, 0.1, 0.4), (0.2, 0.6, 0.9)), reward_kind=kind)
    for seed in range(4):
        rec, _ = run_both(inst, StubbornPhases(inst.k, inst.tau), seed, mode)
        assert rec.departure_events[:2] == [(1, 1), (1, 2)]
        assert rec.dead_pulls.any()
        assert (rec.pulls == NO_PULL).any()


def test_batched_path_rejects_arms_outside_the_instance():
    inst = make_instance(tau=10, phases=2)
    policy = StubbornPhases(3, inst.tau)
    with pytest.raises(ValueError):
        run_episode(inst, policy, 0)
    with pytest.raises(ValueError):
        run_episode(inst, LoopOnly(policy), 0)


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


@settings(max_examples=80, deadline=None)
@given(small_instances(), st.sampled_from(COMMITTED),
       st.sampled_from(("expected", "sampled")), st.integers(0, 2**32 - 1))
def test_batched_path_matches_the_loop_on_random_instances(inst, factory, mode, seed):
    run_both(inst, factory(inst), seed, mode)
