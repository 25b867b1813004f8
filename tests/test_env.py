from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NO_PULL,
    Policy,
    baseline_policy,
    recompute_expected_reward,
    run_episode,
    sample_arrivals,
)
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
    inst = make_instance(tau=10, phases=5, delta=(2, 2))
    for seed in range(5):
        rec = run_episode(inst, OwnArmPolicy(), seed, reward_mode="sampled")
        assert rec.expected_reward == recompute_expected_reward(rec, inst)


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
