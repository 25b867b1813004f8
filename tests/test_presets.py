from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from exposure_bandits import EesPolicy, dp_star, planned_total_value, run_episode, validate
from exposure_bandits.cli import load_instance
from exposure_bandits.learn import Observables, baseline_policy
from exposure_bandits.presets import (
    PRESETS,
    hidden_threshold_pair,
    reward_uncertainty_pair,
)


def test_every_preset_validates():
    for name, factory in PRESETS.items():
        inst = factory()
        validate(inst)
        assert inst.T % inst.tau == 0, name


def test_the_shipped_instance_files_are_the_presets():
    # README's CLI examples read these files
    instances = Path(__file__).parents[1] / "instances"
    for name, factory in PRESETS.items():
        assert load_instance(instances / f"{name}.txt") == (factory(), 0), name


def test_reward_uncertainty_pair_differs_only_in_the_swapped_arms():
    a, b = reward_uncertainty_pair(T=64_000, tau=100)
    assert a.delta == b.delta
    assert a.P == b.P
    assert a.mu[0] == b.mu[0]
    assert a.mu[1][1] == b.mu[1][2]
    assert a.mu[1][2] == b.mu[1][1]
    assert a.mu[1][1] > 0.5  # the bonus eps is strictly positive
    validate(a)
    validate(b)


def test_reward_uncertainty_pair_needs_a_long_enough_horizon():
    with pytest.raises(ValueError):
        # c T^(2/3) must exceed tau
        reward_uncertainty_pair(T=1000, tau=100, c=0.1)


def test_hidden_threshold_pair_shares_everything_but_thresholds():
    a, b = hidden_threshold_pair()
    assert a.mu == b.mu
    assert a.P == b.P
    assert a.delta != b.delta
    assert a.delta[0] == b.delta[0] == 0


def _regret(inst, policy, seed, mode, bench):
    return bench - run_episode(inst, policy, seed, reward_mode=mode).expected_reward


def test_reward_uncertainty_forces_regret_of_order_t_to_the_two_thirds():
    """On the pair built for each T in {1e5, 4e5, 1.6e6}, the log-log
    slope of the larger of the two instances' mean ees-dp-star regret
    (sampled rewards, seeds 0-4) lies within 2/3 +- 0.1."""
    horizons = (100_000, 400_000, 1_600_000)
    worst = []
    for T in horizons:
        regrets = []
        for inst in reward_uncertainty_pair(T=T, tau=100):
            bench = planned_total_value(inst, dp_star(inst)[1])
            obs = Observables.from_instance(inst)
            regrets.append(np.mean(
                [_regret(inst, EesPolicy(obs), seed, "sampled", bench) for seed in range(5)]))
        worst.append(max(regrets))
    slope = np.polyfit(np.log(horizons), np.log(worst), 1)[0]
    assert abs(slope - 2 / 3) <= 0.1, (slope, worst)


def test_hidden_thresholds_cost_the_oblivious_baselines_a_fixed_rate():
    """At T = 1e4 and 1e5 (expected rewards, seeds 0-2) every
    threshold-oblivious baseline loses at least 0.1 per round on one of
    the pair, while ees-dp-star's larger per-round regret falls by at
    least a quarter."""
    ees_rates = []
    for T in (10_000, 100_000):
        rates = {kind: [] for kind in ("never_subsidize", "blind_subsidize", "greedy_bandit")}
        ees = []
        for inst in hidden_threshold_pair(T=T, tau=100):
            bench = planned_total_value(inst, dp_star(inst)[1])
            for kind, found in rates.items():
                found.append(np.mean([_regret(inst, baseline_policy(kind, inst), seed,
                                              "expected", bench) for seed in range(3)]) / T)
            obs = Observables.from_instance(inst)
            ees.append(np.mean(
                [_regret(inst, EesPolicy(obs), seed, "expected", bench) for seed in range(3)]) / T)
        for kind, found in rates.items():
            assert max(found) >= 0.1, (kind, T, found)
        ees_rates.append(max(ees))
    assert ees_rates[1] <= 0.75 * ees_rates[0], ees_rates
