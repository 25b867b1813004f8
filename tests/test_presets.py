from __future__ import annotations

from pathlib import Path

import pytest

from exposure_bandits import validate
from exposure_bandits.cli import load_instance
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
