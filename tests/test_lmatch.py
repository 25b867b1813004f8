from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from exposure_bandits import (
    NEG_INF,
    LlcbPolicy,
    build_lcb_aggregate,
    brute_matching,
    lcb_star,
    lmatch,
    planned_total_value,
    run_episode,
)
from exposure_bandits.presets import early_harvest
from conftest import make_instance, random_instance


def brute_chain_value(instance, aggregates):
    """Exhaustive max over nested commitment chains: phase i may pull
    arms of Z[i-1] and must keep Z[i] alive, Z[0] = all arms."""
    k = instance.k
    arms = list(range(k))
    best = NEG_INF
    n_phases = len(aggregates)
    chains = itertools.product(
        *[range(1 << k) for _ in range(n_phases)]
    )
    for masks in chains:
        prev = (1 << k) - 1
        ok = True
        total = 0.0
        for agg, m in zip(aggregates, masks):
            if m & ~prev:
                ok = False
                break
            allowed = frozenset(a for a in arms if prev >> a & 1)
            committed = frozenset(a for a in arms if m >> a & 1)
            v = brute_matching(agg, allowed, committed, instance)
            if v is NEG_INF:
                ok = False
                break
            total += v
            prev = m
        if ok and (best is NEG_INF or total > best):
            best = total
    return best


def test_plan_matches_exhaustive_chain_search():
    rng = np.random.default_rng(61)
    for _ in range(12):
        inst = random_instance(rng, n_max=2, k_max=3, tau_max=5,
                               phases_max=2, dyadic=True)
        aggs = [build_lcb_aggregate(inst.P, inst.tau)] * inst.phases
        plan = lmatch(inst, aggs)
        brute = brute_chain_value(inst, aggs)
        assert brute is not NEG_INF
        # dyadic rewards on both sides: exact equality
        assert plan.total_value == brute


def test_chain_is_nested_and_ends_free():
    inst = early_harvest(tau=200, phases=4)
    aggs = [build_lcb_aggregate(inst.P, inst.tau)] * inst.phases
    plan = lmatch(inst, aggs)
    assert len(plan.chain) == inst.phases + 1
    assert plan.chain[0] == frozenset(range(inst.k))
    for prev, nxt in zip(plan.chain, plan.chain[1:]):
        assert nxt <= prev


def test_dropping_late_beats_committing_forever():
    # keeping the expensive arm for the early phases and then dropping it
    # outearns any single commitment held for the whole horizon
    inst = early_harvest(tau=200, phases=4)
    aggs = [build_lcb_aggregate(inst.P, inst.tau)] * inst.phases
    plan = lmatch(inst, aggs)
    _, template = lcb_star(inst)
    static = template.value * inst.phases
    assert plan.total_value > static + 1.0
    # the plan drops the costly arm somewhere strictly inside the horizon
    assert plan.chain[-1] != plan.chain[0]


def test_per_phase_matchings_are_reported():
    inst = early_harvest(tau=200, phases=4)
    aggs = [build_lcb_aggregate(inst.P, inst.tau)] * inst.phases
    plan = lmatch(inst, aggs)
    assert len(plan.matchings) == inst.phases
    total = math.fsum(m.value for m in plan.matchings)
    assert total == pytest.approx(plan.total_value, abs=1e-9)


def test_aggregate_list_must_cover_every_phase():
    inst = make_instance(tau=10, phases=3, delta=(2, 2))
    aggs = [build_lcb_aggregate(inst.P, inst.tau)] * 2
    with pytest.raises(ValueError):
        lmatch(inst, aggs)


def test_policy_follows_the_plan_without_losing_planned_arms():
    inst = early_harvest(tau=200, phases=4)
    policy = LlcbPolicy(inst)
    for seed in range(3):
        rec = run_episode(inst, policy, seed, reward_mode="expected")
        # arms may depart only once the plan stops protecting them
        protected = policy.plan.chain
        for phase, arm in rec.departure_events:
            assert arm not in protected[min(phase, len(protected) - 1)]


def test_policy_outearns_the_static_template_on_average():
    inst = early_harvest(tau=200, phases=4)
    policy = LlcbPolicy(inst)
    from exposure_bandits import LcbPolicy

    static = LcbPolicy(inst)
    a = [run_episode(inst, policy, s, reward_mode="expected").expected_reward
         for s in range(10)]
    b = [run_episode(inst, static, s, reward_mode="expected").expected_reward
         for s in range(10)]
    assert sum(a) / 10 > sum(b) / 10
