from __future__ import annotations

import math

import numpy as np
import pytest

from exposure_bandits import (
    NEG_INF,
    AlcbPolicy,
    InfeasibleError,
    LcbPolicy,
    build_lcb_aggregate,
    greedy_subset,
    lcb_star,
    run_episode,
    subset_value_oracle,
)
from conftest import make_instance, random_instance


def test_symmetric_template_protects_both_arms():
    inst = make_instance(tau=100, phases=10, delta=(40, 40))
    Z, template = lcb_star(inst)
    assert Z == frozenset({0, 1})
    assert template.value == 56.0
    assert all(c >= 40 for c in template.pull_column_sums)


def test_subsidy_is_chosen_when_the_floors_cover_it():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    Z, template = lcb_star(inst)
    assert Z == frozenset({0, 1})
    assert template.value == 56.0


def test_subsidy_is_dropped_when_the_rare_type_cannot_pay():
    inst = make_instance(tau=100, phases=10, P=(0.9, 0.1), delta=(10, 60))
    Z, template = lcb_star(inst)
    assert Z == frozenset({0})


def test_every_commitment_infeasible_raises():
    inst = make_instance(n=1, k=2, tau=2, phases=1, P=(1.0,), delta=(2, 2),
                         mu=((1.0, 1.0),))
    # single arms still fit; shrink the phase budget via both-arm demand only
    Z, _ = lcb_star(inst)
    assert len(Z) == 1


def test_policy_never_loses_a_committed_arm():
    inst = make_instance(tau=100, phases=100, delta=(40, 40))
    policy = LcbPolicy(inst)
    for seed in range(3):
        rec = run_episode(inst, policy, seed, reward_mode="expected")
        assert rec.departure_events == []


def _shortfall_phases(inst, rec):
    """1-based phases whose arrivals of some type fell below its floor."""
    floors = build_lcb_aggregate(inst.P, inst.tau).counts[:-1]
    arr = rec.arrivals.reshape(-1, inst.tau)
    short = set()
    for p in range(arr.shape[0]):
        counts = np.bincount(arr[p], minlength=inst.n)
        if any(counts[u] < floors[u] for u in range(inst.n)):
            short.add(p + 1)
    return short


def test_fallback_fires_exactly_when_arrivals_undershoot_a_floor():
    inst = make_instance(tau=100, phases=3000, delta=(40, 40))
    policy = LcbPolicy(inst)
    rec = run_episode(inst, policy, 12345, reward_mode="expected")
    assert rec.departure_events == []
    assert _shortfall_phases(inst, rec) == set(policy.bad_event_phases)
    # at tau=100 the floors almost never fail; at tau=4 they often do
    inst = make_instance(tau=4, phases=50_000, P=(0.84, 0.16), delta=(1, 1),
                         mu=((0.9, 0.2), (0.1, 0.8)))
    policy = LcbPolicy(inst)
    rec = run_episode(inst, policy, 12345, reward_mode="expected")
    short = _shortfall_phases(inst, rec)
    assert short
    assert short == set(policy.bad_event_phases)


def test_subset_oracle_caches_and_carries_the_aggregate():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    f = subset_value_oracle(inst)
    v1 = f(frozenset({0, 1}))
    v2 = f(frozenset({0, 1}))
    assert v1 == v2 == 56.0
    assert f.aggregate.counts == (28, 28, 44)


def test_greedy_stays_within_its_call_budget():
    rng = np.random.default_rng(51)
    for _ in range(20):
        inst = random_instance(rng, n_max=3, k_max=6, tau_max=8,
                               delta_sum_within_tau=False)
        oracle = subset_value_oracle(inst)
        calls = {"count": 0}
        inner = oracle

        def counted(Z, inner=inner, calls=calls):
            calls["count"] += 1
            return inner(Z)

        trace = greedy_subset(inst, counted)
        k = inst.k
        assert calls["count"] <= k * (k + 1) // 2
        assert trace.oracle_call_count == calls["count"]


def test_greedy_matches_exhaustive_search_on_easy_instances():
    rng = np.random.default_rng(52)
    hits = 0
    total = 0
    for _ in range(25):
        inst = random_instance(rng, n_max=3, k_max=5, tau_max=8,
                               delta_sum_within_tau=False)
        oracle = subset_value_oracle(inst)
        trace = greedy_subset(inst, oracle)
        greedy_val = oracle(trace.chosen) if trace.chosen else 0.0
        best = 0.0
        from exposure_bandits import iter_subsets

        for Z in iter_subsets(inst.k):
            v = oracle(frozenset(Z))
            if v is not NEG_INF and v > best:
                best = v
        total += 1
        assert greedy_val >= (1 - 1 / math.e) * best - 1e-9
        if greedy_val >= best - 1e-9:
            hits += 1
    # near-modular values: greedy should usually be exactly optimal
    assert hits >= total * 0.6


def test_greedy_keeps_only_the_best_prefix():
    # second arm has a crushing threshold: adding it can only hurt
    inst = make_instance(n=1, k=2, tau=10, phases=1, P=(1.0,),
                         delta=(0, 9), mu=((1.0, 0.1),))
    oracle = subset_value_oracle(inst)
    trace = greedy_subset(inst, oracle)
    assert trace.chosen == frozenset({0})


def test_adaptive_policy_refuses_worthless_instances():
    inst = make_instance(n=1, k=2, tau=4, phases=1, P=(1.0,), delta=(0, 0),
                         mu=((0.0, 0.0),))
    with pytest.raises(InfeasibleError):
        AlcbPolicy(inst)


def test_adaptive_policy_matches_the_exhaustive_commitment_here():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    policy = AlcbPolicy(inst)
    assert policy.Z == frozenset({0, 1})
    rec = run_episode(inst, policy, 0, reward_mode="expected")
    assert rec.departure_events == []
