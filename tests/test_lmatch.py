from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NEG_INF,
    Aggregate,
    InfeasibleError,
    LlcbPolicy,
    build_lcb_aggregate,
    brute_matching,
    doalg,
    lcb_star,
    lmatch,
    planned_total_value,
    run_episode,
)
from exposure_bandits.presets import early_harvest
from conftest import make_instance, random_instance, tie_prone_instances


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


def _supersets_ordered(mask: int, full: int) -> list[int]:
    """All supersets of mask within full, smallest first (popcount, then
    numeric); first-found wins ties, so smaller Z1 is preferred."""
    free = full & ~mask
    out = []
    sub = free
    while True:
        out.append(mask | sub)
        if sub == 0:
            break
        sub = (sub - 1) & free
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def per_phase_plan(instance, aggregate):
    """Reference plan: the exact DP over phases, one phase at a time.

    r[i][Z] is the best value of the first i phases among plans whose
    surviving set after phase i is Z (any set may be available in phase
    1); each phase maximizes over the available sets Z1 ⊇ Z in order of
    size, then mask, keeping the first best.  The final set is the best,
    ties to the fewest arms, then the lowest mask.  Returns the chain,
    the per-phase matchings and the value, summed phase by phase.
    """
    k, N = instance.k, instance.phases
    full = (1 << k) - 1

    def arms(mask):
        return frozenset(a for a in range(k) if mask >> a & 1)

    cache = {}

    def solve(m1, m2):
        if (m1, m2) not in cache:
            cache[m1, m2] = doalg(aggregate, arms(m1), arms(m2), instance)
        return cache[m1, m2]

    r = [[0.0] * (full + 1)] + [[NEG_INF] * (full + 1) for _ in range(N)]
    bp = [[-1] * (full + 1) for _ in range(N + 1)]
    for i in range(1, N + 1):
        for m2 in range(full + 1):
            best, best_m1 = NEG_INF, -1
            for m1 in _supersets_ordered(m2, full):
                prev = r[i - 1][m1]
                match = solve(m1, m2)
                if prev is NEG_INF or match is NEG_INF:
                    continue
                v = match.value + prev
                if best is NEG_INF or v > best:
                    best, best_m1 = v, m1
            r[i][m2], bp[i][m2] = best, best_m1
    final = max(
        range(full + 1),
        key=lambda m: (r[N][m] is not NEG_INF,
                       r[N][m] if r[N][m] is not NEG_INF else 0.0,
                       -bin(m).count("1"), -m),
    )
    if r[N][final] is NEG_INF:
        raise InfeasibleError("no feasible multi-phase plan")
    masks = [final]
    for i in range(N, 0, -1):
        masks.append(bp[i][masks[-1]])
    masks.reverse()
    matchings = tuple(solve(masks[i], masks[i + 1]) for i in range(N))
    return tuple(arms(m) for m in masks), matchings, r[N][final]


def phase_matchings(plan) -> tuple:
    """The matching of every phase of ``plan``, phase 1 first."""
    return tuple(s.matching for s in plan.segments for _ in range(s.phases))


def assert_same_plan(inst, agg):
    try:
        chain, matchings, total = per_phase_plan(inst, agg)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            lmatch(inst, agg)
        return
    plan = lmatch(inst, agg)
    assert plan.chain == chain
    assert phase_matchings(plan) == matchings
    # bit-equal, not approximately equal: the same sum in the same order
    assert plan.total_value.hex() == total.hex()
    assert len(plan.segments) <= 2 * inst.k + 1


def test_plan_matches_exhaustive_chain_search():
    rng = np.random.default_rng(61)
    for _ in range(12):
        inst = random_instance(rng, n_max=2, k_max=3, tau_max=5,
                               phases_max=2, dyadic=True)
        agg = build_lcb_aggregate(inst.P, inst.tau)
        aggs = [agg] * inst.phases
        plan = lmatch(inst, agg)
        brute = brute_chain_value(inst, aggs)
        assert brute is not NEG_INF
        # dyadic rewards on both sides: exact equality
        assert plan.total_value == brute


def test_chain_is_nested_and_ends_free():
    inst = early_harvest(tau=200, phases=4)
    plan = lmatch(inst, build_lcb_aggregate(inst.P, inst.tau))
    assert len(plan.chain) == inst.phases + 1
    assert plan.chain[0] == frozenset(range(inst.k))
    for prev, nxt in zip(plan.chain, plan.chain[1:]):
        assert nxt <= prev


def test_dropping_late_beats_committing_forever():
    # keeping the expensive arm for the early phases and then dropping it
    # outearns any single commitment held for the whole horizon
    inst = early_harvest(tau=200, phases=4)
    plan = lmatch(inst, build_lcb_aggregate(inst.P, inst.tau))
    _, template = lcb_star(inst)
    static = template.value * inst.phases
    assert plan.total_value > static + 1.0
    # the plan drops the costly arm somewhere strictly inside the horizon
    assert plan.chain[-1] != plan.chain[0]


def test_per_phase_matchings_are_reported():
    inst = early_harvest(tau=200, phases=4)
    plan = lmatch(inst, build_lcb_aggregate(inst.P, inst.tau))
    matchings = phase_matchings(plan)
    assert len(matchings) == inst.phases
    total = math.fsum(m.value for m in matchings)
    assert total == pytest.approx(plan.total_value, abs=1e-9)


def test_the_aggregate_must_fill_the_phase():
    inst = make_instance(tau=10, phases=3, delta=(2, 2))
    with pytest.raises(ValueError):
        lmatch(inst, Aggregate(counts=(4, 5), has_slack=False))


@settings(max_examples=150, deadline=None)
@given(tie_prone_instances(), st.integers(1, 8))
def test_closed_form_picks_the_per_phase_plan_on_tie_prone_instances(inst, phases):
    # grid utilities make equal plan values common, so the tie rules of
    # both sides are exercised; dyadic values keep every sum exact
    inst = replace(inst, T=inst.tau * phases)
    assert_same_plan(inst, build_lcb_aggregate(inst.P, inst.tau))


def test_closed_form_picks_the_per_phase_plan_on_random_instances():
    # four or five arms, up to 50 phases, thresholds that may or may not
    # fit together
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 12:
        inst = random_instance(rng, n_max=3, k_max=5, tau_max=30, phases_max=50,
                               delta_sum_within_tau=checked % 2 == 0)
        if inst.k < 4:
            continue
        assert_same_plan(inst, build_lcb_aggregate(inst.P, inst.tau))
        checked += 1


def test_plan_cost_does_not_grow_with_the_horizon():
    inst = early_harvest(tau=200, phases=4)
    agg = build_lcb_aggregate(inst.P, inst.tau)
    short = lmatch(inst, agg)
    long = lmatch(replace(inst, T=inst.tau * 100_000), agg)
    # the same three runs, the middle one stretched over the extra phases
    assert [(s.matching, s.kept) for s in long.segments] == [
        (s.matching, s.kept) for s in short.segments
    ]
    assert [s.phases for s in long.segments] == [1, 99_998, 1]
    assert len(long.chain) == 100_001


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


def test_the_round_by_round_loop_finds_each_phase_segment():
    from test_env import LoopOnly, assert_same_record

    inst = early_harvest(tau=200, phases=6)
    policy = LlcbPolicy(inst)
    assert [s.phases for s in policy.plan.segments] == [1, 4, 1]
    for seed in range(2):
        batched = run_episode(inst, policy, seed, reward_mode="expected")
        fallbacks = policy.bad_event_phases
        loop = run_episode(inst, LoopOnly(policy), seed, reward_mode="expected")
        assert_same_record(batched, loop)
        assert fallbacks == policy.bad_event_phases
