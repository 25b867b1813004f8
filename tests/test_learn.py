from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from exposure_bandits import (
    ContractError,
    DpPolicy,
    EesConfig,
    EesPolicy,
    InfeasibleError,
    LlcbPolicy,
    Observables,
    ResourceGuardError,
    baseline_policy,
    concentration_radii,
    default_exploration_phases,
    estimate,
    explore_phase_step,
    relaxed_exploration_phases,
    run_episode,
)
from exposure_bandits.core import gamma_from_parts
from exposure_bandits.presets import one_type_two_arms, subsidy_worthwhile
from conftest import make_instance


G_EX2 = gamma_from_parts((10, 60), 100, 2)  # quota 40


def test_exploration_phase_counts_for_the_reference_horizons():
    assert default_exploration_phases(20_000, G_EX2) == 19
    assert default_exploration_phases(100_000, G_EX2) == 54
    assert default_exploration_phases(500_000, G_EX2) == 158


def test_exploration_phase_count_is_exact_on_perfect_cubes():
    # T = 8000 gives T^(2/3) = 400 exactly; quota 40 divides it
    assert default_exploration_phases(8_000, G_EX2) == 10
    g7 = gamma_from_parts((0, 0), 35, 5)  # quota 7
    assert default_exploration_phases(8_000, g7) == math.ceil(400 / 7)


def test_exploration_phase_count_never_undershoots():
    rng = np.random.default_rng(71)
    for _ in range(100):
        T = int(rng.integers(100, 10**7))
        q = int(rng.integers(1, 50))
        g = gamma_from_parts((0,), q, 1)  # one unconstrained arm: quota q
        assert g.quota == q
        phases = default_exploration_phases(T, g)
        target = T ** (2 / 3) / q
        assert target - 1e-6 <= phases <= target + 1 + 1e-6


def test_relaxed_schedule_shrinks_with_a_larger_budget():
    few = relaxed_exploration_phases(100_000, 100, lambda tau: tau / 2)
    many = relaxed_exploration_phases(100_000, 100, lambda tau: tau / 8)
    assert few < many
    assert few == math.ceil(2 ** (1 / 3) * 100_000 ** (2 / 3) / 100)


def test_exploration_pulls_fill_the_largest_gap_first():
    rng = np.random.default_rng(0)
    g = G_EX2
    delta = (10, 60)
    counts = [0, 0]
    # smallest-index arm below its target max(delta, quota) comes first
    assert explore_phase_step(counts, g, delta, rng) == 0
    counts = [40, 0]  # arm 0 met its target max(10, 40) = 40
    assert explore_phase_step(counts, g, delta, rng) == 1
    counts = [40, 60]  # all targets met: uniform fill
    assert explore_phase_step(counts, g, delta, rng) in (0, 1)


def test_estimates_recover_the_truth_on_clean_data():
    inst = make_instance(tau=100, phases=100, delta=(10, 60),
                         reward_kind="deterministic")
    policy = EesPolicy(Observables.from_instance(inst), EesConfig(sso="lcb_star"))
    rec = run_episode(inst, policy, 9, reward_mode="sampled")
    est = policy.estimates
    assert est.T0 == policy.T0
    assert est == estimate(rec, policy.T0, inst.n, inst.k)
    for u in range(2):
        assert est.P_hat[u] == pytest.approx(0.5, abs=0.05)
    # deterministic rewards: observed pairs estimate exactly
    for u in range(2):
        for a in range(2):
            if est.observation_counts[u][a]:
                assert est.mu_hat[u][a] == inst.mu[u][a]


def test_estimates_smooth_types_that_never_showed_up():
    inst = make_instance(n=2, k=1, tau=10, phases=4, P=(0.99, 0.01),
                         delta=(0,), mu=((1.0,), (1.0,)))
    from exposure_bandits import RunRecord

    T0 = 20
    arrivals = np.zeros(inst.T, dtype=np.int16)  # type 1 never arrives
    pulls = np.zeros(inst.T, dtype=np.int16)
    rewards = np.ones(inst.T, dtype=np.float64)
    rec = RunRecord(arrivals=arrivals, pulls=pulls, realized_rewards=rewards,
                    expected_reward=float(inst.T), departure_events=[],
                    seed=0, dead_pulls=np.zeros(inst.T, dtype=bool))
    est = estimate(rec, T0, inst.n, inst.k)
    assert est.P_hat[1] > 0.0
    assert sum(est.P_hat) == pytest.approx(1.0, abs=1e-12)
    # floor of half an observation, then renormalized back onto the simplex
    bump = 0.5 / T0
    assert est.P_hat[1] == pytest.approx(bump / (1.0 + bump), abs=1e-12)


def test_dead_pulls_are_excluded_from_reward_estimates():
    from exposure_bandits import RunRecord

    T = 10
    arrivals = np.zeros(T, dtype=np.int16)
    pulls = np.zeros(T, dtype=np.int16)
    rewards = np.zeros(T, dtype=np.float64)
    rewards[:5] = 1.0  # live pulls pay 1, dead pulls pay 0
    dead = np.zeros(T, dtype=bool)
    dead[5:] = True
    rec = RunRecord(arrivals=arrivals, pulls=pulls, realized_rewards=rewards,
                    expected_reward=5.0, departure_events=[(1, 0)], seed=0,
                    dead_pulls=dead)
    est = estimate(rec, T, 1, 1)
    assert est.mu_hat[0][0] == 1.0
    assert est.observation_counts[0][0] == 5


def test_concentration_radii_follow_the_advertised_formulas():
    inst = make_instance(tau=100, phases=80, delta=(10, 60))
    policy = EesPolicy(Observables.from_instance(inst))
    rec = run_episode(inst, policy, 3, reward_mode="sampled")
    est = concentration_radii(inst, policy.estimates)
    T = inst.T
    for u, p in enumerate(inst.P):
        base = p * T ** (2 / 3) - math.sqrt(p * T ** (2 / 3) * math.log(T))
        assert est.eps1[u] == pytest.approx(math.sqrt(math.log(T) / base))
    quota_rounds = T ** (2 / 3) / float(G_EX2.gamma)
    assert est.eps2 == pytest.approx(math.sqrt(math.log(T) / quota_rounds))


def test_exploration_keeps_every_arm_alive():
    inst = make_instance(tau=100, phases=200, delta=(10, 60))
    policy = EesPolicy(Observables.from_instance(inst))
    rec = run_episode(inst, policy, 5, reward_mode="sampled")
    T0 = policy.T0
    # no departures at all: exploration protects, then the planner does
    assert rec.departure_events == []
    # every exploration phase gives each arm its target count
    pulls = np.asarray(rec.pulls[:T0]).reshape(-1, inst.tau)
    g = policy.gamma.quota
    for row in pulls:
        counts = np.bincount(row, minlength=inst.k)
        assert counts[0] >= max(inst.delta[0], g)
        assert counts[1] >= max(inst.delta[1], g)


def test_explicit_phase_override_is_respected():
    inst = make_instance(tau=100, phases=200, delta=(10, 60))
    policy = EesPolicy(Observables.from_instance(inst),
                       EesConfig(exploration_phases=7))
    assert policy.exploration_phases == 7
    assert policy.T0 == 700


def test_zero_quota_instances_cannot_explore():
    # one arm eats the whole phase: no uniform quota fits alongside it
    obs = Observables(n=1, k=2, tau=4, T=400, delta=(4, 0))
    with pytest.raises(InfeasibleError):
        EesPolicy(obs, EesConfig())


def test_learning_needs_room_to_exploit():
    inst = make_instance(tau=100, phases=2, delta=(10, 60))
    with pytest.raises(InfeasibleError):
        EesPolicy(Observables.from_instance(inst),
                  EesConfig(exploration_phases=2))


def test_ees_dp_star_plans_and_plays_four_arms_at_tau_100():
    # the plan over all four arms spans C(104, 4) = 4,598,126 states,
    # under the cap: it is built after exploring and then played
    inst = make_instance(n=4, k=4, tau=100, phases=5, delta=(10, 10, 10, 10))
    policy = EesPolicy(Observables.from_instance(inst),
                       EesConfig(sso="dp_star", exploration_phases=3))
    rec = run_episode(inst, policy, 0, reward_mode="sampled")
    assert policy.planner.Z == frozenset(range(4))
    assert policy.planner.table.values.size == 4_598_126
    assert rec.departure_events == []
    # every type meets its own arm: the plan serves it whenever it can
    played = rec.pulls[policy.T0:]
    assert (played == rec.arrivals[policy.T0:]).mean() > 0.9


def test_an_oversized_dp_star_plan_still_fails_before_exploring():
    # five arms at tau=100 need C(105, 5) = 96,560,646 states, over the
    # cap; refuse them at construction, not after exploring
    obs = Observables(n=5, k=5, tau=100, T=200_000, delta=(10,) * 5)
    with pytest.raises(ResourceGuardError):
        EesPolicy(obs, EesConfig(sso="dp_star"))
    EesPolicy(obs, EesConfig(sso="lcb_star"))  # no table, no guard
    with pytest.raises(ResourceGuardError):
        DpPolicy(make_instance(n=5, k=5, tau=100, phases=2, delta=(10,) * 5))


def test_an_llcb_plan_over_any_horizon_builds_and_plays():
    # the plan after T0=63,500 rounds spans 19,365 phases; its cost does
    # not grow with them, so the learner builds, and so does the planner
    inst = make_instance(n=4, k=4, tau=100, phases=20_000, delta=(10, 10, 10, 10),
                         P=(0.4, 0.3, 0.2, 0.1))
    policy = EesPolicy(Observables.from_instance(inst), EesConfig(sso="llcb"))
    assert policy.T0 == 63_500
    planner = LlcbPolicy(replace(inst, T=inst.T - policy.T0))
    assert len(planner.plan.chain) == 19_366
    assert len(planner.plan.segments) <= 2 * inst.k + 1
    rec = run_episode(inst, policy, 0, reward_mode="expected")
    chain = policy.planner.plan.chain
    assert len(chain) == 19_366
    # arms leave only after exploring, once the plan stops protecting them
    for phase, arm in rec.departure_events:
        assert phase > policy.exploration_phases
        assert arm not in chain[phase - policy.exploration_phases]


def test_an_oversized_llcb_plan_still_fails_before_exploring():
    # 3^13 subset pairs exceed the pair cap at any horizon; refuse them
    # at construction, not at T0
    obs = Observables(n=2, k=13, tau=100, T=200_000, delta=(5,) * 13)
    with pytest.raises(ResourceGuardError):
        EesPolicy(obs, EesConfig(sso="llcb"))
    EesPolicy(obs, EesConfig(sso="lcb_star"))  # no plan, no guard
    with pytest.raises(ResourceGuardError):
        LlcbPolicy(make_instance(n=2, k=13, tau=100, phases=2, delta=(5,) * 13))


def test_an_oversized_subset_search_still_fails_before_exploring():
    # 17 arms exceed the subset cap of the exhaustive searches; refuse
    # them at construction, not at T0=68,400
    obs = Observables(n=2, k=17, tau=100, T=200_000, delta=(0,) * 17)
    for sso in ("lcb_star", "dp_star"):
        with pytest.raises(ResourceGuardError):
            EesPolicy(obs, EesConfig(sso=sso))
    # the greedy tries no subset family, so it has no cap
    assert EesPolicy(obs, EesConfig(sso="alcb_star")).T0 == 68_400


def test_a_budget_selects_the_relaxed_exploration_schedule():
    inst = subsidy_worthwhile(T=100_000)

    def half_a_phase(tau):
        return tau / 2

    policy = EesPolicy(Observables.from_instance(inst), EesConfig(budget_fn=half_a_phase))
    assert policy.exploration_phases == relaxed_exploration_phases(
        inst.T, inst.tau, half_a_phase) == 28
    rec = run_episode(inst, policy, 0, reward_mode="sampled")
    assert policy.estimates.T0 == policy.T0 == 2_800
    # the planner takes the rest of the horizon after the long block
    assert policy.planner.instance.T == inst.T - 2_800
    assert all(phase > 28 for phase, _ in rec.departure_events)


def test_a_departure_during_exploration_breaks_the_contract():
    inst = make_instance(tau=100, phases=100, delta=(10, 60))
    policy = EesPolicy(Observables.from_instance(inst))
    policy.start(np.random.default_rng(0))
    with pytest.raises(ContractError):
        policy.choose(0, 0, frozenset({0}))


def test_subsidizing_blind_keeps_the_deterministic_ceiling():
    inst = one_type_two_arms(T=10_000, tau=100)
    blind = baseline_policy("blind_subsidize", inst)
    rec = run_episode(inst, blind, 0, reward_mode="expected")
    # thresholds 10 and 20: at most 80 of every 100 rounds earn
    assert rec.expected_reward / inst.T == pytest.approx(0.8, abs=1e-12)
    assert rec.departure_events == []


def test_never_subsidizing_loses_the_subsidy_arm():
    inst = make_instance(tau=100, phases=1000, delta=(10, 60))
    never = baseline_policy("never_subsidize", inst)
    rec = run_episode(inst, never, 0, reward_mode="expected")
    assert rec.departure_events == [(1, 1)]
    assert rec.expected_reward / inst.T == pytest.approx(0.5, abs=0.01)


def test_greedy_bandit_runs_on_observables_alone():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    gb = baseline_policy("greedy_bandit",
                         observables=Observables.from_instance(inst))
    assert gb.wants_feedback
    rec = run_episode(inst, gb, 0, reward_mode="sampled")
    assert rec.expected_reward > 0


def test_unknown_baseline_kind_raises():
    with pytest.raises(ValueError):
        baseline_policy("optimistic", make_instance())
