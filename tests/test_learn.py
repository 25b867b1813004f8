from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exposure_bandits import (
    NO_PULL,
    ContractError,
    AlcbPolicy,
    DpPolicy,
    EesPolicy,
    Estimates,
    InfeasibleError,
    Instance,
    LcbPolicy,
    LlcbPolicy,
    Observables,
    ResourceGuardError,
    RunRecord,
    baseline_policy,
    concentration_radii,
    default_exploration_phases,
    env,
    estimate,
    explore_phase_step,
    learn,
    relaxed_exploration_phases,
    run_episode,
)
from exposure_bandits.core import compute_gamma
from exposure_bandits.learn import UNOBSERVED_MU, BlindSubsidizePolicy, GreedyBanditPolicy
from exposure_bandits.presets import one_type_two_arms, subsidy_worthwhile
from conftest import make_instance, one_phase, simplex, utility_rows
from test_env import assert_same_record, no_reward, past_of, scalar_run
from test_lmatch import assert_plan_shape


G_EX2 = compute_gamma(one_phase((10, 60), 100))  # quota 40


def test_exploration_phase_counts_for_the_reference_horizons():
    assert default_exploration_phases(20_000, G_EX2) == 19
    assert default_exploration_phases(100_000, G_EX2) == 54
    assert default_exploration_phases(500_000, G_EX2) == 158


def test_exploration_phase_count_is_exact_on_perfect_cubes():
    # T = 8000 gives T^(2/3) = 400 exactly; quota 40 divides it
    assert default_exploration_phases(8_000, G_EX2) == 10
    g7 = compute_gamma(one_phase((0, 0, 0, 0, 0), 35))  # quota 7
    assert default_exploration_phases(8_000, g7) == math.ceil(400 / 7)


def test_exploration_phase_count_is_exact_past_float_range():
    # the cube roots of T and T^2 are taken in integers: 10^198 is a cube,
    # 10^200 is not, and 10^400 overflows a float
    assert default_exploration_phases(10**198, G_EX2) == 10**132 // 40
    phases = default_exploration_phases(10**200, G_EX2)
    assert ((phases - 1) * 40) ** 3 < 10**400 <= (phases * 40) ** 3


def test_exploration_phase_count_never_undershoots():
    rng = np.random.default_rng(71)
    for _ in range(100):
        T = int(rng.integers(100, 10**7))
        q = int(rng.integers(1, 50))
        g = compute_gamma(one_phase((0,), q))  # one unconstrained arm: quota q
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
    # each arm up to its target max(delta, quota) in arm order: arm 0 to
    # max(10, 40) = 40, arm 1 to max(60, 40) = 60, which fills the phase
    pulls = explore_phase_step(3, G_EX2, (10, 60), 100, np.random.default_rng(0))
    assert pulls.shape == (3, 100) and pulls.dtype == np.int16
    assert (pulls[:, :40] == 0).all()
    assert (pulls[:, 40:] == 1).all()


def per_round_exploration(count, quota, delta, tau, rng):
    """The exploration rule one round at a time: the smallest-index arm
    still below its per-phase target max(delta_a, quota), or a uniform
    arm, one scalar draw, when every target is met."""
    k = len(delta)
    pulls = []
    for _ in range(count):
        counts = [0] * k
        for _ in range(tau):
            a = next((a for a in range(k) if counts[a] < max(delta[a], quota)), None)
            if a is None:
                a = int(rng.integers(k))
            counts[a] += 1
            pulls.append(a)
    return np.array(pulls, dtype=np.int16).reshape(count, tau)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 60), st.integers(0, 6),
       st.integers(0, 2**32 - 1))
def test_the_exploration_block_is_the_per_round_walk(data, k, tau, count, seed):
    # thresholds and quota up to past tau, so heads that fill the phase
    # and k = 1 (a draw with one outcome) are both drawn
    delta = tuple(data.draw(st.lists(st.integers(0, tau + 2), min_size=k, max_size=k)))
    quota = data.draw(st.integers(1, tau + 2))
    gamma = replace(compute_gamma(one_phase((0,), tau)), quota=quota)
    walk_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = per_round_exploration(count, quota, delta, tau, walk_rng)
    block = explore_phase_step(count, gamma, delta, tau, block_rng)
    assert block.dtype == np.int16
    assert block.tolist() == expected.tolist()
    # the block relies on Generator.integers(k, size=m) being m scalar
    # integers(k) calls, values and state after; a NumPy that breaks it
    # fails here, not only in the pinned stream digests
    assert block_rng.bit_generator.state == walk_rng.bit_generator.state, (
        "Generator.integers(k, size=m) no longer leaves the generator where "
        "m scalar integers(k) calls do"
    )


def test_estimates_recover_the_truth_on_clean_data():
    inst = make_instance(tau=100, phases=100, delta=(10, 60),
                         reward_kind="deterministic")
    policy = EesPolicy(Observables.from_instance(inst), LcbPolicy)
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


def reference_estimate(record, T0, n, k):
    """:func:`estimate` written round by round: an independent count of
    the live pulls and their rewards."""
    arrival_counts = [0] * n
    reward_sums = [[0.0] * k for _ in range(n)]
    obs_counts = [[0] * k for _ in range(n)]
    rounds = zip(record.arrivals[:T0].tolist(), record.pulls[:T0].tolist(),
                 record.realized_rewards[:T0].tolist(), record.dead_pulls[:T0].tolist())
    for u, a, x, dead in rounds:
        arrival_counts[u] += 1
        if a >= 0 and not dead:
            obs_counts[u][a] += 1
            reward_sums[u][a] += x
    P_hat = [c / T0 for c in arrival_counts]
    if 0 in arrival_counts:
        P_hat = [max(p, 0.5 / T0) for p in P_hat]
        P_hat = [p / sum(P_hat) for p in P_hat]
    mu_hat = tuple(
        tuple(min(1.0, max(0.0, reward_sums[u][a] / obs_counts[u][a]))
              if obs_counts[u][a] else UNOBSERVED_MU for a in range(k))
        for u in range(n)
    )
    return Estimates(P_hat=tuple(P_hat), mu_hat=mu_hat, T0=T0,
                     observation_counts=tuple(map(tuple, obs_counts)))


def hexed(est):
    """Every number of an estimate, floats as their exact hex strings."""
    return (tuple(p.hex() for p in est.P_hat),
            tuple(tuple(m.hex() for m in row) for row in est.mu_hat),
            est.T0, est.observation_counts)


@st.composite
def exploration_logs(draw):
    """A record whose arrivals cover only some of the types, whose pulls
    include declines and dead pulls, and whose rewards are any floats;
    many cells go unobserved."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    T = draw(st.integers(1, 60))
    seen = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    arrivals = draw(st.lists(st.sampled_from(seen), min_size=T, max_size=T))
    pulls = draw(st.lists(st.integers(-1, k - 1), min_size=T, max_size=T))
    dead = [a >= 0 and d for a, d in
            zip(pulls, draw(st.lists(st.booleans(), min_size=T, max_size=T)))]
    rewards = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=T, max_size=T))
    record = RunRecord(arrivals=np.array(arrivals, dtype=np.int16),
                       pulls=np.array(pulls, dtype=np.int16),
                       realized_rewards=np.array(rewards, dtype=np.float64),
                       expected_reward=math.nan, departure_events=[], seed=0,
                       dead_pulls=np.array(dead, dtype=bool))
    return record, draw(st.integers(1, T)), n, k


@settings(max_examples=200, deadline=None)
@given(exploration_logs())
def test_estimates_equal_the_per_round_count_to_the_bit(log):
    record, T0, n, k = log
    assert hexed(estimate(record, T0, n, k)) == hexed(reference_estimate(record, T0, n, k))


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
    policy = EesPolicy(Observables.from_instance(inst), exploration_phases=7)
    assert policy.exploration_phases == 7
    assert policy.T0 == 700


@pytest.mark.parametrize("phases", [0, -2])
def test_a_non_positive_phase_override_is_a_value_error(phases):
    # a config error, not an exploration that does not fit the horizon
    inst = make_instance(tau=100, phases=200, delta=(10, 60))
    with pytest.raises(ValueError, match="at least one phase"):
        EesPolicy(Observables.from_instance(inst), exploration_phases=phases)


def test_zero_quota_instances_cannot_explore():
    # one arm eats the whole phase: no uniform quota fits alongside it
    obs = Observables(n=1, k=2, tau=4, T=400, delta=(4, 0))
    with pytest.raises(InfeasibleError):
        EesPolicy(obs)


def test_learning_needs_room_to_exploit():
    inst = make_instance(tau=100, phases=2, delta=(10, 60))
    with pytest.raises(InfeasibleError):
        EesPolicy(Observables.from_instance(inst), exploration_phases=2)


def test_ees_dp_star_plans_and_plays_four_arms_at_tau_100():
    # the plan over all four arms spans C(104, 4) = 4,598,126 states,
    # under the cap: it is built after exploring and then played
    inst = make_instance(n=4, k=4, tau=100, phases=5, delta=(10, 10, 10, 10))
    policy = EesPolicy(Observables.from_instance(inst), DpPolicy, exploration_phases=3)
    rec = run_episode(inst, policy, 0, reward_mode="sampled")
    assert policy.planner.Z == frozenset(range(4))
    assert policy.planner.table.values.size == 4_598_126
    assert rec.departure_events == []
    # every type meets its own arm: the plan serves it whenever it can
    played = rec.pulls[policy.T0:]
    assert (played == rec.arrivals[policy.T0:]).mean() > 0.9


# five arms at tau=100 need C(105, 5) = 96,560,646 states, over the DP's
# cap (T0 = 17,100)
FIVE_ARMS = Observables(n=5, k=5, tau=100, T=200_000, delta=(10,) * 5)
# 17 arms exceed the subset cap of the exhaustive searches (T0 = 68,400)
WIDE = Observables(n=2, k=17, tau=100, T=200_000, delta=(0,) * 17)
WIDE_THRESHOLDS = Observables(n=2, k=17, tau=100, T=200_000, delta=(5,) * 17)
# one-round phases have no confidence floors (T0 = 159)
ONE_ROUND = Observables(n=1, k=1, tau=1, T=2000, delta=(1,))


@pytest.mark.parametrize("planner, obs, outcome", [
    pytest.param(DpPolicy, FIVE_ARMS, ResourceGuardError, id="dp-five-arms"),
    pytest.param(LcbPolicy, FIVE_ARMS, 17_100, id="lcb-five-arms"),  # no table, no guard
    pytest.param(LcbPolicy, WIDE, ResourceGuardError, id="lcb-wide"),
    pytest.param(DpPolicy, WIDE, ResourceGuardError, id="dp-wide"),
    # the greedy tries no subset family, so it has no cap, although its
    # class derives from LcbPolicy's
    pytest.param(AlcbPolicy, WIDE, 68_400, id="alcb-wide"),
    # the plan searches the same subsets as LCB, at any horizon
    pytest.param(LlcbPolicy, WIDE_THRESHOLDS, ResourceGuardError, id="llcb-wide"),
    pytest.param(LcbPolicy, ONE_ROUND, ValueError, id="lcb-one-round"),
    pytest.param(AlcbPolicy, ONE_ROUND, ValueError, id="alcb-one-round"),
    pytest.param(LlcbPolicy, ONE_ROUND, ValueError, id="llcb-one-round"),
])
def test_a_learner_refuses_before_exploring_what_its_planner_refuses(planner, obs, outcome):
    # refused at construction, as the planner itself is, not after
    # exploring; a learner that builds explores for its T0 rounds
    if isinstance(outcome, int):
        assert EesPolicy(obs, planner).T0 == outcome
        return
    with pytest.raises(outcome):
        EesPolicy(obs, planner)
    with pytest.raises(outcome):
        planner(make_instance(n=obs.n, k=obs.k, tau=obs.tau, phases=2, delta=obs.delta))


# what a planner may still raise on the estimates, from P and mu alone,
# when its learner was built: nothing
RAISED_BY_THE_ESTIMATES = ()


@st.composite
def learner_cases(draw):
    """Observables of at most 3 types, 6 arms and 8 rounds a phase, with
    P and mu for them.  Three draws in four fit EES's own refusals: at
    most tau arms, whose thresholds leave each a round of the phase (a
    quota of at least 1), and a horizon of more than 2 tau^2 phases, so
    that exploration is shorter; the fourth draws any thresholds and
    horizon."""
    n, tau = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    if draw(st.sampled_from((True, True, True, False))):
        k = draw(st.integers(1, min(6, tau)))
        delta, left = [], tau
        for a in range(k):
            delta.append(draw(st.integers(0, left - (k - 1 - a))))
            left -= max(delta[-1], 1)
        phases = draw(st.integers(2 * tau * tau + 2, 2000))
    else:
        k = draw(st.integers(1, 6))
        delta = draw(st.lists(st.integers(0, tau), min_size=k, max_size=k))
        phases = draw(st.integers(1, 2000))
    obs = Observables(n=n, k=k, tau=tau, T=tau * phases, delta=tuple(delta))
    return obs, draw(simplex(n)), draw(utility_rows(n, k))


@settings(max_examples=300, deadline=None)
@given(case=learner_cases(), planner=st.sampled_from((DpPolicy, LcbPolicy, AlcbPolicy, LlcbPolicy)))
@example(case=(ONE_ROUND, (1.0,), ((0.5,),)), planner=LcbPolicy)
@example(case=(ONE_ROUND, (1.0,), ((0.5,),)), planner=AlcbPolicy)
@example(case=(ONE_ROUND, (1.0,), ((0.5,),)), planner=LlcbPolicy)
def test_a_learner_that_builds_hands_its_planner_an_instance_it_builds(case, planner):
    obs, P, mu = case
    try:
        policy = EesPolicy(obs, planner)
    except (InfeasibleError, ResourceGuardError, ValueError):
        return
    rest = Instance(n=obs.n, k=obs.k, tau=obs.tau, T=obs.T - policy.T0, P=P,
                    delta=obs.delta, mu=mu)
    try:
        planner(rest)
    except RAISED_BY_THE_ESTIMATES:
        pass


def test_an_llcb_plan_over_any_horizon_builds_and_plays():
    # the plan after T0=63,500 rounds spans 19,365 phases; its cost does
    # not grow with them, so the learner builds, and so does the planner
    inst = make_instance(n=4, k=4, tau=100, phases=20_000, delta=(10, 10, 10, 10),
                         P=(0.4, 0.3, 0.2, 0.1))
    policy = EesPolicy(Observables.from_instance(inst), LlcbPolicy)
    assert policy.T0 == 63_500
    planner = LlcbPolicy(replace(inst, T=inst.T - policy.T0))
    assert len(planner.plan.chain) == 19_366
    assert_plan_shape(planner.plan)
    rec = run_episode(inst, policy, 0, reward_mode="expected")
    chain = policy.planner.plan.chain
    assert len(chain) == 19_366
    # arms leave only after exploring, once the plan stops protecting them
    for phase, arm in rec.departure_events:
        assert phase > policy.exploration_phases
        assert arm not in chain[phase - policy.exploration_phases]


def test_a_budget_selects_the_relaxed_exploration_schedule():
    inst = subsidy_worthwhile(T=100_000)

    def half_a_phase(tau):
        return tau / 2

    phases = relaxed_exploration_phases(inst.T, inst.tau, half_a_phase)
    assert phases == 28
    policy = EesPolicy(Observables.from_instance(inst), exploration_phases=phases)
    assert policy.exploration_phases == 28
    rec = run_episode(inst, policy, 0, reward_mode="sampled")
    assert policy.estimates.T0 == policy.T0 == 2_800
    # the planner takes the rest of the horizon after the long block
    assert policy.planner.instance.T == inst.T - 2_800
    assert all(phase > 28 for phase, _ in rec.departure_events)


def test_a_departure_during_exploration_breaks_the_contract():
    inst = make_instance(tau=100, phases=100, delta=(10, 60))
    policy = EesPolicy(Observables.from_instance(inst))
    policy.start(np.random.default_rng(0))
    arrivals = np.zeros((inst.phases, inst.tau), dtype=np.int16)
    with pytest.raises(ContractError):
        policy.play_phases(arrivals, frozenset({0}), past_of(0), no_reward)


def test_subsidizing_blind_keeps_the_deterministic_ceiling():
    inst = one_type_two_arms(T=10_000, tau=100)
    blind = baseline_policy("blind_subsidize", inst)
    rec = run_episode(inst, blind, 0, reward_mode="expected")
    # thresholds 10 and 20: at most 80 of every 100 rounds earn
    assert rec.expected_reward / inst.T == pytest.approx(0.8, abs=1e-12)
    assert rec.departure_events == []


def reference_subsidies(k, delta, tau, viable, cursor, fill):
    """One phase of the blind baseline walked round by round: each round
    the first viable arm from the cursor on still short of its threshold,
    which the cursor then moves past, or else the next ``fill`` arm,
    counted like any pull.  Returns the subsidy rounds' arms and offsets,
    and the cursor after the phase."""
    counts = [0] * k
    arms, offsets = [], []
    for r in range(tau):
        short = [a for a in (*range(cursor, k), *range(cursor)) if a in viable
                 and counts[a] < delta[a]]
        if short:
            a = short[0]
            cursor = (a + 1) % k
            arms.append(a)
            offsets.append(r)
        else:
            a = fill[r % len(fill)]
        counts[a] += 1
    return arms, offsets, cursor


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_blind_prefix_is_the_per_round_subsidy_walk(data):
    k = data.draw(st.integers(1, 5))
    tau = data.draw(st.integers(1, 12))
    delta = tuple(data.draw(st.lists(st.integers(0, tau), min_size=k, max_size=k)))
    viable = frozenset(data.draw(st.sets(st.integers(0, k - 1))))
    cursor = data.draw(st.integers(0, k - 1))
    fill = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=tau))
    policy = BlindSubsidizePolicy(make_instance(n=1, k=k, tau=tau, phases=1, P=(1.0,),
                                                delta=delta, mu=((0.5,) * k,)))
    policy.start(np.random.default_rng(0))
    policy._cursor = cursor
    arms, offsets, after = reference_subsidies(k, delta, tau, viable, cursor, fill)
    # the subsidy rounds come first, and no pull after them adds one
    assert offsets == list(range(len(arms)))
    assert policy._prefix(viable) == arms
    assert policy._cursor == after
    assert len(arms) == min(tau, sum(delta[a] for a in viable))


def test_each_blind_phase_subsidises_from_where_the_last_left_the_cursor():
    # thresholds (2, 1): from cursor 0 a phase subsidises arms 0, 1, 0
    # and leaves the cursor at 1, from where each later phase
    # subsidises 1, 0, 0
    inst = make_instance(tau=10, phases=6, delta=(2, 1), mu=((0.9, 0.2), (0.1, 0.8)))
    rec = run_episode(inst, BlindSubsidizePolicy(inst), 0, reward_mode="expected")
    assert rec.pulls.reshape(6, 10)[:, :3].tolist() == [[0, 1, 0]] + [[1, 0, 0]] * 5


def test_never_subsidizing_loses_the_subsidy_arm():
    inst = make_instance(tau=100, phases=1000, delta=(10, 60))
    never = baseline_policy("never_subsidize", inst)
    rec = run_episode(inst, never, 0, reward_mode="expected")
    assert rec.departure_events == [(1, 1)]
    assert rec.expected_reward / inst.T == pytest.approx(0.5, abs=0.01)


def test_greedy_bandit_runs_on_observables_alone():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    gb = GreedyBanditPolicy(Observables.from_instance(inst))
    # the factory hands the bandit only the instance's observables
    assert baseline_policy("greedy_bandit", inst).observables == gb.observables
    assert gb.observables is not None
    rec = run_episode(inst, gb, 0, reward_mode="sampled")
    assert rec.expected_reward > 0


# -- the bandit's runs on the segment path --------------------------------------

@st.composite
def dyadic_bandit_cases(draw):
    """Instances with n, k <= 4 whose utilities are multiples of 1/4, so
    the bandit's indices tie exactly (0/1 rewards when sampled, dyadic
    means when expected), or else any floats, whose running sums round;
    thresholds up to tau, so arms often depart, and sometimes all."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    tau = draw(st.integers(1, 8))
    phases = draw(st.integers(1, 40))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    delta = tuple(draw(st.lists(st.integers(0, tau), min_size=k, max_size=k)))
    unit = (st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)) if draw(st.booleans())
            else st.floats(0.0, 1.0))
    mu = tuple(tuple(draw(st.lists(unit, min_size=k, max_size=k))) for _ in range(n))
    return Instance(n=n, k=k, tau=tau, T=tau * phases,
                    P=tuple(w / sum(weights) for w in weights), delta=delta, mu=mu)


def bandit_state(policy):
    """The bandit's per-type sums (as hex), pull counts and arrivals."""
    return ([[x.hex() for x in row] for row in policy._sums], policy._counts,
            policy._type_rounds)


@settings(max_examples=200, deadline=None)
@given(dyadic_bandit_cases(), st.sampled_from(("expected", "sampled")),
       st.sampled_from((1, 3, None)), st.sampled_from((2, 8)), st.sampled_from((1, 2, 32)),
       st.sampled_from((1, 3, 256)), st.sampled_from((1, 64, 4096)),
       st.integers(0, 2**32 - 1))
def test_the_bandit_plays_its_runs_as_the_loop_plays_its_rounds(
        inst, mode, block, run, window, fetch, first, seed):
    # a block of 1 or 3 phases puts departures inside blocks and cuts
    # the policy's segments short; the knobs put checks, reward fetches
    # and calls at every boundary
    policy = GreedyBanditPolicy(Observables.from_instance(inst))
    with pytest.MonkeyPatch.context() as m:
        if block is not None:
            m.setattr(env, "BLOCK_ROUNDS", block * inst.tau)
        steps = scalar_run(inst, policy, seed, mode)
        state = bandit_state(policy)
        policy.RUN, policy.WINDOW, policy.FETCH, policy.FIRST_ROUNDS = run, window, fetch, first
        runs = run_episode(inst, policy, seed, mode)
    assert_same_record(runs, steps)
    assert state == bandit_state(policy)
    # the state a cut rebuilds from the record is the one the steps reach
    policy._rebuild(steps)
    assert state == bandit_state(policy)


def test_the_bandit_rebuilds_after_a_cut_and_declines_with_no_arm_left(monkeypatch):
    # every arm needs every round of a phase, so all three leave after
    # phase 1, which cuts the first 3-phase block short
    inst = make_instance(tau=4, phases=12, delta=(4, 4, 4), k=3,
                         mu=((1.0, 0.5, 0.0), (0.0, 0.5, 1.0)))
    monkeypatch.setattr(env, "BLOCK_ROUNDS", 3 * inst.tau)
    rebuilt = []
    rebuild = GreedyBanditPolicy._rebuild
    monkeypatch.setattr(GreedyBanditPolicy, "_rebuild",
                        lambda self, past: rebuilt.append(len(past.pulls)) or rebuild(self, past))
    policy = GreedyBanditPolicy(Observables.from_instance(inst))
    for mode in ("expected", "sampled"):
        rebuilt.clear()
        rec = run_episode(inst, policy, 5, mode)
        state = bandit_state(policy)
        # the scalar run below is cut and rebuilds too
        assert rebuilt == [inst.tau]
        assert_same_record(rec, scalar_run(inst, policy, 5, mode))
        assert state == bandit_state(policy)
        assert rec.departure_events == [(1, 0), (1, 1), (1, 2)]
        assert (rec.pulls[inst.tau:] == NO_PULL).all()


@st.composite
def bandit_states(draw):
    """A type's state over up to four pulled arms, with few counts and
    dyadic means, so that indices tie; an arm on a run, the rewards of
    its next pulls and the type's next arrival."""
    k = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    means = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))
    sums = [c * draw(means) for c in counts]
    b = draw(st.integers(0, k - 1))
    rewards = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)) | st.just(sums[b] / counts[b]),
                            min_size=1, max_size=40))
    nu = draw(st.integers(sum(counts), 2000))
    return list(range(k)), sums, counts, b, rewards, nu


@settings(max_examples=300, deadline=None)
@given(bandit_states())
def test_a_window_stops_where_the_scalar_steps_leave_the_arm(case):
    arms, sums, counts, b, rewards, nu = case
    got = learn._run_length(arms, sums, counts, nu, b, np.array(rewards))
    # the scalar steps: the pick, then the feedback of b's pull
    sums, counts = list(sums), list(counts)
    j = 0
    while j < len(rewards) and learn._ucb_pick(arms, sums, counts, nu + j) == b:
        sums[b] += rewards[j]
        counts[b] += 1
        j += 1
    assert got[0] == j
    assert got[1].hex() == sums[b].hex()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**7),
       st.lists(st.tuples(st.integers(1, 10**6), st.floats(0.0, 1.0)), min_size=1, max_size=64))
# a window across the end of the log table
@example(learn.LOG_TABLE_SIZE - 3, [(c, 0.3) for c in (1, 2, 3, 5, 8, 13, 21, 34)])
def test_the_window_index_is_the_scalar_index_to_the_bit(nu, cells):
    # per round of a window at nu, nu + 1, ...: a count and a mean reward;
    # each entry must carry the bits of the scalar index
    counts = [c for c, _ in cells]
    sums = [c * mean for c, mean in cells]
    got = learn._indices(np.array(sums), np.array(counts, dtype=np.float64),
                         2.0 * learn._logs(nu, len(cells)))
    for j, (s, c) in enumerate(zip(sums, counts)):
        want = s / c + math.sqrt(2.0 * math.log(nu + j) / c)
        assert float(got[j]).hex() == want.hex()


def test_unknown_baseline_kind_raises():
    with pytest.raises(ValueError):
        baseline_policy("optimistic", make_instance())
