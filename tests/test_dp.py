from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    DpPolicy,
    Instance,
    InfeasibleError,
    dp_star,
    dp_step,
    mer_table,
    planned_total_value,
    run_episode,
)
from conftest import IDENTITY2, make_instance, random_instance


def test_two_round_identity_value():
    inst = make_instance(tau=2, phases=1, delta=(1, 1))
    table = mer_table((0, 1), inst)
    # first round pays 1 either way, second pays 1 only on the lucky type
    assert table.root_value == pytest.approx(1.5, abs=1e-12)


def test_root_is_sentinel_when_demand_exceeds_the_phase():
    inst = make_instance(tau=4, phases=1, delta=(3, 3))
    table = mer_table((0, 1), inst)
    from exposure_bandits import NEG_INF

    assert table.root_value is NEG_INF


def test_state_count_respects_the_analytic_bound():
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = random_instance(rng, tau_max=8)
        Z = tuple(sorted(rng.choice(inst.k, size=int(rng.integers(1, inst.k + 1)),
                                    replace=False).tolist()))
        table = mer_table(Z, inst)
        m = len(Z)
        assert table.state_count <= inst.tau * (inst.tau + m) ** (m - 1)


def test_dp_step_prefers_the_larger_deficit_on_ties():
    # both arms pay 1 to type 0; arm 1 is further from its threshold
    inst = make_instance(
        n=1, k=2, tau=6, phases=1, P=(1.0,), delta=(1, 3), mu=((1.0, 1.0),)
    )
    table = mer_table((0, 1), inst)
    arm = dp_step(table, (0, 0), 0)
    assert arm == 1
    # equal deficits: smaller index wins
    inst2 = make_instance(
        n=1, k=2, tau=6, phases=1, P=(1.0,), delta=(2, 2), mu=((1.0, 1.0),)
    )
    arm2 = dp_step(mer_table((0, 1), inst2), (0, 0), 0)
    assert arm2 == 0


def test_dp_step_rejects_exhausted_phases():
    inst = make_instance(tau=2, phases=1, delta=(1, 1))
    table = mer_table((0, 1), inst)
    with pytest.raises(ValueError):
        dp_step(table, (1, 1), 0)


def test_planner_subsidizes_when_the_phase_is_long_enough():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    Z, table = dp_star(inst)
    assert Z == frozenset({0, 1})
    assert table.root_value == pytest.approx(90.0, rel=0.05)


def test_planner_drops_the_expensive_arm_for_skewed_arrivals():
    inst = make_instance(tau=100, phases=10, P=(0.9, 0.1), delta=(10, 60))
    Z, table = dp_star(inst)
    assert Z == frozenset({0})
    assert table.root_value == pytest.approx(90.0, rel=0.05)


def test_planner_raises_when_every_commitment_is_too_expensive():
    inst = make_instance(n=1, k=2, tau=4, phases=1, P=(1.0,), delta=(3, 3),
                         mu=((1.0, 1.0),))
    # single-arm commitments still fit (3 <= 4), so this one is feasible
    Z, _ = dp_star(inst)
    assert len(Z) == 1


def test_ties_prefer_smaller_commitments():
    # arm 1 never pays and its threshold is zero: committing to it adds nothing
    inst = make_instance(n=1, k=2, tau=4, phases=1, P=(1.0,), delta=(0, 0),
                         mu=((1.0, 0.0),))
    Z, _ = dp_star(inst)
    assert Z == frozenset({0})


def test_policy_keeps_every_committed_arm_alive():
    inst = make_instance(tau=100, phases=50, delta=(40, 40))
    policy = DpPolicy(inst)
    for seed in range(3):
        rec = run_episode(inst, policy, seed, reward_mode="expected")
        assert rec.departure_events == []


def test_planned_total_value_scales_with_the_horizon():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    _, table = dp_star(inst)
    assert planned_total_value(inst, table) == pytest.approx(
        10 * table.root_value, abs=1e-9
    )


def test_policy_realizes_the_planned_value_on_average():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    policy = DpPolicy(inst)
    rewards = [
        run_episode(inst, policy, seed, reward_mode="expected").expected_reward
        for seed in range(30)
    ]
    mean = sum(rewards) / len(rewards)
    planned = planned_total_value(inst, policy.table)
    se = np.std(rewards, ddof=1) / np.sqrt(len(rewards))
    assert abs(mean - planned) < 4 * se + 1e-9


@st.composite
def tie_prone_instances(draw):
    """Small instances whose utilities come from a four-value grid, so
    equal scores (and the tie rule) are common."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    tau = draw(st.integers(2, 7))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    delta = []
    left = tau
    for _ in range(k):
        delta.append(draw(st.integers(0, left)))
        left -= delta[-1]
    grid = st.sampled_from((0.0, 0.25, 0.5, 1.0))
    mu = tuple(tuple(draw(st.lists(grid, min_size=k, max_size=k))) for _ in range(n))
    P = tuple(w / sum(weights) for w in weights)
    return Instance(n=n, k=k, tau=tau, T=2 * tau, P=P, delta=tuple(delta), mu=mu)


def _expected_pull(table, counts, u, mu_u):
    """The tie rule from the table's values: best mu + successor value over
    feasible successors, then the larger deficit, then the smaller index."""
    base = table.index_of(counts)
    best = None
    for j, a in enumerate(table.Z):
        succ = table.values[base + table.strides[j]]
        if succ == -np.inf:
            continue
        key = (mu_u[a] + succ, max(0, table.deltas[j] - counts[j]), -j)
        if best is None or key > best[0]:
            best = (key, a)
    return best[1]


@settings(max_examples=150, deadline=None)
@given(tie_prone_instances())
def test_dp_step_follows_the_tie_rule_and_the_policy_follows_dp_step(inst):
    table = mer_table(range(inst.k), inst)
    m = len(table.Z)
    for counts in itertools.product(range(inst.tau), repeat=m):
        if sum(counts) >= inst.tau or table.values[table.index_of(counts)] == -np.inf:
            continue
        for u in range(inst.n):
            expected = _expected_pull(table, counts, u, inst.mu[u])
            assert dp_step(table, counts, u) == expected

    policy = DpPolicy(inst)
    rec = run_episode(inst, policy, 0)
    committed = policy.table.Z
    for p in range(inst.phases):
        counts = [0] * len(committed)
        for t in range(p * inst.tau, (p + 1) * inst.tau):
            arm = int(rec.pulls[t])
            assert arm == dp_step(policy.table, counts, int(rec.arrivals[t]))
            counts[committed.index(arm)] += 1
