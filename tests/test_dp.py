from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    DpPolicy,
    NEG_INF,
    Instance,
    InfeasibleError,
    dp_star,
    iter_subsets,
    mer_table,
    planned_total_value,
    run_episode,
)
from exposure_bandits import env
from exposure_bandits.dp import _action_table, _best_moves, largest_commitment
from exposure_bandits.presets import subsidy_wasteful
from conftest import (
    make_instance,
    random_instance,
    scaled_mu,
    simplex,
    tie_prone_instances,
    utility_rows,
)


def test_two_round_identity_value():
    inst = make_instance(tau=2, phases=1, delta=(1, 1))
    table = mer_table((0, 1), inst)
    # first round pays 1 either way, second pays 1 only on the lucky type
    assert table.root_value == pytest.approx(1.5, abs=1e-12)


def test_root_is_sentinel_when_demand_exceeds_the_phase():
    inst = make_instance(tau=4, phases=1, delta=(3, 3))
    table = mer_table((0, 1), inst)
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


def best_move(table, counts, u):
    """The arm :func:`_best_moves` pulls at within-phase ``counts`` over Z."""
    s = sum(counts)
    row = np.array([table.index_of(counts) - table.starts[s]])
    return table.Z[int(_best_moves(table, s, row)[0, u])]


def test_dp_step_prefers_the_larger_deficit_on_ties():
    # both arms pay 1 to type 0; arm 1 is further from its threshold
    inst = make_instance(
        n=1, k=2, tau=6, phases=1, P=(1.0,), delta=(1, 3), mu=((1.0, 1.0),)
    )
    table = mer_table((0, 1), inst)
    arm = best_move(table, (0, 0), 0)
    assert arm == 1
    # equal deficits: smaller index wins
    inst2 = make_instance(
        n=1, k=2, tau=6, phases=1, P=(1.0,), delta=(2, 2), mu=((1.0, 1.0),)
    )
    arm2 = best_move(mer_table((0, 1), inst2), (0, 0), 0)
    assert arm2 == 0


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


def test_the_guard_counts_only_commitments_that_fit_in_a_phase():
    # no three thresholds of 40 fit in tau=100, so the largest table covers
    # two arms, C(102, 2) = 5,151 states, not C(105, 5) = 96,560,646
    assert largest_commitment((40,) * 5, 100) == 2
    assert largest_commitment((60, 10, 50, 30), 100) == 3
    inst = make_instance(n=5, k=5, tau=100, phases=3, delta=(40,) * 5)
    policy = DpPolicy(inst)
    assert len(policy.Z) <= 2
    rec = run_episode(inst, policy, 0, reward_mode="expected")
    for phase, arm in rec.departure_events:
        assert arm not in policy.Z


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


def _expected_pull(table, counts, u, mu_u):
    """The tie rule from the table's values: best mu + successor value over
    feasible successors, then the larger deficit, then the smaller index."""
    best = None
    for j, a in enumerate(table.Z):
        succ = table.lookup([c + (i == j) for i, c in enumerate(counts)])
        if succ is NEG_INF:
            continue
        key = (mu_u[a] + succ, max(0, table.deltas[j] - counts[j]), -j)
        if best is None or key > best[0]:
            best = (key, a)
    return best[1]


def _deficit_decides(table, counts, u, mu_u):
    """Whether several arms reach the best score at ``counts`` for type
    ``u`` and the deficit, not the arm order, picks among them."""
    scores = {}
    for j, a in enumerate(table.Z):
        succ = table.lookup([c + (i == j) for i, c in enumerate(counts)])
        if succ is not NEG_INF:
            scores[j] = mu_u[a] + succ
    top = [j for j, v in scores.items() if v == max(scores.values())]
    return len(top) > 1 and _expected_pull(table, counts, u, mu_u) != table.Z[top[0]]


def test_the_action_table_breaks_score_ties_by_deficit_in_every_chunking(monkeypatch):
    import exposure_bandits.dp as dp

    # found by a seeded search: the committed table has entries where
    # exact score ties are settled by the deficit
    inst = Instance(n=3, k=3, tau=16, T=16, P=(0.2, 0.4, 0.4), delta=(6, 0, 3),
                    mu=((0, 0.5, 0.25), (1, 0, 0.5), (0.25, 0.25, 0.5)))
    policy = DpPolicy(inst)
    table = policy.table
    assert policy.Z == frozenset(range(3))
    assert table.state_count == 816
    decided = 0
    for counts in itertools.product(range(inst.tau), repeat=3):
        if sum(counts) >= inst.tau or table.values[table.index_of(counts)] == -np.inf:
            continue
        for u in range(inst.n):
            expected = _expected_pull(table, counts, u, inst.mu[u])
            assert table.Z[policy._acts[table.index_of(counts), u]] == expected
            decided += _deficit_decides(table, counts, u, inst.mu[u])
    assert decided > 0
    # chunks of 1 and 7 ranks split layers and hold sentinels alone
    for chunk in (1, 7):
        monkeypatch.setattr(dp, "_ACTION_CHUNK", chunk)
        assert np.array_equal(DpPolicy(inst)._acts, policy._acts)


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
            assert best_move(table, counts, u) == expected

    policy = DpPolicy(inst)
    rec = run_episode(inst, policy, 0)
    committed = policy.table.Z
    for p in range(inst.phases):
        counts = [0] * len(committed)
        for t in range(p * inst.tau, (p + 1) * inst.tau):
            arm = int(rec.pulls[t])
            assert arm == best_move(policy.table, counts, int(rec.arrivals[t]))
            counts[committed.index(arm)] += 1


def _walk(policy, arrivals):
    """The pulls of replaying the action table a round at a time: one
    rank from the counts, one entry of ``_acts``, one more count."""
    table, pulls = policy.table, []
    for phase in arrivals.tolist():
        counts, row = [0] * len(table.Z), []
        for u in phase:
            j = int(policy._acts[table.index_of(counts), u])
            counts[j] += 1
            row.append(table.Z[j])
        pulls.append(row)
    return pulls


REPLAY_CASES = {
    # one committed arm: ``next`` is 1x1
    "one_arm": (subsidy_wasteful(T=70, tau=10), {0}),
    "one_type": (make_instance(n=1, k=3, tau=5, phases=7, P=(1.0,), delta=(2, 1, 3),
                               mu=((0.25, 0.5, 0.75),)), {2}),
    "arms_0_and_2": (make_instance(n=3, k=3, tau=7, phases=7, P=(0.5, 0.25, 0.25),
                                   delta=(2, 5, 2), mu=((1.0, 0.5, 0.0), (0.25, 0.5, 0.5),
                                                        (0.0, 0.5, 1.0))), {0, 2}),
    # a layer of 153 positions: j * width overflows int8
    "three_arms": (make_instance(n=3, k=3, tau=16, phases=7, delta=(1, 1, 1)), {0, 1, 2}),
}


@pytest.mark.parametrize("block", (1, 3))
@pytest.mark.parametrize("case", REPLAY_CASES)
def test_the_replay_follows_a_per_round_walk_of_the_action_table(case, block, monkeypatch):
    inst, Z = REPLAY_CASES[case]
    policy = DpPolicy(inst)
    assert policy.Z == Z
    monkeypatch.setattr(env, "BLOCK_ROUNDS", block * inst.tau)
    rec = run_episode(inst, policy, 5)
    arrivals = rec.arrivals.reshape(-1, inst.tau)
    assert rec.pulls.reshape(-1, inst.tau).tolist() == _walk(policy, arrivals)
    # the arms outside Z depart after phase 1, which cuts a block of
    # three phases short
    assert rec.departure_events == [(1, a) for a in range(inst.k) if a not in Z]
    plan = policy.plan_phases(arrivals, 0)
    assert plan.dtype == np.int16
    assert plan.shape == arrivals.shape
    assert plan.flags.c_contiguous
    assert plan.tolist() == _walk(policy, arrivals)


def _grid_reference(Z, inst):
    """The MER table and action rule in the layout the ranked table
    replaced: one slot per count vector of the (tau+1)^m grid, mixed radix
    tau+1, filled by the same recursion in plain floats (the same
    operations in the same order, so values compare bit for bit).
    Returns the values, keyed by grid index, and the arm index into Z for
    every (decision state, type)."""
    tau, m = inst.tau, len(Z)
    grid = lambda c: sum(x * (tau + 1) ** j for j, x in enumerate(c))
    values = [-math.inf] * (tau + 1) ** m
    acts = {}
    states = [c for c in itertools.product(range(tau + 1), repeat=m) if sum(c) <= tau]
    for c in sorted(states, key=sum, reverse=True):
        deficit = [max(0, inst.delta[a] - x) for a, x in zip(Z, c)]
        if tau - sum(c) < sum(deficit):
            continue
        if sum(c) == tau:
            values[grid(c)] = 0.0
            continue
        succ = [values[grid(c) + (tau + 1) ** j] for j in range(m)]
        exp = 0.0
        for u in range(inst.n):
            scores = [inst.mu[u][a] + v for a, v in zip(Z, succ)]
            exp += inst.P[u] * max(scores)
            acts[c, u] = max(range(m), key=lambda j: (scores[j], deficit[j], -j))
        values[grid(c)] = exp
    return [values[grid(c)] for c in states], states, acts


def _check_against_the_grid(inst):
    for Z in iter_subsets(inst.k):
        table = mer_table(Z, inst)
        ref_values, states, ref_acts = _grid_reference(Z, inst)
        assert table.values.size == len(states)
        ranked = [float(table.values[table.index_of(c)]).hex() for c in states]
        assert ranked == [v.hex() for v in ref_values]
        acts = _action_table(table)
        for (c, u), j in ref_acts.items():
            assert best_move(table, c, u) == Z[j]
            assert acts[table.index_of(c), u] == j
    policy = DpPolicy(inst)
    table = policy.table
    _, _, ref_acts = _grid_reference(table.Z, inst)
    for (c, u), j in ref_acts.items():
        assert policy._acts[table.index_of(c), u] == j


@settings(max_examples=120, deadline=None)
@given(tie_prone_instances())
def test_ranked_table_matches_the_grid_layout_on_tie_prone_instances(inst):
    _check_against_the_grid(inst)


def test_ranked_table_matches_the_grid_layout_on_random_instances():
    rng = np.random.default_rng(4242)
    for _ in range(25):
        _check_against_the_grid(random_instance(rng, n_max=3, k_max=4, tau_max=7))


def test_ranked_table_counts_states_not_grid_cells():
    inst = make_instance(n=1, k=3, tau=6, phases=1, P=(1.0,), delta=(1, 2, 0),
                         mu=((0.5, 0.25, 1.0),))
    table = mer_table((0, 1, 2), inst)
    states = [c for c in itertools.product(range(7), repeat=3) if sum(c) <= 6]
    assert table.values.size == len(states) == math.comb(6 + 3, 3)
    assert table.state_count == math.comb(5 + 3, 3)
    # ranks are a bijection onto the table, layer by layer of equal total
    ranked = sorted((table.index_of(c), sum(c)) for c in states)
    assert [r for r, _ in ranked] == list(range(len(states)))
    totals = [s for _, s in ranked]
    assert totals == sorted(totals)


def _unpruned_dp_star(inst):
    """dp_star without the bound: every subset's table, the first strict
    maximum of the root value wins."""
    best = None
    for Z in iter_subsets(inst.k):
        table = mer_table(Z, inst)
        if table.root_value is NEG_INF:
            continue
        if best is None or table.root_value > best[1].root_value:
            best = (frozenset(Z), table)
    return best


def _assert_same_search(inst, expected):
    Z, table = dp_star(inst)
    assert Z == expected[0]
    assert float(table.root_value).hex() == float(expected[1].root_value).hex()
    assert np.array_equal(table.values, expected[1].values)


@settings(max_examples=150, deadline=None)
@given(tie_prone_instances(ks=st.integers(1, 5)))
def test_pruned_dp_star_matches_the_unpruned_search_on_tie_prone_instances(inst):
    # from four arms on, subsets of one size tie in mask order, which is
    # not lexicographic
    _assert_same_search(inst, _unpruned_dp_star(inst))


def test_pruned_dp_star_matches_the_unpruned_search_on_wide_instances(monkeypatch):
    import exposure_bandits.dp as dp

    built = []
    original = dp.mer_table
    monkeypatch.setattr(dp, "mer_table", lambda Z, inst: built.append(Z) or original(Z, inst))
    rng = np.random.default_rng(808)
    for k in (8, 9, 10):
        n, tau = 3, 4
        inst = Instance(n=n, k=k, tau=tau, T=tau, P=(0.5, 0.25, 0.25),
                        delta=tuple(int(d) for d in rng.integers(0, 2, size=k)),
                        mu=tuple(tuple(float(v) for v in rng.random(k)) for _ in range(n)))
        expected = _unpruned_dp_star(inst)
        built.clear()
        _assert_same_search(inst, expected)
        # the bound must have skipped work, or this checks nothing
        assert len(built) < 2**k - 1


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 60))
def test_scaling_the_utilities_by_a_power_of_two_moves_no_commitment(data, j):
    # the table's sums and maxima scale exactly by 2^-j, and the bound's
    # margin, wider at small values, only makes the search try more
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
    tau = data.draw(st.integers(2, 8))
    delta = tuple(data.draw(st.lists(st.integers(0, tau), min_size=k, max_size=k)))
    inst = make_instance(n=n, k=k, tau=tau, phases=1, P=data.draw(simplex(n)), delta=delta,
                         mu=data.draw(utility_rows(n, k)))
    Z, table = dp_star(inst)
    Z_scaled, table_scaled = dp_star(scaled_mu(inst, j))
    assert Z_scaled == Z
    assert table_scaled.root_value == math.ldexp(table.root_value, -j)
