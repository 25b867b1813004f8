from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NEG_INF,
    AlcbPolicy,
    LcbPolicy,
    build_lcb_aggregate,
    greedy_subset,
    lcb_policy_step,
    lcb_star,
    run_episode,
    subset_value_oracle,
)
from exposure_bandits.lcb import LcbState, lcb_replay
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


def test_adaptive_policy_commits_where_lcb_star_does_on_worthless_instances():
    # every commitment is worth 0: utilities of 0 in the first, and in the
    # second every confidence floor clamps to 0 at tau=50, so the template
    # serves only the slack row; the greedy keeps the shortest best prefix
    rng = np.random.default_rng(4)
    worthless = [
        make_instance(n=1, k=2, tau=4, phases=1, P=(1.0,), delta=(0, 0),
                      mu=((0.0, 0.0),)),
        make_instance(n=4, k=5, tau=50, phases=2, delta=(5,) * 5,
                      mu=tuple(tuple(float(v) for v in rng.random(5)) for _ in range(4))),
    ]
    for inst in worthless:
        Z, template = lcb_star(inst)
        assert template.value == 0.0
        policy = AlcbPolicy(inst)
        assert policy.Z == Z == frozenset({0})
        assert policy.template.value == 0.0
        rec = run_episode(inst, policy, 0, reward_mode="expected")
        assert not any(arm in policy.Z for _, arm in rec.departure_events)


def test_adaptive_policy_matches_the_exhaustive_commitment_here():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    policy = AlcbPolicy(inst)
    assert policy.Z == frozenset({0, 1})
    rec = run_episode(inst, policy, 0, reward_mode="expected")
    assert rec.departure_events == []


@st.composite
def live_matchings(draw):
    """Arbitrary per-phase matchings, thresholds and arrivals: any row may
    run dry early, so the salvage fires in the middle of phases too."""
    phases = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    slack = draw(st.booleans())
    rows = n + slack
    tau = draw(st.integers(1, 8))
    M = np.zeros((phases, rows, k), dtype=np.int64)
    for p in range(phases):
        # tau units spread over the cells: the mass equals the phase length
        for cell in draw(st.lists(st.integers(0, rows * k - 1), min_size=tau,
                                  max_size=tau)):
            M[p, cell // k, cell % k] += 1
    unit = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0)
    mu = [draw(st.lists(unit, min_size=k, max_size=k)) for _ in range(n)]
    deltas = [draw(st.lists(st.integers(0, tau), min_size=k, max_size=k))
              for _ in range(phases)]
    arrivals = np.array(draw(st.lists(st.integers(0, n - 1), min_size=phases * tau,
                                      max_size=phases * tau)), dtype=np.int16)
    return M, mu, deltas, n if slack else -1, arrivals.reshape(phases, tau)


@settings(max_examples=300, deadline=None)
@given(live_matchings())
def test_vectorised_replay_follows_the_scalar_step(case):
    M, mu, deltas, ustar, arrivals = case
    pulls, fired = lcb_replay(M.copy(), mu, deltas, ustar, arrivals)
    want_fired = []
    for p, phase in enumerate(arrivals.tolist()):
        state = LcbState(SimpleNamespace(M=M[p].tolist()), mu, deltas[p], ustar)
        assert pulls[p].tolist() == [lcb_policy_step(state, u) for u in phase]
        if state.bad_event_flag:
            want_fired.append(p + 1)
    assert fired == want_fired
