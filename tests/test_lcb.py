from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NEG_INF,
    AlcbPolicy,
    Instance,
    LcbPolicy,
    build_lcb_aggregate,
    doalg,
    greedy_subset,
    iter_subsets,
    lcb_policy_step,
    lcb_star,
    run_episode,
    subset_value_oracle,
)
from exposure_bandits import lcb
from exposure_bandits.lcb import LcbState, lcb_replay
from conftest import make_instance, random_instance, stepped_phases, tie_prone_instances


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


def test_adaptive_policy_solves_each_queried_commitment_once(monkeypatch):
    # the chosen commitment was solved while the greedy queried it; the
    # policy reuses that matching instead of solving it again
    solves = []

    def counted(*args):
        solves.append(args[1])
        return doalg(*args)

    monkeypatch.setattr(lcb, "doalg", counted)
    rng = np.random.default_rng(5)
    mu = tuple(tuple(float(v) for v in rng.random(10)) for _ in range(4))
    inst = Instance(n=4, k=10, tau=400, T=4000, P=(0.25,) * 4, delta=(20,) * 10, mu=mu)
    policy = AlcbPolicy(inst)
    assert policy.trace.oracle_call_count == 55
    assert len(solves) == policy.trace.oracle_call_count
    assert policy.template == doalg(build_lcb_aggregate(inst.P, inst.tau),
                                    policy.Z, policy.Z, inst)


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
    """Arbitrary segment plans: segments of 1-4 phases, each with its own
    matching and thresholds, and arrivals for every phase; any row may
    run dry early, so the salvage fires in the middle of phases too.
    A plan without slack has an all-zero last row."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    slack = draw(st.booleans())
    rows = n + slack
    tau = draw(st.integers(1, 8))
    M = np.zeros((len(lengths), n + 1, k), dtype=np.int64)
    for i in range(len(lengths)):
        # tau units spread over the cells: the mass equals the phase length
        for cell in draw(st.lists(st.integers(0, rows * k - 1), min_size=tau,
                                  max_size=tau)):
            M[i, cell // k, cell % k] += 1
    unit = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0)
    mu = [draw(st.lists(unit, min_size=k, max_size=k)) for _ in range(n)]
    deltas = [draw(st.lists(st.integers(0, tau), min_size=k, max_size=k))
              for _ in lengths]
    phases = sum(lengths)
    arrivals = np.array(draw(st.lists(st.integers(0, n - 1), min_size=phases * tau,
                                      max_size=phases * tau)), dtype=np.int16)
    return lengths, M, mu, deltas, arrivals.reshape(phases, tau)


@settings(max_examples=300, deadline=None)
@given(live_matchings())
def test_vectorised_replay_follows_the_scalar_step(case):
    lengths, M, mu, deltas, arrivals = case
    pulls, fired = lcb_replay(lengths, M.copy(), mu, deltas, arrivals)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    want_fired = []
    for p, phase in enumerate(arrivals.tolist()):
        i = segment[p]
        state = LcbState(M[i].tolist(), mu, deltas[i])
        assert pulls[p].tolist() == [lcb_policy_step(state, u) for u in phase]
        if state.bad_event_flag:
            want_fired.append(p + 1)
    assert fired == want_fired


def test_a_matching_without_the_slack_row_is_refused():
    # two rows for two types: type 1's own row must not be read as slack
    rows, mu, deltas = [[1, 0], [0, 1]], [[1.0, 0.0], [0.0, 1.0]], [0, 0]
    with pytest.raises(ValueError):
        LcbState(rows, mu, deltas)
    # a phase the rank gather serves reads the slack row too
    with pytest.raises(ValueError):
        lcb_replay([1], [[[2, 0], [1, 1]]], mu, [deltas],
                   np.array([[0, 1, 0, 1]], dtype=np.int16))
    LcbState(rows + [[0, 0]], mu, deltas)


def _unpruned_lcb_star(inst):
    """lcb_star without the bound: one solve per subset, the first strict
    maximum of the matching value wins."""
    aggregate = build_lcb_aggregate(inst.P, inst.tau)
    best = None
    for Z in iter_subsets(inst.k):
        m = doalg(aggregate, frozenset(Z), frozenset(Z), inst)
        if m is not NEG_INF and (best is None or m.value > best[1].value):
            best = (frozenset(Z), m)
    return best


def _assert_same_lcb_search(inst, expected):
    Z, template = lcb_star(inst)
    assert Z == expected[0]
    assert template.M == expected[1].M
    assert template.value.hex() == expected[1].value.hex()


@settings(max_examples=150, deadline=None)
@given(tie_prone_instances())
def test_pruned_lcb_star_matches_the_unpruned_search_on_tie_prone_instances(inst):
    _assert_same_lcb_search(inst, _unpruned_lcb_star(inst))


def test_pruned_lcb_star_matches_the_unpruned_search_on_wide_instances(monkeypatch):
    import exposure_bandits.lcb as lcb

    solved = []
    original = lcb.doalg
    monkeypatch.setattr(lcb, "doalg", lambda *args: solved.append(1) or original(*args))
    rng = np.random.default_rng(909)
    for k in (8, 9, 10):
        # at tau=200 each type's floor keeps 17 of its 50 expected arrivals
        n, tau = 4, 200
        inst = Instance(n=n, k=k, tau=tau, T=tau, P=(0.25,) * 4,
                        delta=tuple(int(d) for d in rng.integers(0, 10, size=k)),
                        mu=tuple(tuple(float(v) for v in rng.random(k)) for _ in range(n)))
        expected = _unpruned_lcb_star(inst)
        solved.clear()
        _assert_same_lcb_search(inst, expected)
        # the bound must have skipped solves, or this checks nothing
        assert len(solved) < 2**k - 1


@st.composite
def rank_cases(draw):
    """Segment plans whose matchings have the phase length as mass, and
    arrivals that meet every own row's mass in most phases, with phases
    short of some row mixed in; utilities are tie-free or tie-prone.
    A plan without slack has an all-zero last row.  Hypothesis draws the
    shape, a seeded generator fills it in."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    slack = draw(st.booleans())
    tau = draw(st.integers(1, 64))
    tie_prone = draw(st.booleans())
    met = draw(st.lists(st.integers(0, 3), min_size=sum(lengths), max_size=sum(lengths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tie_prone:
        mu = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, k))
    else:
        mu = np.array([rng.permutation(k) / k + rng.random() / k for _ in range(n)])
    rows = n + slack
    M = np.zeros((len(lengths), n + 1, k), dtype=np.int64)
    for i in range(len(lengths)):
        masses = np.diff([0, *np.sort(rng.integers(0, tau + 1, size=rows - 1)), tau])
        for r, mass in enumerate(masses):
            M[i, r] = np.bincount(rng.integers(0, k, size=mass), minlength=k)
    deltas = rng.integers(0, tau + 1, size=(len(lengths), k)).tolist()
    arrivals = rng.integers(0, n, size=(sum(lengths), tau))
    for p, i in enumerate(np.repeat(np.arange(len(lengths)), lengths)):
        if met[p]:
            # every own row's mass, and the slack row's in any types
            own = np.repeat(np.arange(n), M[i, :n].sum(axis=1))
            arrivals[p, : len(own)] = own
            rng.shuffle(arrivals[p])
    return lengths, M, mu.tolist(), deltas, arrivals.astype(np.int16)


def _leaves_the_rank_gather(M, mu, phase) -> bool:
    """Whether a phase with this matching must step through
    lcb_policy_step: some type is short of its own row's mass, or ties in
    utility over the arms of its own row or of the slack row."""
    mu = np.asarray(mu)
    counts = np.bincount(phase, minlength=len(mu))
    for u in range(len(mu)):
        if counts[u] < M[u].sum():
            return True
        for row in (u, -1):
            values = mu[u][M[row] > 0]
            if len(set(values.tolist())) < len(values):
                return True
    return False


def test_rank_gather_follows_the_scalar_step(monkeypatch):
    stepped = stepped_phases(monkeypatch)
    phases_seen = [0, 0]

    @settings(max_examples=300, deadline=None)
    @given(rank_cases())
    def check(case):
        lengths, M, mu, deltas, arrivals = case
        stepped.clear()
        pulls, fired = lcb_replay(lengths, M.copy(), mu, deltas, arrivals)
        segment = np.repeat(np.arange(len(lengths)), lengths)
        want_fired, want_stepped = [], 0
        for p, phase in enumerate(arrivals.tolist()):
            i = segment[p]
            state = LcbState(M[i].tolist(), mu, deltas[i])
            assert pulls[p].tolist() == [lcb_policy_step(state, u) for u in phase]
            if state.bad_event_flag:
                want_fired.append(p + 1)
            want_stepped += _leaves_the_rank_gather(M[i], mu, arrivals[p])
        assert fired == want_fired
        # exactly the short and the tied phases leave the rank gather
        assert sum(stepped) == want_stepped
        phases_seen[0] += len(arrivals)
        phases_seen[1] += len(arrivals) - want_stepped

    check()
    # the strategy reaches the rank gather, in most phases
    assert phases_seen[1] > phases_seen[0] / 3
