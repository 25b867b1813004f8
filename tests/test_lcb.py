from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NEG_INF,
    AlcbPolicy,
    ContractError,
    Instance,
    LcbPolicy,
    LlcbPolicy,
    PlanSegment,
    build_lcb_aggregate,
    doalg,
    dp_star,
    greedy_subset,
    iter_subsets,
    lcb_policy_step,
    lcb_star,
    run_episode,
)
from exposure_bandits import matching
from exposure_bandits.core import subset_masks
from exposure_bandits.lcb import LcbState, lcb_replay
from exposure_bandits.presets import PRESETS
from conftest import (
    commitment_values,
    make_instance,
    random_instance,
    scaled_mu,
    simplex,
    stepped_phases,
    tie_prone_instances,
    utility_rows,
)


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


def test_subset_prices_of_the_lcb_aggregate_cache_each_solve():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    prices, f = commitment_values(inst)
    assert f(0b11) == f(0b11) == 56.0
    assert prices.matching(0b11, 0b11) is prices.matching(0b11, 0b11)
    assert prices.matching(0b11, 0b11).value == 56.0
    assert build_lcb_aggregate(inst.P, inst.tau).counts == (28, 28, 44)


def test_adaptive_policy_solves_each_queried_commitment_once(monkeypatch):
    # the slack row pays the floors of every queried commitment, so the
    # greedy reads each value in closed form; only the chosen commitment,
    # whose matching the policy replays, is solved, and once
    solves = []

    def counted(*args):
        solves.append(args[1])
        return doalg(*args)

    monkeypatch.setattr(matching, "doalg", counted)
    rng = np.random.default_rng(5)
    mu = tuple(tuple(float(v) for v in rng.random(10)) for _ in range(4))
    inst = Instance(n=4, k=10, tau=400, T=4000, P=(0.25,) * 4, delta=(20,) * 10, mu=mu)
    policy = AlcbPolicy(inst)
    assert policy.trace.oracle_call_count == 55
    assert solves == [policy.Z]
    assert policy.template == doalg(build_lcb_aggregate(inst.P, inst.tau),
                                    policy.Z, policy.Z, inst)


def test_lcb_star_solves_one_subset_when_the_slack_covers_every_extra_floor(monkeypatch):
    # the slack row, worth 0 to every arm, pays the floors of any arms
    # added to the winner, so every such superset ties it; exact values
    # let the bound settle each of those ties without a solve
    solves = []
    original = matching.doalg
    monkeypatch.setattr(matching, "doalg", lambda *args: solves.append(args[1]) or original(*args))
    rng = np.random.default_rng(5)
    mu = tuple(tuple(float(v) for v in rng.random(10)) for _ in range(4))
    inst = Instance(n=4, k=10, tau=400, T=4000, P=(0.25,) * 4, delta=(20,) * 10, mu=mu)
    Z, _ = lcb_star(inst)
    assert solves == [Z]


def test_a_solve_that_differs_from_its_closed_form_value_is_refused(monkeypatch):
    # the planners replay only solved matchings; one whose value is not
    # the price the search chose it by breaks the contract
    def off_by_one(*args):
        m = doalg(*args)
        return replace(m, exact=m.exact + 1)

    monkeypatch.setattr(matching, "doalg", off_by_one)
    inst = make_instance(tau=100, phases=10, delta=(10, 20))
    with pytest.raises(ContractError, match="closed-form value"):
        lcb_star(inst)
    with pytest.raises(ContractError, match="closed-form value"):
        AlcbPolicy(inst)
    with pytest.raises(ContractError, match="closed-form value"):
        LlcbPolicy(inst)


def test_ties_prefer_smaller_subsets_on_exact_values():
    # {1} and {1, 3} are both worth exactly 18 * 0.8: the type's 18
    # floored pulls all on arm 1, or 14 there and 4 on arm 3, also worth
    # 0.8; added as rounded products, 14 * 0.8 + 4 * 0.8 came out one ulp
    # above 18 * 0.8 and the larger set won
    inst = Instance(n=1, k=4, tau=28, T=140, P=(1.0,), delta=(0, 1, 2, 4),
                    mu=((0.5, 0.8, 0.3, 0.8),))
    Z, template = lcb_star(inst)
    assert Z == {1}
    assert template.M == ((0, 18, 0, 0), (0, 10, 0, 0))
    assert Fraction(template.exact, template.scale) == 18 * Fraction(0.8)
    assert AlcbPolicy(inst).Z == {1}
    plan = LlcbPolicy(inst).plan
    assert [(s.phases, s.available, s.kept) for s in plan.segments] == [
        (4, {1}, {1}), (1, {1}, set())]


def test_ties_between_sets_of_one_size_go_to_the_lowest_mask():
    # {0, 3} (mask 9) and {1, 2} (mask 6) each give every type a utility
    # of 1, and no single arm does; the lowest mask wins the tie, where
    # lexicographic order would pick {0, 3}
    mu = ((1.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0), (1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0))

    def four_types(tau):
        return Instance(n=4, k=4, tau=tau, T=tau, P=(0.25,) * 4, delta=(0,) * 4, mu=mu)

    Z, template = lcb_star(four_types(100))
    assert Z == {1, 2}
    assert template.value == 12.0
    Z, table = dp_star(four_types(4))
    assert Z == {1, 2}
    assert table.root_value == 4.0


@pytest.mark.parametrize("cls", [LcbPolicy, AlcbPolicy])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_committed_subset_is_a_plan_of_one_segment(cls, preset):
    # LCB and A-LCB hold the plan L-LCB holds: one segment that replays
    # the template under Z's thresholds in every phase, valued exactly
    inst = PRESETS[preset]()
    policy = cls(inst)
    plan, Z, template = policy.plan, policy.Z, policy.template
    assert plan.segments == (PlanSegment(inst.phases, template, Z, Z),)
    assert plan.runs == [(Z, inst.phases + 1)]
    assert plan.total_value == float(Fraction(inst.phases * template.exact, template.scale))
    assert plan.value_per_phase == template.value
    assert not hasattr(policy, "segments")


def test_greedy_stays_within_its_call_budget():
    rng = np.random.default_rng(51)
    for _ in range(20):
        inst = random_instance(rng, n_max=3, k_max=6, tau_max=8,
                               delta_sum_within_tau=False)
        prices, _ = commitment_values(inst)
        calls = {"count": 0}

        def counted(Z, prices=prices, calls=calls):
            calls["count"] += 1
            return prices.exact(Z, Z)

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
        prices, f = commitment_values(inst)
        trace = greedy_subset(inst, lambda Z: prices.exact(Z, Z))
        greedy_val = f(trace.chosen) if trace.chosen else 0.0
        best = 0.0
        for Z in subset_masks(inst.k):
            v = f(Z)
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
    prices, _ = commitment_values(inst)
    trace = greedy_subset(inst, lambda Z: prices.exact(Z, Z))
    assert trace.chosen == 0b01


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


def test_adaptive_policy_compares_exact_values_where_their_floats_tie():
    # 3 * mu_0 and 3 * mu_1 round to one float, but the shaved aggregate's
    # exact prices tell them apart: arm 1 is strictly worth more
    mu = ((0.666866, math.nextafter(0.666866, 1)),)
    inst = make_instance(n=1, k=2, tau=7, phases=1, P=(1.0,), delta=(0, 0), mu=mu)
    prices, f = commitment_values(inst)
    assert prices.exact(0b10, 0b10) > prices.exact(0b01, 0b01)
    assert f(0b10) == f(0b01)
    assert AlcbPolicy(inst).Z == lcb_star(inst)[0] == frozenset({1})


def test_adaptive_policy_matches_the_exhaustive_commitment_here():
    inst = make_instance(tau=100, phases=10, delta=(10, 60))
    policy = AlcbPolicy(inst)
    assert policy.Z == frozenset({0, 1})
    rec = run_episode(inst, policy, 0, reward_mode="expected")
    assert rec.departure_events == []


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 60))
def test_scaling_the_utilities_by_a_power_of_two_moves_no_commitment(data, j):
    # the matchings compare exact integers, on a scale that absorbs 2^-j,
    # so the search must pick the same subset and the same matching
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
    tau = data.draw(st.integers(10, 150))
    delta = tuple(data.draw(st.lists(st.integers(0, tau // 2), min_size=k, max_size=k)))
    inst = make_instance(n=n, k=k, tau=tau, phases=1, P=data.draw(simplex(n)), delta=delta,
                         mu=data.draw(utility_rows(n, k)))
    Z, m = lcb_star(inst)
    Z_scaled, m_scaled = lcb_star(scaled_mu(inst, j))
    assert Z_scaled == Z
    assert (m_scaled.M, m_scaled.exact) == (m.M, m.exact)
    assert m_scaled.value == math.ldexp(m.value, -j)


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
@given(tie_prone_instances(taus=st.integers(2, 40), ks=st.integers(1, 5)))
def test_pruned_lcb_star_matches_the_unpruned_search_on_tie_prone_instances(inst):
    # up to tau = 40, so that the LCB aggregate of most draws has a pull:
    # below tau = 8 the shave sqrt(tau ln tau) takes most types' pulls;
    # up to five arms, so that sets of one size tie in mask order, which
    # from four arms on is not lexicographic
    _assert_same_lcb_search(inst, _unpruned_lcb_star(inst))


def test_pruned_lcb_star_matches_the_unpruned_search_on_wide_instances(monkeypatch):
    solved = []
    original = matching.doalg
    monkeypatch.setattr(matching, "doalg", lambda *args: solved.append(1) or original(*args))
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
    k = draw(st.integers(1, 8))
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


def test_a_slack_row_of_twenty_arms_replays_arrival_by_arrival(monkeypatch):
    # A-LCB has no cap on k, so a slack row may hold many arms: the sweep
    # must cost in proportion to them, not to their 2^20 live subsets
    stepped = stepped_phases(monkeypatch)
    rng = np.random.default_rng(20)
    n, k, tau, phases = 3, 20, 200, 40
    mu = [(rng.permutation(k) / k).tolist() for _ in range(n)]
    M = np.zeros((1, n + 1, k), dtype=np.int64)
    for u in range(n):
        M[0, u, u] = 20
    M[0, n] = 7
    arrivals = rng.integers(0, n, size=(phases, tau))
    for p in range(phases):
        arrivals[p, : n * 20] = np.repeat(np.arange(n), 20)
        rng.shuffle(arrivals[p])
    deltas = [[int(d) for d in rng.integers(0, 10, size=k)]]
    pulls, fired = lcb_replay([phases], M.copy(), mu, deltas, arrivals.astype(np.int16))
    assert stepped == [] and fired == []
    for p, phase in enumerate(arrivals.tolist()):
        state = LcbState(M[0].tolist(), mu, deltas[0])
        assert pulls[p].tolist() == [lcb_policy_step(state, u) for u in phase]
    # the arms no own row holds take exactly their slack units
    assert (np.bincount(pulls.ravel(), minlength=k)[n:] == 7 * phases).all()
