from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NEG_INF,
    Aggregate,
    InfeasibleError,
    Instance,
    LcbPolicy,
    LlcbPolicy,
    Matching,
    Plan,
    PlanSegment,
    ResourceGuardError,
    build_lcb_aggregate,
    brute_matching,
    doalg,
    lcb_policy_step,
    lcb_star,
    planned_total_value,
    run_episode,
)
from exposure_bandits.lcb import LcbState
from exposure_bandits.lmatch import lmatch
from exposure_bandits.matching import _mu_eff, _scaled
from exposure_bandits.presets import early_harvest, subsidy_worthwhile
from conftest import (
    make_instance,
    phase_aggregates,
    random_instance,
    scaled_mu,
    simplex,
    tie_prone_instances,
    utility_rows,
)


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
    ties to the fewest arms, then the lowest mask.  Values are added
    exactly, as the matchings' integer sums.  Returns the chain, the
    per-phase matchings and the value, rounded once.
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

    r = [[0] * (full + 1)] + [[NEG_INF] * (full + 1) for _ in range(N)]
    bp = [[-1] * (full + 1) for _ in range(N + 1)]
    for i in range(1, N + 1):
        for m2 in range(full + 1):
            best, best_m1 = NEG_INF, -1
            for m1 in _supersets_ordered(m2, full):
                prev = r[i - 1][m1]
                match = solve(m1, m2)
                if prev is NEG_INF or match is NEG_INF:
                    continue
                v = match.exact + prev
                if best is NEG_INF or v > best:
                    best, best_m1 = v, m1
            r[i][m2], bp[i][m2] = best, best_m1
    final = max(
        range(full + 1),
        key=lambda m: (r[N][m] is not NEG_INF,
                       r[N][m] if r[N][m] is not NEG_INF else 0,
                       -bin(m).count("1"), -m),
    )
    if r[N][final] is NEG_INF:
        raise InfeasibleError("no feasible multi-phase plan")
    masks = [final]
    for i in range(N, 0, -1):
        masks.append(bp[i][masks[-1]])
    masks.reverse()
    matchings = tuple(solve(masks[i], masks[i + 1]) for i in range(N))
    return tuple(arms(m) for m in masks), matchings, r[N][final] / matchings[0].scale


def phase_matchings(plan) -> tuple:
    """The matching of every phase of ``plan``, phase 1 first."""
    return tuple(s.matching for s in plan.segments for _ in range(s.phases))


def assert_plan_shape(plan):
    """A hop in, one run of stays, one drop: at most three segments,
    only the first may pull more arms than it keeps, a middle one keeps
    what it pulls and the last keeps none."""
    *head, last = plan.segments
    assert len(head) <= 2 and last.kept == frozenset()
    assert all(s.available == s.kept for s in head[1:])


def assert_same_plan(inst, agg):
    # every single arm fits a phase, so the reference always finds a chain
    chain, matchings, total = per_phase_plan(inst, agg)
    plan = lmatch(inst, agg)
    assert plan.chain == chain
    assert phase_matchings(plan) == matchings
    # bit-equal, not approximately equal: the same exact sum, rounded once
    assert plan.total_value.hex() == total.hex()
    assert_plan_shape(plan)


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
@given(tie_prone_instances(), st.integers(1, 8), st.data())
def test_closed_form_picks_the_per_phase_plan_on_tie_prone_instances(inst, phases, data):
    # grid utilities make equal plan values common, so the tie rules of
    # both sides are exercised; dyadic values keep every sum exact.  The
    # counts are drawn directly: at these tau the LCB aggregate of most
    # instances has no pull, and every plan of it is worth 0
    inst = replace(inst, T=inst.tau * phases)
    assert_same_plan(inst, data.draw(phase_aggregates(inst.n, inst.tau)))


@st.composite
def mirrored_instances(draw):
    """Four arms and two types, the second type's tie-grid utilities the
    first's with arms 0, 2 and 1, 3 swapped, as are the thresholds, and
    an aggregate with as many pulls of each type: swapping the arms
    maps {0, 3} onto {1, 2}, so the two tie wherever either is best.
    Their thresholds fit in a phase; those of {0, 2} or {1, 3} may not."""
    tau = draw(st.integers(2, 12))
    d0 = draw(st.integers(0, tau))
    d1 = draw(st.integers(0, tau - d0))
    a = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=4, max_size=4))
    inst = make_instance(k=4, tau=tau, phases=draw(st.integers(1, 6)), delta=(d0, d1, d0, d1),
                         mu=(tuple(a), (a[2], a[3], a[0], a[1])))
    c = draw(st.integers(1, tau // 2))
    if 2 * c == tau:
        return inst, Aggregate(counts=(c, c), has_slack=False)
    return inst, Aggregate(counts=(c, c, tau - 2 * c), has_slack=True)


@settings(max_examples=200, deadline=None)
@given(mirrored_instances())
def test_closed_form_breaks_ties_by_size_then_mask_on_four_arms(case):
    # {1, 2} comes before {0, 3} by size, then mask, but after it in the
    # subset searches' lexicographic order
    assert_same_plan(*case)


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


def test_a_covered_plan_solves_only_the_matchings_it_replays(monkeypatch):
    # the shaved aggregate is (3, 3, 3, 3, 88): the slack row's 88 rounds
    # pay all five floors of 10 together, so every (available, kept)
    # pair is worth its threshold-free optimum without a solve
    solved = []
    monkeypatch.setattr("exposure_bandits.matching.doalg",
                        lambda agg, A, K, inst: solved.append((A, K)) or doalg(agg, A, K, inst))
    rng = np.random.default_rng(5)
    mu = tuple(tuple(float(v) for v in rng.random(5)) for _ in range(4))
    inst = Instance(n=4, k=5, tau=100, T=100 * 20, P=(0.25,) * 4, delta=(10,) * 5, mu=mu)
    agg = build_lcb_aggregate(inst.P, inst.tau)
    plan = lmatch(inst, agg)
    assert len(plan.segments) == 2
    assert solved == [(s.available, s.kept) for s in plan.segments]
    assert_same_plan(inst, agg)


def test_an_uncovered_plan_solves_only_the_sets_whose_bound_can_win(monkeypatch):
    # thresholds of tau/k leave the slack row short of most kept sets'
    # floors, so their pairs are solved; the bound U(full) + (N - 1) U(D)
    # stops the search for D after a few sets, where valuing every D
    # solves 1,055 pairs on this instance
    solved = []
    monkeypatch.setattr("exposure_bandits.matching.doalg",
                        lambda agg, A, K, inst: solved.append((A, K)) or doalg(agg, A, K, inst))
    k, tau = 10, 2000
    rng = np.random.default_rng(k)
    mu = tuple(tuple(float(v) for v in rng.random(k)) for _ in range(4))
    inst = Instance(n=4, k=k, tau=tau, T=tau * 20, P=(0.25,) * 4, delta=(tau // k,) * k, mu=mu)
    plan = lmatch(inst, build_lcb_aggregate(inst.P, inst.tau))
    assert len(solved) <= 10
    assert_plan_shape(plan)


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


def test_a_plan_longer_than_any_episode_is_not_read_phase_by_phase():
    # 2 segments over 10^12 phases: one chain entry per phase would take
    # terabytes, so both reads refuse before building anything per phase
    plan = LlcbPolicy(subsidy_worthwhile(T=10**14)).plan
    assert [s.phases for s in plan.segments] == [10**12 - 1, 1]
    tracemalloc.start()
    try:
        for read in ("chain", "total_value"):
            with pytest.raises(ResourceGuardError, match="longer than any episode"):
                getattr(plan, read)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_plan_as_long_as_the_longest_episode_is_read(monkeypatch):
    # with the longest episode at 6 rounds, a plan of 6 phases is read
    # and one of 7 is refused
    plan = LlcbPolicy(early_harvest(tau=200, phases=6)).plan
    longer = LlcbPolicy(early_harvest(tau=200, phases=7)).plan
    chain, total = plan.chain, plan.total_value
    monkeypatch.setattr("exposure_bandits.lcb.LONGEST_EPISODE", 6)
    assert plan.chain == chain and plan.total_value.hex() == total.hex()
    for read in ("chain", "total_value"):
        with pytest.raises(ResourceGuardError):
            getattr(longer, read)


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
    static = LcbPolicy(inst)
    a = [run_episode(inst, policy, s, reward_mode="expected").expected_reward
         for s in range(10)]
    b = [run_episode(inst, static, s, reward_mode="expected").expected_reward
         for s in range(10)]
    assert sum(a) / 10 > sum(b) / 10


def test_the_round_by_round_loop_finds_each_phase_segment():
    from test_env import assert_same_record, scalar_run

    inst = early_harvest(tau=200, phases=6)
    policy = LlcbPolicy(inst)
    assert [s.phases for s in policy.plan.segments] == [1, 4, 1]
    for seed in range(2):
        batched = run_episode(inst, policy, seed, reward_mode="expected")
        fallbacks = policy.bad_event_phases
        assert_same_record(batched, scalar_run(inst, policy, seed, "expected"))
        assert fallbacks == policy.bad_event_phases


def test_each_segment_breaks_ties_by_the_thresholds_of_the_arms_it_keeps():
    # type 1 values both arms alike; a plan, built by hand, keeps both
    # arms for five phases, then only arm 0 for the last: there arm 1's
    # threshold no longer binds, so type 1's ties go to arm 0 while arm 0
    # is short of its own.  The last phase's matching is one of its
    # optimal ones, built by hand so that type 1's row spans both arms
    inst = make_instance(tau=100, phases=6, P=(0.25, 0.75), delta=(17, 47),
                         mu=((0.8, 0.1), (0.3, 0.3)))
    agg = build_lcb_aggregate(inst.P, inst.tau)
    both, first = frozenset({0, 1}), frozenset({0})
    last = Matching.from_matrix(((3, 0), (14, 39), (44, 0)), _scaled(_mu_eff(agg, inst)))
    assert last.exact == doalg(agg, both, first, inst).exact
    policy = LcbPolicy(inst)
    policy._commit(inst, Plan((PlanSegment(5, doalg(agg, both, both, inst), both, both),
                               PlanSegment(1, last, both, first))))
    assert last.M[1] == (14, 39)  # type 1's row spans both arms

    def replay(arrivals, deltas):
        state = LcbState(last.M, inst.mu, deltas)
        return [lcb_policy_step(state, u) for u in arrivals]

    for seed in range(2):
        rec = run_episode(inst, policy, seed, reward_mode="expected")
        arrivals, pulls = (a[500:].tolist() for a in (rec.arrivals, rec.pulls))
        assert pulls == replay(arrivals, [17, 0]) != replay(arrivals, [17, 47])


def segment_matchings(plan):
    """Each segment's phases, arm sets, matching and exact value."""
    return [(s.phases, s.available, s.kept, s.matching.M, s.matching.exact)
            for s in plan.segments]


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 60))
def test_scaling_the_utilities_by_a_power_of_two_moves_no_segment(data, j):
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
    tau = data.draw(st.integers(10, 120))
    delta = tuple(data.draw(st.lists(st.integers(0, tau // 2), min_size=k, max_size=k)))
    inst = make_instance(n=n, k=k, tau=tau, phases=data.draw(st.integers(1, 50)),
                         P=data.draw(simplex(n)), delta=delta, mu=data.draw(utility_rows(n, k)))
    scaled = scaled_mu(inst, j)
    plan = lmatch(inst, build_lcb_aggregate(inst.P, inst.tau))
    plan_scaled = lmatch(scaled, build_lcb_aggregate(scaled.P, scaled.tau))
    assert segment_matchings(plan_scaled) == segment_matchings(plan)
