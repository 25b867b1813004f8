"""Acceptance gate: one test per shipping criterion.

Each test prints as a single pass/fail line under ``pytest -v``.  The
heavy simulations (100k phases) run once in a module fixture and are
reduced to small summaries before the assertions.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from exposure_bandits import (
    NEG_INF,
    Aggregate,
    DpPolicy,
    EesPolicy,
    LcbPolicy,
    LlcbPolicy,
    baseline_policy,
    brute_matching,
    build_lcb_aggregate,
    doalg,
    doalg_graph_reference,
    dp_star,
    enumerate_phase_policies,
    exact_opt,
    greedy_subset,
    iter_subsets,
    lcb_star,
    mer_table,
    planned_total_value,
    run_episode,
    sample_arrivals,
)
from exposure_bandits.cli import main as cli_main, save_instance
from exposure_bandits.core import arm_mask, arm_set, subset_masks
from exposure_bandits.learn import Observables
from exposure_bandits.lmatch import lmatch
from exposure_bandits.presets import (
    early_harvest,
    one_type_two_arms,
    subsidy_wasteful,
    subsidy_worthwhile,
    symmetric_tight,
)
from conftest import commitment_values, make_instance, random_instance, random_counts
from test_lmatch import brute_chain_value

EXAMPLES = {
    "symmetric_tight": symmetric_tight(),
    "subsidy_worthwhile": subsidy_worthwhile(),
    "subsidy_wasteful": subsidy_wasteful(),
}
BIG_PHASES = 100_000


@pytest.fixture(scope="module")
def long_runs():
    """100k-phase episodes of the committed planners on the three
    reference instances, reduced to per-run summaries."""
    out = {}
    for name, base in EXAMPLES.items():
        inst = replace(base, T=base.tau * BIG_PHASES)
        floors = build_lcb_aggregate(inst.P, inst.tau).counts[:-1]
        for algo, factory in (("lcb", LcbPolicy), ("dp", DpPolicy)):
            policy = factory(inst)
            rec = run_episode(inst, policy, seed=2024, reward_mode="expected")
            arr = rec.arrivals.reshape(BIG_PHASES, inst.tau)
            short = set()
            for u in range(inst.n):
                counts_u = (arr == u).sum(axis=1)
                short |= {int(p) + 1 for p in np.nonzero(counts_u < floors[u])[0]}
            out[(name, algo)] = {
                "committed": frozenset(policy.Z),
                "departed": {arm for _, arm in rec.departure_events},
                "bad_phases": set(getattr(policy, "bad_event_phases", [])),
                "short_phases": short,
                "n": inst.n,
                "tau": inst.tau,
            }
            del rec
    return out


def test_01_phase_recursion_matches_policy_enumeration():
    """50 random tiny instances: recursion == enumeration within 1e-9."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    done = 0
    while done < 50:
        inst = random_instance(rng, n_max=2, k_max=2, tau_max=3,
                               delta_sum_within_tau=False)
        if inst.n != 2:
            continue
        Z = tuple(range(inst.k))
        enum = enumerate_phase_policies(Z, inst)
        root = mer_table(Z, inst).root_value
        if enum is NEG_INF or root is NEG_INF:
            assert enum is root
        else:
            assert abs(enum - root) <= 1e-9
        done += 1
    assert time.monotonic() - start < 60


def test_02_matching_agrees_with_both_references():
    """200 random instances vs exhaustive assignment (exact on dyadic
    utilities), plus 100 vs the assignment-solver route (1e-9)."""
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    for _ in range(200):
        inst = random_instance(rng, n_max=3, k_max=3, tau_max=8, dyadic=True,
                               delta_sum_within_tau=False)
        if rng.random() < 0.5:
            agg = build_lcb_aggregate(inst.P, inst.tau)
        else:
            agg = Aggregate(counts=random_counts(rng, inst.n, inst.tau),
                            has_slack=False)
        subsets = [frozenset(s) for s in iter_subsets(inst.k)]
        allowed = subsets[int(rng.integers(len(subsets)))]
        committed = frozenset(a for a in allowed if rng.random() < 0.5)
        fast = doalg(agg, allowed, committed, inst)
        slow = brute_matching(agg, allowed, committed, inst)
        if fast is NEG_INF or slow is NEG_INF:
            assert fast is slow
        else:
            assert fast.value == slow
    for _ in range(100):
        inst = random_instance(rng, n_max=3, k_max=3, tau_max=8, dyadic=True,
                               delta_sum_within_tau=False)
        agg = build_lcb_aggregate(inst.P, inst.tau)
        subsets = [frozenset(s) for s in iter_subsets(inst.k)]
        allowed = subsets[int(rng.integers(len(subsets)))]
        fast = doalg(agg, allowed, allowed, inst)
        ref = doalg_graph_reference(agg, allowed, inst)
        if fast is NEG_INF or ref is NEG_INF:
            assert fast is ref
        else:
            assert abs(fast.value - ref.value) <= 1e-9
    assert time.monotonic() - start < 120


def test_03_committed_plan_sandwiches_the_exact_optimum():
    """50 tiny instances: 0 <= opt - planned <= k*tau."""
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    for _ in range(50):
        inst = random_instance(rng, n_max=3, k_max=3, tau_max=6, phases_max=4)
        opt = exact_opt(inst).value
        _, table = dp_star(inst)
        planned = planned_total_value(inst, table)
        assert planned <= opt + 1e-9
        assert opt - planned <= inst.k * inst.tau + 1e-9
    assert time.monotonic() - start < 300


def test_04_committed_arms_survive_100k_phases(long_runs):
    """Neither planner ever loses an arm it committed to."""
    for (name, algo), s in long_runs.items():
        lost = s["departed"] & s["committed"]
        assert not lost, f"{name}/{algo} lost committed arms {lost}"


def test_05_fallback_fires_exactly_on_arrival_shortfalls(long_runs):
    """The template fallback fires iff some type undershoots its floor,
    and the empirical rate respects the 2n/tau^2 bound.  At tau=100 the
    reference instances hardly ever fall short, so a tau=4 instance whose
    type 0 misses its floor of 1 in about 0.07% of phases makes sure the
    fallback does fire."""
    shortfall = make_instance(tau=4, phases=50_000, P=(0.84, 0.16), delta=(1, 1),
                              mu=((0.9, 0.2), (0.1, 0.8)))
    policy = LcbPolicy(shortfall)
    rec = run_episode(shortfall, policy, seed=12345, reward_mode="expected")
    floors = build_lcb_aggregate(shortfall.P, shortfall.tau).counts[:-1]
    arr = rec.arrivals.reshape(shortfall.phases, shortfall.tau)
    short = set()
    for u, floor in enumerate(floors):
        short |= {int(p) + 1 for p in np.nonzero((arr == u).sum(axis=1) < floor)[0]}
    runs = {name: long_runs[(name, "lcb")] for name in EXAMPLES}
    runs["shortfall"] = {"bad_phases": set(policy.bad_event_phases), "short_phases": short,
                         "n": shortfall.n, "tau": shortfall.tau,
                         "phases": shortfall.phases}
    assert runs["shortfall"]["bad_phases"], "the fallback never fired"
    for name, s in runs.items():
        phases = s.get("phases", BIG_PHASES)
        assert s["bad_phases"] == s["short_phases"], name
        rate = len(s["bad_phases"]) / phases
        bound = 2 * s["n"] / s["tau"] ** 2
        stderr = math.sqrt(max(rate * (1 - rate), 1e-12) / phases)
        assert rate <= bound + 3 * stderr, name


def test_06_shortfall_probability_matches_the_binomial():
    """Monte Carlo of arrivals only: Pr[some type below 40 of 100] is
    0.035 +- 0.005 on the symmetric instance."""
    rng = np.random.default_rng(1006)
    draws = sample_arrivals((0.5, 0.5), 100 * BIG_PHASES, rng)
    counts0 = (draws.reshape(BIG_PHASES, 100) == 0).sum(axis=1)
    below = (counts0 < 40) | (100 - counts0 < 40)
    est = float(below.mean())
    assert abs(est - 0.035) <= 0.005


def test_07_planner_values_match_the_closed_forms():
    """Per-phase plan values sit within 5% of 0.9*tau on both subsidy
    instances, and the skewed one drops the expensive arm."""
    inst2 = subsidy_worthwhile()
    Z2, t2 = dp_star(inst2)
    assert Z2 == frozenset({0, 1})
    assert abs(t2.root_value - 0.9 * inst2.tau) <= 0.05 * 0.9 * inst2.tau
    inst3 = subsidy_wasteful()
    Z3, t3 = dp_star(inst3)
    assert Z3 == frozenset({0})
    assert abs(t3.root_value - 0.9 * inst3.tau) <= 0.05 * 0.9 * inst3.tau


def test_08_baselines_hit_their_known_ceilings():
    """Blind subsidy caps at 0.8 per round on the single-type instance;
    refusing to subsidize settles at 0.5 on the two-type one."""
    inst = one_type_two_arms(T=100_000, tau=100)
    rewards = []
    for seed in range(5):
        rec = run_episode(inst, baseline_policy("blind_subsidize", inst),
                          seed, reward_mode="expected")
        rewards.append(rec.expected_reward)
    mean = sum(rewards) / len(rewards)
    se = float(np.std(rewards, ddof=1) / np.sqrt(len(rewards))) if len(rewards) > 1 else 0.0
    assert mean <= 0.8 * inst.T + se + 1e-9

    inst2 = replace(subsidy_worthwhile(), T=100_000)
    per_round = []
    for seed in range(5):
        rec = run_episode(inst2, baseline_policy("never_subsidize", inst2),
                          seed, reward_mode="expected")
        per_round.append(rec.expected_reward / inst2.T)
    assert abs(sum(per_round) / 5 - 0.5) <= 0.01


def test_09_greedy_subset_selection_earns_its_guarantee():
    """100 random instances, up to 10 arms: greedy value within
    (1 - 1/e) of the exhaustive optimum, at most k^2 + k oracle calls,
    and the sampled marginal gains are submodular."""
    rng = np.random.default_rng(1009)
    for _ in range(100):
        inst = random_instance(rng, n_max=3, k_max=10, tau_max=20)
        prices, f = commitment_values(inst)
        calls = [0]

        def counted(Z, prices=prices, calls=calls):
            calls[0] += 1
            return prices.exact(Z, Z)

        trace = greedy_subset(inst, counted)
        assert calls[0] <= inst.k**2 + inst.k
        greedy_val = f(trace.chosen) if trace.chosen else 0.0
        values = {0: 0.0}
        best = 0.0
        for Z in subset_masks(inst.k):
            v = f(Z)
            values[Z] = -math.inf if v is NEG_INF else v
            if v is not NEG_INF and v > best:
                best = v
        assert greedy_val >= (1 - 1 / math.e) * best - 1e-9
        arms = list(range(inst.k))
        for _ in range(20):
            B = arm_mask(a for a in arms if rng.random() < 0.5)
            if B == (1 << inst.k) - 1:
                continue
            A = arm_mask(a for a in arm_set(B) if rng.random() < 0.5)
            a = arms[int(rng.integers(inst.k))]
            if B >> a & 1:
                continue
            fA, fB = values[A], values[B]
            fAa, fBa = values[A | 1 << a], values[B | 1 << a]
            if math.isinf(fA) or math.isinf(fB) or math.isinf(fAa) or math.isinf(fBa):
                continue
            assert fAa - fA >= fBa - fB - 1e-9


def test_10_multi_phase_plans_beat_static_commitments():
    """30 tiny two-phase instances match the exhaustive chain search
    exactly; on the harvest instance the per-run margin clears 0.1*tau."""
    rng = np.random.default_rng(1010)
    done = 0
    while done < 30:
        inst = random_instance(rng, n_max=2, k_max=3, tau_max=5,
                               phases_max=2, dyadic=True)
        if inst.phases != 2:
            continue
        agg = build_lcb_aggregate(inst.P, inst.tau)
        aggs = [agg] * 2
        plan = lmatch(inst, agg)
        assert plan.total_value == brute_chain_value(inst, aggs)
        done += 1

    inst = early_harvest(tau=2000, phases=4)
    agg = build_lcb_aggregate(inst.P, inst.tau)
    assert agg.counts == (1476, 276, 248)
    margins = []
    lp = LlcbPolicy(inst)
    sp = LcbPolicy(inst)
    for seed in range(20):
        a = run_episode(inst, lp, seed, reward_mode="expected").expected_reward
        b = run_episode(inst, sp, seed, reward_mode="expected").expected_reward
        margins.append(a - b)
    assert sum(margins) / len(margins) >= 0.1 * inst.tau


def test_11_learning_closes_the_gap_the_baselines_cannot():
    """Explore-then-exploit regret per round strictly falls along
    T in {20k, 100k, 500k} while both naive baselines stay >= 0.05."""
    start = time.monotonic()
    base = subsidy_worthwhile()
    horizons = (20_000, 100_000, 500_000)
    _, table = dp_star(base)
    seeds = range(20)
    ees_rates = []
    for T in horizons:
        inst = replace(base, T=T)
        bench = planned_total_value(inst, table)
        obs = Observables.from_instance(inst)
        regrets = []
        for seed in seeds:
            policy = EesPolicy(obs)
            rec = run_episode(inst, policy, seed, reward_mode="sampled")
            regrets.append((bench - rec.expected_reward) / T)
        ees_rates.append(sum(regrets) / len(regrets))
        for kind in ("never_subsidize", "blind_subsidize"):
            rates = []
            for seed in seeds:
                rec = run_episode(inst, baseline_policy(kind, inst), seed,
                                  reward_mode="expected")
                rates.append((bench - rec.expected_reward) / T)
            assert sum(rates) / len(rates) >= 0.05, (kind, T)
    assert ees_rates[0] > ees_rates[1] > ees_rates[2], ees_rates
    assert time.monotonic() - start < 1800


def test_12_experiment_reruns_are_byte_identical(tmp_path):
    """Same command, same bytes, once the timing column is dropped."""
    inst = replace(subsidy_worthwhile(), T=2000)
    path = tmp_path / "inst.txt"
    save_instance(inst, path, seed=0)
    texts = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = cli_main([
            "experiment", "--instance", str(path),
            "--algo", "ees-dp-star,blind,lcb-star", "--seeds", "4",
            "--sweep", "1000,2000", "--benchmark", "pico",
            "--out", str(out),
        ])
        assert code == 0
        texts.append(out.read_text())

    def drop_timing(text: str) -> str:
        rows = list(csv.reader(text.splitlines()))
        keep = [",".join(r[:-1]) for r in rows]
        return "\n".join(keep)

    assert drop_timing(texts[0]) == drop_timing(texts[1])
    assert texts[0].splitlines()[0].endswith("wall_time_s")


def test_13_learning_regret_grows_like_t_to_the_two_thirds():
    """The least-squares slope of log total regret against log T, over
    T in {1e5, 5e5, 2.5e6}, lies within 2/3 +- 0.1: the rate of the
    exploration schedule, which explores about T^(2/3) rounds."""
    base = subsidy_worthwhile()
    _, table = dp_star(base)
    horizons = (100_000, 500_000, 2_500_000)
    totals = []
    for T in horizons:
        inst = replace(base, T=T)
        bench = planned_total_value(inst, table)
        obs = Observables.from_instance(inst)
        totals.append(sum(
            bench - run_episode(inst, EesPolicy(obs), seed, reward_mode="sampled").expected_reward
            for seed in range(10)))
    slope = np.polyfit(np.log(horizons), np.log(totals), 1)[0]
    assert abs(slope - 2 / 3) <= 0.1, (slope, totals)
