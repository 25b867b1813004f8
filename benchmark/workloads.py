"""The benchmark's three workloads.

A workload builds its inputs from the run's seed (the constructor), lists
the operations that make up one pass (``ops``), runs one operation
(``run_op``) and checks a finished pass outside the timed region
(``check``).  Every pass attempts the same operations; only the episode
seeds change from pass to pass.  The package is reached only through its
public names, looked up at call time so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import checks

SIZES = {
    "committed_sim": {
        "full": {"phases": 2000, "shortfall_phases": 50_000},
        "smoke": {"phases": 300, "shortfall_phases": 20_000},
    },
    "planner_build": {
        "full": {
            "dp2_tau": 1000, "dp2_phases": 100,
            "dp3_tau": 120, "dp3_phases": 300,
            "wide_k": 10, "wide_tau": 400, "wide_phases": 100,
            "llcb_k": 5, "llcb_tau": 100, "llcb_phases": 600,
        },
        "smoke": {
            "dp2_tau": 100, "dp2_phases": 20,
            "dp3_tau": 20, "dp3_phases": 20,
            "wide_k": 5, "wide_tau": 200, "wide_phases": 10,
            "llcb_k": 3, "llcb_tau": 30, "llcb_phases": 20,
        },
    },
    "learn_sweep": {
        "full": {"sweep": (20_000, 50_000, 100_000), "seeds": 2},
        "smoke": {"sweep": (2_000, 5_000), "seeds": 2},
    },
}


def episode_seed(seed: int, pass_idx: int, op_idx: int) -> int:
    return (seed * 10_000 + pass_idx) * 100 + op_idx


def pass_seed(op_seed: int) -> int:
    """The episode seed of operation 0 of the same pass."""
    return op_seed - op_seed % 100


def _simplex(rng, n):
    w = rng.integers(4, 9, size=n)
    return tuple(int(x) / int(w.sum()) for x in w)


class CommittedSim:
    """Long committed episodes on the three reference instances at tau=100,
    scored in expectation: a scaled-down copy of the acceptance gate's
    100k-phase fixture.  Planning is about 1% of the work; per-round
    dispatch, sampling and exact accounting do the rest."""

    INSTANCES = ("symmetric_tight", "subsidy_worthwhile", "subsidy_wasteful")
    POLICIES = ("dp", "lcb", "blind")

    def __init__(self, eb, seed: int, scale: str, workdir):
        from exposure_bandits import presets

        self.eb = eb
        s = SIZES["committed_sim"][scale]
        self.ops = [
            (f"{name}/{kind}", replace(presets.PRESETS[name](tau=100), T=100 * s["phases"]),
             kind)
            for name in self.INSTANCES
            for kind in self.POLICIES
        ]
        # At tau=100 the confidence floors sit more than four standard
        # deviations below the mean arrival counts, so the timed LcbPolicy
        # episodes almost never fall back.  At tau=4 with P=(0.84, 0.16)
        # type 0's floor is 1 and it misses it in 0.066% of the phases:
        # about 33 fallback phases in the 50k of a full-size run.
        self.shortfall = eb.Instance(n=2, k=2, tau=4, T=4 * s["shortfall_phases"],
                                     P=(0.84, 0.16), delta=(1, 1),
                                     mu=[[0.9, 0.2], [0.1, 0.8]])
        self.shortfall_seed = episode_seed(seed, 9_999, 99)
        self._shortfall_checked = False

    def run_op(self, op, seed: int):
        _, inst, kind = op
        eb = self.eb
        if kind == "dp":
            policy = eb.DpPolicy(inst)
        elif kind == "lcb":
            policy = eb.LcbPolicy(inst)
        else:
            policy = eb.baseline_policy("blind_subsidize", inst)
        return policy, eb.run_episode(inst, policy, seed, reward_mode="expected")

    def check(self, results) -> list[str]:
        out = []
        for (label, inst, kind), (policy, record) in results:
            found = checks.episode(record, inst)
            if kind in ("dp", "lcb"):
                found += checks.committed_survive(record, lambda p: policy.Z)
            if kind == "dp":
                found += checks.per_phase_reward(record, inst, policy.table.root_value)
            if kind == "lcb":
                found += checks.fallback_phases(policy, record, inst)
            out += [f"{label}: {msg}" for msg in found]
        if not self._shortfall_checked:
            out += [f"shortfall/lcb: {msg}" for msg in self._check_shortfall()]
            self._shortfall_checked = True
        return out

    def _check_shortfall(self) -> list[str]:
        """Once per run, untimed: an LcbPolicy episode on an instance with
        frequent arrival shortfalls, so the fallback check has phases to
        compare."""
        inst = self.shortfall
        policy = self.eb.LcbPolicy(inst)
        record = self.eb.run_episode(inst, policy, self.shortfall_seed,
                                     reward_mode="expected")
        found = checks.episode(record, inst) + checks.fallback_phases(policy, record, inst)
        if not checks.shortfall_phases(record, inst):
            found.append("no arrival shortfall in the episode: the fallback check is empty")
        return found


class PlannerBuild:
    """Planner construction at sizes where planning dominates, each plan
    followed by a short checking episode: DpPolicy at (k=2, tau=1000) and
    (k=3, tau=120), LcbPolicy and AlcbPolicy at k=10, LlcbPolicy over 600
    phases at k=5."""

    def __init__(self, eb, seed: int, scale: str, workdir):
        self.eb = eb
        s = SIZES["planner_build"][scale]
        rng = np.random.default_rng([seed, 1])
        dp2 = self._favourite_arms(rng, 2, s["dp2_tau"], s["dp2_phases"])
        dp3 = self._favourite_arms(rng, 3, s["dp3_tau"], s["dp3_phases"])
        wide = self._random_arms(rng, 4, s["wide_k"], s["wide_tau"], s["wide_phases"])
        llcb = self._random_arms(rng, 4, s["llcb_k"], s["llcb_tau"], s["llcb_phases"])
        self.ops = [
            (f"dp/k2/tau{dp2.tau}", dp2, "dp"),
            (f"dp/k3/tau{dp3.tau}", dp3, "dp"),
            (f"lcb/k{wide.k}", wide, "lcb"),
            (f"alcb/k{wide.k}", wide, "alcb"),
            (f"llcb/k{llcb.k}", llcb, "llcb"),
        ]
        self.phase_cases, self.matching_cases = self._dyadic_cases(rng)
        self._oracles_checked = False
        self._lcb_values: dict = {}

    def _favourite_arms(self, rng, k, tau, phases):
        """Uniform arrivals, type u favours arm u (mu in [0.6, 1] on the
        diagonal, [0, 0.4] off it), thresholds at half of each arm's
        natural demand.  Only mu depends on the seed: the feasible states,
        and so the table and action-table sizes, do not, and committing to
        every arm is optimal for every seed."""
        mu = [
            [float(rng.uniform(0.6, 1.0)) if a == u else float(rng.uniform(0.0, 0.4))
             for a in range(k)]
            for u in range(k)
        ]
        return self.eb.Instance(n=k, k=k, tau=tau, T=tau * phases, P=(1 / k,) * k,
                                delta=(tau // (2 * k),) * k, mu=mu)

    def _random_arms(self, rng, n, k, tau, phases):
        """Uniform arrivals and uniform random utilities; the thresholds of
        all k arms fit in one phase together, so no subset is infeasible
        and the solver call counts do not depend on the seed."""
        mu = [[float(v) for v in rng.random(k)] for _ in range(n)]
        return self.eb.Instance(n=n, k=k, tau=tau, T=tau * phases, P=(1 / n,) * n,
                                delta=(tau // (2 * k),) * k, mu=mu)

    def _dyadic_cases(self, rng):
        """Tiny instances with utilities in multiples of 1/16, exact in
        binary, for the oracle agreement checks."""
        eb = self.eb

        def dyadic_mu(n, k):
            return [[int(v) / 16 for v in rng.integers(0, 17, size=k)] for _ in range(n)]

        phase_cases = []
        for i in range(8):
            k, tau = 1 + i % 2, 2 + (i // 2) % 2
            phase_cases.append(eb.Instance(
                n=2, k=k, tau=tau, T=tau, P=_simplex(rng, 2),
                delta=tuple(int(d) for d in rng.integers(0, tau + 1, size=k)),
                mu=dyadic_mu(2, k)))
        matching_cases = []
        for i in range(12):
            n, k, tau = 1 + i % 3, 1 + (i // 3) % 3, 2 + i % 5
            inst = eb.Instance(
                n=n, k=k, tau=tau, T=tau, P=_simplex(rng, n),
                delta=tuple(int(d) for d in rng.integers(0, tau + 1, size=k)),
                mu=dyadic_mu(n, k))
            if i % 2:
                agg = eb.build_lcb_aggregate(inst.P, tau)
            else:
                left, counts = tau, []
                for _ in range(n):
                    c = int(rng.integers(0, left + 1))
                    counts.append(c)
                    left -= c
                agg = eb.Aggregate(counts=tuple(counts), has_slack=False)
            arms = [a for a in range(k) if rng.random() < 0.7] or [0]
            allowed = frozenset(arms)
            committed = frozenset(a for a in arms if rng.random() < 0.5)
            matching_cases.append((inst, agg, allowed, committed))
        return phase_cases, matching_cases

    def run_op(self, op, seed: int):
        _, inst, kind = op
        eb = self.eb
        factory = {"dp": eb.DpPolicy, "lcb": eb.LcbPolicy, "alcb": eb.AlcbPolicy,
                   "llcb": eb.LlcbPolicy}[kind]
        policy = factory(inst)
        return policy, eb.run_episode(inst, policy, seed, reward_mode="expected")

    def _lcb_value(self, inst):
        if inst not in self._lcb_values:
            self._lcb_values[inst] = self.eb.lcb_star(inst)[1].value
        return self._lcb_values[inst]

    def check(self, results) -> list[str]:
        eb = self.eb
        out = []
        if not self._oracles_checked:
            out += checks.oracle_agreement(eb, self.phase_cases, self.matching_cases)
            self._oracles_checked = True
        by_kind = {}
        for (label, inst, kind), (policy, record) in results:
            by_kind[kind] = policy
            found = checks.episode(record, inst)
            if kind == "llcb":
                chain = policy.plan.chain
                found += checks.committed_survive(record, lambda p: chain[p])
                floor = inst.phases * self._lcb_value(inst)
                if policy.plan.total_value < floor - 1e-9 * abs(floor):
                    found.append(f"plan value {policy.plan.total_value!r} < phases * "
                                 f"lcb_star value {floor!r}")
            else:
                found += checks.committed_survive(record, lambda p: policy.Z)
            if kind == "dp":
                found += checks.per_phase_reward(record, inst, policy.table.root_value)
            out += [f"{label}: {msg}" for msg in found]
        if "lcb" in by_kind and "alcb" in by_kind:
            best = by_kind["lcb"].template.value
            alcb = by_kind["alcb"]
            k = alcb.instance.k
            if alcb.template.value < (1 - 1 / math.e) * best - 1e-9:
                out.append(f"greedy value {alcb.template.value!r} below (1-1/e) * {best!r}")
            if alcb.trace.oracle_call_count > k * k + k:
                out.append(f"greedy used {alcb.trace.oracle_call_count} oracle calls")
        return out


class LearnSweep:
    """The ``experiment`` command, in-process, over the learners and the
    naive baselines on subsidy_worthwhile: regret against the
    phase-information benchmark along several horizons.  One operation is
    one invocation for one algorithm, all with the pass's seeds; the
    command gives every algorithm the same seeds and writes its rows in
    sorted algorithm order, so the pass's CSVs joined in that order are
    the CSV of one invocation over all of them."""

    ALGOS = ("ees-dp-star", "ees-lcb-star", "greedy-bandit", "never-subsidize", "blind")
    BASELINES = ("never-subsidize", "blind")
    LEARNER = "ees-dp-star"
    MIN_BASELINE_RATE = 0.05

    def __init__(self, eb, seed: int, scale: str, workdir):
        from exposure_bandits import cli, presets

        self.eb, self.cli = eb, cli
        s = SIZES["learn_sweep"][scale]
        self.sweep, self.seeds = s["sweep"], s["seeds"]
        self.inst = presets.subsidy_worthwhile()
        self.workdir = workdir
        self.path = workdir / "subsidy_worthwhile.txt"
        cli.save_instance(self.inst, self.path)
        self.ops = [(f"experiment/{algo}", self.inst, algo) for algo in sorted(self.ALGOS)]
        self._benchmarks: dict = {}

    def _argv(self, algos, sweep, seed_base, out):
        return ["experiment", "--instance", str(self.path), "--algo", ",".join(algos),
                "--seeds", str(self.seeds), "--sweep", ",".join(map(str, sweep)),
                "--benchmark", "pico", "--seed-base", str(seed_base), "--out", str(out)]

    def _experiment(self, algos, sweep, seed_base, out) -> str:
        code = self.cli.main(self._argv(algos, sweep, seed_base, out))
        if code != 0:
            raise RuntimeError(f"experiment exited with code {code}")
        return out.read_text()

    def run_op(self, op, seed: int):
        algo = op[2]
        seed_base = pass_seed(seed)
        return seed_base, self._experiment((algo,), self.sweep, seed_base,
                                           self.workdir / f"{algo}.csv")

    def _benchmark_text(self, T) -> str:
        if T not in self._benchmarks:
            inst = replace(self.inst, T=T)
            _, table = self.eb.dp_star(inst)
            self._benchmarks[T] = format(float(inst.phases * table.root_value), ".12g")
        return self._benchmarks[T]

    def check(self, results) -> list[str]:
        if not results:
            return []
        seed_base = results[0][1][0]
        texts = [text for _, (_, text) in results]
        text = texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:])
        benchmarks = {T: self._benchmark_text(T) for T in self.sweep}
        out = checks.experiment_csv(text, benchmarks, self.BASELINES, self.LEARNER,
                                    self.MIN_BASELINE_RATE)
        T = min(self.sweep)
        small = self._experiment(self.ALGOS, (T,), seed_base, self.workdir / "rerun.csv")
        return out + checks.same_rows_but_timing(small, text, T)


WORKLOADS = {
    "committed_sim": CommittedSim,
    "planner_build": PlannerBuild,
    "learn_sweep": LearnSweep,
}
