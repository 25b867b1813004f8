"""Command-line front end.

Subcommands
-----------
solve       plan on a known instance and report commitment + value
learn       run a learning policy with sampled feedback
experiment  sweep (algorithm, T, seed) cells into a CSV of regrets
match       show the shaved aggregate and its optimal matching
oracle      brute-force optimum vs the committed planner on tiny instances
gamma       feasibility margin of the exploration schedule

Instance files are plain text, one ``key = value`` per line, each key
at most once, lists space-separated, ``mu`` row-major::

    n = 2
    k = 2
    tau = 100
    T = 1000
    P = 0.5 0.5
    delta = 40 40
    mu = 1 0 0 1
    reward_kind = bernoulli
    seed = 0

Exit codes: 0 ok, 2 config error, 3 infeasible instance, 4 resource
guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import replace
from itertools import groupby

from .core import (
    NEG_INF,
    Instance,
    InfeasibleError,
    ResourceGuardError,
    compute_gamma,
)
from .dp import DpPolicy, dp_star, planned_total_value
from .env import Policy, recompute_expected_reward, run_episode
from .lcb import LcbPolicy, lcb_star
from .learn import (
    BASELINES,
    PLANNERS,
    EesConfig,
    EesPolicy,
    Observables,
    baseline_policy,
)
from .matching import build_lcb_aggregate

__all__ = ["main", "entry", "load_instance", "save_instance", "make_policy", "policy_class"]

# algorithm id -> library kind: a key of learn.PLANNERS or learn.BASELINES.
# "ees-<planner id>" explores, estimates, then plans with that planner.
KINDS = {
    "dp-star": "dp_star",
    "lcb-star": "lcb_star",
    "a-lcb-star": "alcb_star",
    "l-lcb": "llcb",
    "myopic": "myopic",
    "never-subsidize": "never_subsidize",
    "blind": "blind_subsidize",
    "greedy-bandit": "greedy_bandit",
}
ALGORITHMS = tuple(KINDS) + tuple(
    f"ees-{algo}" for algo, kind in KINDS.items() if kind in PLANNERS
)

_INT_KEYS = ("n", "k", "tau", "T", "seed")
_LIST_KEYS = ("P", "delta", "mu")


def load_instance(path) -> tuple[Instance, int]:
    """Parse the key-value instance format; returns (instance, seed).
    A key given twice is an error that names both lines."""
    fields: dict[str, object] = {}
    seen: dict[str, int] = {}  # key -> the line that set it
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in seen:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} repeats line {seen[key]}"
                )
            seen[key] = lineno
            try:
                if key in _INT_KEYS:
                    fields[key] = int(value)
                elif key in _LIST_KEYS:
                    parse = int if key == "delta" else float
                    fields[key] = [parse(x) for x in value.replace(",", " ").split()]
                elif key == "reward_kind":
                    fields[key] = value
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    for key in ("n", "k", "tau", "T", "P", "delta", "mu"):
        if key not in fields:
            raise ValueError(f"{path}: missing required key {key!r}")
    n, k = fields["n"], fields["k"]
    flat = fields["mu"]
    if len(flat) != n * k:
        raise ValueError(f"{path}: mu needs n*k={n * k} entries, got {len(flat)}")
    instance = Instance(
        n=n,
        k=k,
        tau=fields["tau"],
        T=fields["T"],
        P=tuple(fields["P"]),
        delta=tuple(fields["delta"]),
        mu=tuple(tuple(flat[u * k : (u + 1) * k]) for u in range(n)),
        reward_kind=fields.get("reward_kind", "bernoulli"),
    )
    return instance, int(fields.get("seed", 0))


def save_instance(instance: Instance, path, seed: int = 0) -> None:
    with open(path, "w") as fh:
        fh.write(f"n = {instance.n}\n")
        fh.write(f"k = {instance.k}\n")
        fh.write(f"tau = {instance.tau}\n")
        fh.write(f"T = {instance.T}\n")
        # repr is the shortest string that reads back as the same float
        fh.write("P = " + " ".join(repr(p) for p in instance.P) + "\n")
        fh.write("delta = " + " ".join(str(d) for d in instance.delta) + "\n")
        fh.write("mu = " + " ".join(repr(v) for row in instance.mu for v in row) + "\n")
        fh.write(f"reward_kind = {instance.reward_kind}\n")
        fh.write(f"seed = {seed}\n")


def _fmt(x) -> str:
    if x is NEG_INF:
        return "NEG_INF"
    return format(float(x), ".12g")


def policy_class(algo: str) -> type[Policy]:
    """The class of the policy :func:`make_policy` builds for an
    algorithm id (see ``KINDS``)."""
    if algo.startswith("ees-") and KINDS.get(algo[4:]) in PLANNERS:
        return EesPolicy
    kind = KINDS.get(algo)
    if kind is None:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    return PLANNERS[kind] if kind in PLANNERS else BASELINES[kind]


def make_policy(algo: str, instance: Instance, explore_override: int | None = None) -> Policy:
    """Build the policy for an algorithm id (see ``KINDS``)."""
    cls = policy_class(algo)
    if cls is EesPolicy:
        config = EesConfig(sso=KINDS[algo[4:]], exploration_phases=explore_override)
        return EesPolicy(Observables.from_instance(instance), config)
    kind = KINDS[algo]
    if kind in PLANNERS:
        return cls(instance)
    return baseline_policy(kind, instance)


def _reward_mode(mode: str, policy: Policy) -> str:
    """``auto`` scores learners (policies built from ``Observables``) on
    sampled rewards and everything else in expectation."""
    if mode != "auto":
        return mode
    return "sampled" if policy.observables is not None else "expected"


def _run_seeds(horizons, policy: Policy, seeds, mode: str) -> list[list[tuple]]:
    """Run one episode per seed with the same policy object, at the last
    (longest) of ``horizons``, instances that differ only in ``T``.
    Returns, per horizon, one row per seed of (expected reward,
    departures, fallback phases, wall time) over the episode's first
    ``T`` rounds: a shorter horizon reads the prefix, which is its own
    episode when the policy is ``horizon_free``.  The wall time covers
    the ``run_episode`` call only."""
    instance = horizons[-1]
    rows = [[] for _ in horizons]
    for seed in seeds:
        t0 = time.perf_counter()
        record = run_episode(instance, policy, seed, mode)
        wall = time.perf_counter() - t0
        for out, served in zip(rows, horizons):
            prefix = record.prefix(served.T, served.tau)
            # the record's own total is the same exact sum: reusing it
            # spares counting a whole (possibly long) episode again
            reward = (record.expected_reward if served.T == instance.T
                      else recompute_expected_reward(prefix, served))
            fired = [p for p in policy.bad_event_phases if p <= served.phases]
            out.append((reward, len(prefix.departure_events), len(fired), wall))
    return rows


def _run_group(group) -> list[list[tuple]]:
    """One (algorithm, horizons) group of an experiment: build the policy
    once, at the longest horizon, then :func:`_run_seeds`."""
    horizons, algo, seeds, mode, explore_override = group
    policy = make_policy(algo, horizons[-1], explore_override)
    return _run_seeds(horizons, policy, seeds, _reward_mode(mode, policy))


def _mean_stderr(xs):
    m = sum(xs) / len(xs)
    if len(xs) < 2:
        return m, 0.0
    var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return m, math.sqrt(var / len(xs))


def _policy_diag(policy: Policy):
    """(commitment, per-phase value) when the policy exposes them.

    A segment plan (LCB, A-LCB, L-LCB) whose arm set never changes
    commits to that set; any other prints its chain of surviving sets
    run-length encoded, so the line does not grow with the horizon."""
    if isinstance(policy, DpPolicy):
        return sorted(policy.Z), policy.table.root_value
    if not isinstance(policy, LcbPolicy):
        return None, None
    segments = policy.segments
    # the chain Z^0 ⊇ Z^1 ⊇ ... as (set, phases) runs
    sets = [(segments[0].available, 1)] + [(seg.kept, seg.phases) for seg in segments]
    runs = [(z, sum(n for _, n in run)) for z, run in groupby(sets, key=lambda zn: zn[0])]
    if len(runs) == 1:
        return sorted(segments[0].kept), segments[0].matching.value
    chain = "->".join(
        "{" + ",".join(map(str, sorted(z))) + "}" + (f"x{n}" if n > 1 else "")
        for z, n in runs
    )
    phases = sum(seg.phases for seg in segments)
    return chain, math.fsum(seg.phases * seg.matching.value for seg in segments) / phases


def cmd_solve(args) -> int:
    instance, file_seed = load_instance(args.instance)
    policy = make_policy(args.algo, instance, args.explore_override)
    mode = _reward_mode(args.reward_mode, policy)
    commitment, per_phase = _policy_diag(policy)
    print(f"algorithm: {args.algo}")
    if commitment is not None:
        print(f"commitment: {commitment}")
        print(f"per-phase value: {_fmt(per_phase)}")
    base = args.seed_base if args.seed_base is not None else file_seed
    [rows] = _run_seeds([instance], policy, range(base, base + args.seeds), mode)
    rewards, departures, _, _ = zip(*rows)
    m, se = _mean_stderr(rewards)
    print(f"episodes: {args.seeds} (seeds {base}..{base + args.seeds - 1}, "
          f"reward_mode={mode})")
    print(f"expected reward: {_fmt(m)} +- {_fmt(se)}")
    print(f"mean departures: {_fmt(sum(departures) / len(departures))}")
    return 0


def cmd_learn(args) -> int:
    instance, file_seed = load_instance(args.instance)
    policy = make_policy(args.algo, instance, args.explore_override)
    mode = _reward_mode(args.reward_mode, policy)
    if isinstance(policy, EesPolicy):
        print(f"exploration phases: {policy.exploration_phases}")
        print(f"exploration rounds: {policy.T0}")
    base = args.seed_base if args.seed_base is not None else file_seed
    [rows] = _run_seeds([instance], policy, range(base, base + args.seeds), mode)
    rewards, _, bad, _ = zip(*rows)
    m, se = _mean_stderr(rewards)
    print(f"algorithm: {args.algo}")
    print(f"episodes: {args.seeds} (seeds {base}..{base + args.seeds - 1}, "
          f"reward_mode={mode})")
    print(f"expected reward: {_fmt(m)} +- {_fmt(se)}")
    if any(bad):
        print(f"mean bad-event phases: {_fmt(sum(bad) / len(bad))}")
    return 0


def _benchmark_values(kind: str, horizons) -> list[float]:
    """The benchmark of each of ``horizons``, instances that differ only
    in ``T``: ``pico`` plans the phase policy once, since its table does
    not depend on the horizon."""
    if kind == "pico":
        _, table = dp_star(horizons[0])
        return [planned_total_value(instance, table) for instance in horizons]
    if kind == "oracle-opt":
        from .oracle import exact_opt

        return [exact_opt(instance).value for instance in horizons]
    raise ValueError(f"unknown benchmark {kind!r}")


def cmd_experiment(args) -> int:
    instance, file_seed = load_instance(args.instance)
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    if not algos:
        raise ValueError("no algorithms given")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
    if args.sweep:
        sweep = [int(x) for x in args.sweep.replace(",", " ").split()]
        if not sweep:
            raise ValueError("empty sweep")
    else:
        sweep = [instance.T]
    sweep = sorted(set(sweep))
    # one instance per horizon, shortest first, which refuses a T that is
    # not a multiple of tau
    horizons = [replace(instance, T=T) for T in sweep]
    base = args.seed_base if args.seed_base is not None else file_seed
    benchmarks = dict(zip(sweep, _benchmark_values(args.benchmark, horizons)))

    seeds = range(base, base + args.seeds)
    # a horizon-free algorithm plays each seed once, at the longest
    # horizon, and serves every horizon from that episode's prefixes
    groups = [
        (group, algo, seeds, args.reward_mode, args.explore_override)
        for algo in sorted(set(algos))
        for group in ([horizons] if policy_class(algo).horizon_free
                      else [[h] for h in horizons])
    ]
    # a worker past one per group would have nothing to run
    workers = min(args.workers, len(groups))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_group, groups))
    else:
        outcomes = list(map(_run_group, groups))
    results = {
        (algo, h.T): rows
        for (group, algo, *_), per_horizon in zip(groups, outcomes)
        for h, rows in zip(group, per_horizon)
    }
    keys = [(algo, T) for algo in sorted(algos) for T in sweep]

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["algorithm", "T", "seed", "reward", "benchmark", "regret",
                    "departures", "bad_events", "wall_time_s"])
        for algo, T in keys:
            bench = benchmarks[T]
            rows = []
            for seed, (reward, deps, bad, wall) in zip(seeds, results[(algo, T)]):
                rows.append((reward, bench, bench - reward, deps, bad, wall))
                w.writerow([algo, T, seed] + [_fmt(x) for x in rows[-1][:3]]
                           + [deps, bad, format(wall, ".6f")])
            cols = list(zip(*rows))
            means = [_mean_stderr(c) for c in cols]
            w.writerow([algo, T, "mean"] + [_fmt(m) for m, _ in means[:5]]
                       + [format(means[5][0], ".6f")])
            w.writerow([algo, T, "stderr"] + [_fmt(s) for _, s in means[:5]]
                       + [format(means[5][1], ".6f")])
    finally:
        if args.out:
            out.close()
    return 0


def cmd_match(args) -> int:
    instance, _ = load_instance(args.instance)
    agg = build_lcb_aggregate(instance.P, instance.tau)
    counts = agg.counts[:-1]
    print(f"confidence floors: {list(counts)} slack: {agg.counts[-1]}")
    Z, matching = lcb_star(instance)
    print(f"commitment: {sorted(Z)}")
    print(f"value: {_fmt(matching.value)}")
    print("matching (rows = types + slack, columns = arms):")
    for row in matching.M:
        print("\t".join(str(x) for x in row))
    return 0


def cmd_oracle(args) -> int:
    from .oracle import exact_opt

    instance, _ = load_instance(args.instance)
    opt = exact_opt(instance)
    Z, table = dp_star(instance)
    committed = planned_total_value(instance, table)
    print(f"exact optimum: {_fmt(opt.value)}")
    print(f"committed planner: {_fmt(committed)} (commitment {sorted(Z)})")
    gap = opt.value - committed
    print(f"gap: {_fmt(gap)} (bound {instance.k * instance.tau})")
    return 0


def cmd_gamma(args) -> int:
    instance, _ = load_instance(args.instance)
    g = compute_gamma(instance)
    print(f"feasible: {g.feasible}")
    print(f"gamma: {g.gamma if g.gamma is not None else 'none'}")
    print(f"quota: {g.quota}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="exposure-bandits",
        description="Bandit simulation with per-phase exposure constraints",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, algo_default=None, algo_help="algorithm id"):
        sp.add_argument("--instance", required=True, help="instance file path")
        if algo_default is not None:
            sp.add_argument("--algo", default=algo_default, help=algo_help)
        sp.add_argument("--seeds", type=int, default=20,
                        help="number of replications")
        sp.add_argument("--seed-base", type=int, default=None,
                        help="first seed (default: instance file seed)")
        sp.add_argument("--reward-mode", default="auto",
                        choices=["auto", "expected", "sampled"])
        sp.add_argument("--explore-override", type=int, default=None,
                        help="exploration phases for ees-* algorithms")

    sp = sub.add_parser("solve", help="plan on a known instance")
    common(sp, algo_default="dp-star",
           algo_help=f"one of {tuple(KINDS)}")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("learn", help="run a learning policy")
    common(sp, algo_default="ees-dp-star", algo_help=f"one of {ALGORITHMS}")
    sp.set_defaults(func=cmd_learn)

    sp = sub.add_parser("experiment", help="sweep cells into a CSV")
    common(sp, algo_default="ees-dp-star,never-subsidize",
           algo_help="comma-separated algorithm ids")
    sp.add_argument("--sweep", default=None,
                    help="comma-separated horizon values (default: file T)")
    sp.add_argument("--benchmark", default="pico",
                    choices=["pico", "oracle-opt"])
    sp.add_argument("--out", default=None, help="CSV output path")
    sp.add_argument("--workers", type=int, default=1,
                    help="processes running the (algorithm, horizons) groups")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("match", help="aggregate + optimal matching")
    sp.add_argument("--instance", required=True)
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("oracle", help="brute-force optimum on tiny instances")
    sp.add_argument("--instance", required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("gamma", help="exploration feasibility margin")
    sp.add_argument("--instance", required=True)
    sp.set_defaults(func=cmd_gamma)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seeds", 1) < 1:
            raise ValueError("--seeds must be at least 1")
        if getattr(args, "workers", 1) < 1:
            raise ValueError("--workers must be at least 1")
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
