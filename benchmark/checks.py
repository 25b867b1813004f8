"""Correctness checks, computed apart from the package.

Each function returns a list of failure messages (empty when the check
holds).  The rules are written out here from the paper's definitions, not
taken from the package: the departure rule, the confidence floors, the
exact reward recount, the experiment CSV arithmetic.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

# |mean per-phase reward - planned root| must stay within this many
# standard errors of the per-phase mean
SE_RULE = 5.0


def exact_recount(record, instance) -> list[str]:
    """Live pulls per (type, arm) times mu, summed as Fractions and
    rounded once: must equal ``expected_reward`` bit for bit."""
    k = instance.k
    live = (record.pulls >= 0) & ~record.dead_pulls
    cells = np.bincount(
        record.arrivals[live].astype(np.int64) * k + record.pulls[live],
        minlength=instance.n * k,
    )
    total = sum(
        Fraction(int(cells[u * k + a])) * Fraction(instance.mu[u][a])
        for u in range(instance.n)
        for a in range(k)
        if cells[u * k + a]
    )
    if float(total) != record.expected_reward:
        return [f"expected_reward {record.expected_reward!r} != recount {float(total)!r}"]
    return []


def departures(record, instance) -> list[str]:
    """An arm leaves at the end of the first phase in which it got fewer
    than delta pulls (dead pulls count), and never comes back."""
    pulls = record.pulls.reshape(instance.phases, instance.tau)
    counts = np.stack([(pulls == a).sum(axis=1) for a in range(instance.k)], axis=1)
    short = counts < np.asarray(instance.delta)
    expected = sorted(
        (int(np.argmax(short[:, a])) + 1, a)
        for a in range(instance.k)
        if short[:, a].any()
    )
    if expected != list(record.departure_events):
        return [f"departures {record.departure_events[:5]} != re-derived {expected[:5]}"]
    return []


def committed_survive(record, kept_by_phase) -> list[str]:
    """``kept_by_phase(p)`` is the set of arms the plan keeps through phase
    p; none of them may depart there, and no pull may hit a departed arm."""
    out = [
        f"arm {a} departed in phase {p} against the plan"
        for p, a in record.departure_events
        if a in kept_by_phase(p)
    ]
    dead = int(record.dead_pulls.sum())
    if dead:
        out.append(f"{dead} dead pulls by a planner")
    return out


def per_phase_reward(record, instance, root) -> list[str]:
    """Mean per-phase reward within ``SE_RULE`` standard errors of the
    planned per-phase value."""
    mu = np.asarray(instance.mu)
    live = (record.pulls >= 0) & ~record.dead_pulls
    vals = np.where(live, mu[record.arrivals, np.maximum(record.pulls, 0)], 0.0)
    per_phase = vals.reshape(instance.phases, instance.tau).sum(axis=1)
    mean = float(per_phase.mean())
    se = float(per_phase.std(ddof=1) / math.sqrt(per_phase.size))
    if abs(mean - root) > SE_RULE * se + 1e-9 * instance.tau:
        return [f"per-phase mean {mean:.6g} vs root {root:.6g} (se {se:.3g})"]
    return []


def shortfall_phases(record, instance) -> list[int]:
    """Phases (1-based) in which some type arrived fewer times than its
    confidence floor floor(P_u*tau - sqrt(tau*ln tau)), clamped at 0."""
    tau = instance.tau
    width = math.sqrt(tau * math.log(tau))
    arrivals = record.arrivals.reshape(instance.phases, tau)
    short = np.zeros(instance.phases, dtype=bool)
    for u, p in enumerate(instance.P):
        floor_u = max(0, math.floor(p * tau - width))
        short |= (arrivals == u).sum(axis=1) < floor_u
    return [int(p) + 1 for p in np.nonzero(short)[0]]


def fallback_phases(policy, record, instance) -> list[str]:
    expected = shortfall_phases(record, instance)
    if list(policy.bad_event_phases) != expected:
        return [f"fallback phases {policy.bad_event_phases[:5]} != shortfalls {expected[:5]}"]
    return []


def episode(record, instance) -> list[str]:
    """Checks that hold for every simulated episode."""
    return exact_recount(record, instance) + departures(record, instance)


# -- experiment CSV ---------------------------------------------------------

NUMERIC = ("reward", "benchmark", "regret", "departures", "bad_events", "wall_time_s")


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _mean_stderr(xs):
    m = math.fsum(xs) / len(xs)
    if len(xs) < 2:
        return m, 0.0
    return m, math.sqrt(math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1) / len(xs))


def experiment_csv(text: str, benchmarks: dict, baselines, learner, min_rate) -> list[str]:
    """Row arithmetic, benchmark values, summary rows and the regret
    ordering of one experiment CSV.

    ``benchmarks`` maps T to the expected ``benchmark`` column text.
    """
    header, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    out = []
    groups: dict[tuple[str, int], dict] = {}
    for r in rows:
        key = (r[col["algorithm"]], int(r[col["T"]]))
        g = groups.setdefault(key, {"seeds": [], "mean": None, "stderr": None})
        vals = [float(r[col[c]]) for c in NUMERIC]
        kind = r[col["seed"]]
        if kind in ("mean", "stderr"):
            g[kind] = vals
        else:
            g["seeds"].append(vals)
            if r[col["benchmark"]] != benchmarks[key[1]]:
                out.append(f"row {r}: benchmark != phases * dp_star root")
        if kind != "stderr":
            reward, bench, regret = vals[:3]
            tol = 1e-11 * (abs(reward) + abs(bench) + abs(regret))
            if not _close(regret, bench - reward, tol):
                out.append(f"row {r}: regret != benchmark - reward")
    for key, g in groups.items():
        if not g["seeds"] or g["mean"] is None or g["stderr"] is None:
            out.append(f"{key}: missing seed, mean or stderr rows")
            continue
        for j, name in enumerate(NUMERIC):
            xs = [s[j] for s in g["seeds"]]
            m, se = _mean_stderr(xs)
            # printed values carry 12 significant digits (6 decimals for time)
            tol = 2e-6 if name == "wall_time_s" else 1e-9 * (1.0 + max(abs(x) for x in xs))
            if not (_close(m, g["mean"][j], tol) and _close(se, g["stderr"][j], tol)):
                out.append(f"{key} {name}: summary rows do not recompute from seeds")
    for T in benchmarks:
        mean_regret = {a: groups[(a, T)]["mean"][2] for a in (learner, *baselines)
                       if groups.get((a, T), {}).get("mean")}
        if len(mean_regret) != 1 + len(baselines):
            out.append(f"T={T}: algorithms missing from the CSV")
            continue
        for b in baselines:
            if mean_regret[b] / T < min_rate:
                out.append(f"T={T}: {b} regret per round {mean_regret[b] / T:.4f} < {min_rate}")
            if not mean_regret[learner] < mean_regret[b]:
                out.append(f"T={T}: {learner} regret not below {b}")
    return out


def same_rows_but_timing(small: str, full: str, T: int) -> list[str]:
    """The small invocation's rows equal the full CSV's rows for horizon
    T, byte for byte once the trailing ``wall_time_s`` column is dropped."""
    hs, rs = parse_csv(small)
    hf, rf = parse_csv(full)
    if hs != hf:
        return ["CSV headers differ"]
    t = hf.index("T")
    want = [r[:-1] for r in rf if int(r[t]) == T]
    got = [r[:-1] for r in rs]
    if got != want:
        return [f"rerun at T={T} differs from the full CSV"]
    return []


# -- oracle agreement on small dyadic instances ------------------------------

def oracle_agreement(eb, instances_phase, matching_cases) -> list[str]:
    """``mer_table`` roots against exhaustive phase-policy enumeration
    (1e-9), ``doalg`` values against exhaustive assignment (exact: the
    utilities are dyadic)."""
    out = []
    NEG_INF = eb.NEG_INF
    for inst in instances_phase:
        Z = tuple(range(inst.k))
        enum = eb.enumerate_phase_policies(Z, inst)
        root = eb.mer_table(Z, inst).root_value
        if enum is NEG_INF or root is NEG_INF:
            if enum is not root:
                out.append(f"{inst}: feasibility differs (enum {enum}, root {root})")
        elif abs(enum - root) > 1e-9:
            out.append(f"{inst}: root {root!r} != enumeration {enum!r}")
    for inst, agg, allowed, committed in matching_cases:
        fast = eb.doalg(agg, allowed, committed, inst)
        slow = eb.brute_matching(agg, allowed, committed, inst)
        if fast is NEG_INF or slow is NEG_INF:
            if fast is not slow:
                out.append(f"{inst}: doalg feasibility differs from brute force")
        elif fast.value != slow:
            out.append(f"{inst}: doalg {fast.value!r} != brute force {slow!r}")
    return out
