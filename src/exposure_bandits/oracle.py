"""Brute-force references for the optimization layer.

Everything here is deliberately naive: full-state backward induction for
the unrestricted optimum, exhaustive enumeration of committed phase
policies, and exhaustive enumeration of assignments.  These are the
ground truth the fast implementations are tested against, so they must
share no code with them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, Instance, ResourceGuardError
from .matching import Aggregate, _mu_eff

__all__ = [
    "OptResult",
    "exact_opt",
    "enumerate_phase_policies",
    "brute_matching",
]

STATE_CAP = 10**7
POLICY_CAP = 10**6
ASSIGNMENT_CAP = 10**7


@dataclass(frozen=True)
class OptResult:
    """Exact optimum of the stochastic optimization task.

    ``policy`` maps (round, viable_mask, capped within-phase counts) to
    the optimal arm (or None for a no-op); ``value`` is V at the initial
    state.
    """

    value: float
    policy: dict


def exact_opt(instance: Instance) -> OptResult:
    """Backward induction over (round, viable set, capped counts).

    Counts are capped at delta_a: extra pulls beyond the threshold do not
    change any future transition, so the capped chain is value-equivalent.
    Pulling a departed arm is never strictly better than a no-op (both
    yield 0 and departed arms stay departed), so actions range over the
    viable arms plus no-op.
    """
    n, k, tau, T = instance.n, instance.k, instance.tau, instance.T
    delta, mu, P = instance.delta, instance.mu, instance.P

    bound = (T + 1) * (2**k)
    for d in delta:
        bound *= d + 1
        if bound > STATE_CAP:
            raise ResourceGuardError(
                f"state space bound {bound} exceeds cap {STATE_CAP}"
            )

    full_mask = (1 << k) - 1
    zeros = (0,) * k

    def _advance(mask, counts, arm, boundary):
        if arm is not None and counts[arm] < delta[arm]:
            c = list(counts)
            c[arm] += 1
            counts = tuple(c)
        if boundary:
            new_mask = 0
            for a in range(k):
                if mask & (1 << a) and counts[a] >= delta[a]:
                    new_mask |= 1 << a
            return new_mask, zeros
        return mask, counts

    # forward reachability, one state set per round (recursion over T
    # rounds would overflow the interpreter stack)
    layers: list[set] = [{(full_mask, zeros)}]
    seen = 1
    for t in range(T):
        boundary = (t + 1) % tau == 0
        nxt: set = set()
        for mask, counts in layers[t]:
            nxt.add(_advance(mask, counts, None, boundary))
            for a in range(k):
                if mask & (1 << a):
                    nxt.add(_advance(mask, counts, a, boundary))
        seen += len(nxt)
        if seen > STATE_CAP:
            raise ResourceGuardError("state cap exceeded during induction")
        layers.append(nxt)

    policy: dict[tuple, int | None] = {}
    vals = {state: 0.0 for state in layers[T]}
    for t in range(T - 1, -1, -1):
        boundary = (t + 1) % tau == 0
        cur = {}
        for state in layers[t]:
            mask, counts = state
            per_type = []
            for u in range(n):
                best = vals[_advance(mask, counts, None, boundary)]
                best_arm = None
                for a in range(k):
                    if not mask & (1 << a):
                        continue
                    cand = mu[u][a] + vals[_advance(mask, counts, a, boundary)]
                    if cand > best:
                        best, best_arm = cand, a
                per_type.append(P[u] * best)
                policy[(t, mask, counts, u)] = best_arm
            cur[state] = math.fsum(per_type)
        vals = cur

    return OptResult(value=vals[(full_mask, zeros)], policy=policy)


def enumerate_phase_policies(Z, instance: Instance):
    """Max expected one-phase reward over every deterministic policy that
    pulls only arms of Z, where a policy is a map from observed type
    prefixes (u_1..u_t) to an arm.

    A policy is admissible only if it meets every threshold delta_a
    (a in Z) on every arrival branch; inadmissible branches score -inf.
    Returns a float, or the NEG_INF sentinel when no admissible policy
    exists.
    """
    Z = sorted(set(Z))
    if not Z:
        raise ValueError("Z must be nonempty")
    n, tau = instance.n, instance.tau
    m = len(Z)
    if sum(instance.delta[a] for a in Z) > tau:
        return NEG_INF

    num_nodes = sum(n**t for t in range(1, tau + 1))
    # bit-length check first: the power itself can be astronomically large
    if m > 1 and (num_nodes > POLICY_CAP.bit_length()
                  or m**num_nodes > POLICY_CAP):
        raise ResourceGuardError(
            f"{m}^{num_nodes} policies exceeds cap {POLICY_CAP}"
        )
    num_policies = m**num_nodes

    # node id of the prefix (u_1..u_t): offset[t] + base-n value of it
    offsets = [0]
    for t in range(1, tau):
        offsets.append(offsets[-1] + n**t)

    pidx = np.arange(num_policies, dtype=np.int64)
    total = np.zeros(num_policies, dtype=np.float64)
    feasible = np.ones(num_policies, dtype=bool)
    mu = np.asarray(instance.mu, dtype=np.float64)
    deltas = [instance.delta[a] for a in Z]

    for seq in itertools.product(range(n), repeat=tau):
        prob = math.prod(instance.P[u] for u in seq)
        node = 0
        reward = np.zeros(num_policies, dtype=np.float64)
        counts = np.zeros((m, num_policies), dtype=np.int16)
        for t, u in enumerate(seq):
            node = node * n + u if t else u
            node_id = offsets[t] + node
            digit = (pidx // (m**node_id)) % m
            reward += mu[u, np.take(Z, digit)]
            for j in range(m):
                counts[j] += digit == j
        ok = np.ones(num_policies, dtype=bool)
        for j in range(m):
            ok &= counts[j] >= deltas[j]
        feasible &= ok
        total += prob * reward

    if not feasible.any():
        return NEG_INF
    return float(total[feasible].max())


def brute_matching(aggregate: Aggregate, allowed, committed, instance: Instance):
    """Max utility over every assignment of the aggregate's user slots to
    allowed arms with committed column sums >= delta.  Exponential; the
    definition of correctness for the transportation solver.
    """
    allowed = sorted(set(allowed))
    committed = set(committed)
    if not committed <= set(allowed):
        raise ValueError("committed arms must be a subset of allowed arms")
    tau = aggregate.total
    if sum(instance.delta[a] for a in committed) > tau:
        return NEG_INF
    if not allowed:
        return NEG_INF if tau > 0 else 0.0
    if len(allowed) ** tau > ASSIGNMENT_CAP:
        raise ResourceGuardError(
            f"{len(allowed)}^{tau} assignments exceeds cap {ASSIGNMENT_CAP}"
        )

    mu_eff = _mu_eff(aggregate, instance)
    slots = [
        r for r in range(len(aggregate.counts)) for _ in range(aggregate.counts[r])
    ]
    best = NEG_INF
    for assign in itertools.product(allowed, repeat=tau):
        ok = True
        for a in committed:
            if instance.delta[a] and assign.count(a) < instance.delta[a]:
                ok = False
                break
        if not ok:
            continue
        v = math.fsum(mu_eff[r][a] for r, a in zip(slots, assign))
        if best is NEG_INF or v > best:
            best = v
    return best
