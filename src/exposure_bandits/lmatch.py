"""Multi-phase planning without up-front commitment.

When phases are long it can pay to harvest an expensive arm in early
phases and deliberately let it depart.  The planner runs an exact DP
over phases: r[i][Z] is the best total reward of the first i phases
among plans whose surviving arm set after phase i contains Z.  Each
transition maximizes over ordered subset pairs Z2 (kept) inside Z1
(available), so one phase costs 3^k assignment solves.

The online policy replays the planned per-phase matchings with the same
slack-row and bad-event stepping as the committed policy, just with a
different matrix (and effective thresholds) each phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    NEG_INF,
    ContractError,
    Instance,
    InfeasibleError,
    ResourceGuardError,
    validate,
)
from .env import CommittedPolicy
from .lcb import LcbState, lcb_policy_step, lcb_replay
from .matching import Aggregate, Matching, build_lcb_aggregate, doalg

__all__ = ["LmatchPlan", "plan_pairs", "lmatch", "LlcbPolicy"]

PAIR_CAP = 10**6


def plan_pairs(k: int, phases: int) -> int:
    """Ordered (available, kept) subset pairs the plan weighs over all
    phases, 3^k per phase; raises ResourceGuardError when that exceeds
    PAIR_CAP."""
    pairs = 3**k * phases
    if pairs > PAIR_CAP:
        raise ResourceGuardError(
            f"3^k pairs per phase over {phases} phases exceeds cap {PAIR_CAP}"
        )
    return pairs


@dataclass(frozen=True)
class LmatchPlan:
    """Exact plan over all phases.

    ``r[i][mask]`` is the DP table (i from 0 to the phase count);
    ``chain`` lists the planned surviving sets Z^0 down to Z^N (nested
    nonincreasing); ``matchings[i]`` is executed in phase i+1 with
    columns inside chain[i] and thresholds enforced for chain[i+1].
    """

    r: tuple
    matchings: tuple[Matching, ...]
    chain: tuple[frozenset, ...]
    total_value: float


def _mask_set(mask: int, k: int) -> frozenset:
    return frozenset(a for a in range(k) if mask & (1 << a))


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


def lmatch(instance: Instance, phase_aggregates) -> LmatchPlan:
    """Exact DP over per-phase aggregates (one per phase, summing to tau).

    Returns the plan with the chain and matchings reconstructed from
    backpointers; the sentinel propagates through branches whose kept
    set cannot fit its thresholds.
    """
    validate(instance)
    aggs = list(phase_aggregates)
    N = len(aggs)
    if N != instance.phases:
        raise ValueError(
            f"need one aggregate per phase: got {N}, expected {instance.phases}"
        )
    for agg in aggs:
        if agg.total != instance.tau:
            raise ValueError("each phase aggregate must sum to tau")
    k = instance.k
    plan_pairs(k, N)
    full = (1 << k) - 1

    # doalg is pure; identical (aggregate, Z1, Z2) triples repeat across
    # phases whenever aggregates repeat, so memoize on the triple
    cache: dict[tuple, object] = {}

    def solve(agg: Aggregate, m1: int, m2: int):
        key = (agg.counts, m1, m2)
        hit = cache.get(key)
        if hit is None:
            hit = doalg(agg, _mask_set(m1, k), _mask_set(m2, k), instance)
            cache[key] = hit
        return hit

    r = [[NEG_INF] * (full + 1) for _ in range(N + 1)]
    r[0] = [0.0] * (full + 1)
    bp: list[list[int]] = [[-1] * (full + 1) for _ in range(N + 1)]

    for i in range(1, N + 1):
        agg = aggs[i - 1]
        diag = [solve(agg, m, m) for m in range(full + 1)]
        for m2 in range(full + 1):
            best = NEG_INF
            best_m1 = -1
            for m1 in _supersets_ordered(m2, full):
                prev = r[i - 1][m1]
                if prev is NEG_INF:
                    continue
                match = solve(agg, m1, m2)
                if match is NEG_INF:
                    continue
                # shrinking the kept set can only help the phase value
                d = diag[m1]
                if d is not NEG_INF and match.value < d.value - 1e-9:
                    raise ContractError(
                        f"keeping {_mask_set(m2, k)} of {_mask_set(m1, k)} "
                        f"lowered the phase value below keeping them all"
                    )
                v = match.value + prev
                if best is NEG_INF or v > best:
                    best, best_m1 = v, m1
            r[i][m2] = best
            bp[i][m2] = best_m1

    final = max(
        range(full + 1),
        key=lambda m: (
            r[N][m] is not NEG_INF,
            r[N][m] if r[N][m] is not NEG_INF else 0.0,
            -bin(m).count("1"),
            -m,
        ),
    )
    if r[N][final] is NEG_INF:
        raise InfeasibleError("no feasible multi-phase plan")

    masks = [final]
    for i in range(N, 0, -1):
        masks.append(bp[i][masks[-1]])
    masks.reverse()
    matchings = tuple(
        solve(aggs[i], masks[i], masks[i + 1]) for i in range(N)
    )
    total = r[N][final]
    chain = tuple(_mask_set(m, k) for m in masks)
    return LmatchPlan(
        r=tuple(tuple(row) for row in r),
        matchings=matchings,
        chain=chain,
        total_value=float(total),
    )


class LlcbPolicy(CommittedPolicy):
    """Phase-varying replay of the planner's matchings.

    Phase i uses matching i with thresholds enforced only for the arms
    planned to survive it; stepping (slack row, bad events) is shared
    with the committed policy.
    """

    wants_feedback = False

    def __init__(self, instance: Instance):
        validate(instance)
        agg = build_lcb_aggregate(instance.P, instance.tau)
        self.instance = instance
        self.plan = lmatch(instance, [agg] * instance.phases)
        mu = [list(row) for row in instance.mu]
        self._states = []
        for i, match in enumerate(self.plan.matchings):
            kept = self.plan.chain[i + 1]
            deltas_eff = [
                instance.delta[a] if a in kept else 0 for a in range(instance.k)
            ]
            self._states.append(LcbState(match, mu, deltas_eff, ustar=instance.n))
        self._tau = instance.tau
        self.bad_event_phases: list[int] = []

    def start(self, rng) -> None:
        super().start(rng)
        for s in self._states:
            s.reset()
        self.bad_event_phases = []
        self._current = None

    def choose(self, t: int, u: int, viable: frozenset) -> int | None:
        if t % self._tau == 0:
            self._current = self._states[t // self._tau]
            self._current.reset()
        state = self._current
        flagged = state.bad_event_flag
        arm = lcb_policy_step(state, u)
        if state.bad_event_flag and not flagged:
            self.bad_event_phases.append(t // self._tau + 1)
        return arm

    def plan_phases(self, arrivals: np.ndarray) -> np.ndarray:
        """Every phase's replay of its own planned matching at once,
        through :func:`~exposure_bandits.lcb.lcb_replay` (see
        :class:`~exposure_bandits.env.CommittedPolicy`)."""
        M = np.array([m.M for m in self.plan.matchings])
        deltas = [s.deltas_eff for s in self._states]
        pulls, self.bad_event_phases = lcb_replay(
            M, self.instance.mu, deltas, self.instance.n, arrivals
        )
        return pulls
