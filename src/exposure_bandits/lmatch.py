"""Multi-phase planning without up-front commitment.

When phases are long it can pay to harvest an expensive arm in early
phases and deliberately let it depart.  A plan is a chain of arm sets
Z^0 ⊇ Z^1 ⊇ ... ⊇ Z^N over the N phases: phase i may pull the arms of
Z^{i-1} and meets the thresholds of Z^i, and is worth v(Z^{i-1}, Z^i),
the value of one assignment on the shaved aggregate.  (Every arm is
there in phase 1; Z^0 only names the arms the plan uses in it.)  Every
phase shares the aggregate, so the 3^k ordered pairs (available ⊇ kept)
are valued once each and the horizon only counts how often a pair is
used.  The aggregate's :class:`~exposure_bandits.matching.SubsetPrices`
values each pair: a pair whose kept floors the slack row covers is worth
the threshold-free optimum of its available arms, read in closed form;
only the other pairs are solved, and then the matching of each segment
of the plan, which must have the value its pair was priced at.

A chain is then a walk down the subset lattice: at most k strict drops
("hops") and N minus that many self-loops (phases that keep every
available arm).  Moving a self-loop to another set of the walk changes
only which v(D, D) it earns, so an optimal walk spends all of them at
a set D of largest v(D, D) on its path.  The best i-phase walk ending
at m is therefore worth

    R_i(m) = max over D ⊇ m, h <= min(i, k) of  T_h(D, m) + (i - h) v(D, D)

where T_h(D, m) is the best h-hop path through D to m, a longest path
in the subset DAG.  The table T costs O(k 4^k) additions and nothing
grows with N; values are compared exactly, as the matchings' integer
sums (``Matching.exact``), which share the aggregate's one scale.

The plan is the one an exact DP over the phases picks.  It ends at the
empty set: keeping fewer arms never lowers a phase's value, so the last
phase keeps none.  The chain is read back from the end, each phase's
available set the smallest (fewest arms, then lowest mask) that still
completes an optimal plan.  Read back, the chain stays at a set m for
as long as R_{i-c}(m) + c v(m, m) = R_i(m), which holds for every c up
to some largest one, found by bisection; so the plan comes out as
run-length segments, at most 2k + 1 of them, one per drop and one per
run of self-loops.  The plan holds only these segments, so nothing
its construction keeps grows with N either; ``chain`` and
``total_value`` are derived from them, phase by phase, when read, and
refused for a plan longer than any episode the simulator accepts.
``total_value`` is the exact sum of the phase values, correctly
rounded.

The online policy is the committed policy's replay
(:class:`~exposure_bandits.lcb.LcbPolicy`) over the plan's segments
rather than over one: each segment's matching, with the thresholds of
the arms the segment keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ContractError,
    Instance,
    InfeasibleError,
    NEG_INF,
    ResourceGuardError,
)
from .env import LONGEST_EPISODE
from .lcb import LcbPolicy, PlanSegment
from .matching import Aggregate, SubsetPrices, build_lcb_aggregate

__all__ = ["LmatchPlan", "plan_pairs", "lmatch", "LlcbPolicy"]

PAIR_CAP = 10**6


def plan_pairs(k: int) -> int:
    """Ordered (available, kept) subset pairs the plan values, 3^k;
    raises ResourceGuardError when that exceeds PAIR_CAP."""
    pairs = 3**k
    if pairs > PAIR_CAP:
        raise ResourceGuardError(f"3^{k} subset pairs exceed cap {PAIR_CAP}")
    return pairs


@dataclass(frozen=True)
class LmatchPlan:
    """Exact plan over all phases.

    ``segments`` cover the phases in order.  Derived from them, one
    entry per phase: ``chain`` lists the planned surviving sets Z^0
    down to Z^N (nested nonincreasing), and ``total_value`` is the
    plan's value, summed phase by phase.  Both raise
    ``ResourceGuardError`` before building anything per phase when the
    plan has more phases than the longest episode the simulator accepts
    has rounds.
    """

    segments: tuple[PlanSegment, ...]

    def _phases(self) -> list[int]:
        """Each segment's phases, once the plan is known to be no longer
        than the longest episode the simulator accepts."""
        phases = [s.phases for s in self.segments]
        if sum(phases) > LONGEST_EPISODE:
            raise ResourceGuardError(
                f"a plan of {sum(phases)} phases is longer than any episode "
                f"the simulator accepts ({LONGEST_EPISODE} rounds)"
            )
        return phases

    @property
    def total_value(self) -> float:
        """The exact sum of the phase values, correctly rounded."""
        exact = sum(c * s.matching.exact for s, c in zip(self.segments, self._phases()))
        return exact / self.segments[0].matching.scale

    @property
    def chain(self) -> tuple[frozenset, ...]:
        """Z^0, then the set kept after each phase, phase 1 first."""
        return (self.segments[0].available,
                *(s.kept for s, c in zip(self.segments, self._phases()) for _ in range(c)))


def _mask_set(mask: int, k: int) -> frozenset:
    return frozenset(a for a in range(k) if mask & (1 << a))


def _submasks(mask: int):
    """Every submask of mask, mask itself first, down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def lmatch(instance: Instance, aggregate: Aggregate) -> LmatchPlan:
    """The exact plan when every phase has ``aggregate`` (summing to
    tau), over ``instance.phases`` phases.

    Raises InfeasibleError when no chain keeps a feasible matching in
    every phase, ResourceGuardError for more than PAIR_CAP subset pairs.
    """
    if aggregate.total != instance.tau:
        raise ValueError("the phase aggregate must sum to tau")
    k, N = instance.k, instance.phases
    plan_pairs(k)
    full = (1 << k) - 1
    sets = [_mask_set(m, k) for m in range(full + 1)]
    pop = [bin(m).count("1") for m in range(full + 1)]

    # exact phase values of the feasible pairs, all on the aggregate's
    # one integer scale; no pair is feasible with no arm available, as
    # tau >= 1
    prices = SubsetPrices(aggregate, instance)
    w: dict[tuple[int, int], int] = {}
    for m1 in range(1, full + 1):
        for m2 in _submasks(m1):  # m1 itself first
            v = prices.exact(m1, m2)
            if v is NEG_INF:
                continue
            w[m1, m2] = v
            # shrinking the kept set can only help the phase value
            if (m1, m1) in w and v < w[m1, m1]:
                raise ContractError(
                    f"keeping {sets[m2]} of {sets[m1]} lowered the phase "
                    f"value below keeping them all"
                )

    # T[D, m][h]: best h-hop walk through D to m, starting at any set;
    # supersets first, so every set a walk leaves is done before the
    # sets it enters
    order = sorted(range(full + 1), key=lambda m: -pop[m])
    T: dict[tuple[int, int], list] = {}

    def extend(row, prev, step):
        for h in range(k):
            if prev[h] is not None and (row[h + 1] is None or prev[h] + step > row[h + 1]):
                row[h + 1] = prev[h] + step

    for D in order:
        row = [0] + [None] * k
        for S in _submasks(full & ~D):
            if S and (S | D, D) in w:
                extend(row, T[S | D, S | D], w[S | D, D])
        T[D, D] = row
        if (D, D) not in w:
            continue  # D hosts no self-loop, so no walk needs to pass it
        for m in sorted(_submasks(D), key=lambda m: -pop[m])[1:]:
            row = [None] * (k + 1)
            for S in _submasks(D & ~m):
                if S and (S | m, m) in w:
                    extend(row, T[D, S | m], w[S | m, m])
            T[D, m] = row

    hosts = {
        m: [(w.get((m | S, m | S)), T[m | S, m]) for S in _submasks(full & ~m)
            if (m | S, m) in T]
        for m in range(full + 1)
    }

    def best(i: int, m: int):
        """R_i(m), or None when no i-phase walk ends at m."""
        out = None
        for loop, row in hosts[m]:
            for h in range(min(i, k) + 1):
                v = row[h]
                if v is None or (h < i and loop is None):
                    continue
                if h < i:
                    v += (i - h) * loop
                if out is None or v > out:
                    out = v
        return out

    m = 0
    value = best(N, m)
    if value is None:
        raise InfeasibleError("no feasible multi-phase plan")

    # read the chain back from the end: (available, kept, phases) runs
    runs = []
    i = N
    while i > 0:
        loop = w.get((m, m))
        if loop is not None:
            lo, hi = 0, i  # stays of lo phases complete an optimal plan
            while lo < hi:
                mid = (lo + hi + 1) // 2
                v = best(i - mid, m)
                if v is not None and v + mid * loop == value:
                    lo = mid
                else:
                    hi = mid - 1
            if lo:
                runs.append((m, m, lo))
                i -= lo
                value -= lo * loop
        if i == 0:
            break
        ups = sorted((m | S for S in _submasks(full & ~m) if S),
                     key=lambda s: (pop[s], s))
        for m1 in ups:
            step = w.get((m1, m))
            v = best(i - 1, m1) if step is not None else None
            if v is not None and v + step == value:
                break
        else:
            raise ContractError("the plan's chain could not be read back")
        runs.append((m1, m, 1))
        i -= 1
        value = v
        m = m1
    runs.reverse()

    segments = tuple(
        PlanSegment(phases=c, matching=prices.matching(m1, m2),
                    available=sets[m1], kept=sets[m2])
        for m1, m2, c in runs
    )
    return LmatchPlan(segments=segments)


class LlcbPolicy(LcbPolicy):
    """The committed replay over the segments of the :func:`lmatch`
    plan, each with its own matching and kept set.  The plan looks
    ahead to the last phase, so the play depends on the horizon."""

    horizon_free = False

    def __init__(self, instance: Instance):
        self.plan = lmatch(instance, build_lcb_aggregate(instance.P, instance.tau))
        self._commit(instance, self.plan.segments)
