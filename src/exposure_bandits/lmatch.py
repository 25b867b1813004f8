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
grows with N; values are compared exactly, as the pairs' integer
prices, which share the aggregate's one scale.

The plan is the one an exact DP over the phases picks.  It ends at the
empty set: keeping fewer arms never lowers a phase's value, so the last
phase keeps none.  The chain is read back from the end, each phase's
available set the smallest (fewest arms, then lowest mask) that still
completes an optimal plan.  At a set m with i phases left, the chain
stays at m i - h times, for the fewest hops h with
T_h(m, m) + (i - h) v(m, m) the value left: an optimal plan keeps all
its stays at one set, and a loop above m could move down to m, so the
most stays at m leave a loop-free walk to m.  So the plan, a
:class:`~exposure_bandits.lcb.Plan`, comes out as run-length segments,
at most 2k + 1 of them, one per drop and one per run of self-loops, and
nothing its construction keeps grows with N either.

The online policy is the committed policy's replay
(:class:`~exposure_bandits.lcb.LcbPolicy`) of that plan: each segment's
matching, with the thresholds of the arms the segment keeps.
"""

from __future__ import annotations

from .core import (
    ContractError,
    Instance,
    InfeasibleError,
    NEG_INF,
    ResourceGuardError,
)
from .lcb import LcbPolicy, Plan, PlanSegment
from .matching import Aggregate, SubsetPrices, build_lcb_aggregate

__all__ = ["plan_pairs", "lmatch", "LlcbPolicy"]

PAIR_CAP = 10**6


def plan_pairs(k: int) -> int:
    """Ordered (available, kept) subset pairs the plan values, 3^k;
    raises ResourceGuardError when that exceeds PAIR_CAP."""
    pairs = 3**k
    if pairs > PAIR_CAP:
        raise ResourceGuardError(f"3^{k} subset pairs exceed cap {PAIR_CAP}")
    return pairs


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


def lmatch(instance: Instance, aggregate: Aggregate) -> Plan:
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

    def best(i: int, m: int):
        """R_i(m), or None when no i-phase walk ends at m."""
        out = None
        for S in _submasks(full & ~m):
            row = T.get((m | S, m))
            if row is None:
                continue
            loop = w.get((m | S, m | S))
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
            row = T[m, m]  # the most stays leave the fewest hops
            h = next((h for h in range(min(i, k) + 1)
                      if row[h] is not None and row[h] + (i - h) * loop == value), i)
            if h < i:
                runs.append((m, m, i - h))
                value -= (i - h) * loop
                i = h
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
    return Plan(segments)


class LlcbPolicy(LcbPolicy):
    """The committed replay of the :func:`lmatch` plan, each segment
    with its own matching and kept set.  The plan looks ahead to the
    last phase, so the play depends on the horizon."""

    horizon_free = False

    def __init__(self, instance: Instance):
        self._commit(instance, lmatch(instance, build_lcb_aggregate(instance.P, instance.tau)))
