"""Multi-phase planning without up-front commitment.

When phases are long it can pay to harvest an expensive arm in early
phases and deliberately let it depart.  A plan is a chain of arm sets
Z^0 ⊇ Z^1 ⊇ ... ⊇ Z^N over the N phases: phase i may pull the arms of
Z^{i-1} and meets the thresholds of Z^i, and is worth w(Z^{i-1}, Z^i),
the exact value of one assignment on the shaved aggregate.  (Every arm
is there in phase 1; Z^0 only names the arms the plan uses in it.)
Every phase shares the aggregate, and its
:class:`~exposure_bandits.matching.SubsetPrices` values each pair: a
pair whose kept floors the slack row covers is worth U(A), the
threshold-free optimum of its available arms, read in closed form; only
the other pairs are solved, and then the matching of each segment of
the plan, which must have the value its pair was priced at.  A pair is
feasible when its kept thresholds sum to at most tau, whatever arms are
available, so every set a chain keeps also hosts a self-loop (D, D).

Two properties of w make the plan a closed form:

(i)  w(A, K) <= w(A', K) for A ⊆ A': more available arms never hurt.
(ii) For K ⊆ K' ⊆ A ⊆ A',
     w(A', K') - w(A, K') <= w(A', K) - w(A, K).
     For one added kept arm b and one added available arm e, take
     optimal flows y1 of (A+e, K+b) and y2 of (A, K), decompose y1 - y2
     conformally into arm-to-arm paths and move the paths that end at b
     from y1 to y2.  That gives feasible flows of (A, K+b) and (A+e, K)
     of the same total utility: no moved path touches e, as y2 has no
     flow on e, and each start arm keeps at least its y1 count.
     Telescoping extends it to any sets.

By (ii) with K = Q, K' = A = Z and A' = P, two phases that pass
through a set Z, (P, Z) then (Z, Q), are worth at most the hop (P, Q)
and the self-loop (Z, Z).  Take any feasible chain of N >= 2 phases and
D the set of largest self-loop value among Z^1 .. Z^{N-1}, none of them
empty.  Folding the sets before D into the hop to D one at a time
(Q = D), and the sets after D into the drop to the empty set (Q = ∅),
leaves the hop (Z^0, D), N - 2 self-loops, none worth more than
w(D, D), and the drop (D, ∅), worth U(D).  With (i) the chain is worth
at most

    V(D) = w(full, D) + (N - 2) w(D, D) + U(D),

the value of hopping from all arms to D, staying there and dropping to
the empty set.  So the plan's value is the largest V(D).  In an optimal
chain every step above is tight, so each set folded after D has a
self-loop as large as D's; then its last set D' bounds the chain in
D's place, and V(D') is the optimum too.  The sets that can end an
optimal chain are therefore exactly those of largest V.  As
w(full, D) <= U(full) and w(D, D) <= U(D), each set has the bound
V(D) <= U(full) + (N - 1) U(D), read with no solve, and D is found by
:func:`~exposure_bandits.core.best_subset`'s best-first rule: only the
sets whose bound could still win are valued.  Nothing grows with N,
and values compare exactly, as the pairs' integer prices.

The plan is the one an exact DP over the phases picks, each phase's
available set the smallest (fewest arms, then lowest mask) that still
completes an optimal plan, read from the end.  With one phase it is
(X, ∅) for the smallest X with U(X) = U(full).  Otherwise D is the
smallest set of largest V(D); the plan stays at D for N - 1 phases when
that is worth V(D) - U(D), and else hops in from X, the smallest strict
superset of D with w(X, D) = w(full, D), and stays N - 2 phases; then
it drops from D to ∅.  So the plan, a :class:`~exposure_bandits.lcb.Plan`,
has at most three segments: a hop in, one run of stays, one drop.

The online policy is the committed policy's replay
(:class:`~exposure_bandits.lcb.LcbPolicy`) of that plan: each segment's
matching, with the thresholds of the arms the segment keeps.
"""

from __future__ import annotations

from .core import ContractError, Instance, arm_set, best_subset, subset_masks
from .lcb import LcbPolicy, Plan, PlanSegment
from .matching import Aggregate, SubsetPrices, build_lcb_aggregate

__all__ = ["lmatch", "LlcbPolicy"]


def lmatch(instance: Instance, aggregate: Aggregate) -> Plan:
    """The exact plan when every phase has ``aggregate`` (summing to
    tau), over ``instance.phases`` phases: the set D of largest
    w(full, D) + (N - 2) w(D, D) + U(D), ties to the fewest arms, then
    the lowest mask, hopped into from the smallest set that keeps that
    value, kept for the phases between, and dropped in the last phase
    (see the module docstring for why no other chain does better).

    Its search of D refuses more arms than the subset searches allow,
    as :meth:`LlcbPolicy.check` states up front; every single arm fits
    a phase, so a plan always exists.
    """
    if aggregate.total != instance.tau:
        raise ValueError("the phase aggregate must sum to tau")
    k, N = instance.k, instance.phases
    order = subset_masks(k)
    full = (1 << k) - 1
    prices = SubsetPrices(aggregate, instance)
    top = prices.free(full)

    if N == 1:
        X = next(m for m in order if prices.free(m) == top)
        runs = [(X, 0, 1)]
    else:
        def evaluate(D):
            head, loop = prices.exact(full, D), prices.exact(D, D)
            if head < loop:
                raise ContractError(f"allowing every arm lowered the value of keeping {arm_set(D)}")
            return head + (N - 2) * loop + prices.free(D), (head, loop)

        D, (head, loop) = best_subset(instance, lambda D: top + (N - 1) * prices.free(D),
                                      evaluate)
        if loop == head:
            runs = [(D, D, N - 1)]
        else:
            X = next((m for m in order
                      if m & D == D and m != D and prices.exact(m, D) == head), None)
            if X is None:
                raise ContractError("no set hops into the plan's stays at its value")
            runs = [(X, D, 1), (D, D, N - 2)]
        runs.append((D, 0, 1))

    segments = tuple(
        PlanSegment(phases=c, matching=prices.matching(m1, m2),
                    available=arm_set(m1), kept=arm_set(m2))
        for m1, m2, c in runs if c
    )
    return Plan(segments)


class LlcbPolicy(LcbPolicy):
    """The committed replay of the :func:`lmatch` plan, each segment
    with its own matching and kept set.  The plan looks ahead to the
    last phase, so the play depends on the horizon.  It refuses what
    :meth:`LcbPolicy.check` does."""

    horizon_free = False

    def __init__(self, instance: Instance):
        self.check(instance)
        self._commit(instance, lmatch(instance, build_lcb_aggregate(instance.P, instance.tau)))
