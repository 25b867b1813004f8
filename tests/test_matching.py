from __future__ import annotations

import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exposure_bandits import (
    NEG_INF,
    Aggregate,
    ContractError,
    ResourceGuardError,
    brute_matching,
    build_lcb_aggregate,
    doalg,
    doalg_graph_reference,
    Matching,
)
from exposure_bandits.matching import (
    _MANDATORY_BONUS,
    SubsetPrices,
    _FlowGraph,
    _mu_eff,
    _scaled,
)
from conftest import (
    make_instance,
    phase_aggregates,
    random_counts,
    random_instance,
    scaled_mu,
    simplex,
    subsets,
    tie_prone_instances,
    utility_rows,
)


def test_aggregate_shaves_each_type_by_the_confidence_width():
    agg = build_lcb_aggregate((0.5, 0.5), 100)
    assert agg.counts == (28, 28, 44)
    assert agg.has_slack
    assert agg.total == 100
    width = math.sqrt(100 * math.log(100))
    assert agg.counts[0] == max(0, math.floor(50 - width))


def test_aggregate_single_type():
    agg = build_lcb_aggregate((1.0,), 4)
    assert agg.counts == (1, 3)


def test_aggregate_floors_at_zero_for_rare_types():
    agg = build_lcb_aggregate((0.95, 0.05), 100)
    assert agg.counts[1] == 0
    assert agg.counts[-1] == 100 - agg.counts[0]


def test_aggregate_needs_two_rounds():
    with pytest.raises(ValueError):
        build_lcb_aggregate((1.0,), 1)


def test_identity_matching_value():
    inst = make_instance(tau=2, phases=1, delta=(1, 1))
    agg = Aggregate(counts=(1, 1), has_slack=False)
    full = frozenset({0, 1})
    m = doalg(agg, full, full, inst)
    assert m.value == 2.0
    assert [sum(col) for col in zip(*m.M)] == [1, 1]
    ref = doalg_graph_reference(agg, full, inst)
    assert ref.value == 2.0


def test_committed_must_be_within_allowed():
    inst = make_instance(tau=2, phases=1, delta=(1, 1))
    agg = Aggregate(counts=(1, 1), has_slack=False)
    with pytest.raises(ValueError):
        doalg(agg, frozenset({0}), frozenset({0, 1}), inst)
    # a price refuses the pairs the solve refuses: here the available
    # set {0} does not hold the kept arm {1}
    inst = make_instance(tau=100, delta=(10, 10))
    prices = SubsetPrices(build_lcb_aggregate(inst.P, 100), inst)
    for read in (prices.value, prices.exact, prices.matching):
        with pytest.raises(ValueError, match="subset of allowed"):
            read(0b01, 0b10)


def test_sentinel_when_commitment_cannot_fit():
    inst = make_instance(tau=4, phases=1, delta=(3, 3))
    agg = Aggregate(counts=(2, 2), has_slack=False)
    assert doalg(agg, frozenset({0, 1}), frozenset({0, 1}), inst) is NEG_INF
    assert doalg(agg, frozenset(), frozenset(), inst) is NEG_INF
    # no pulls and no arm: k zero columns on the utilities' own scale
    inst = make_instance(tau=4, phases=1, mu=((0.5, 0.25), (0.25, 0.5)))
    empty = Aggregate(counts=(0, 0), has_slack=False)
    scale = doalg(empty, {0}, set(), inst).scale
    assert scale == 4
    for m in (doalg(empty, set(), set(), inst),
              doalg_graph_reference(empty, set(), inst)):
        assert m.M == ((0, 0), (0, 0))
        assert (m.exact, m.scale) == (0, scale)


def test_the_graph_reference_refuses_large_graphs_and_unfit_commitments():
    # tau copies of each allowed arm: 121 * 2 nodes exceed its cap of 240
    inst = make_instance(tau=121, phases=1, delta=(0, 0))
    agg = Aggregate(counts=(60, 61), has_slack=False)
    with pytest.raises(ResourceGuardError, match="240"):
        doalg_graph_reference(agg, {0, 1}, inst)
    assert doalg_graph_reference(agg, {0}, inst).value == 60.0
    # thresholds of 3 + 3 do not fit a phase of 4 rounds; either alone does
    inst = make_instance(tau=4, phases=1, delta=(3, 3))
    agg = Aggregate(counts=(2, 2), has_slack=False)
    assert doalg_graph_reference(agg, {0, 1}, inst) is NEG_INF
    assert doalg_graph_reference(agg, {0}, inst).value == 2.0


def test_committed_columns_meet_their_thresholds():
    rng = np.random.default_rng(21)
    for _ in range(60):
        inst = random_instance(rng, tau_max=8)
        agg = build_lcb_aggregate(inst.P, inst.tau)
        for Z in subsets(inst.k):
            m = doalg(agg, Z, Z, inst)
            if m is NEG_INF:
                assert sum(inst.delta[a] for a in Z) > inst.tau
                continue
            columns = [sum(col) for col in zip(*m.M)]
            for a in Z:
                assert columns[a] >= inst.delta[a]
            outside = set(range(inst.k)) - Z
            for a in outside:
                assert columns[a] == 0


def test_matching_agrees_with_exhaustive_assignment():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(60):
        inst = random_instance(rng, tau_max=6, dyadic=True,
                               delta_sum_within_tau=False)
        agg = Aggregate(counts=random_counts(rng, inst.n, inst.tau),
                        has_slack=False)
        arm_sets = subsets(inst.k)
        allowed = arm_sets[int(rng.integers(len(arm_sets)))]
        committed = frozenset(a for a in allowed if rng.random() < 0.5)
        fast = doalg(agg, allowed, committed, inst)
        slow = brute_matching(agg, allowed, committed, inst)
        if fast is NEG_INF or slow is NEG_INF:
            assert fast is slow
        else:
            # dyadic means: both sides are exact, demand equality
            assert fast.value == slow
        checked += 1
    assert checked == 60


def test_matching_agrees_with_the_assignment_solver():
    rng = np.random.default_rng(23)
    for _ in range(40):
        inst = random_instance(rng, tau_max=8)
        agg = build_lcb_aggregate(inst.P, inst.tau)
        arm_sets = subsets(inst.k)
        allowed = arm_sets[int(rng.integers(len(arm_sets)))]
        fast = doalg(agg, allowed, allowed, inst)
        ref = doalg_graph_reference(agg, allowed, inst)
        if fast is NEG_INF or ref is NEG_INF:
            assert fast is ref
        else:
            assert fast.value == pytest.approx(ref.value, abs=1e-9)


def test_the_graph_reference_keeps_utilities_far_below_the_bonus():
    # 2 + 2^-61 rounds to 2 in floats, so unscaled weights would tie the
    # two arms; both arms committed, the slack row pays arm 0's floor
    mu = ((math.ldexp(0.5, -60), math.ldexp(0.75, -60)),)
    inst = make_instance(n=1, k=2, tau=7, phases=1, P=(1.0,), delta=(5, 2), mu=mu)
    agg = Aggregate(counts=(3, 4), has_slack=True)
    both = frozenset({0, 1})
    ref = doalg_graph_reference(agg, both, inst)
    assert ref.exact == doalg(agg, both, both, inst).exact
    assert ref.value == math.ldexp(1.0, -59)


def test_committing_more_never_helps():
    rng = np.random.default_rng(24)
    for _ in range(60):
        inst = random_instance(rng, tau_max=8, delta_sum_within_tau=False)
        agg = build_lcb_aggregate(inst.P, inst.tau)
        full = frozenset(range(inst.k))
        values = {}
        for Z in [frozenset()] + subsets(inst.k):
            m = doalg(agg, full, Z, inst)
            values[Z] = -math.inf if m is NEG_INF else m.value
        for Z, v in values.items():
            for a in full - Z:
                assert values[Z | {a}] <= v


def test_allowing_more_never_hurts():
    rng = np.random.default_rng(25)
    for _ in range(60):
        inst = random_instance(rng, tau_max=8)
        agg = build_lcb_aggregate(inst.P, inst.tau)
        for Z in subsets(inst.k):
            m_small = doalg(agg, Z, frozenset(), inst)
            m_full = doalg(agg, frozenset(range(inst.k)), frozenset(), inst)
            small = -math.inf if m_small is NEG_INF else m_small.value
            big = -math.inf if m_full is NEG_INF else m_full.value
            assert big >= small


def test_matching_entries_are_consistent():
    rng = np.random.default_rng(26)
    for _ in range(30):
        inst = random_instance(rng, tau_max=8)
        agg = build_lcb_aggregate(inst.P, inst.tau)
        full = frozenset(range(inst.k))
        m = doalg(agg, full, full, inst)
        if m is NEG_INF:
            continue
        assert all(x >= 0 for row in m.M for x in row)
        for i, row in enumerate(m.M):
            assert sum(row) <= agg.counts[i]
        total = math.fsum(
            m.M[u][a] * inst.mu[u][a]
            for u in range(inst.n) for a in range(inst.k)
        )
        assert m.value == pytest.approx(total, abs=1e-9)


class _DictFlowGraph:
    """The successive-shortest-path solve in its plain first form: every
    arc scanned on every pass, flows looked up by (tail, head).  The
    solver scans the same way, so what this checks is :func:`doalg`'s
    graph layout and its reads of each flow by arc id."""

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to, self.cap, self.cost = [], [], []
        self.flow_index = {}

    def add_edge(self, u, v, cap, cost):
        self.flow_index[(u, v)] = len(self.to)
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)

    def flow_between(self, u, v):
        e = self.flow_index.get((u, v))
        return self.cap[e ^ 1] if e is not None else 0

    def solve_from_supplies(self, supplies, sink):
        src = self.n
        self.n += 1
        self.head.append([])
        for i, s in enumerate(supplies):
            self.add_edge(src, i, s, 0)
        need = sum(supplies)
        INF = float("inf")
        pot = [INF] * self.n
        pot[src] = 0
        for _ in range(self.n - 1):
            changed = False
            for u in range(self.n):
                pu = pot[u]
                if pu == INF:
                    continue
                for e in self.head[u]:
                    if self.cap[e] > 0 and pu + self.cost[e] < pot[self.to[e]]:
                        pot[self.to[e]] = pu + self.cost[e]
                        changed = True
            if not changed:
                break
        while need > 0:
            dist = [INF] * self.n
            prev_edge = [-1] * self.n
            dist[src] = 0
            pq = [(0, src)]
            while pq:
                d, u = heapq.heappop(pq)
                if d > dist[u]:
                    continue
                for e in self.head[u]:
                    if self.cap[e] <= 0:
                        continue
                    v = self.to[e]
                    nd = d + self.cost[e] + pot[u] - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = e
                        heapq.heappush(pq, (nd, v))
            assert dist[sink] < INF
            for v in range(self.n):
                if dist[v] < INF:
                    pot[v] += dist[v]
            push = need
            v = sink
            while v != src:
                e = prev_edge[v]
                push = min(push, self.cap[e])
                v = self.to[e ^ 1]
            v = sink
            while v != src:
                e = prev_edge[v]
                self.cap[e] -= push
                self.cap[e ^ 1] += push
                v = self.to[e ^ 1]
            need -= push


def dict_flow_doalg(aggregate, allowed, committed, instance):
    """doalg's graph, built and read through :class:`_DictFlowGraph`."""
    tau = aggregate.total
    if sum(instance.delta[a] for a in committed) > tau or not allowed:
        return NEG_INF
    # the solver's own integer costs, so only its bookkeeping is compared
    scale, weights = scaled = _scaled(_mu_eff(aggregate, instance))
    arms = sorted(allowed)
    rows = [r for r in range(len(aggregate.counts)) if aggregate.counts[r] > 0]
    n_rows = len(rows)
    mand = {a: n_rows + 2 * i for i, a in enumerate(arms)}
    over = {a: n_rows + 2 * i + 1 for i, a in enumerate(arms)}
    sink = n_rows + 2 * len(arms)
    graph = _DictFlowGraph(sink + 1)
    for i, r in enumerate(rows):
        for a in arms:
            graph.add_edge(i, mand[a], tau, -weights[r][a])
            graph.add_edge(i, over[a], tau, -weights[r][a])
    for a in arms:
        d = instance.delta[a] if a in committed else 0
        if d:
            graph.add_edge(mand[a], sink, d, -_MANDATORY_BONUS * scale)
        graph.add_edge(over[a], sink, tau, 0)
    graph.solve_from_supplies([aggregate.counts[r] for r in rows], sink)
    M = [[0] * instance.k for _ in aggregate.counts]
    for i, r in enumerate(rows):
        for a in arms:
            M[r][a] = graph.flow_between(i, mand[a]) + graph.flow_between(i, over[a])
    return Matching.from_matrix(M, scaled)


def assert_same_matching(agg, allowed, committed, inst):
    fast = doalg(agg, allowed, committed, inst)
    ref = dict_flow_doalg(agg, allowed, committed, inst)
    if fast is NEG_INF or ref is NEG_INF:
        assert fast is ref
        return
    # every field, exactly: equal-utility arms must split the same way
    assert fast.M == ref.M
    assert fast.value.hex() == ref.value.hex()


@settings(max_examples=200, deadline=None)
@given(tie_prone_instances(), st.data())
def test_doalg_matches_the_dict_flow_solve_on_tie_prone_aggregates(inst, data):
    counts = data.draw(st.lists(st.integers(0, inst.tau), min_size=inst.n,
                                max_size=inst.n))
    slack = inst.tau - sum(counts)
    if slack >= 0:
        agg = Aggregate(counts=tuple(counts) + (slack,), has_slack=True)
    else:
        agg = build_lcb_aggregate(inst.P, inst.tau)
    arms = range(inst.k)
    allowed = frozenset(a for a in arms if data.draw(st.booleans()))
    committed = frozenset(a for a in allowed if data.draw(st.booleans()))
    assert_same_matching(agg, allowed, committed, inst)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 1080))
def test_a_matching_value_is_its_exact_sum_correctly_rounded(data, j):
    # full-mantissa utilities scaled by 2^-j, down through the subnormals,
    # and counts large enough that the products round
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    tau = data.draw(st.integers(3, 400))
    utility = st.floats(0.0, 1.0).map(lambda v: math.ldexp(v, -j))
    mu = [data.draw(st.lists(utility, min_size=k, max_size=k)) for _ in range(n)]
    inst = make_instance(n=n, k=k, tau=tau, phases=1, mu=mu)
    counts, left = [], tau
    for _ in range(n):
        counts.append(data.draw(st.integers(0, left)))
        left -= counts[-1]
    agg = Aggregate(counts=(*counts, left), has_slack=True)
    allowed = frozenset(a for a in range(k) if data.draw(st.booleans())) or frozenset({0})
    m = doalg(agg, allowed, frozenset(), inst)
    exact = sum(Fraction(c) * Fraction(v)
                for row, mu_row in zip(m.M, _mu_eff(agg, inst))
                for c, v in zip(row, mu_row))
    assert Fraction(m.exact, m.scale) == exact
    assert m.value == float(exact)


def test_utilities_near_zero_are_not_tied_with_zero():
    # 5.33e-15 is below any absolute tolerance: with one, the solve ties
    # the two arms and leaves every pull on arm 0
    inst = make_instance(n=1, k=2, tau=7, phases=1, P=(1.0,), delta=(5, 2),
                         mu=((0.0, 5.33e-15),))
    agg = Aggregate(counts=(3, 4), has_slack=True)
    m = doalg(agg, frozenset({0, 1}), frozenset(), inst)
    assert m.value == brute_matching(agg, frozenset({0, 1}), frozenset(), inst)
    assert m.M[0] == (0, 3)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 60))
def test_doalg_is_optimal_on_utilities_scaled_by_a_power_of_two(data, j):
    # the exact sum of the best assignment, correctly rounded, is what
    # brute_matching's fsum of its best assignment gives
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    tau = data.draw(st.integers(2, 7))
    delta = [data.draw(st.integers(0, tau)) for _ in range(k)]
    inst = scaled_mu(make_instance(n=n, k=k, tau=tau, phases=1, delta=tuple(delta),
                                   P=data.draw(simplex(n)), mu=data.draw(utility_rows(n, k))), j)
    counts, left = [], tau
    for _ in range(n):
        counts.append(data.draw(st.integers(0, left)))
        left -= counts[-1]
    agg = Aggregate(counts=(*counts, left), has_slack=True)
    allowed = frozenset(a for a in range(k) if data.draw(st.booleans()))
    committed = frozenset(a for a in allowed if data.draw(st.booleans()))
    fast = doalg(agg, allowed, committed, inst)
    slow = brute_matching(agg, allowed, committed, inst)
    if fast is NEG_INF or slow is NEG_INF:
        assert fast is slow
    else:
        assert fast.value == slow


def value_of(matching) -> float:
    """A matching's value, with ``NEG_INF`` read as minus infinity."""
    return -math.inf if matching is NEG_INF else matching.value


@settings(max_examples=300, deadline=None)
@given(tie_prone_instances(), st.data())
def test_doalg_value_is_monotone_in_allowed_and_committed(inst, data):
    # one aggregate; three nested arm sets small <= middle <= large.  The
    # values are exact optima, correctly rounded, so no margin is needed
    counts = data.draw(st.lists(st.integers(0, inst.tau), min_size=inst.n,
                                max_size=inst.n))
    slack = inst.tau - sum(counts)
    if slack >= 0:
        agg = Aggregate(counts=tuple(counts) + (slack,), has_slack=True)
    else:
        agg = build_lcb_aggregate(inst.P, inst.tau)
    large = frozenset(a for a in range(inst.k) if data.draw(st.booleans()))
    middle = frozenset(a for a in large if data.draw(st.booleans()))
    small = frozenset(a for a in middle if data.draw(st.booleans()))
    # more allowed arms, the same committed ones: never worse
    assert value_of(doalg(agg, large, small, inst)) >= value_of(doalg(agg, middle, small, inst))
    # more committed arms within the same allowed ones: never better
    assert value_of(doalg(agg, large, middle, inst)) <= value_of(doalg(agg, large, small, inst))


def test_doalg_matches_the_dict_flow_solve_on_wide_aggregates():
    # more arms and longer phases than the property test reaches, half of
    # them on a four-value utility grid where ties are common
    rng = np.random.default_rng(27)
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    for i in range(40):
        n, k, tau = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(2, 120))
        if i % 2:
            mu = tuple(tuple(float(v) for v in rng.choice(grid, size=k)) for _ in range(n))
        else:
            mu = tuple(tuple(float(v) for v in rng.random(k)) for _ in range(n))
        inst = make_instance(n=n, k=k, tau=tau, phases=1, mu=mu,
                             delta=tuple(int(d) for d in rng.integers(0, tau // 2 + 1, size=k)))
        agg = Aggregate(counts=random_counts(rng, n, tau), has_slack=False)
        if agg.total < tau:
            agg = Aggregate(counts=agg.counts + (tau - agg.total,), has_slack=True)
        allowed = frozenset(a for a in range(k) if rng.random() < 0.8) or frozenset({0})
        committed = frozenset(a for a in allowed if rng.random() < 0.5)
        assert_same_matching(agg, allowed, committed, inst)


def test_an_infeasible_flow_breaks_the_contract():
    # one unit of supply at node 0 and no arc to the sink, node 1
    with pytest.raises(ContractError, match="unexpectedly infeasible"):
        _FlowGraph(2).solve_from_supplies([1], 1)


@st.composite
def priced_aggregates(draw):
    """An instance of at most four arms with tie-prone, dyadic or
    full-mantissa utilities times 2^-j, and an aggregate of its tau
    pulls, with or without a slack row."""
    j = draw(st.sampled_from((0, 1, 7, 30, 60)))
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    tau = draw(st.integers(2, 12))
    delta = tuple(draw(st.integers(0, tau)) for _ in range(k))
    inst = scaled_mu(make_instance(n=n, k=k, tau=tau, phases=1, delta=delta,
                                   P=draw(simplex(n)), mu=draw(utility_rows(n, k))), j)
    return inst, draw(phase_aggregates(n, tau))


@settings(max_examples=400, deadline=None)
@given(priced_aggregates(), st.data())
def test_a_priced_pair_has_the_value_of_its_solve(setting, data):
    # a random pair (available A, kept K <= A): where the closed form
    # applies it is doalg's exact optimum, so there the pair is
    # feasible, and no solve on A beats U(A); the pair's exact value and
    # matching are the solve's, solved once
    inst, agg = setting
    k = inst.k
    A = data.draw(st.integers(0, 2**k - 1))
    K = A & data.draw(st.integers(0, 2**k - 1))
    prices = SubsetPrices(agg, inst)
    v = prices.value(A, K)
    arms = [frozenset(a for a in range(k) if m >> a & 1) for m in (A, K)]
    m = doalg(agg, *arms, inst)
    if A and not K:
        # no floor to meet: the threshold-free optimum is always priced
        assert v is not None
    if v is not None:
        assert m is not NEG_INF
        assert (m.exact, m.scale) == (v, prices.scale)
    if A and m is not NEG_INF:
        assert m.exact <= prices.free(A)
    solves = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("exposure_bandits.matching.doalg",
                      lambda *args: solves.append(args) or doalg(*args))
        exact = prices.exact(A, K)
        first = prices.matching(A, K)
        again = prices.matching(A, K)
    assert exact is NEG_INF if m is NEG_INF else exact == m.exact
    assert first == m and again is first
    assert len(solves) == 1


@settings(max_examples=300, deadline=None)
@given(priced_aggregates())
def test_a_pair_value_grows_with_the_available_arms_and_exchanges(setting):
    # the two properties lmatch's closed form rests on, over every
    # nested K <= K2 <= A <= A2 whose kept thresholds fit: (i) more
    # available arms never lower the value; (ii) what the arms of A2
    # beyond A add is never more when more arms are kept.  A pair is
    # feasible exactly when its kept thresholds fit in tau
    inst, agg = setting
    prices = SubsetPrices(agg, inst)
    full = (1 << inst.k) - 1
    fits = [sum(inst.delta[a] for a in range(inst.k) if K >> a & 1) <= inst.tau
            for K in range(full + 1)]
    w = {}
    for A in range(1, full + 1):
        for K in range(full + 1):
            if not K & ~A:
                v = prices.exact(A, K)
                assert (v is not NEG_INF) == fits[K]
                if fits[K]:
                    w[A, K] = v
    for (A, K), v in w.items():
        for A2 in range(A, full + 1):
            if A2 & A != A:
                continue
            assert w[A2, K] >= v
            for K2 in range(K, A + 1):
                if K2 & K == K and not K2 & ~A and fits[K2]:
                    assert w[A2, K2] - w[A, K2] <= w[A2, K] - v
