from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from exposure_bandits import (
    Instance,
    ResourceGuardError,
    compute_gamma,
    gamma_from_parts,
    iter_subsets,
    validate,
)
from exposure_bandits.core import best_subset
from conftest import IDENTITY2, make_instance


def test_gamma_symmetric_tight():
    g = compute_gamma(make_instance(tau=100, delta=(40, 40)))
    assert g.feasible
    assert g.gamma == Fraction(1, 2)
    assert g.quota == 50


def test_gamma_zero_thresholds_capped_by_arm_count():
    g = compute_gamma(make_instance(tau=10, delta=(0, 0)))
    assert g.gamma == Fraction(1, 2)
    assert g.quota == 5


def test_gamma_infeasible_when_thresholds_exceed_phase():
    g = gamma_from_parts((60, 60), 100, 2)
    assert not g.feasible
    assert g.gamma is None


def test_gamma_zero_quota_when_no_exploration_slack():
    # thresholds fill the phase exactly: no room for a uniform quota
    g = gamma_from_parts((1, 1, 1), 3, 3)
    assert g.feasible
    assert g.gamma == Fraction(1, 3)
    g = gamma_from_parts((2, 1), 3, 2)
    assert g.feasible
    assert g.quota == 1


def test_gamma_quota_is_maximal():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        tau = int(rng.integers(k, 40))
        delta = tuple(int(d) for d in rng.integers(0, tau + 1, size=k))
        g = gamma_from_parts(delta, tau, k)
        if not g.feasible:
            assert sum(delta) > tau
            continue
        assert sum(delta) <= tau
        if g.quota:
            assert sum(max(d, g.quota) for d in delta) <= tau
            assert g.quota <= tau // k
            assert g.gamma == Fraction(g.quota, tau)
        nxt = g.quota + 1
        assert nxt > tau // k or sum(max(d, nxt) for d in delta) > tau


def test_gamma_never_increases_when_a_threshold_grows():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        tau = int(rng.integers(k, 30))
        delta = [int(d) for d in rng.integers(0, tau, size=k)]
        a = int(rng.integers(k))
        bumped = list(delta)
        bumped[a] = min(tau, bumped[a] + int(rng.integers(1, 5)))
        g0 = gamma_from_parts(tuple(delta), tau, k)
        g1 = gamma_from_parts(tuple(bumped), tau, k)
        if not g0.feasible:
            assert not g1.feasible
        elif g1.feasible:
            assert g1.quota <= g0.quota


BAD_FIELDS = [
    dict(P=(0.6, 0.6)),
    dict(P=(1.0, 0.0)),
    dict(delta=(-1, 0)),
    dict(delta=(11, 0)),
    # thresholds are not truncated: a fractional or infinite one is refused
    dict(delta=(3.5, 3)),
    dict(delta=(float("inf"), 3)),
    dict(mu=((1.5, 0.0), (0.0, 1.0))),
    dict(reward_kind="gaussian"),
]


def test_validate_rejects_bad_inputs():
    good = make_instance(tau=10, phases=2, delta=(3, 3))
    validate(good)
    for kw in BAD_FIELDS:
        base = dict(tau=10, phases=2, delta=(3, 3))
        base.update(kw)
        with pytest.raises(ValueError):
            validate(make_instance(**base))
    with pytest.raises(ValueError):
        validate(Instance(n=2, k=2, tau=10, T=15, P=(0.5, 0.5),
                          delta=(3, 3), mu=IDENTITY2))


def test_an_invalid_instance_is_never_built():
    fields = dict(n=2, k=2, tau=10, T=20, P=(0.5, 0.5), delta=(3, 3), mu=IDENTITY2)
    good = Instance(**fields)
    for kw in [*BAD_FIELDS, dict(T=15)]:
        with pytest.raises(ValueError):
            Instance(**{**fields, **kw})
        with pytest.raises(ValueError):
            replace(good, **kw)


def test_validate_warns_on_rare_type():
    inst = make_instance(tau=10, phases=1, P=(0.95, 0.05), delta=(0, 0))
    with pytest.warns(RuntimeWarning):
        validate(inst)


def test_instance_normalizes_sequences_to_tuples():
    inst = Instance(n=2, k=2, tau=10, T=20, P=[0.5, 0.5],
                    delta=[3, 3], mu=[[1.0, 0.0], [0.0, 1.0]])
    assert isinstance(inst.P, tuple)
    assert isinstance(inst.delta, tuple)
    assert isinstance(inst.mu[0], tuple)
    assert inst.phases == 2
    # integral floats and NumPy integers are thresholds too
    inst = Instance(n=2, k=2, tau=10, T=20, P=[0.5, 0.5],
                    delta=[3.0, np.int64(4)], mu=[[1.0, 0.0], [0.0, 1.0]])
    assert inst.delta == (3, 4)
    assert all(type(d) is int for d in inst.delta)


def test_iter_subsets_cardinality_then_lex():
    got = list(iter_subsets(3))
    assert got == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _search(instance, values, bounds, tried):
    """best_subset with the given per-subset values and bounds, appending
    each subset it evaluates to ``tried``; asking for a subset that has
    neither raises KeyError."""

    def evaluate(Z):
        tried.append(Z)
        return values[Z], f"payload {Z}"

    return best_subset(instance, bounds.__getitem__, evaluate)


TWO_FREE_ARMS = make_instance(n=1, k=2, tau=4, phases=1, P=(1.0,), delta=(0, 0))


def test_best_subset_keeps_a_subset_better_by_a_hair():
    # {0, 1} has the highest bound and is tried first; {0} then beats it
    # by far less than the pruning margin, with its bound equal to its
    # value, so only a margin on the safe side keeps it
    values = {(0,): 1.0 + 1e-13, (1,): 0.5, (0, 1): 1.0}
    bounds = {(0,): 1.0 + 1e-13, (1,): 0.5, (0, 1): 2.0}
    tried = []
    assert _search(TWO_FREE_ARMS, values, bounds, tried) == ((0,), "payload (0,)")
    assert tried == [(0, 1), (0,)]  # {1} is pruned


def test_best_subset_gives_ties_to_the_earliest_subset():
    values = {(0,): 1.0, (1,): 1.0, (0, 1): 1.0}
    bounds = {(0,): 1.0, (1,): 3.0, (0, 1): 2.0}
    tried = []
    assert _search(TWO_FREE_ARMS, values, bounds, tried)[0] == (0,)
    assert tried == [(1,), (0, 1), (0,)]


def test_best_subset_never_tries_thresholds_that_overflow_the_phase():
    inst = make_instance(n=1, k=2, tau=4, phases=1, P=(1.0,), delta=(3, 3))
    tried = []
    Z, _ = _search(inst, {(0,): 1.0, (1,): 2.0}, {(0,): 1.0, (1,): 2.0}, tried)
    assert Z == (1,)
    assert tried == [(1,)]
    with pytest.raises(ResourceGuardError):
        best_subset(make_instance(n=1, k=17, tau=4, phases=1, P=(1.0,)),
                    lambda Z: 0.0, lambda Z: (0.0, None))
