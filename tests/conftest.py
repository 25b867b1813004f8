from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from exposure_bandits import NEG_INF, Aggregate, Instance, Observables, build_lcb_aggregate, lcb
from exposure_bandits.core import arm_set, subset_masks
from exposure_bandits.matching import SubsetPrices

IDENTITY2 = ((1.0, 0.0), (0.0, 1.0))


def make_instance(n=2, k=2, tau=100, phases=10, P=None, delta=None, mu=None,
                  reward_kind="bernoulli") -> Instance:
    if P is None:
        P = tuple([1.0 / n] * n)
    if delta is None:
        delta = tuple([0] * k)
    if mu is None:
        mu = tuple(tuple(1.0 if a == u else 0.0 for a in range(k)) for u in range(n))
    return Instance(n=n, k=k, tau=tau, T=tau * phases, P=P, delta=delta,
                    mu=mu, reward_kind=reward_kind)


def one_phase(delta, tau) -> Observables:
    """The observables of one phase of ``tau`` rounds with thresholds
    ``delta``: all that ``compute_gamma`` reads."""
    return Observables(n=1, k=len(delta), tau=tau, T=tau, delta=delta)


def subsets(k) -> list[frozenset]:
    """The nonempty arm sets of ``k`` arms in the search order."""
    return [arm_set(Z) for Z in subset_masks(k)]


def commitment_values(inst: Instance):
    """A-LCB's value source, the SubsetPrices of the instance's shaved
    aggregate, and f(Z) of a bit mask Z read from it: the exact price of
    keeping Z over the prices' scale, or NEG_INF."""
    prices = SubsetPrices(build_lcb_aggregate(inst.P, inst.tau), inst)

    def f(Z):
        v = prices.exact(Z, Z)
        return v if v is NEG_INF else v / prices.scale

    return prices, f


def random_simplex(rng: np.random.Generator, n: int) -> tuple:
    # rational weights keep the simplex check exact
    w = rng.integers(1, 9, size=n)
    total = int(w.sum())
    return tuple(int(x) / total for x in w)


def random_mu(rng: np.random.Generator, n: int, k: int, dyadic: bool = False):
    if dyadic:
        # multiples of 1/16 are exact binary floats, so value comparisons
        # between independent solvers can demand exact equality
        return tuple(tuple(int(v) / 16 for v in rng.integers(0, 17, size=k))
                     for _ in range(n))
    return tuple(tuple(float(v) for v in rng.random(k)) for _ in range(n))


def random_instance(rng: np.random.Generator, *, n_max=3, k_max=3, tau_max=8,
                    phases_max=1, dyadic=False, delta_sum_within_tau=True) -> Instance:
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    tau = int(rng.integers(2, tau_max + 1))
    phases = int(rng.integers(1, phases_max + 1))
    if delta_sum_within_tau:
        # draw thresholds that leave a feasible joint commitment
        delta = []
        left = tau
        for _ in range(k):
            d = int(rng.integers(0, left + 1))
            delta.append(d)
            left -= d
        rng.shuffle(delta)
        delta = tuple(delta)
    else:
        delta = tuple(int(d) for d in rng.integers(0, tau + 1, size=k))
    return Instance(
        n=n, k=k, tau=tau, T=tau * phases,
        P=random_simplex(rng, n),
        delta=delta,
        mu=random_mu(rng, n, k, dyadic=dyadic),
    )


def random_counts(rng: np.random.Generator, n: int, tau: int) -> tuple:
    """Type counts summing to at most tau (no slack row)."""
    counts = []
    left = tau
    for _ in range(n):
        c = int(rng.integers(0, left + 1))
        counts.append(c)
        left -= c
    return tuple(counts)


@st.composite
def tie_prone_instances(draw, taus=st.integers(2, 7), ks=st.integers(1, 3)):
    """Small instances whose utilities come from a four-value grid, so
    equal scores (and the tie rule) are common, with a phase length
    from ``taus`` and an arm count from ``ks``."""
    n = draw(st.integers(1, 3))
    k = draw(ks)
    tau = draw(taus)
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    delta = []
    left = tau
    for _ in range(k):
        delta.append(draw(st.integers(0, left)))
        left -= delta[-1]
    grid = st.sampled_from((0.0, 0.25, 0.5, 1.0))
    mu = tuple(tuple(draw(st.lists(grid, min_size=k, max_size=k))) for _ in range(n))
    P = tuple(w / sum(weights) for w in weights)
    return Instance(n=n, k=k, tau=tau, T=2 * tau, P=P, delta=tuple(delta), mu=mu)


@st.composite
def phase_aggregates(draw, n, tau):
    """An aggregate of a phase's tau pulls over n types, its counts drawn
    directly (each type's up to what is left), with a slack row for the
    rest or the rest on the last type."""
    counts, left = [], tau
    for _ in range(n):
        counts.append(draw(st.integers(0, left)))
        left -= counts[-1]
    if draw(st.booleans()):
        return Aggregate(counts=(*counts, left), has_slack=True)
    counts[-1] += left
    return Aggregate(counts=tuple(counts), has_slack=False)


@st.composite
def utility_rows(draw, n, k):
    """n rows of k utilities, all from the tie grid, multiples of 1/16
    or full-mantissa floats in [0, 1]; the floats stay far enough above
    the subnormals that scaling them by 2^-60 is exact."""
    values = draw(st.sampled_from((
        st.sampled_from((0.0, 0.25, 0.5, 1.0)),
        st.integers(0, 16).map(lambda v: v / 16),
        st.just(0.0) | st.floats(2.0**-960, 1.0),
    )))
    return tuple(tuple(draw(st.lists(values, min_size=k, max_size=k))) for _ in range(n))


@st.composite
def simplex(draw, n):
    """n positive probabilities summing to 1, from small integer weights."""
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return tuple(w / sum(weights) for w in weights)


def scaled_mu(instance: Instance, j: int) -> Instance:
    """The instance with every utility times 2^-j, which is exact."""
    mu = tuple(tuple(math.ldexp(v, -j) for v in row) for row in instance.mu)
    return replace(instance, mu=mu)


def stepped_phases(monkeypatch) -> list:
    """A list that records how many phases each call of
    ``lcb._step_phases`` replays, from now until the test ends."""
    stepped = []
    step = lcb._step_phases

    def spy(*args):
        stepped.append(len(args[-1]))
        return step(*args)

    monkeypatch.setattr(lcb, "_step_phases", spy)
    return stepped
