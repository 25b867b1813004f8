"""Problem instances, validation, and the exploration-rate computation.

Everything else in the package consumes the immutable :class:`Instance`
description defined here: ``n`` user types arriving i.i.d. from ``P``,
``k`` arms with expected utilities ``mu[u][a]``, and a horizon of ``T``
rounds split into phases of length ``tau``.  An arm that receives fewer
than ``delta[a]`` pulls within a phase departs permanently at the phase
boundary.  An invalid instance raises ``ValueError`` when it is built.
:class:`Observables` is the part of an instance a learner knows up
front.

``compute_gamma`` answers the feasibility question behind uniform
exploration: the largest per-arm rate ``gamma`` such that pulling every
arm ``max(delta[a], gamma*tau)`` times still fits into one phase.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

__all__ = [
    "NEG_INF",
    "Instance",
    "Observables",
    "GammaResult",
    "InfeasibleError",
    "ResourceGuardError",
    "ContractError",
    "thresholds",
    "validate",
    "validate_sizes",
    "gamma_from_parts",
    "compute_gamma",
    "subset_masks",
    "iter_subsets",
    "arm_set",
    "arm_mask",
    "subset_count",
    "best_subset",
]

SIMPLEX_TOL = 1e-12
SUBSET_ARM_CAP = 16  # most arms whose subsets an exhaustive search tries

REWARD_KINDS = ("bernoulli", "deterministic")


class InfeasibleError(Exception):
    """No commitment or schedule can satisfy the exposure constraints."""


class ResourceGuardError(Exception):
    """A configured state/size cap would be exceeded by this request."""


class ContractError(RuntimeError):
    """A guarantee one component relies on from another did not hold.

    Raised instead of ``assert``, which ``python -O`` strips.
    """


class _NegInf:
    """Typed stand-in for a minus-infinite objective value.

    Supports no arithmetic and no ordering: accidentally adding it to a
    running total, or comparing it with a number, raises ``TypeError``
    instead of silently poisoning downstream values the way
    ``float('-inf')`` would.  There is a single shared instance,
    ``NEG_INF``; test with ``value is NEG_INF``.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInf()


def thresholds(delta) -> tuple[int, ...]:
    """``delta`` as a tuple of ints; a non-integral threshold (10.7, inf,
    nan) raises ValueError instead of being truncated."""
    for d in delta:
        if not (isinstance(d, numbers.Integral) or (
            isinstance(d, numbers.Real) and float(d).is_integer()
        )):
            raise ValueError(f"thresholds must be integers, got {d!r}")
    return tuple(int(d) for d in delta)


@dataclass(frozen=True)
class Instance:
    """Full description of one exposure-constrained bandit problem,
    checked by :func:`validate` whenever one is built or replaced.

    Parameters
    ----------
    n : int
        Number of user types.
    k : int
        Number of arms.
    tau : int
        Phase length in rounds.
    T : int
        Horizon in rounds; must be a positive multiple of ``tau``.
    P : tuple of float
        Arrival probability per type, a strictly positive simplex.
    delta : tuple of int
        Exposure threshold per arm, each in ``{0, ..., tau}``; a
        fractional one raises ``ValueError``.
    mu : tuple of tuple of float
        Expected utility matrix, ``n`` rows by ``k`` columns, entries in
        ``[0, 1]``.
    reward_kind : str
        ``"bernoulli"`` for 0/1 rewards with mean ``mu[u][a]``, or
        ``"deterministic"`` for rewards equal to ``mu[u][a]``.
    """

    n: int
    k: int
    tau: int
    T: int
    P: tuple[float, ...]
    delta: tuple[int, ...]
    mu: tuple[tuple[float, ...], ...]
    reward_kind: str = "bernoulli"

    def __post_init__(self):
        # normalize sequence inputs so instances hash and compare by value
        object.__setattr__(self, "P", tuple(float(p) for p in self.P))
        object.__setattr__(self, "delta", thresholds(self.delta))
        object.__setattr__(
            self, "mu", tuple(tuple(float(v) for v in row) for row in self.mu)
        )
        validate(self)

    @property
    def phases(self) -> int:
        return self.T // self.tau


@dataclass(frozen=True)
class Observables:
    """What a learner may know up front: sizes, horizon, thresholds.

    Deliberately excludes P and mu.  Checked when built by the rules an
    :class:`Instance` follows (:func:`validate_sizes`), so a horizon
    that is not a multiple of the phase length fails here, not at the
    end of exploration.  A learner built from one keeps it as its
    ``observables``, and the simulator refuses to run it on an instance
    the view does not describe.
    """

    n: int
    k: int
    tau: int
    T: int
    delta: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "delta", thresholds(self.delta))
        validate_sizes(self.n, self.k, self.tau, self.T, self.delta)

    @staticmethod
    def from_instance(instance: Instance) -> "Observables":
        return Observables(
            n=instance.n,
            k=instance.k,
            tau=instance.tau,
            T=instance.T,
            delta=instance.delta,
        )


@dataclass(frozen=True)
class GammaResult:
    """Outcome of the exploration-rate computation.

    ``gamma`` is the largest multiple of ``1/tau`` in ``(0, 1/k]`` such
    that ``sum_a max(delta[a], gamma*tau) <= tau``, stored as a
    ``Fraction`` so that ``floor(gamma*tau)`` is exact.  ``gamma`` is
    ``None`` when no positive multiple of ``1/tau`` satisfies the
    inequality.  ``feasible`` is ``False`` exactly when even the limit
    ``gamma -> 0`` fails, i.e. ``sum(delta) > tau``.  ``quota`` caches
    ``floor(gamma*tau)`` as an exact integer (0 when gamma is absent);
    downstream exploration consumes pull counts, not the rate itself.
    """

    gamma: Fraction | None
    feasible: bool
    quota: int = 0


def validate(instance: Instance) -> None:
    """Check every :class:`Instance` invariant.

    Raises ``ValueError`` describing the first violated invariant: those
    of :func:`validate_sizes`, then a non-simplex ``P``, a ``mu`` entry
    outside ``[0, 1]``, or an unknown ``reward_kind``.
    """
    n, k, tau = instance.n, instance.k, instance.tau
    validate_sizes(n, k, tau, instance.T, instance.delta)
    if len(instance.P) != n:
        raise ValueError(f"P has {len(instance.P)} entries, expected n={n}")
    for u, p in enumerate(instance.P):
        if not p > 0.0:
            raise ValueError(f"P[{u}]={p} is not strictly positive")
        if p * tau < 1.0:
            # accepted, but confidence floors degenerate for such types;
            # attributed to this line, not to the caller, so that the
            # default filter shows each message once per process however
            # many places build instances with the same rare type
            warnings.warn(
                f"type {u} arrives less than once per phase in expectation",
                RuntimeWarning,
                stacklevel=1,
            )
    total = sum(instance.P)
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"P sums to {total!r}, not 1 within {SIMPLEX_TOL}")
    if len(instance.mu) != n:
        raise ValueError(f"mu has {len(instance.mu)} rows, expected n={n}")
    for u, row in enumerate(instance.mu):
        if len(row) != k:
            raise ValueError(f"mu row {u} has {len(row)} entries, expected k={k}")
        for a, v in enumerate(row):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"mu[{u}][{a}]={v} outside [0, 1]")
    if instance.reward_kind not in REWARD_KINDS:
        raise ValueError(
            f"reward_kind {instance.reward_kind!r} not in {REWARD_KINDS}"
        )


def validate_sizes(n, k, tau, T, delta) -> None:
    """Check the invariants of the sizes, the horizon and the thresholds,
    what a learner knows up front: positive integer ``n``, ``k``,
    ``tau`` and ``T``, ``k`` entries of ``delta`` in ``[0, tau]``, and a
    horizon that is a multiple of ``tau``.  Raises ``ValueError``
    describing the first violated one.
    """
    for name, value in (("n", n), ("k", k), ("tau", tau), ("T", T)):
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if len(delta) != k:
        raise ValueError(f"delta has {len(delta)} entries, expected k={k}")
    for a, d in enumerate(delta):
        if not 0 <= d <= tau:
            raise ValueError(f"delta[{a}]={d} outside [0, tau={tau}]")
    if T % tau != 0:
        raise ValueError(f"T={T} is not a multiple of tau={tau}")


def gamma_from_parts(delta, tau: int, k: int) -> GammaResult:
    """Exploration rate from thresholds alone (arrival law not needed).

    Largest integer quota ``g`` with ``g/tau <= 1/k`` and
    ``sum_a max(delta[a], g) <= tau``; the left side is nondecreasing in
    ``g``, so a downward scan from ``floor(tau/k)`` finds the maximum.
    """
    delta = tuple(int(d) for d in delta)
    if sum(delta) > tau:
        return GammaResult(gamma=None, feasible=False)
    g = tau // k
    while g > 0 and sum(max(d, g) for d in delta) > tau:
        g -= 1
    if g == 0:
        return GammaResult(gamma=None, feasible=True, quota=0)
    return GammaResult(gamma=Fraction(g, tau), feasible=True, quota=g)


def compute_gamma(instance: Instance) -> GammaResult:
    """Largest feasible exploration rate, from the instance's thresholds.

    ``feasible`` is ``False`` iff ``sum(instance.delta) > instance.tau``.
    When a rate exists, ``sum_a max(delta[a], floor(gamma*tau)) <= tau``
    holds exactly, and enlarging any ``delta[a]`` never increases the
    returned ``gamma``.
    """
    return gamma_from_parts(instance.delta, instance.tau, instance.k)


def subset_masks(k: int) -> list[int]:
    """Nonempty subsets of ``range(k)`` as bit masks, fewest arms first,
    then lowest mask: the one tie order of every subset search.  Raises
    ResourceGuardError for more than SUBSET_ARM_CAP arms."""
    subset_count(k)
    return sorted(range(1, 1 << k), key=int.bit_count)  # stable: masks ascend within a size


def iter_subsets(k: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of ``range(k)`` as arm tuples, fewest arms first, then lowest mask."""
    for mask in subset_masks(k):
        yield tuple(a for a in range(k) if mask >> a & 1)


def arm_set(mask: int) -> frozenset:
    """The arms of bit mask ``mask``."""
    return frozenset(a for a in range(mask.bit_length()) if mask >> a & 1)


def arm_mask(arms) -> int:
    """The bit mask of the arms ``arms``."""
    return sum(1 << a for a in arms)


def subset_count(k: int) -> int:
    """Nonempty subsets of k arms an exhaustive search may try, 2^k - 1;
    raises ResourceGuardError for more than SUBSET_ARM_CAP arms."""
    if k > SUBSET_ARM_CAP:
        raise ResourceGuardError(f"2^k subset enumeration limited to k <= {SUBSET_ARM_CAP}")
    return 2**k - 1


def best_subset(instance: Instance, bound: Callable, evaluate: Callable):
    """The best nonempty subset of ``instance``'s arms, as a bit mask, by
    best-first branch and bound over :func:`subset_masks`.

    A subset whose thresholds sum to more than tau is infeasible and is
    never evaluated; every single arm fits, since each threshold is at
    most tau.  ``evaluate(Z)`` returns ``(value, payload)`` for the
    others, and ``bound(Z)`` is an upper bound on that value in the
    numbers compared, with no margin; both take Z's mask.  The winner is
    the subset of greatest value, ties to the fewest arms, then the
    lowest mask: the greatest (value, -index).  Subsets are tried in
    decreasing (bound, -index) order, and the walk stops at the first
    below the incumbent's (value, -index): that subset and every later
    one can at most tie it, and come after it.  So the result is what
    trying every subset gives.  Returns ``(Z, payload)``; raises
    ResourceGuardError for more than SUBSET_ARM_CAP arms.
    """
    masks = subset_masks(instance.k)
    load = [0]  # each mask's threshold sum, from the mask without its highest arm
    for d in instance.delta:
        load += [s + d for s in load]
    subsets = [Z for Z in masks if load[Z] <= instance.tau]
    bounds = [bound(Z) for Z in subsets]
    best = None  # the incumbent's (value, -index), and its payload
    for i in sorted(range(len(subsets)), key=lambda i: (bounds[i], -i), reverse=True):
        if best is not None and (bounds[i], -i) < best[0]:
            break
        value, payload = evaluate(subsets[i])
        if best is None or (value, -i) > best[0]:
            best = (value, -i), payload
    return subsets[-best[0][1]], best[1]
