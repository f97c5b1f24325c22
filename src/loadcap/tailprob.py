"""Tail probabilities of aggregate consumption.

Given a composition of two-state appliance classes, the probability that the
aggregate load reaches a threshold can be computed exactly (convolution of
per-class binomial pmfs on a watt grid) or estimated analytically from
aggregate moments.  All analytic bounds here are guaranteed upper bounds on
the exact tail; the normal approximation is an estimate, not a bound.

Natural logarithms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .models import ApplianceClass

__all__ = [
    "EstimationMethod",
    "PowerPmf",
    "ClassComposition",
    "AggregateStats",
    "exact_pmf",
    "aggregate_stats",
    "bound_markov",
    "bound_chebyshev",
    "bound_hoeffding",
    "bound_bennett",
    "bound_chernoff",
    "clt_estimate",
    "estimate",
    "lower_tail",
]

# relative slack when snapping watt values to the quantum grid
_GRID_RTOL = 1e-9
# support mass trimmed from pmf ends after the normalization check
_TRIM_MASS = 1e-300


class EstimationMethod(Enum):
    """How to turn a composition into a tail probability."""

    EXACT = "exact"
    MARKOV = "markov"
    CHEBYSHEV = "chebyshev"
    HOEFFDING = "hoeffding"
    BENNETT = "bennett"
    CHERNOFF = "chernoff"
    CLT = "clt"


@dataclass(frozen=True, eq=False)
class PowerPmf:
    """Probability mass function of a load on a uniform watt grid.

    Support point ``i`` carries the value ``(offset + i) * quantum`` watts.
    The probability vector is dense over consecutive grid points, sums to 1
    within 1e-9, and is trimmed so its first and last entries are positive.

    The mass check's verdict is that of the correctly rounded ``math.fsum``.
    It is read from the cheaper ``ndarray.sum``; ``fsum`` runs only when that
    sum fails the check or lies within its rounding error bound of the edge.
    """

    quantum: float
    offset: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        if not (self.quantum > 0.0 and math.isfinite(self.quantum)):
            raise ValueError(f"quantum={self.quantum!r} must be positive and finite")
        if int(self.offset) != self.offset or self.offset < 0:
            raise ValueError(f"offset={self.offset!r} must be a non-negative integer")
        object.__setattr__(self, "offset", int(self.offset))
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probabilities must be a non-empty 1-D vector")
        if not np.isfinite(probs).all() or (probs < 0.0).any():
            raise ValueError("probabilities must be finite and non-negative")
        # Summed in any order, n non-negative terms err by at most
        # gamma_(n-1) * sum, gamma_k = k*u / (1 - k*u), u = 2**-53 (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2);
        # fsum's own rounding adds u * sum.  n * 2.3e-16 * sum covers both, so
        # outside that margin of the edge both sums give the same verdict; a
        # failing mass is reported as fsum gives it.
        total = float(probs.sum())
        if not math.isfinite(total):  # fsum would raise OverflowError
            raise ValueError(f"pmf mass is {total!r}, not 1 within 1e-9")
        near_edge = abs(abs(total - 1.0) - 1e-9) <= probs.size * 2.3e-16 * total
        if near_edge or abs(total - 1.0) > 1e-9:
            total = math.fsum(probs.tolist())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"pmf mass is {total!r}, not 1 within 1e-9")
        if probs[0] <= 0.0 or probs[-1] <= 0.0:
            raise ValueError("pmf support is not trimmed; ends must carry mass")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @property
    def support_watts(self) -> np.ndarray:
        return (self.offset + np.arange(self.probabilities.size)) * self.quantum

    def _split_index(self, threshold_w: float) -> int:
        """Index of the first support point at or above the threshold.

        Both tails split the pmf here, so they always add up to the whole pmf.
        """
        x = threshold_w / self.quantum
        return math.ceil(x - _GRID_RTOL * max(1.0, abs(x))) - self.offset

    def tail_at_or_above(self, threshold_w: float) -> float:
        """Mass at grid points >= threshold; off-grid thresholds round up."""
        start = self._split_index(threshold_w)
        if start <= 0:
            return 1.0
        if start >= self.probabilities.size:
            return 0.0
        return float(math.fsum(self.probabilities[start:].tolist()))

    def mass_below(self, threshold_w: float) -> float:
        """Mass at grid points < threshold: one minus ``tail_at_or_above``."""
        stop = self._split_index(threshold_w)
        if stop <= 0:
            return 0.0
        if stop >= self.probabilities.size:
            return 1.0
        return float(math.fsum(self.probabilities[:stop].tolist()))


@dataclass(frozen=True)
class ClassComposition:
    """Enabled appliance counts per class, plus a constant base load.

    ``deterministic_load`` is in watts.  Entries of always-on classes
    (``p_on`` 1) are allowed; every estimator folds them into the base load
    first (``_fold_certain``).
    """

    entries: tuple[tuple[ApplianceClass, int], ...]
    deterministic_load: float = 0.0

    def __post_init__(self) -> None:
        seen: set[str] = set()
        cleaned = []
        for cls, enabled in self.entries:
            if int(enabled) != enabled or not (0 <= enabled <= cls.count):
                raise ValueError(
                    f"enabled count {enabled!r} for {cls.name!r} outside [0, {cls.count}]"
                )
            if cls.name in seen:
                raise ValueError(f"duplicate class name {cls.name!r}")
            seen.add(cls.name)
            cleaned.append((cls, int(enabled)))
        object.__setattr__(self, "entries", tuple(cleaned))
        det = float(self.deterministic_load)
        if not (det >= 0.0 and math.isfinite(det)):
            raise ValueError(f"deterministic_load={det!r} must be >= 0 and finite")
        object.__setattr__(self, "deterministic_load", det)

    @classmethod
    def empty(cls) -> "ClassComposition":
        return cls(entries=())

    def with_added(self, incoming: ApplianceClass) -> "ClassComposition":
        """Composition after admitting one more appliance of a class.

        The class's enabled count grows by one; past the class's population
        the new composition raises ValueError.
        """
        entries = []
        found = False
        for cls, enabled in self.entries:
            if cls.name == incoming.name:
                entries.append((cls, enabled + 1))  # count cap re-checked on init
                found = True
            else:
                entries.append((cls, enabled))
        if not found:
            entries.append((incoming, 1))
        return replace(self, entries=tuple(entries))


@dataclass(frozen=True)
class AggregateStats:
    """Moments of the stochastic part of an aggregate load.

    ``sum_sq_ranges`` is the sum of squared per-appliance ranges (each ON
    wattage squared, once per enabled appliance); ``max_abs`` is the largest
    per-appliance wattage among enabled classes.
    """

    mean: float
    variance: float
    sum_sq_ranges: float
    max_abs: float


def aggregate_stats(composition: ClassComposition) -> AggregateStats:
    """Aggregate moments; the constant base load is not included."""
    mean = 0.0
    variance = 0.0
    ssr = 0.0
    max_abs = 0.0
    for cls, enabled in composition.entries:
        p = cls.p_on
        if enabled == 0 or p == 0.0:
            continue
        h = cls.on_power
        mean += enabled * h * p
        variance += enabled * h * h * p * (1.0 - p)
        if p < 1.0:
            # an always-on appliance never varies: its range is zero
            ssr += enabled * h * h
        max_abs = max(max_abs, h)
    return AggregateStats(mean=mean, variance=variance, sum_sq_ranges=ssr, max_abs=max_abs)


def _fold_certain(composition: ClassComposition) -> ClassComposition:
    """Move always-on classes into the constant base load, drop never-on ones.

    A class with p_on 1 contributes a known constant, so every estimator can
    treat it as base load; keeping it stochastic would needlessly slacken
    the moment bounds.  This is the one place always-on load becomes base
    load.
    """
    if all(0.0 < cls.p_on < 1.0 for cls, _ in composition.entries):
        return composition
    certain = 0.0
    entries = []
    for cls, enabled in composition.entries:
        if cls.p_on == 1.0:
            certain += enabled * cls.on_power
        elif cls.p_on > 0.0:
            entries.append((cls, enabled))
    return ClassComposition(
        entries=tuple(entries),
        deterministic_load=composition.deterministic_load + certain,
    )


def _grid_steps(watts: float, quantum: float) -> int:
    steps = round(watts / quantum)
    if abs(steps * quantum - watts) > _GRID_RTOL * max(1.0, abs(watts)) or steps < 1:
        raise ValueError(
            f"quantization mismatch: {watts!r} W is not a positive multiple "
            f"of the {quantum!r} W grid"
        )
    return int(steps)


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf.

    Small n uses exact integer coefficients; large n moves to the log
    domain, where lgamma keeps the extreme terms from underflowing.
    """
    if n == 0:
        return np.ones(1)
    if p <= 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    if n <= 60:
        q = 1.0 - p
        pmf = np.array([math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)])
    else:
        log_p = math.log(p)
        log_q = math.log1p(-p)
        lg_n = math.lgamma(n + 1)
        logs = [
            lg_n
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_p
            + (n - k) * log_q
            for k in range(n + 1)
        ]
        pmf = np.exp(np.array(logs))
    return pmf / math.fsum(pmf.tolist())


@lru_cache(maxsize=4096)
def _class_kernel(n: int, p_on: float) -> tuple[int, np.ndarray]:
    """Non-zero window of the Binomial(n, p_on) pmf as ``(lo, kernel)``.

    ``kernel`` runs from the first to the last non-zero term (read-only) and
    ``lo`` is the count of its first term; the log-domain binomial underflows
    to exact zeros far from the mean, and those terms never reach the grid.
    """
    pmf = _binomial_pmf(n, p_on)
    nonzero = np.flatnonzero(pmf)
    lo = int(nonzero[0])
    kernel = pmf[lo : int(nonzero[-1]) + 1].copy()
    kernel.setflags(write=False)
    return lo, kernel


def exact_pmf(composition: ClassComposition, quantum: float = 1.0) -> PowerPmf:
    """Exact pmf of the stochastic aggregate on the watt grid.

    Within a class the n-fold self-convolution collapses to a binomial.  Each
    class contributes only the window of binomial terms that are non-zero,
    shifting a running grid offset by the window's start.  A class drawing
    ``s`` grid steps is convolved at stride ``s`` without padding: the
    accumulator is split by residue mod ``s`` and each residue is convolved
    with the window on its own.  Every class's ON wattage must sit on the
    grid, else ValueError("quantization mismatch").  The constant base load
    is not folded in; callers offset thresholds.  ``PowerPmf`` checks the
    trimmed pmf's mass and raises ValueError when it drifted from 1.

    Trimming drops the longest run of points at each end whose cumulative
    mass stays below ``_TRIM_MASS``, found by a cumulative sum from that end.
    An end point that carries ``_TRIM_MASS`` or more is kept without one.
    """
    if not (quantum > 0.0 and math.isfinite(quantum)):
        raise ValueError(f"quantum={quantum!r} must be positive and finite")
    acc = np.ones(1)  # the pmf of an empty load
    offset = 0
    for cls, enabled in composition.entries:
        if enabled == 0:
            continue
        steps = _grid_steps(cls.on_power, quantum)
        lo, kernel = _class_kernel(enabled, cls.p_on)
        offset += lo * steps
        out = np.zeros(acc.size + (kernel.size - 1) * steps)
        for r in range(min(steps, acc.size)):
            out[r::steps] = np.convolve(acc[r::steps], kernel)
        acc = out
    start = 0
    if acc[0] < _TRIM_MASS:
        start = int(acc.cumsum().searchsorted(_TRIM_MASS, side="left"))
    stop = acc.size
    if acc[-1] < _TRIM_MASS:
        stop -= int(acc[::-1].cumsum().searchsorted(_TRIM_MASS, side="left"))
    return PowerPmf(quantum=quantum, offset=offset + start, probabilities=acc[start:stop])


def bound_markov(stats: AggregateStats, threshold_w: float) -> float:
    """First-moment bound: mean over threshold, clamped to 1."""
    if threshold_w <= 0.0:
        raise ValueError("invalid threshold")
    if stats.mean == 0.0:
        return 0.0
    return min(1.0, stats.mean / threshold_w)


def bound_chebyshev(stats: AggregateStats, threshold_w: float) -> float:
    """Second-moment bound: variance over squared distance from the mean."""
    if threshold_w <= stats.mean:
        return 1.0
    if stats.variance == 0.0:
        return 0.0
    return min(1.0, stats.variance / (threshold_w - stats.mean) ** 2)


def bound_hoeffding(stats: AggregateStats, threshold_w: float) -> float:
    """Bounded-range exponential bound."""
    if threshold_w <= stats.mean:
        return 1.0
    if stats.sum_sq_ranges == 0.0:
        return 0.0
    return math.exp(-2.0 * (threshold_w - stats.mean) ** 2 / stats.sum_sq_ranges)


def _bennett_h(u: float) -> float:
    return (1.0 + u) * math.log1p(u) - u


def bound_bennett(stats: AggregateStats, threshold_w: float) -> float:
    """Variance-aware exponential bound, tighter than Hoeffding's for
    small-variance aggregates."""
    if threshold_w <= stats.mean:
        return 1.0
    if stats.variance == 0.0 or stats.max_abs == 0.0:
        return 0.0
    u = (threshold_w - stats.mean) * stats.max_abs / stats.variance
    exponent = -(stats.variance / stats.max_abs**2) * _bennett_h(u)
    return min(1.0, math.exp(exponent))


def _log_mgf_term(s: float, h: float, p: float) -> float:
    """ln E[exp(s X)] for one two-state appliance drawing h with prob p > 0."""
    if p >= 1.0:
        return s * h
    x = s * h
    if x > 700.0:  # exp(x) would overflow; factor the dominant term out
        return x + math.log(p + (1.0 - p) * math.exp(-x))
    return math.log1p(p * math.expm1(x))


def _log_mgf_term_deriv(s: float, h: float, p: float) -> float:
    if p >= 1.0:
        return h
    return h * p / (p + (1.0 - p) * math.exp(-min(s * h, 745.0)))


def bound_chernoff(composition: ClassComposition, threshold_w: float) -> float:
    """Optimized exponential-moment bound.

    Minimizes exp(sum of per-appliance log moment generating functions minus
    s * threshold) over s > 0 by bisecting the derivative of the convex
    exponent.  Returns 1 when the threshold does not exceed the mean.
    """
    terms = [
        (enabled, cls.on_power, cls.p_on)
        for cls, enabled in composition.entries
        if enabled > 0 and cls.p_on > 0.0
    ]
    mean = sum(n * h * p for n, h, p in terms)
    if threshold_w <= mean:
        return 1.0
    support_max = sum(n * h for n, h, _ in terms)
    if math.isclose(threshold_w, support_max, rel_tol=1e-12, abs_tol=1e-15):
        # infimum is the limit s -> inf: probability that everything is ON
        log_all_on = sum(n * math.log(p) for n, _, p in terms)
        return min(1.0, math.exp(log_all_on))
    if threshold_w > support_max:
        return 0.0  # no mass can reach the threshold

    def exponent(s: float) -> float:
        return sum(n * _log_mgf_term(s, h, p) for n, h, p in terms) - s * threshold_w

    def slope(s: float) -> float:
        return sum(n * _log_mgf_term_deriv(s, h, p) for n, h, p in terms) - threshold_w

    s_lo = 1e-12
    if slope(s_lo) >= 0.0:
        return min(1.0, math.exp(exponent(s_lo)))
    s_hi = 1.0
    doublings = 0
    while slope(s_hi) <= 0.0 and doublings < 1024:
        s_hi *= 2.0
        doublings += 1
    for _ in range(200):
        mid = 0.5 * (s_lo + s_hi)
        if mid <= s_lo or mid >= s_hi:
            break
        d = slope(mid)
        if abs(d) <= 1e-10:
            s_lo = s_hi = mid
            break
        if d < 0.0:
            s_lo = mid
        else:
            s_hi = mid
    s_star = 0.5 * (s_lo + s_hi)
    return max(0.0, min(1.0, math.exp(exponent(s_star))))


def clt_estimate(stats: AggregateStats, threshold_w: float) -> float:
    """Normal approximation of the upper tail (an estimate, not a bound)."""
    if stats.variance == 0.0:
        return 1.0 if threshold_w <= stats.mean else 0.0
    z = (threshold_w - stats.mean) / math.sqrt(stats.variance)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def estimate(
    method: EstimationMethod,
    composition: ClassComposition,
    c_max: float,
    quantum: float = 1.0,
) -> float:
    """Probability estimate that the aggregate load reaches c_max.

    The constant base load is folded into the threshold first, so a
    composition with base load d at limit c behaves exactly like the same
    composition with no base load at limit c - d.  A threshold at or below
    the base load returns 1.  All results are clamped to [0, 1].
    """
    composition = _fold_certain(composition)
    threshold = c_max - composition.deterministic_load
    if threshold <= 0.0:
        return 1.0
    if method is EstimationMethod.EXACT:
        return exact_pmf(composition, quantum).tail_at_or_above(threshold)
    if method is EstimationMethod.CHERNOFF:
        return bound_chernoff(composition, threshold)
    stats = aggregate_stats(composition)
    if method is EstimationMethod.MARKOV:
        return bound_markov(stats, threshold)
    if method is EstimationMethod.CHEBYSHEV:
        return bound_chebyshev(stats, threshold)
    if method is EstimationMethod.HOEFFDING:
        return bound_hoeffding(stats, threshold)
    if method is EstimationMethod.BENNETT:
        return bound_bennett(stats, threshold)
    if method is EstimationMethod.CLT:
        return clt_estimate(stats, threshold)
    raise ValueError(f"unknown estimation method {method!r}")


def lower_tail(
    method: EstimationMethod,
    composition: ClassComposition,
    c_min: float,
    quantum: float = 1.0,
) -> float:
    """Probability that the aggregate load stays strictly below c_min.

    Only the exact and normal-approximation methods have a lower-tail form;
    other methods raise ValueError.  A limit at or below the constant base
    load returns 0 (the load can never fall below its constant floor).
    """
    if method not in (EstimationMethod.EXACT, EstimationMethod.CLT):
        raise ValueError(f"{method.value} has no lower-tail form")
    composition = _fold_certain(composition)
    threshold = c_min - composition.deterministic_load
    if threshold <= 0.0:
        return 0.0
    if method is EstimationMethod.EXACT:
        return exact_pmf(composition, quantum).mass_below(threshold)
    stats = aggregate_stats(composition)
    if stats.variance == 0.0:
        return 1.0 if threshold > stats.mean else 0.0
    z = (threshold - stats.mean) / math.sqrt(stats.variance)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
