"""Tail probabilities of aggregate consumption.

Given a composition of two-state appliance classes, the probability that the
aggregate load reaches a threshold can be computed exactly (convolution of
per-class binomial pmfs on a watt grid) or estimated analytically from
aggregate moments.  ``estimate`` is the one door to every method, and
``exact_pmf`` gives the exact pmf itself.  Through ``estimate`` every
analytic bound is an upper bound on the exact tail; the normal
approximation is an estimate, not a bound.  The analytic helpers are
private and share one signature, ``(stats, threshold)``: the summary of the
folded composition (``_aggregate_stats``) and a positive threshold, both in
the one unit ``estimate`` picks near the largest ON wattage.

Natural logarithms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .models import ApplianceClass, _count, _member, _read_only_copy, _real, _record

__all__ = [
    "EstimationMethod",
    "PowerPmf",
    "ClassComposition",
    "exact_pmf",
    "estimate",
]

# relative slack when snapping watt values to the quantum grid
_GRID_RTOL = 1e-9
# end mass trimmed from each binomial window and each partial sum
_TRIM_MASS = 1e-300
# the pmf of an empty load, where every exact pmf starts
_EMPTY_LOAD = np.ones(1)
# log(k!) = lgamma(k + 1) for k = 0, 1, ...; replaced by a longer copy when a
# larger count arrives, and read-only, so a prefix is shared by every count
_LOG_FACTORIALS = np.zeros(0)
# terms below the largest times this cannot move a binomial's normaliser
_SIGNIFICANT = 2.0**-90
# the most points one exact pmf array may hold, checked before it is allocated
# (128 MiB of float64; the benchmark's largest pmf needs 192,001)
_MAX_GRID_POINTS = 2**24

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
    It is a read-only copy of the array given (``models._read_only_copy``).

    The checks take two reductions.  ``min`` refuses a negative entry, -inf
    or NaN.  ``ndarray.sum`` then gives the mass; once every entry is at
    least 0, a finite sum means every entry is finite, so ``isfinite`` runs
    only on an infinite sum, to tell an infinite entry from finite entries
    whose sum overflows ("pmf mass is inf").  The mass check's verdict is
    that of the correctly rounded ``math.fsum``, which runs only when the
    numpy sum fails the check or lies within its rounding error bound of the
    edge.
    """

    quantum: float
    offset: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        # stored only when coerced, since every exact estimate builds a pmf
        quantum, offset = _real("quantum", self.quantum, 0.0), _count("offset", self.offset)
        if quantum is not self.quantum or offset is not self.offset:
            object.__setattr__(self, "quantum", quantum)
            object.__setattr__(self, "offset", offset)
        probs = _read_only_copy("probabilities", self.probabilities)
        least = np.minimum.reduce(probs)
        if not least >= 0.0:  # a negative entry, -inf or NaN
            raise ValueError("probabilities must be finite and non-negative")
        # Summed in any order, n non-negative terms err by at most
        # gamma_(n-1) * sum, gamma_k = k*u / (1 - k*u), u = 2**-53 (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2);
        # fsum's own rounding adds u * sum.  n * 2.3e-16 * sum covers both, so
        # outside that margin of the edge both sums give the same verdict; a
        # failing mass is reported as fsum gives it.
        total = float(np.add.reduce(probs))
        if not math.isfinite(total):  # fsum would raise OverflowError
            if not np.isfinite(probs).all():  # else finite entries overflow it
                raise ValueError("probabilities must be finite and non-negative")
            raise ValueError(f"pmf mass is {total!r}, not 1 within 1e-9")
        near_edge = abs(abs(total - 1.0) - 1e-9) <= probs.size * 2.3e-16 * total
        if near_edge or abs(total - 1.0) > 1e-9:
            total = math.fsum(probs.tolist())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"pmf mass is {total!r}, not 1 within 1e-9")
        # an end without mass is a zero entry, so least is 0 too
        if least == 0.0 and (probs[0] == 0.0 or probs[-1] == 0.0):
            raise ValueError("pmf support is not trimmed; ends must carry mass")
        object.__setattr__(self, "probabilities", probs)

    @property
    def support_watts(self) -> np.ndarray:
        return (self.offset + np.arange(self.probabilities.size)) * self.quantum

    def tail_at_or_above(self, threshold_w: float) -> float:
        """Mass at grid points at or above ``_reach_floor``; off-grid thresholds round up.

        The tail is the correctly rounded sum of its points: ``math.fsum``
        is exact, and reads the points from the array's buffer as Python
        floats without building a list.  An infinite threshold, or one whose
        ratio to the quantum overflows, lies past the end its sign points
        to; a NaN threshold raises ValueError.
        """
        try:
            start = math.ceil(_reach_floor(threshold_w, self.quantum) / self.quantum) - self.offset
        except (ValueError, OverflowError):  # inf - inf is NaN; ceil(-inf) overflows
            if math.isnan(threshold_w):
                raise ValueError(f"threshold_w={threshold_w!r} is not a number") from None
            return 0.0 if threshold_w > 0.0 else 1.0
        if start <= 0:
            return 1.0
        if start >= self.probabilities.size:
            return 0.0
        return math.fsum(self.probabilities[start:].data)


@dataclass(frozen=True)
class ClassComposition:
    """Enabled appliance counts per class, plus a constant base load.

    ``deterministic_load`` is in watts.  Entries of always-on classes
    (``p_on`` 1) are allowed; ``estimate`` folds them into the base load
    first (``_fold_certain``).
    """

    entries: tuple[tuple[ApplianceClass, int], ...]
    deterministic_load: float = 0.0

    def __post_init__(self) -> None:
        seen: set[str] = set()
        cleaned = []
        for cls, enabled in _record("entries", self.entries, (tuple, list)):
            _record("class", cls, ApplianceClass)
            if cls.name in seen:
                raise ValueError(f"duplicate class name {cls.name!r}")
            seen.add(cls.name)
            cleaned.append((cls, _count(f"enabled count of {cls.name!r}", enabled, 0, cls.count)))
        object.__setattr__(self, "entries", tuple(cleaned))
        det = _real("deterministic_load", self.deterministic_load, 0.0, ends="[)")
        object.__setattr__(self, "deterministic_load", det)

    @classmethod
    def empty(cls) -> "ClassComposition":
        return cls(entries=())


@dataclass(frozen=True)
class _AggregateStats:
    """Moments of the stochastic part of a folded aggregate load.

    ``sum_sq_ranges`` is the sum of squared per-appliance ranges (each ON
    wattage squared, once per enabled appliance); ``max_abs`` is the largest
    per-appliance wattage among enabled classes.  ``terms``, chernoff's
    input, holds each enabled class as ``(count, watts, p_on)``.
    """

    mean: float
    variance: float
    sum_sq_ranges: float
    max_abs: float
    terms: tuple[tuple[int, float, float], ...] = ()


def _aggregate_stats(composition: ClassComposition, scale: float = 1.0) -> _AggregateStats:
    """Moments and terms of a folded composition with every wattage times
    ``scale``; the constant base load is not included.

    ``estimate`` passes a power of two, which scales exactly: where neither
    the scaled nor the unscaled values leave the normal float range, each
    moment formula reads the same bits as in watts.  Chernoff's search is
    set in the scaled units, so it is the same search at every such scale.
    """
    mean = 0.0
    variance = 0.0
    ssr = 0.0
    max_abs = 0.0
    terms = []
    for cls, enabled in composition.entries:
        if enabled == 0:
            continue
        p = cls.p_on
        h = cls.on_power * scale
        terms.append((enabled, h, p))
        mean += enabled * h * p
        variance += enabled * h * h * p * (1.0 - p)
        ssr += enabled * h * h
        max_abs = max(max_abs, h)
    return _AggregateStats(mean, variance, ssr, max_abs, tuple(terms))


def _fold_certain(composition: ClassComposition) -> ClassComposition:
    """Move always-on classes into the constant base load, drop never-on ones.

    A class with p_on 1 contributes a known constant, so it is base load;
    keeping it stochastic would needlessly slacken the moment bounds.
    ``estimate`` folds every composition before any method reads it, so each
    class a method sees has 0 < p_on < 1.  This is the one place always-on
    load becomes base load.
    """
    for cls, _ in composition.entries:
        if not 0.0 < cls.p_on < 1.0:
            break
    else:
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


def _reach_floor(threshold_w: float, quantum: float) -> float:
    """The least load in watts that reaches ``threshold_w``: the one reach rule."""
    return threshold_w - _GRID_RTOL * max(quantum, abs(threshold_w))


def _grid_steps(watts: float, quantum: float) -> int:
    try:
        steps = round(watts / quantum)
    except OverflowError:  # the ratio is infinite
        raise ValueError(
            f"{watts!r} W is more steps of the {quantum!r} W grid than a float holds"
        ) from None
    if abs(steps * quantum - watts) > _GRID_RTOL * max(quantum, abs(watts)) or steps < 1:
        raise ValueError(
            f"quantization mismatch: {watts!r} W is not a positive multiple "
            f"of the {quantum!r} W grid"
        )
    return int(steps)


def _grid_too_large(points: int, quantum: float) -> ValueError:
    from decimal import Decimal  # formats counts past the float range; an error path

    shown = points if points < 10**20 else f"{Decimal(points):.3e}"  # not hundreds of digits
    return ValueError(
        f"the exact pmf needs {shown} points on the {quantum!r} W grid, "
        f"more than the {_MAX_GRID_POINTS} it may hold"
    )


def _log_factorials(n: int) -> np.ndarray:
    """``lgamma(k + 1)`` for k = 0..n, a read-only slice of one shared table.

    A larger n extends the table to n + 1 entries or to twice its size
    (at most ``_MAX_GRID_POINTS``), whichever is more, so counts that grow
    one at a time rebuild it only a logarithmic number of times; each entry
    is the same ``math.lgamma`` double whichever count built it.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size <= n:
        size = max(n + 1, min(2 * table.size, _MAX_GRID_POINTS))
        more = np.fromiter(
            map(math.lgamma, range(table.size + 1, size + 1)),
            dtype=np.float64,
            count=size - table.size,
        )
        table = np.concatenate((table, more))
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return table[: n + 1]


def _normaliser(terms: np.ndarray) -> float:
    """``math.fsum(terms)`` for finite, non-negative terms whose largest is
    at least 2**-900 (a pmf's largest term is at least 1 / its size).

    fsum's exact partials grow with the binades its terms span, and a long
    binomial spans about a thousand.  Only the terms within 90 binades of
    the largest are summed when that provably gives the same double:

    - Let m be the largest term and t = m * 2**-90 (exact, and normal).
      B holds the terms >= t, and the other k terms sum to s, 0 <= s < k*t.
    - b = fsum(B) is B's exact sum S rounded to nearest, and b >= m > 0.
      r = fsum(B + [-b]) is S - b rounded to nearest.  S - b is a whole
      number of 2**-1074, so it is r exactly when subnormal, and otherwise
      |S - b| <= |r| / (1 - u), u = 2**-53.
    - The exact sum of all terms is T = S + s, so
      |T - b| < |r| / (1 - u) + k*t <= (|r| + k*t) * (1 + 2u).
    - The tested bound is (|r| + k*t) * (1 + 2**-49) in floats.  Its
      roundings are relative (k*t >= t is normal when k > 0), so it is at
      least (|r| + k*t) * (1 - u)**3 * (1 + 16u) > (|r| + k*t) * (1 + 12u),
      unless k = 0 and r is subnormal, where it is |r| = |T - b| itself.
    - For b > 0 the gap below b is the smaller gap around it.  When the
      bound is below half that gap, T lies strictly inside b's rounding
      interval, so T rounds to b, which is what fsum over all terms
      returns.  Otherwise (a NaN fails the test too) fsum runs over all.
    """
    floor = float(terms.max()) * _SIGNIFICANT
    significant = terms[terms >= floor].tolist()
    b = math.fsum(significant)
    small = terms.size - len(significant)
    significant.append(-b)
    r = math.fsum(significant)
    if (abs(r) + small * floor) * (1.0 + 2.0**-49) < (b - math.nextafter(b, 0.0)) / 2:
        return b
    return math.fsum(terms.tolist())


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf.

    Small n uses exact integer coefficients; large n moves to the log
    domain, where lgamma keeps the extreme terms from underflowing.  There
    ``lgamma(k + 1)`` and ``lgamma(n - k + 1)`` read one shared table from
    either end, and numpy sums each term's five parts in the per-term order.
    Either pmf is divided by its ``math.fsum``, which ``_normaliser`` gives.
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
        lg = _log_factorials(n)
        ks = np.arange(n + 1)
        pmf = np.exp(lg[n] - lg - lg[::-1] + ks * log_p + (n - ks) * log_q)
    return pmf / _normaliser(pmf)


def _trimmed(pmf: np.ndarray) -> tuple[int, np.ndarray]:
    """``(start, pmf[start:stop])``: ``pmf`` without the longest run of
    points at each end whose cumulative mass stays below ``_TRIM_MASS``.

    Each run is found by a cumulative sum from its end; an end point that
    carries ``_TRIM_MASS`` or more is kept without one.
    """
    start = 0
    if pmf[0] < _TRIM_MASS:
        start = int(pmf.cumsum().searchsorted(_TRIM_MASS, side="left"))
    stop = pmf.size
    if pmf[-1] < _TRIM_MASS:
        stop -= int(pmf[::-1].cumsum().searchsorted(_TRIM_MASS, side="left"))
    return start, pmf[start:stop]


def _convolved(residue: np.ndarray, kernel: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """``np.convolve(residue, kernel)``, the call it makes without its Python
    wrapper: the residue is taken as the longer operand unless the window
    is strictly longer, so the sums run in the same order to the same bytes."""
    if kernel.size > residue.size:
        return np.correlate(kernel, residue[::-1], "full")
    return np.correlate(residue, flipped, "full")


@lru_cache(maxsize=4096)
def _class_kernel(
    n: int, p_on: float, on_power: float, quantum: float
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """n appliances of one class on the grid as ``(lo, steps, kernel, flipped)``.

    ``steps`` is the ON wattage in grid steps (``_grid_steps``, checked once
    per cached class and count).  ``kernel`` is the Binomial(n, p_on) pmf
    trimmed by ``_trimmed``, ``flipped`` the same window reversed, and
    ``lo`` the count of its first term.  The window is a read-only copy
    (``models._read_only_copy``), since the cache shares it, and ``flipped``
    a view of it.  Far from the mean the log-domain binomial falls to
    subnormals and exact zeros, which slow ``np.correlate`` and together
    carry less than ``_TRIM_MASS`` at each end.
    """
    steps = _grid_steps(on_power, quantum)
    if n + 1 > _MAX_GRID_POINTS:
        raise _grid_too_large(n + 1, quantum)
    lo, window = _trimmed(_binomial_pmf(n, p_on))
    kernel = _read_only_copy("window", window)
    return lo, steps, kernel, kernel[::-1]


def exact_pmf(composition: ClassComposition, quantum: float = 1.0) -> PowerPmf:
    """Exact pmf of the stochastic aggregate on the watt grid.

    Within a class the n-fold self-convolution collapses to a binomial.  Each
    class contributes its binomial window, trimmed by ``_trimmed``, shifting
    a running grid offset by the window's start.  A class drawing ``s`` grid
    steps is convolved at stride ``s`` without padding: the accumulator is
    split by residue mod ``s`` and each residue is convolved with the window
    on its own by ``_convolved``, into a zeroed buffer at stride ``s``.  At
    one step the whole accumulator is the one residue, and its correlation
    is the output as it is, with no buffer and no strided copy.  Each
    convolved partial sum is trimmed by ``_trimmed`` before the next class,
    so mass below ``_TRIM_MASS`` is dropped where it appears; the tails
    agree with the untrimmed convolution to ~1e-15 relative.
    A one-point accumulator is always exactly ``[1.0]``: the empty load, or
    a one-term window, which ``_binomial_pmf`` divides by its own ``fsum``
    (x / x is 1.0).  Each of its one-product sums ``kernel[i] * 1.0`` is
    then ``kernel[i]`` bit for bit, so the first class's window becomes the
    accumulator as it is: the cached, read-only window itself at one step,
    laid out at stride ``s`` otherwise, with no multiply.  Every class's ON
    wattage must sit on the grid, else ValueError("quantization mismatch").
    A class count, or an array the layout or a convolution would allocate,
    past ``_MAX_GRID_POINTS`` points raises ValueError before it is made.
    The constant base load is not folded in; callers offset thresholds.
    ``PowerPmf`` keeps a read-only copy of the pmf, checks its mass and
    raises ValueError when it drifted from 1.
    """
    quantum = _real("quantum", quantum, 0.0)
    acc = _EMPTY_LOAD
    offset = 0
    for cls, enabled in _record("composition", composition, ClassComposition).entries:
        if enabled == 0:
            continue
        lo, steps, kernel, flipped = _class_kernel(enabled, cls.p_on, cls.on_power, quantum)
        offset += lo * steps
        size = acc.size + (kernel.size - 1) * steps
        if size > _MAX_GRID_POINTS:
            raise _grid_too_large(size, quantum)
        if acc.size > 1:
            if steps == 1:  # one residue, whose correlation is the output
                out = _convolved(acc, kernel, flipped)
            else:
                out = np.zeros(size)
                for r in range(min(steps, acc.size)):
                    out[r::steps] = _convolved(acc[r::steps], kernel, flipped)
            start, out = _trimmed(out)
            offset += start
        elif steps == 1:  # the accumulator is [1.0]: the window itself
            out = kernel
        else:
            out = np.zeros(size)
            out[::steps] = kernel
        acc = out
    return PowerPmf(quantum=quantum, offset=offset, probabilities=acc)


def _bound_markov(stats: _AggregateStats, threshold: float) -> float:
    """First-moment bound: mean over threshold, clamped to 1."""
    if threshold <= stats.mean:  # also a threshold that underflowed to 0 in scaling
        return 1.0
    return stats.mean / threshold


def _bound_chebyshev(stats: _AggregateStats, threshold: float) -> float:
    """Second-moment bound: variance over squared distance from the mean."""
    if threshold <= stats.mean:
        return 1.0
    d = threshold - stats.mean
    try:
        return min(1.0, stats.variance / d**2)
    except (OverflowError, ZeroDivisionError):  # d**2 overflows or underflows; v/d/d does not
        return min(1.0, stats.variance / d / d)


def _bound_hoeffding(stats: _AggregateStats, threshold: float) -> float:
    """Bounded-range exponential bound."""
    if threshold <= stats.mean:
        return 1.0
    if stats.sum_sq_ranges == 0.0:
        return 0.0
    d = threshold - stats.mean
    try:
        return math.exp(-2.0 * d**2 / stats.sum_sq_ranges)
    except OverflowError:  # d**2 past the float range; the product may reach inf
        return math.exp(-2.0 * (d / stats.sum_sq_ranges) * d)


def _bennett_h(u: float) -> float:
    return (1.0 + u) * math.log1p(u) - u


def _bound_bennett(stats: _AggregateStats, threshold: float) -> float:
    """Variance-aware exponential bound, tighter than Hoeffding's for
    small-variance aggregates."""
    if threshold <= stats.mean:
        return 1.0
    if stats.variance == 0.0:
        return 0.0
    if math.isinf(stats.variance):
        # u would be 0 (or NaN) and the exponent (v/b**2)*h(u) NaN: only the
        # trivial bound is left
        return 1.0
    d = threshold - stats.mean
    u = d * stats.max_abs / stats.variance
    h = _bennett_h(u)
    if not math.isfinite(h):
        # (1 + u) * ln(1 + u) overflowed (h is nan once u is inf too).  The
        # exponent (v/b**2)*h(u) is at least (d/b)*(ln(u) - 1), so this is
        # still a bound; ln(u) is summed from logs.
        log_u = math.log(d) + math.log(stats.max_abs) - math.log(stats.variance)
        return min(1.0, math.exp(-(d / stats.max_abs) * (log_u - 1.0)))
    scale = stats.variance / stats.max_abs**2
    return min(1.0, math.exp(-scale * h))


def _log_mgf_term(s: float, h: float, p: float) -> float:
    """ln E[exp(s X)] for one two-state appliance drawing h with prob 0 < p < 1."""
    x = s * h
    if x > 700.0:  # exp(x) would overflow; factor the dominant term out
        return x + math.log(p + (1.0 - p) * math.exp(-x))
    return math.log1p(p * math.expm1(x))


def _log_mgf_term_deriv(s: float, h: float, p: float) -> float:
    return h * p / (p + (1.0 - p) * math.exp(-min(s * h, 745.0)))


def _bound_chernoff(stats: _AggregateStats, threshold: float) -> float:
    """Optimized exponential-moment bound.

    Minimizes exp(sum of per-appliance log moment generating functions minus
    s * threshold) over s > 0 by bisecting the derivative of the convex
    exponent.  Returns 1 when the threshold does not exceed the mean.  The
    bracket [1e-12, 1] and the slope tolerance 1e-10 are in the units of
    ``stats``, which ``estimate`` sets near the largest ON wattage.
    """
    terms = stats.terms
    if threshold <= stats.mean:
        return 1.0
    support_max = sum(n * h for n, h, _ in terms)
    if math.isclose(threshold, support_max, rel_tol=1e-12):
        # infimum is the limit s -> inf: probability that everything is ON
        log_all_on = sum(n * math.log(p) for n, _, p in terms)
        return min(1.0, math.exp(log_all_on))
    if threshold > support_max:
        return 0.0  # no mass can reach the threshold

    def exponent(s: float) -> float:
        return sum(n * _log_mgf_term(s, h, p) for n, h, p in terms) - s * threshold

    def slope(s: float) -> float:
        return sum(n * _log_mgf_term_deriv(s, h, p) for n, h, p in terms) - threshold

    def bound_at(s: float) -> float:
        try:
            return min(1.0, math.exp(exponent(s)))
        except OverflowError:  # an exponent past the float range puts the bound above 1
            return 1.0

    s_lo, s_hi = 1e-12, 1.0
    if slope(s_lo) >= 0.0:
        return bound_at(s_lo)
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
    return bound_at(s_star)


def _clt_estimate(stats: _AggregateStats, threshold: float) -> float:
    """Normal approximation of the upper tail (an estimate, not a bound)."""
    if stats.variance == 0.0:
        return 1.0 if threshold <= stats.mean else 0.0
    z = (threshold - stats.mean) / math.sqrt(stats.variance)
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
    composition with no base load at limit c - d.  Loads from
    ``_reach_floor`` up reach the threshold: exact sums the grid points
    there, and the other methods read the threshold at the first of them
    when it lies below, so no bound undercuts exact.  A threshold read at
    or below the base load returns 1.  All results are clamped to [0, 1].
    Every analytic method reads one summary in power-of-two units, so it
    gives the same double when all watt inputs are scaled by a power of two
    that keeps them normal.  A quantum that is not positive and finite, a
    NaN ``c_max`` or a non-member ``method`` raises ValueError at any ceiling.
    """
    quantum = _real("quantum", quantum, 0.0)
    c_max = _real("c_max", c_max, -math.inf, math.inf, "[]")
    _member("method", method, EstimationMethod)
    composition = _fold_certain(_record("composition", composition, ClassComposition))
    threshold = c_max - composition.deterministic_load
    if method is not EstimationMethod.EXACT:
        try:  # read from the grid point exact starts at, where that lies below
            step = math.ceil(_reach_floor(threshold, quantum) / quantum)
            threshold = min(threshold, step * quantum)
        except (ValueError, OverflowError):  # an infinite threshold stays
            pass
    if threshold <= 0.0:
        return 1.0
    if method is EstimationMethod.EXACT:
        return exact_pmf(composition, quantum).tail_at_or_above(threshold)
    # moments, terms and threshold in units of a power of two that brings the
    # largest ON wattage to [1, 2), so squared wattages neither underflow nor
    # overflow; 2**+-1022 keeps the scale and its inverse normal floats
    top = max((cls.on_power for cls, n in composition.entries if n), default=1.0)
    scale = math.ldexp(1.0, min(max(1 - math.frexp(top)[1], -1022), 1022))
    stats = _aggregate_stats(composition, scale)
    threshold *= scale
    if method is EstimationMethod.MARKOV:
        return _bound_markov(stats, threshold)
    if method is EstimationMethod.CHEBYSHEV:
        return _bound_chebyshev(stats, threshold)
    if method is EstimationMethod.HOEFFDING:
        return _bound_hoeffding(stats, threshold)
    if method is EstimationMethod.BENNETT:
        return _bound_bennett(stats, threshold)
    if method is EstimationMethod.CHERNOFF:
        return _bound_chernoff(stats, threshold)
    return _clt_estimate(stats, threshold)

