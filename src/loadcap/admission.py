"""Admission control for stochastic appliance loads.

An admission policy fixes a consumption ceiling and a tolerated probability
of reaching it.  A vector of enabled counts per class is admitted when the
chosen tail estimator, applied to that composition, still respects that
probability.  Equality counts as acceptance.  Sizing (``max_admissible``),
acceptance regions (``decision_region``) and the slot-dynamic simulator all
apply this one check (``_count_estimator``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .models import ApplianceClass
from .tailprob import ClassComposition, EstimationMethod, estimate

__all__ = ["QosPolicy", "max_admissible", "decision_region"]

# the most cells ``decision_region`` enumerates, one estimate each
_MAX_REGION_CELLS = 2**24


@dataclass(frozen=True)
class QosPolicy:
    """Consumption ceiling and tolerated probability of reaching it.

    ``c_max`` is the ceiling guarded with probability ``p``.  ``c_sys`` is
    the physical ceiling; it validates ``c_max`` at construction and nothing
    else.
    """

    c_max: float
    p: float
    c_sys: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_max) and self.c_max > 0.0):
            raise ValueError(f"c_max={self.c_max!r} must be positive and finite")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p={self.p!r} must lie strictly inside (0, 1)")
        if self.c_sys is not None and not self.c_max <= self.c_sys:
            raise ValueError(
                f"c_max={self.c_max!r} exceeds the physical ceiling {self.c_sys!r}"
            )

    def admits(self, value: float) -> bool:
        """Whether a tail estimate respects ``p``; equality accepts."""
        return _admits_estimate(value, self.p)


def _admits_estimate(value: float, p: float) -> bool:
    """The admission rule: a tail estimate respects a tolerated probability
    ``p`` when it is at most ``p``.  ``QosPolicy.admits`` applies it to the
    policy's ``p``, ``bounds --require`` to any finite bound."""
    return value <= p


def _count_estimator(
    classes: tuple[ApplianceClass, ...],
    policy: QosPolicy,
    method: EstimationMethod,
    quantum: float,
    base: ClassComposition,
) -> Callable[[tuple[int, ...]], bool]:
    """Admission check as a function of the enabled count of each class.

    ``counts[i]`` of ``classes[i]`` join ``base`` as new entries; the
    estimator folds always-on classes into the constant load.  Class names
    and the base are checked once, here; each call checks only its counts
    against ``[0, cls.count]``.
    """
    # the constructor refuses a name that repeats across base and classes
    ClassComposition(entries=base.entries + tuple((cls, 0) for cls in classes))
    limits = tuple(cls.count for cls in classes)
    new, set_field = object.__new__, object.__setattr__
    c_max = policy.c_max

    def admits(counts: tuple[int, ...]) -> bool:
        entries = list(base.entries)
        for cls, n, limit in zip(classes, counts, limits):
            if not 0 <= n <= limit or int(n) != n:
                raise ValueError(f"enabled count {n!r} for {cls.name!r} outside [0, {limit}]")
            entries.append((cls, int(n)))
        # every check ClassComposition runs has passed, so its fields are
        # filled in without running them again for each count vector
        comp = new(ClassComposition)
        set_field(comp, "entries", tuple(entries))
        set_field(comp, "deterministic_load", base.deterministic_load)
        return policy.admits(estimate(method, comp, c_max, quantum))

    return admits


def _admits_down_set(policy: QosPolicy, method: EstimationMethod) -> bool:
    """Whether every count vector below an admitted one is admitted too.

    Holds over any fixed base.  The threshold t an estimate reads never
    depends on the counts, and falls as the base load rises (``estimate``).
    One more appliance raises the mean m and the variance v and lowers
    d = t - m (an always-on one only lowers t).  Every bound and the exact
    tail then rise: Chebyshev v/d**2 rises, and is 1 once d <= 0; Bennett's exponent (v/b**2)*h(u),
    u = d*b/v, falls as v rises (its v-derivative is (ln(1+u) - u)/b**2 < 0),
    as d falls, and as b rises (h(x)/x**2 decreases).  The normal estimate
    Q((t-m)/sqrt(v)) rises while t > m, and any vector estimated at
    <= p < 1/2 has t > m, as does every vector below it.
    """
    return method is not EstimationMethod.CLT or policy.p < 0.5


def _largest_admitted(admits: Callable[[int], bool], count: int) -> int:
    """Largest n in [0, count] that ``admits``, or -1 when 0 does not.

    ``admits`` must never turn true again once false: an
    exponential-then-binary search finds the edge.
    """
    if not admits(0):
        return -1
    if count == 0 or admits(count):
        return count
    # invariant: lo fits, hi does not
    lo, hi = 0, 1
    while admits(hi):
        lo = hi
        hi = min(2 * hi, count)  # count does not fit, so hi stays a strict bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if admits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_admissible(
    appliance_class: ApplianceClass,
    policy: QosPolicy,
    method: EstimationMethod,
    quantum: float = 1.0,
    base: ClassComposition | None = None,
) -> int:
    """Largest enabled count of one class that still meets the policy.

    ``base`` holds load that is present regardless (other classes, constant
    load); the search varies only this class's count, capped at its
    population.  It reads the one-class ``_admission_frontier`` where
    ``_admits_down_set`` holds (every method but clt at p >= 1/2), a linear
    scan elsewhere.  Returns 0 if nothing fits.
    """
    if base is None:
        base = ClassComposition.empty()
    if _admits_down_set(policy, method):
        return max(_admission_frontier((appliance_class,), policy, method, quantum, base)[0], 0)
    admits = _count_estimator((appliance_class,), policy, method, quantum, base)
    return max((n for n in range(appliance_class.count + 1) if admits((n,))), default=0)


def _admission_frontier(
    classes: tuple[ApplianceClass, ...],
    policy: QosPolicy,
    method: EstimationMethod,
    quantum: float,
    base: ClassComposition,
) -> list[int]:
    """Largest admitted count of ``classes[0]`` beside each count of ``classes[1]``.

    Entry n2 is the largest n1 <= ``classes[0].count`` with (n1, n2)
    admitted over ``base``, or -1 when none is; one class gives the single
    entry for n2 = 0.  Valid only where ``_admits_down_set`` holds: the
    frontier then never rises, so one walk spends O(count1 + count2) estimates.
    """
    admits = _count_estimator(classes, policy, method, quantum, base)
    first = classes[0].count
    if len(classes) == 1:
        return [_largest_admitted(lambda n: admits((n,)), first)]
    n1 = _largest_admitted(lambda n: admits((n, 0)), first)
    front = [n1]
    for n2 in range(1, classes[1].count + 1):
        while n1 >= 0 and not admits((n1, n2)):
            n1 -= 1
        front.append(n1)
    return front


def decision_region(
    class1: ApplianceClass,
    class2: ApplianceClass,
    policy: QosPolicy,
    method: EstimationMethod,
    quantum: float = 1.0,
) -> np.ndarray:
    """Boolean acceptance grid over two class counts.

    Cell ``[n1, n2]`` is true when enabling n1 of the first class and n2 of
    the second meets the policy under the method.  Computed by full grid
    enumeration, one estimate per cell; shape is (class1.count + 1,
    class2.count + 1).  A grid of more than ``_MAX_REGION_CELLS`` cells
    raises ``ValueError`` before any estimate or allocation.

    Every cell lists the class of larger ON wattage first, so an exact pmf
    folds the stride class first; equal wattages keep the given order.  The
    order moves an exact tail in its last bits only, and no other estimate.
    """
    cells = (class1.count + 1) * (class2.count + 1)
    if cells > _MAX_REGION_CELLS:
        raise ValueError(
            f"a region of {cells} cells exceeds the budget of {_MAX_REGION_CELLS} cells"
        )
    swap = class2.on_power > class1.on_power
    classes = (class2, class1) if swap else (class1, class2)
    admits = _count_estimator(classes, policy, method, quantum, ClassComposition.empty())
    region = np.zeros((class1.count + 1, class2.count + 1), dtype=bool)
    for n1 in range(class1.count + 1):
        for n2 in range(class2.count + 1):
            region[n1, n2] = admits((n2, n1) if swap else (n1, n2))
    return region
