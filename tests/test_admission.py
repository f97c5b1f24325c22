"""Admission decisions, capacity search, and two-class decision regions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from loadcap import admission
from loadcap.admission import (
    _admission_frontier,
    _admits_down_set,
    _count_estimator,
    QosPolicy,
    decision_region,
    max_admissible,
)
from loadcap.models import ApplianceClass, Bernoulli
from loadcap.tailprob import ClassComposition, EstimationMethod, _aggregate_stats, estimate

SEARCH_METHODS = tuple(EstimationMethod)


def bern(name: str, on_power: float, p_on: float, count: int) -> ApplianceClass:
    return ApplianceClass(name=name, on_power=on_power, model=Bernoulli(p_on=p_on), count=count)


def full_comp(*classes: ApplianceClass, det: float = 0.0) -> ClassComposition:
    return ClassComposition(entries=tuple((c, c.count) for c in classes), deterministic_load=det)


def linear_scan_max(
    cls: ApplianceClass,
    policy: QosPolicy,
    method: EstimationMethod,
    base: ClassComposition = ClassComposition.empty(),
) -> int:
    best = 0
    for n in range(cls.count + 1):
        comp = ClassComposition(
            entries=base.entries + ((cls, n),), deterministic_load=base.deterministic_load
        )
        if estimate(method, comp, policy.c_max) <= policy.p:
            best = n
    return best


# ---------------------------------------------------------------------------
# policy validation
# ---------------------------------------------------------------------------


def test_qos_policy_validation() -> None:
    QosPolicy(c_max=60.0, p=0.05)
    QosPolicy(c_max=60.0, p=0.05, c_sys=80.0)
    with pytest.raises(ValueError):
        QosPolicy(c_max=0.0, p=0.05)
    with pytest.raises(ValueError):
        QosPolicy(c_max=60.0, p=0.0)
    with pytest.raises(ValueError):
        QosPolicy(c_max=60.0, p=1.0)
    with pytest.raises(ValueError):
        QosPolicy(c_max=60.0, p=0.05, c_sys=50.0)


def test_count_estimator_checks_names_once_and_counts_on_every_call() -> None:
    a, b = bern("a", 1.0, 0.35, 12), bern("b", 3.0, 0.15, 5)
    policy = QosPolicy(c_max=8.0, p=0.03)
    exact = EstimationMethod.EXACT
    with pytest.raises(ValueError, match="duplicate class name 'a'"):
        _count_estimator((a, b), policy, exact, 1.0, ClassComposition(entries=((a, 3),)))
    with pytest.raises(ValueError, match="duplicate class name 'b'"):
        _count_estimator((b, b), policy, exact, 1.0, ClassComposition.empty())
    base = ClassComposition(entries=((bern("c", 2.0, 1.0, 2), 1),), deterministic_load=0.5)
    admits = _count_estimator((a, b), policy, exact, 1.0, base)
    for counts, message in (
        ((13, 0), "enabled count of 'a'=13 must be an integer from 0 to 12"),
        ((0, -1), "enabled count of 'b'=-1 must be an integer from 0 to 5"),
        ((2.5, 0), "enabled count of 'a'=2.5 must be an integer from 0 to 12"),
        ((0, math.inf), "enabled count of 'b'=inf must be an integer from 0 to 5"),
        ((math.nan, 0), "enabled count of 'a'=nan must be an integer from 0 to 12"),
    ):
        with pytest.raises(ValueError) as refused:
            admits(counts)
        assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            ClassComposition(entries=tuple(zip((a, b), counts)))
        assert str(refused.value) == message
    # each verdict is the one the composition built by its constructor gives
    for n1 in range(a.count + 1):
        for n2 in range(b.count + 1):
            comp = ClassComposition(
                entries=base.entries + ((a, n1), (b, n2)), deterministic_load=0.5
            )
            assert admits((n1, n2)) == (estimate(exact, comp, 8.0) <= 0.03), (n1, n2)


# ---------------------------------------------------------------------------
# single decisions
# ---------------------------------------------------------------------------


def test_decide_accepts_when_exact_tail_clears_policy() -> None:
    # Pr(Bin(101, 1/2) >= 60) = 0.036378... <= 0.05
    pool = bern("c0", 1.0, 0.5, 101)
    policy = QosPolicy(c_max=60.0, p=0.05)
    value = estimate(EstimationMethod.EXACT, full_comp(pool), policy.c_max)
    assert value == pytest.approx(0.03637850343876199, rel=1e-12)
    assert policy.admits(value)
    assert max_admissible(pool, policy, EstimationMethod.EXACT) == 101


def test_decide_rejects_under_coarse_first_moment_bound() -> None:
    # same pool, first-moment bound: 50.5 / 60 far above the budget
    pool = bern("c0", 1.0, 0.5, 101)
    policy = QosPolicy(c_max=60.0, p=0.05)
    value = estimate(EstimationMethod.MARKOV, full_comp(pool), policy.c_max)
    assert value == pytest.approx(50.5 / 60.0)
    assert not policy.admits(value)
    assert max_admissible(pool, policy, EstimationMethod.MARKOV) == 6  # 6 * 0.5 / 60


def test_decide_equality_accepts() -> None:
    policy = QosPolicy(c_max=10.0, p=0.5)
    assert policy.admits(0.5)
    assert not policy.admits(math.nextafter(0.5, 1.0))
    # one 10 W appliance at p_on 1/2 puts the first-moment bound exactly at 0.5
    pair = bern("x", 10.0, 0.5, 2)
    one = ClassComposition(entries=((pair, 1),))
    assert estimate(EstimationMethod.MARKOV, one, policy.c_max) == 0.5
    assert max_admissible(pair, policy, EstimationMethod.MARKOV) == 1


def test_decide_deterministic_newcomer_shifts_threshold() -> None:
    pool = bern("c0", 1.0, 0.5, 20)
    heater = ApplianceClass(name="heat", on_power=4.0, model=Bernoulli(p_on=1.0), count=1)
    with_heater = full_comp(pool, heater)
    assert estimate(EstimationMethod.EXACT, with_heater, 18.0) == pytest.approx(
        estimate(EstimationMethod.EXACT, full_comp(pool), 14.0), abs=1e-15
    )
    sized = max_admissible(
        pool, QosPolicy(c_max=18.0, p=0.01), EstimationMethod.EXACT, base=full_comp(heater)
    )
    assert sized == max_admissible(pool, QosPolicy(c_max=14.0, p=0.01), EstimationMethod.EXACT)


def test_decide_first_appliance_onto_empty_system() -> None:
    policy = QosPolicy(c_max=5.0, p=0.01)
    assert max_admissible(bern("x", 1.0, 0.9, 1), policy, EstimationMethod.EXACT) == 1
    assert max_admissible(bern("y", 5.0, 0.9, 1), policy, EstimationMethod.EXACT) == 0


# ---------------------------------------------------------------------------
# capacity search
# ---------------------------------------------------------------------------


def test_max_admissible_always_on_appliances_pack_to_the_limit() -> None:
    cls = bern("x", 1.0, 1.0, 50)
    policy = QosPolicy(c_max=10.5, p=0.01)
    for method in SEARCH_METHODS:
        assert max_admissible(cls, policy, method) == 10


def test_max_admissible_exact_matches_linear_scan_oracle() -> None:
    cls = bern("x", 1.0, 0.1, 300)
    policy = QosPolicy(c_max=20.0, p=0.01)
    result = max_admissible(cls, policy, EstimationMethod.EXACT)
    assert result == linear_scan_max(cls, policy, EstimationMethod.EXACT)
    assert result == 114  # Pr(Bin(114,.1)>=20)=0.00916 <= 0.01 < Pr(Bin(115,.1)>=20)
    # a larger population changes nothing below its count cap
    assert max_admissible(bern("x", 1.0, 0.1, 400), policy, EstimationMethod.EXACT) == 114


def test_max_admissible_binary_search_agrees_with_linear_scan() -> None:
    rng = np.random.default_rng(41)
    for _ in range(25):
        cls = bern(
            "x",
            float(rng.integers(1, 5)),
            float(rng.uniform(0.05, 0.95)),
            int(rng.integers(1, 40)),
        )
        c_max = float(rng.uniform(1.0, 50.0))
        p = float(rng.uniform(1e-4, 0.5))
        policy = QosPolicy(c_max=c_max, p=p)
        for method in SEARCH_METHODS:
            assert max_admissible(cls, policy, method) == linear_scan_max(cls, policy, method)
    # over a base whose mean lands below or above the threshold, so the clt
    # scan and every binary search (chebyshev and bennett included) run
    at_or_below_mean = 0
    for _ in range(40):
        cls = bern("x", float(rng.integers(1, 5)), float(rng.uniform(0.05, 0.95)), 30)
        other = bern("y", float(rng.integers(1, 5)), float(rng.uniform(0.05, 0.95)), 30)
        det = float(rng.choice([0.0, 3.0]))
        base = ClassComposition(
            entries=((other, int(rng.integers(0, 31))),), deterministic_load=det
        )
        base_mean = _aggregate_stats(base).mean
        c_max = det + max(0.5, base_mean * float(rng.uniform(0.5, 1.5)))
        if c_max - det <= base_mean:
            at_or_below_mean += 1
        policy = QosPolicy(c_max=c_max, p=float(rng.uniform(1e-4, 0.9)))
        for method in SEARCH_METHODS:
            searched = max_admissible(cls, policy, method, base=base)
            assert searched == linear_scan_max(cls, policy, method, base), method
    assert 5 <= at_or_below_mean <= 35
    # 20 x 1 W at 0.95 hold a mean of 19 W over a 17.5 W limit: the normal
    # estimate first falls as 5 W appliances join, so none fits yet some do
    cls = bern("x", 5.0, 0.05, 30)
    base = full_comp(bern("y", 1.0, 0.95, 20))
    policy = QosPolicy(c_max=17.5, p=0.9)
    scanned = linear_scan_max(cls, policy, EstimationMethod.CLT, base)
    assert scanned > 0
    assert estimate(EstimationMethod.CLT, base, policy.c_max) > policy.p
    assert max_admissible(cls, policy, EstimationMethod.CLT, base=base) == scanned
    # just above p = 1/2 too: ten 1 W appliances almost always on hold a mean
    # of 9.99 W over a 9.89 W limit, and a rare 100 W one adds far more
    # variance than mean, so the estimate falls from 0.84 to 0.54 as it joins
    cls = bern("x", 100.0, 0.0001, 3)
    base = full_comp(bern("y", 1.0, 0.999, 10))
    policy = QosPolicy(c_max=9.89, p=0.55)
    assert not _admits_down_set(policy, EstimationMethod.CLT)
    assert estimate(EstimationMethod.CLT, base, policy.c_max) > policy.p
    assert linear_scan_max(cls, policy, EstimationMethod.CLT, base) == 3
    assert max_admissible(cls, policy, EstimationMethod.CLT, base=base) == 3


def test_max_admissible_estimates_no_count_twice(monkeypatch) -> None:
    # the doubling stops below the population, which was estimated first and
    # did not fit; 30 x 1 W at 0.3 under 14 W at p 0.01 spends 11 estimates
    estimated = []
    real_estimate = admission.estimate

    def counting(method, comp, *args, **kwargs):
        estimated.append(tuple(n for _, n in comp.entries))
        return real_estimate(method, comp, *args, **kwargs)

    monkeypatch.setattr(admission, "estimate", counting)
    policy = QosPolicy(c_max=14.0, p=0.01)
    assert max_admissible(bern("x", 1.0, 0.3, 30), policy, EstimationMethod.EXACT) == 26
    assert len(estimated) == 11
    for count in range(1, 41):
        for method in SEARCH_METHODS:
            estimated.clear()
            cls = bern("x", 1.0, 0.3, count)
            assert max_admissible(cls, policy, method) == linear_scan_max(cls, policy, method)
            assert len(set(estimated)) == len(estimated), (count, method)


def test_max_admissible_zero_when_even_one_is_too_risky() -> None:
    cls = bern("x", 5.0, 0.9, 10)
    policy = QosPolicy(c_max=4.0, p=0.01)
    for method in SEARCH_METHODS:
        assert max_admissible(cls, policy, method) == 0


def test_max_admissible_refuses_a_non_method_over_a_saturated_base() -> None:
    # the base alone reaches the ceiling, so every estimate is 1 before the
    # method is read: a string is refused, not sized to 0
    with pytest.raises(ValueError, match="method='markov' is not a member of EstimationMethod"):
        max_admissible(
            bern("x", 1.0, 0.5, 10), QosPolicy(8.0, 0.05), "markov", base=ClassComposition((), 9.0)
        )


def test_max_admissible_caps_at_population() -> None:
    cls = bern("x", 1.0, 0.01, 5)
    policy = QosPolicy(c_max=100.0, p=0.5)
    for method in SEARCH_METHODS:
        assert max_admissible(cls, policy, method) == 5


def test_max_admissible_respects_base_composition() -> None:
    cls = bern("x", 1.0, 0.5, 60)
    other = bern("y", 1.0, 0.5, 40)
    policy = QosPolicy(c_max=40.0, p=0.01)
    base = full_comp(other)
    with_base = max_admissible(cls, policy, EstimationMethod.EXACT, base=base)
    alone = max_admissible(cls, policy, EstimationMethod.EXACT)
    assert with_base < alone
    # oracle: scan counts against the combined composition
    best = 0
    for n in range(cls.count + 1):
        combined = ClassComposition(entries=((other, other.count), (cls, n)))
        if estimate(EstimationMethod.EXACT, combined, policy.c_max) <= policy.p:
            best = n
    assert with_base == best


def test_max_admissible_constant_base_load_shifts_capacity() -> None:
    cls = bern("x", 1.0, 0.5, 100)
    policy = QosPolicy(c_max=30.0, p=0.05)
    base = ClassComposition(entries=(), deterministic_load=10.0)
    shifted = max_admissible(cls, policy, EstimationMethod.EXACT, base=base)
    plain = max_admissible(cls, QosPolicy(c_max=20.0, p=0.05), EstimationMethod.EXACT)
    assert shifted == plain


def test_max_admissible_deterministic_class_is_floor_division() -> None:
    cls = ApplianceClass(name="d", on_power=3.0, model=Bernoulli(p_on=1.0), count=20)
    policy = QosPolicy(c_max=10.0, p=0.01)
    for method in SEARCH_METHODS:
        # 3 appliances load 9 W < 10 W; the fourth reaches 12 W
        assert max_admissible(cls, policy, method) == 3


def test_max_admissible_ordering_across_methods() -> None:
    cls = bern("x", 1.0, 0.1, 2000)
    policy = QosPolicy(c_max=90.0, p=1e-5)
    counts = {m: max_admissible(cls, policy, m) for m in SEARCH_METHODS}
    assert counts[EstimationMethod.CLT] >= counts[EstimationMethod.EXACT]
    assert counts[EstimationMethod.EXACT] >= counts[EstimationMethod.CHERNOFF]
    assert counts[EstimationMethod.CHERNOFF] >= counts[EstimationMethod.BENNETT]
    assert counts[EstimationMethod.BENNETT] >= counts[EstimationMethod.HOEFFDING]
    assert counts[EstimationMethod.HOEFFDING] >= counts[EstimationMethod.CHEBYSHEV]
    assert counts[EstimationMethod.CHEBYSHEV] >= counts[EstimationMethod.MARKOV]


def test_max_admissible_non_decreasing_in_budget() -> None:
    cls = bern("x", 2.0, 0.3, 80)
    budgets = [1e-4, 1e-3, 1e-2, 1e-1, 0.5]
    for method in SEARCH_METHODS:
        counts = [max_admissible(cls, QosPolicy(c_max=30.0, p=p), method) for p in budgets]
        assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# decision regions
# ---------------------------------------------------------------------------


def test_decision_region_origin_and_shape() -> None:
    c1 = bern("a", 1.0, 0.2, 6)
    c2 = bern("b", 2.0, 0.4, 4)
    policy = QosPolicy(c_max=5.0, p=0.05)
    region = decision_region(c1, c2, policy, EstimationMethod.EXACT)
    assert region.shape == (7, 5)
    assert region.dtype == np.bool_
    assert region[0, 0]  # an empty system never violates


def test_decision_region_downward_closed_for_monotone_methods() -> None:
    # the README case; for every method, swapping the classes transposes it
    c1 = bern("a", 1.0, 0.35, 10)
    c2 = bern("b", 3.0, 0.15, 6)
    policy = QosPolicy(c_max=8.0, p=0.03)
    monotone = (
        EstimationMethod.EXACT,
        EstimationMethod.MARKOV,
        EstimationMethod.HOEFFDING,
        EstimationMethod.CHERNOFF,
    )
    for method in EstimationMethod:
        region = decision_region(c1, c2, policy, method)
        assert np.array_equal(decision_region(c2, c1, policy, method), region.T), method
        if method in monotone:
            for n1, n2 in np.argwhere(region):
                assert region[: n1 + 1, : n2 + 1].all(), (method, n1, n2)


def test_decision_region_frontier_matches_max_admissible() -> None:
    # the staircase walk and the one-class search, each against full enumeration;
    # the second c2 rejects every n1 beside all four of its appliances
    c1 = bern("a", 1.0, 0.35, 12)
    policy = QosPolicy(c_max=8.0, p=0.03)
    for c2, last_column_rejected in ((bern("b", 3.0, 0.15, 5), False),
                                     (bern("b", 3.0, 0.9, 4), True)):  # fmt: skip
        for method in SEARCH_METHODS:
            region = decision_region(c1, c2, policy, method)
            # largest accepted n1 of each column, -1 when the whole column is rejected
            column_max = [int(max(np.flatnonzero(column), default=-1)) for column in region.T]
            if last_column_rejected:
                assert column_max[-1] == -1, method
            if _admits_down_set(policy, method):  # the staircase needs a down-set
                frontier = _admission_frontier(
                    (c1, c2), policy, method, 1.0, ClassComposition.empty()
                )
                assert frontier == column_max, method
            for n2, top in enumerate(column_max):
                base = ClassComposition(entries=((c2, n2),))
                # when even n1 = 0 violates, the search reports 0 regardless
                expected = max(top, 0)
                assert max_admissible(c1, policy, method, base=base) == expected, (method, n2)


def _region_in_listed_order(
    c1: ApplianceClass, c2: ApplianceClass, policy: QosPolicy, method: EstimationMethod
) -> np.ndarray:
    """Every cell estimated with class 1 listed first."""
    region = np.zeros((c1.count + 1, c2.count + 1), dtype=bool)
    for n1, n2 in np.ndindex(region.shape):
        comp = ClassComposition(entries=((c1, n1), (c2, n2)))
        region[n1, n2] = policy.admits(estimate(method, comp, policy.c_max))
    return region


# the README case; p_on 0.5, whose dyadic exact tail at (1, 1) is p itself;
# equal wattages, which keep the given order; and class 1 the larger class
_FOLD_CASES = {
    "readme": (bern("a", 1.0, 0.35, 10), bern("b", 3.0, 0.15, 6), QosPolicy(c_max=8.0, p=0.03)),
    "dyadic": (bern("a", 1.0, 0.5, 4), bern("b", 3.0, 0.5, 3), QosPolicy(c_max=4.0, p=0.25)),
    "equal-watts": (bern("a", 2.0, 0.3, 8), bern("b", 2.0, 0.15, 6), QosPolicy(c_max=10.0, p=0.05)),
    "larger-first": (bern("a", 3.0, 0.15, 6), bern("b", 1.0, 0.35, 10), QosPolicy(c_max=8.0, p=0.03)),
}


@pytest.mark.parametrize("case", _FOLD_CASES)
def test_decision_region_fold_order_cannot_be_seen(case) -> None:
    c1, c2, policy = _FOLD_CASES[case]
    for method in EstimationMethod:
        region = decision_region(c1, c2, policy, method)
        assert np.array_equal(region, _region_in_listed_order(c1, c2, policy, method)), method
        assert np.array_equal(decision_region(c2, c1, policy, method), region.T), method
    if case == "dyadic":
        for entries in (((c1, 1), (c2, 1)), ((c2, 1), (c1, 1))):
            comp = ClassComposition(entries=entries)
            assert estimate(EstimationMethod.EXACT, comp, policy.c_max) == policy.p
        assert decision_region(c1, c2, policy, EstimationMethod.EXACT)[1, 1]


def test_decision_region_refuses_a_grid_past_its_cell_budget(monkeypatch) -> None:
    # 4097 * 4097 cells, just past 2**24: refused before any estimate runs
    estimates = []
    monkeypatch.setattr(admission, "estimate", lambda *args: estimates.append(args))
    c1, c2 = bern("a", 1.0, 0.5, 2**12), bern("b", 3.0, 0.5, 2**12)
    with pytest.raises(ValueError, match=f"{4097 * 4097} cells exceeds the budget of {2**24}"):
        decision_region(c1, c2, QosPolicy(c_max=100.0, p=0.1), EstimationMethod.EXACT)
    assert estimates == []


def test_tight_region_is_contained_in_exact_region() -> None:
    c1 = bern("a", 1.0, 0.2, 15)
    c2 = bern("b", 2.0, 0.1, 8)
    policy = QosPolicy(c_max=10.0, p=0.01)
    exact = decision_region(c1, c2, policy, EstimationMethod.EXACT)
    for method in (EstimationMethod.CHERNOFF, EstimationMethod.BENNETT):
        tight = decision_region(c1, c2, policy, method)
        assert not np.any(tight & ~exact)
