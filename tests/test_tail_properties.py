"""Property checks of the tail estimators over random mixed-wattage compositions.

Mixing 1, 2, 3, 7 and 13 W classes sends the exact convolution through its
strided path on every example.
"""

from __future__ import annotations

import pytest

from loadcap.admission import QosPolicy, max_admissible
from loadcap.models import ApplianceClass, Bernoulli
from loadcap.tailprob import ClassComposition, EstimationMethod, _aggregate_stats, estimate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BOUND_METHODS = (
    EstimationMethod.MARKOV,
    EstimationMethod.CHEBYSHEV,
    EstimationMethod.HOEFFDING,
    EstimationMethod.BENNETT,
    EstimationMethod.CHERNOFF,
)
COUNT_CAP = 200


@st.composite
def compositions_and_limits(draw) -> tuple[ClassComposition, float]:
    classes = draw(st.integers(min_value=1, max_value=3))
    entries = tuple(
        (
            ApplianceClass(
                name=f"c{j}",
                on_power=draw(st.sampled_from([1.0, 2.0, 3.0, 7.0, 13.0])),
                model=Bernoulli(p_on=draw(st.floats(min_value=0.02, max_value=0.98))),
                count=COUNT_CAP,
            ),
            # below the cap, so one more appliance of any class still fits
            draw(st.integers(min_value=0, max_value=COUNT_CAP - 1)),
        )
        for j in range(classes)
    )
    top = sum(cls.on_power * n for cls, n in entries)
    # half-watt limits: on the support, between its points and past its top
    half_steps = draw(st.integers(min_value=1, max_value=int(2 * top) + 2))
    return ClassComposition(entries=entries), half_steps / 2.0


SETTINGS = hypothesis.settings(max_examples=50, deadline=None, database=None)


@SETTINGS
@hypothesis.given(compositions_and_limits())
def test_bounds_dominate_the_exact_tail(case) -> None:
    composition, c_max = case
    floor = estimate(EstimationMethod.EXACT, composition, c_max) - 1e-12
    for method in BOUND_METHODS:
        assert estimate(method, composition, c_max) >= floor, method


@st.composite
def limits_in_the_reach_band(draw) -> tuple[ClassComposition, float, float]:
    """A composition on a 1, 0.5 or 0.1 W grid, with or without a base load,
    and a limit at one of its support points (half the time the all-ON
    load) times 1 + delta, for delta across the band in which a load
    within 1e-9 relative below the limit counts as reaching it."""
    quantum = draw(st.sampled_from([1.0, 0.5, 0.1]))
    all_on = draw(st.booleans())
    entries = []
    point = 0.0
    for j in range(draw(st.integers(min_value=1, max_value=3))):
        cls = ApplianceClass(
            name=f"c{j}",
            on_power=draw(st.sampled_from([1, 2, 3, 7, 13])) * quantum,
            model=Bernoulli(p_on=draw(st.floats(min_value=0.02, max_value=0.98))),
            count=30,
        )
        enabled = draw(st.integers(min_value=0, max_value=cls.count))
        entries.append((cls, enabled))
        point += (enabled if all_on else draw(st.integers(0, enabled))) * cls.on_power
    base = draw(st.sampled_from([0, 40])) * quantum
    deltas = [0.0, 1e-12, 1e-11, 3e-10, 9e-10, 1e-9, -1e-10]
    delta = draw(st.sampled_from(deltas) | st.floats(min_value=-1e-10, max_value=1e-9))
    composition = ClassComposition(entries=tuple(entries), deterministic_load=base)
    return composition, base + point * (1.0 + delta), quantum


@SETTINGS
@hypothesis.given(limits_in_the_reach_band())
def test_bounds_dominate_the_exact_tail_in_the_reach_band(case) -> None:
    # exact counts a load just below the limit as reaching it; so must a bound
    composition, c_max, quantum = case
    floor = estimate(EstimationMethod.EXACT, composition, c_max, quantum) - 1e-12
    for method in BOUND_METHODS:
        assert estimate(method, composition, c_max, quantum) >= floor, method


@SETTINGS
@hypothesis.given(compositions_and_limits(), st.integers(min_value=0, max_value=2))
def test_monotone_methods_do_not_fall_when_an_appliance_joins(case, pick) -> None:
    composition, c_max = case
    entries = list(composition.entries)
    pick %= len(entries)
    cls, enabled = entries[pick]
    entries[pick] = (cls, enabled + 1)  # every count sits below the cap
    grown = ClassComposition(entries=tuple(entries))
    above_mean = c_max > _aggregate_stats(composition).mean
    for method in EstimationMethod:
        if method is EstimationMethod.CLT and not above_mean:
            continue  # the normal estimate rises with the count only above the mean
        before = estimate(method, composition, c_max)
        after = estimate(method, grown, c_max)
        assert after >= before - 1e-12 * before, method


@SETTINGS
@hypothesis.given(
    compositions_and_limits(),
    st.sampled_from([1.0, 2.0, 3.0, 7.0, 13.0]),
    st.integers(min_value=0, max_value=60),
)
def test_always_on_class_is_constant_load(case, on_power, n) -> None:
    composition, c_max = case
    always = ApplianceClass(
        name="always", on_power=on_power, model=Bernoulli(p_on=1.0), count=60
    )
    joined = ClassComposition(entries=composition.entries + ((always, n),))
    based = ClassComposition(entries=composition.entries, deterministic_load=n * on_power)
    for method in EstimationMethod:
        assert estimate(method, joined, c_max) == estimate(method, based, c_max), method
    # alone, n always-on appliances fit while n * on_power stays below c_max
    policy = QosPolicy(c_max=c_max, p=0.01)
    fits = min(always.count, int((2 * c_max - 1) // (2 * on_power)))
    for method in EstimationMethod:
        assert max_admissible(always, policy, method) == fits, method
