"""Property checks of the count searches over random classes and bases.

Wherever ``_admits_down_set`` holds, the staircase walk of
``_admission_frontier`` must describe the full enumeration of the admitted
count grid, cell for cell, over a base with constant load and always-on
classes.
"""

from __future__ import annotations

import pytest

from loadcap.admission import QosPolicy, _admission_frontier, _admits_down_set, _count_estimator
from loadcap.models import ApplianceClass, Bernoulli
from loadcap.tailprob import ClassComposition, EstimationMethod

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# one class in five is always on
p_ons = st.one_of(st.floats(min_value=0.02, max_value=0.98), st.just(1.0))


@st.composite
def classes(draw, name: str, max_count: int) -> ApplianceClass:
    return ApplianceClass(
        name=name,
        on_power=draw(st.sampled_from([1.0, 2.0, 3.0, 7.0])),
        model=Bernoulli(p_on=draw(p_ons)),
        count=draw(st.integers(min_value=0, max_value=max_count)),
    )


@st.composite
def frontier_cases(draw):
    searched = tuple(draw(classes(f"s{j}", 12)) for j in range(draw(st.integers(1, 2))))
    base_classes = [draw(classes(f"b{j}", 6)) for j in range(draw(st.integers(0, 2)))]
    base = ClassComposition(
        tuple((cls, cls.count) for cls in base_classes),
        draw(st.sampled_from([0.0, 1.5, 4.0])),
    )
    top = base.deterministic_load + sum(
        cls.on_power * cls.count for cls in searched + tuple(base_classes)
    )
    # half-watt ceilings from below the base load to past the peak
    c_max = draw(st.integers(min_value=1, max_value=int(2 * top) + 2)) / 2.0
    policy = QosPolicy(c_max=c_max, p=draw(st.floats(min_value=1e-4, max_value=0.95)))
    method = draw(st.sampled_from(list(EstimationMethod)))
    hypothesis.assume(_admits_down_set(policy, method))
    return searched, base, policy, method


@hypothesis.settings(max_examples=80, deadline=None, database=None)
@hypothesis.given(frontier_cases())
def test_frontier_walk_equals_full_enumeration(case) -> None:
    searched, base, policy, method = case
    front = _admission_frontier(searched, policy, method, 1.0, base)
    admits = _count_estimator(searched, policy, method, 1.0, base)
    second = searched[1].count if len(searched) == 2 else 0
    assert len(front) == second + 1
    for n2 in range(second + 1):
        for n1 in range(searched[0].count + 1):
            counts = (n1, n2) if len(searched) == 2 else (n1,)
            assert admits(counts) == (n1 <= front[n2]), (method, counts, front)
