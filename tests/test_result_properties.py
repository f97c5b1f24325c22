"""Property checks of a result's metrics over small configs and series.

A ``SimResult`` stores what a run produced; every metric is read from its
series and config, so a by-hand count over the series must give it, and a
result rebuilt with another series must report on that one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from loadcap.admission import QosPolicy
from loadcap.models import ApplianceClass, Bernoulli
from loadcap.simulation import SimConfig, SimResult, run
from loadcap.tailprob import EstimationMethod

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = ("config", "enabled_counts", "series_baseline", "series_managed", "ledger", "outcomes")


@st.composite
def configs(draw) -> SimConfig:
    det = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return SimConfig(
        classes=(ApplianceClass(name="c0", on_power=1.0, model=Bernoulli(p_on=0.5), count=3),),
        policy=QosPolicy(
            c_max=det + draw(st.sampled_from([0.25, 1.0, 3.0, 7.5, 1e6])),
            p=draw(st.floats(min_value=1e-3, max_value=0.99)),
        ),
        method=EstimationMethod.EXACT,
        slots=draw(st.integers(min_value=1, max_value=30)),
        quantum=draw(st.sampled_from([1.0, 0.5, 4.0])),
        deterministic_load=det,
    )


def reach_tolerance(config: SimConfig) -> float:
    """The README's reach slack: 1e-9 of the ceiling over the base load, or of the step."""
    over_base = config.policy.c_max - config.deterministic_load
    return 1e-9 * max(config.quantum, abs(over_base))


def series(draw, config: SimConfig) -> np.ndarray:
    """Loads around the ceiling, one just inside the reach slack, or all zero."""
    c_max, tol = config.policy.c_max, reach_tolerance(config)
    values = [0.0, config.deterministic_load, c_max - 2 * tol, c_max - tol / 2, c_max, c_max + 1]
    if draw(st.booleans()):
        return np.zeros(config.slots)
    return np.array(draw(st.lists(st.sampled_from(values), min_size=config.slots,
                                  max_size=config.slots)))  # fmt: skip


def by_hand(config: SimConfig, managed: np.ndarray, baseline: np.ndarray) -> dict:
    over_base = config.policy.c_max - config.deterministic_load
    reach = config.deterministic_load + (over_base - reach_tolerance(config))
    overload = sum(1 for watts in managed.tolist() if watts >= reach)
    p_hat, p, slots = overload / config.slots, config.policy.p, config.slots

    def load_factor(values: np.ndarray) -> float:
        peak = max(values.tolist())
        return math.fsum(values.tolist()) / len(values) / peak if peak > 0.0 else math.nan

    return {
        "overload_slots": overload,
        "p_hat": p_hat,
        "k": p_hat / p,
        "stderr": math.sqrt(p_hat * (1.0 - p_hat) / slots) / p,
        "low_confidence": p * slots < 10.0,
        "lf_baseline": load_factor(baseline),
        "lf_managed": load_factor(managed),
        "slots": slots,
    }


def assert_metrics(result: SimResult, want: dict) -> None:
    for name, value in want.items():
        got = getattr(result, name)
        if name.startswith("lf_"):
            assert got == pytest.approx(value, rel=1e-12, nan_ok=True), name
        else:
            assert got == value and type(got) is type(value), name


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(st.data())
def test_metrics_are_read_from_the_series(data) -> None:
    config = data.draw(configs())
    baseline = series(data.draw, config)
    managed = series(data.draw, config)
    result = SimResult(config, (3,), baseline, managed)
    assert_metrics(result, by_hand(config, managed, baseline))
    # a value within the slack below the ceiling reaches it; twice the slack does not
    tol = reach_tolerance(config)
    for below, p_hat in ((tol / 2, 1.0), (2 * tol, 0.0)):
        flat = np.full(config.slots, config.policy.c_max - below)
        assert SimResult(config, (3,), baseline, flat).p_hat == p_hat

    # a result rebuilt with another series reports on it, not on the cached first one
    other = series(data.draw, config)
    rebuilt = dataclasses.replace(result, series_managed=other)
    assert_metrics(rebuilt, by_hand(config, other, baseline))


def test_a_result_stores_only_what_the_run_produced() -> None:
    assert tuple(field.name for field in dataclasses.fields(SimResult)) == FIELDS
    config = SimConfig(
        classes=(ApplianceClass(name="c0", on_power=1.0, model=Bernoulli(p_on=0.5), count=3),),
        policy=QosPolicy(c_max=2.0, p=0.5),
        method=EstimationMethod.EXACT,
        slots=2,
    )
    result = SimResult(config, (3,), np.zeros(2), np.array([2.0, 0.0]))
    assert (result.overload_slots, result.p_hat, result.lf_managed) == (1, 0.5, 0.5)
    assert math.isnan(result.lf_baseline)
    for name in ("p_hat", "k", "stderr", "low_confidence", "overload_slots", "lf_baseline",
                 "lf_managed", "slots"):  # fmt: skip
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, 0)


def test_a_run_rebuilt_with_another_managed_series_reports_on_it() -> None:
    config = SimConfig(
        classes=(ApplianceClass(name="c0", on_power=1.0, model=Bernoulli(p_on=0.5), count=8),),
        policy=QosPolicy(c_max=4.0, p=0.1),
        method=EstimationMethod.EXACT,
        slots=50,
        seed=2,
    )
    result = run(config)
    assert result.overload_slots < result.slots
    rebuilt = dataclasses.replace(result, series_managed=np.full(config.slots, 4.0))
    assert (rebuilt.overload_slots, rebuilt.p_hat, rebuilt.lf_managed) == (50, 1.0, 1.0)
