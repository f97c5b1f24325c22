"""Property checks of the slot-dynamic loop over small random configurations."""

from __future__ import annotations

import numpy as np
import pytest

from loadcap.admission import QosPolicy
from loadcap.models import ApplianceClass, Bernoulli, TwoStateMarkov
from loadcap.scheduling import SchedulingStrategy
from loadcap.simulation import SimConfig, SimMode, run_slot_dynamic
from loadcap.tailprob import EstimationMethod

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

probabilities = st.floats(min_value=0.05, max_value=0.95)
models = st.one_of(
    st.builds(Bernoulli, p_on=probabilities),
    st.builds(TwoStateMarkov, p_off_to_on=probabilities, p_on_to_off=probabilities),
)


@st.composite
def slot_dynamic_configs(draw) -> SimConfig:
    shiftable = draw(st.integers(min_value=1, max_value=3))
    classes = [
        ApplianceClass(
            name=f"s{j}",
            on_power=draw(st.sampled_from([1.0, 2.0, 3.0])),
            model=draw(models),
            count=draw(st.integers(min_value=1, max_value=6)),
        )
        for j in range(shiftable)
    ]
    if draw(st.booleans()):
        classes.append(
            ApplianceClass(
                name="fixed",
                on_power=draw(st.sampled_from([1.0, 2.0])),
                model=draw(models),
                count=draw(st.integers(min_value=1, max_value=4)),
                shiftable=False,
            )
        )
    peak = int(sum(cls.on_power * cls.count for cls in classes))
    return SimConfig(
        classes=tuple(classes),
        policy=QosPolicy(
            c_max=float(draw(st.integers(min_value=1, max_value=peak))),
            p=draw(st.sampled_from([0.01, 0.05, 0.2])),
        ),
        method=draw(st.sampled_from([EstimationMethod.EXACT, EstimationMethod.CHERNOFF])),
        strategy=draw(st.sampled_from(list(SchedulingStrategy))),
        mode=SimMode.SLOT_DYNAMIC,
        slots=draw(st.integers(min_value=20, max_value=80)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(slot_dynamic_configs())
def test_ledger_balances_and_outcome_columns_follow_the_strategy(cfg: SimConfig) -> None:
    result = run_slot_dynamic(cfg)
    ledger = result.ledger
    assert ledger is not None
    assert ledger.served_steps + ledger.dropped_steps + ledger.backlog_steps == (
        ledger.demanded_steps
    )
    outcomes = result.outcomes
    assert outcomes is not None
    depth = outcomes["backlog_depth"]
    disabled = outcomes["disabled_count"]
    if cfg.strategy is SchedulingStrategy.DROP:
        assert np.all(depth == 0)
        assert outcomes["dropped_w"].sum() == ledger.dropped_steps * cfg.quantum
    else:
        assert np.all(outcomes["dropped_w"] == 0.0)
        # every appliance turned away keeps at least one queued entry
        queued = depth > 0
        assert np.all(disabled[queued] >= 1)
        assert np.all(disabled[queued] <= depth[queued])
        assert np.all(disabled[~queued] == 0)
