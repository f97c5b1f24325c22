"""Property checks of the slot-dynamic loop over small random configurations.

One property holds the loop to a per-entry reference, byte for byte: the
loop as it stood before the frontier table and the slots that skip the
per-entry pass, with one cached estimate lookup per queued demand and the
scheduler's order drawn by ``Generator.permutation``.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from loadcap.admission import QosPolicy, _count_estimator
from loadcap.models import ApplianceClass, Bernoulli, TwoStateMarkov, derive_seed
from loadcap.scheduling import SchedulingStrategy
from loadcap.simulation import (
    EnergyLedger,
    SimConfig,
    SimMode,
    SimResult,
    _population,
    _result,
    run_slot_dynamic,
)
from loadcap.tailprob import ClassComposition, EstimationMethod, _grid_steps

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


def _reference_slot_dynamic(config: SimConfig) -> SimResult:
    """The per-entry loop: every queued demand asks the cached estimator."""
    slots = config.slots
    shiftable = tuple(cls for cls in config.classes if cls.shiftable)
    column_of: list[int] = []
    steps_of: list[int] = []
    demand = np.empty((slots, sum(cls.count for cls in shiftable)), dtype=bool)
    demanded_steps = 0
    base_served = np.full(slots, config.deterministic_load)
    baseline = np.full(slots, config.deterministic_load)
    for c, _, series in _population(config):
        cls = config.classes[c]
        baseline += series
        if cls.shiftable:
            wants = series > 0.0
            demand[:, len(steps_of)] = wants
            column_of.append(shiftable.index(cls))
            steps_of.append(_grid_steps(cls.on_power, config.quantum))
            demanded_steps += steps_of[-1] * int(np.count_nonzero(wants))
        else:
            base_served += series
    base = ClassComposition(
        tuple((c, c.count) for c in config.classes if not c.shiftable),
        config.deterministic_load,
    )
    admits = functools.cache(
        _count_estimator(shiftable, config.policy, config.method, config.quantum, base)
    )
    scheduler_rng = np.random.default_rng(derive_seed(config.seed, 1))
    shift = config.strategy is SchedulingStrategy.ONE_STEP_SHIFT
    backlog: list[int] = []
    managed = np.zeros(slots)
    outcomes = np.zeros(
        slots,
        dtype=[("dropped_w", "f8"), ("backlog_depth", "i8"), ("disabled_count", "i8")],
    )
    served_steps = 0
    dropped_steps = 0
    for t in range(slots):
        new_ids = np.flatnonzero(demand[t])
        order = scheduler_rng.permutation(len(new_ids))
        queue = backlog + new_ids[order].tolist()
        backlog = []
        admitted = [0] * len(shiftable)
        served_ids: set[int] = set()
        disabled_ids: set[int] = set()
        served_w = 0.0
        dropped_now = 0
        for appliance_id in queue:
            steps = steps_of[appliance_id]
            if appliance_id not in served_ids:
                column = column_of[appliance_id]
                admitted[column] += 1
                if admits(tuple(admitted)):
                    served_ids.add(appliance_id)
                    served_steps += steps
                    served_w += steps * config.quantum
                    continue
                admitted[column] -= 1
            disabled_ids.add(appliance_id)
            if shift:
                backlog.append(appliance_id)
            else:
                dropped_now += steps
        dropped_steps += dropped_now
        managed[t] = base_served[t] + served_w
        outcomes[t] = (dropped_now * config.quantum, len(backlog), len(disabled_ids))
    ledger = EnergyLedger(
        demanded_steps=demanded_steps,
        served_steps=served_steps,
        dropped_steps=dropped_steps,
        backlog_steps=sum(steps_of[i] for i in backlog),
    )
    enabled_counts = tuple(cls.count for cls in config.classes)
    return _result(config, baseline, managed, enabled_counts, ledger, outcomes)


@st.composite
def reference_configs(draw) -> SimConfig:
    # dyadic quanta, where summing served watts in any order is exact
    quantum = draw(st.sampled_from([1.0, 0.5]))
    powers = [1.0, 2.0, 3.0] + ([1.5] if quantum == 0.5 else [])
    shiftable_models = st.one_of(models, st.just(Bernoulli(p_on=1.0)))
    classes = [
        ApplianceClass(
            name=f"s{j}",
            on_power=draw(st.sampled_from(powers)),
            model=draw(shiftable_models),
            count=draw(st.integers(min_value=0, max_value=8)),
        )
        for j in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    classes.insert(
        draw(st.integers(min_value=0, max_value=len(classes))),
        ApplianceClass(
            name="fixed",
            on_power=draw(st.sampled_from(powers)),
            model=draw(models),
            count=draw(st.integers(min_value=1, max_value=4)),
            shiftable=False,
        ),
    )
    det = draw(st.sampled_from([0.0, 1.0]))
    # mostly a ceiling above the fixed load's peak, where the frontier is
    # interior and a queue both builds and drains
    floor = det + sum(cls.on_power * cls.count for cls in classes if not cls.shiftable)
    room = sum(cls.on_power * cls.count for cls in classes if cls.shiftable)
    c_max = draw(
        st.one_of(
            st.integers(min_value=1, max_value=int(floor + room) + 1),
            st.integers(min_value=int(floor) + 1, max_value=int(floor + room / 2) + 1),
        )
    )
    return SimConfig(
        classes=tuple(classes),
        # clt at p >= 1/2 keeps the cached per-entry loop, the rest the frontier
        policy=QosPolicy(c_max=float(c_max), p=draw(st.sampled_from([0.01, 0.05, 0.2, 0.7]))),
        method=draw(st.sampled_from(list(EstimationMethod))),
        strategy=draw(st.sampled_from(list(SchedulingStrategy))),
        mode=SimMode.SLOT_DYNAMIC,
        slots=draw(st.integers(min_value=20, max_value=120)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        quantum=quantum,
        deterministic_load=det,
    )


def _queue_drains() -> SimConfig:
    """Two shiftable classes whose queue builds and drains, backlogged slots
    alternating with wholly admitted ones."""
    return SimConfig(
        classes=(
            ApplianceClass(name="a", on_power=1.0, model=Bernoulli(p_on=0.5), count=6),
            ApplianceClass(name="f", on_power=1.0, model=Bernoulli(p_on=0.5), count=1,
                           shiftable=False),
            ApplianceClass(name="b", on_power=2.0, model=TwoStateMarkov(0.3, 0.4), count=3),
        ),
        policy=QosPolicy(c_max=6.0, p=0.2),
        method=EstimationMethod.EXACT,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        mode=SimMode.SLOT_DYNAMIC,
        slots=60,
        seed=1,
        quantum=0.5,
    )  # fmt: skip


def _clt_admits_above_a_rejected_count() -> SimConfig:
    """Clt at p >= 1/2 over a fixed load whose mean passes the ceiling.

    A rare 10 W or 5 W demand adds far more variance than mean, so the normal
    estimate falls as it joins: the admitted counts form no down-set, and
    only the cached loop serves them as the reference does."""
    return SimConfig(
        classes=(
            ApplianceClass(name="f", on_power=2.0, model=Bernoulli(p_on=0.9), count=2,
                           shiftable=False),
            ApplianceClass(name="a", on_power=10.0, model=Bernoulli(p_on=0.05), count=5),
            ApplianceClass(name="b", on_power=5.0, model=Bernoulli(p_on=0.02), count=5),
        ),
        policy=QosPolicy(c_max=3.0, p=0.7),
        method=EstimationMethod.CLT,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        mode=SimMode.SLOT_DYNAMIC,
        slots=60,
        seed=1,
    )  # fmt: skip


def _backlogged_appliance_repeats() -> SimConfig:
    """Two shiftable classes with long ON runs, so a queued appliance holds
    two entries or demands again while queued.  Of the 60 slots, 11 skip
    the per-entry pass with a backlog whose distinct demand fits (4 of them
    with an appliance repeated within the backlog), 6 are wholly admitted
    with none, and 43 run the pass."""
    return SimConfig(
        classes=(
            ApplianceClass(name="a", on_power=1.0, model=TwoStateMarkov(0.3, 0.2), count=6),
            ApplianceClass(name="b", on_power=2.0, model=TwoStateMarkov(0.2, 0.3), count=4),
        ),
        policy=QosPolicy(c_max=6.0, p=0.2),
        method=EstimationMethod.EXACT,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        mode=SimMode.SLOT_DYNAMIC,
        slots=60,
        seed=1,
    )  # fmt: skip


def _three_shiftable_classes() -> SimConfig:
    """Three shiftable classes, where checks read the cache: 22 of the 60
    slots skip the per-entry pass because their distinct demand fits, 12 of
    them with an appliance repeated within the backlog."""
    return SimConfig(
        classes=(
            ApplianceClass(name="a", on_power=1.0, model=TwoStateMarkov(0.3, 0.2), count=5),
            ApplianceClass(name="f", on_power=1.0, model=Bernoulli(p_on=0.5), count=1,
                           shiftable=False),
            ApplianceClass(name="b", on_power=2.0, model=Bernoulli(p_on=0.4), count=3),
            ApplianceClass(name="c", on_power=3.0, model=TwoStateMarkov(0.2, 0.3), count=2),
        ),
        policy=QosPolicy(c_max=9.0, p=0.2),
        method=EstimationMethod.CHERNOFF,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        mode=SimMode.SLOT_DYNAMIC,
        slots=60,
        seed=1,
    )  # fmt: skip


def _one_shiftable_class() -> SimConfig:
    """One shiftable class beside a fixed one, so the frontier has a single
    entry and every slot's second class count is 0.  Of the 60 slots, 8 are
    wholly admitted, 22 skip the per-entry pass with a backlog whose distinct
    demand fits, and 30 run the pass."""
    return SimConfig(
        classes=(
            ApplianceClass(name="f", on_power=1.0, model=Bernoulli(p_on=0.5), count=2,
                           shiftable=False),
            ApplianceClass(name="a", on_power=1.5, model=TwoStateMarkov(0.3, 0.2), count=6),
        ),
        policy=QosPolicy(c_max=7.0, p=0.2),
        method=EstimationMethod.EXACT,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        mode=SimMode.SLOT_DYNAMIC,
        slots=60,
        seed=2,
        quantum=0.5,
    )  # fmt: skip


def _queued_appliances_demand_again() -> SimConfig:
    """Two shiftable classes over 300 slots.  Of the 82 slots that skip the
    per-entry pass with a backlog whose distinct demand fits, 59 hold a
    queued appliance that demands again (its new entry is queued once more)
    and 23 hold none; 79 slots are wholly admitted and 139 run the pass."""
    return SimConfig(
        classes=(
            ApplianceClass(name="a", on_power=1.0, model=TwoStateMarkov(0.2, 0.3), count=8),
            ApplianceClass(name="b", on_power=2.0, model=Bernoulli(p_on=0.3), count=4),
        ),
        policy=QosPolicy(c_max=5.0, p=0.1),
        method=EstimationMethod.EXACT,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        mode=SimMode.SLOT_DYNAMIC,
        slots=300,
        seed=3,
    )  # fmt: skip


def _drop_on_a_half_watt_grid() -> SimConfig:
    """``_queue_drains`` with blocked demand dropped: 20 of the 60 slots run
    the per-entry pass and drop 28 entries of 2 or 4 grid steps; the other
    40 are wholly admitted."""
    return replace(_queue_drains(), strategy=SchedulingStrategy.DROP)


@hypothesis.settings(max_examples=120, deadline=None, database=None)
@hypothesis.given(reference_configs())
@hypothesis.example(_queue_drains())
@hypothesis.example(_clt_admits_above_a_rejected_count())
@hypothesis.example(_backlogged_appliance_repeats())
@hypothesis.example(_three_shiftable_classes())
@hypothesis.example(_one_shiftable_class())
@hypothesis.example(_queued_appliances_demand_again())
@hypothesis.example(_drop_on_a_half_watt_grid())
def test_loop_equals_the_per_entry_reference_byte_for_byte(cfg: SimConfig) -> None:
    got = run_slot_dynamic(cfg)
    want = _reference_slot_dynamic(cfg)
    assert got.series_managed.tobytes() == want.series_managed.tobytes()
    assert got.series_baseline.tobytes() == want.series_baseline.tobytes()
    assert got.outcomes.tobytes() == want.outcomes.tobytes()
    assert got.ledger == want.ledger
    assert (got.p_hat, got.overload_slots, got.enabled_counts) == (
        want.p_hat,
        want.overload_slots,
        want.enabled_counts,
    )


def test_shuffling_a_list_draws_the_permutation_order() -> None:
    # the loop shuffles each slot's id list, and a scratch list in a slot it
    # admits whole; the reference draws permutation(n): same order, same stream
    for n in range(65):
        ids = list(range(100, 100 + n))
        listed = np.random.default_rng(n)
        permuted = np.random.default_rng(n)
        listed.shuffle(ids)
        assert ids == np.arange(100, 100 + n)[permuted.permutation(n)].tolist()
        assert listed.bit_generator.state == permuted.bit_generator.state
