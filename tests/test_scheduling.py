"""Blocked-demand routing and load factor."""

from __future__ import annotations

import numpy as np
import pytest

from loadcap.scheduling import (
    Backlog,
    PendingDemand,
    SchedulingStrategy,
    SlotOutcome,
    apply_strategy,
    load_factor,
)


def demand(appliance_id: int, steps: int = 1) -> PendingDemand:
    return PendingDemand(appliance_id=appliance_id, class_name="c0", energy_steps=steps)


# ---------------------------------------------------------------------------
# strategies and backlog
# ---------------------------------------------------------------------------


def test_drop_strategy_discards_and_reports_energy() -> None:
    backlog = Backlog()
    dropped = apply_strategy(SchedulingStrategy.DROP, [demand(1, 2), demand(2, 3)], backlog)
    assert dropped == 5
    assert backlog.depth == 0


def test_one_step_shift_enqueues_everything() -> None:
    backlog = Backlog()
    dropped = apply_strategy(
        SchedulingStrategy.ONE_STEP_SHIFT, [demand(1, 2), demand(2, 3)], backlog
    )
    assert dropped == 0
    assert backlog.depth == 2
    assert backlog.total_energy_steps() == 5


def test_backlog_is_fifo_and_drain_empties() -> None:
    backlog = Backlog()
    for i in range(5):
        backlog.push(demand(i))
    drained = backlog.drain()
    assert [d.appliance_id for d in drained] == [0, 1, 2, 3, 4]
    assert backlog.depth == 0
    assert backlog.total_energy_steps() == 0


def test_backlog_allows_repeat_entries_per_appliance() -> None:
    backlog = Backlog()
    backlog.push(demand(4, 1))
    backlog.push(demand(4, 1))
    assert backlog.depth == 2
    assert [d.appliance_id for d in backlog] == [4, 4]


def test_energy_conservation_across_routing() -> None:
    # every blocked step is either dropped or still queued, exactly
    rng = np.random.default_rng(11)
    for strategy in SchedulingStrategy:
        backlog = Backlog()
        blocked = [demand(i, int(rng.integers(1, 6))) for i in range(30)]
        total = sum(d.energy_steps for d in blocked)
        dropped = apply_strategy(strategy, blocked, backlog)
        assert dropped + backlog.total_energy_steps() == total


def test_pending_demand_validation() -> None:
    with pytest.raises(ValueError):
        demand(1, 0)
    with pytest.raises(ValueError):
        demand(1, -2)


def test_slot_outcome_disabled_count() -> None:
    outcome = SlotOutcome(
        served_load=5.0, dropped_load=0.0, backlog_depth=1, disabled_ids=frozenset({2, 9})
    )
    assert outcome.disabled_count == 2


# ---------------------------------------------------------------------------
# load factor
# ---------------------------------------------------------------------------


def test_load_factor_values() -> None:
    assert load_factor([1.0, 2.0, 3.0, 2.0]) == pytest.approx(2.0 / 3.0)
    assert load_factor([4.0, 4.0, 4.0]) == 1.0
    assert load_factor([0.0, 2.0]) == 0.5


def test_load_factor_scale_invariance() -> None:
    series = [1.0, 5.0, 2.0, 4.0]
    scaled = [10.0 * x for x in series]
    assert load_factor(series) == pytest.approx(load_factor(scaled))


def test_load_factor_undefined_cases() -> None:
    with pytest.raises(ValueError, match="undefined load factor"):
        load_factor([])
    with pytest.raises(ValueError, match="undefined load factor"):
        load_factor([0.0, 0.0])
    with pytest.raises(ValueError, match="undefined load factor"):
        load_factor([1.0, float("nan")])
