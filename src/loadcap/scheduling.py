"""Demand handling for appliances that admission control turns away.

Two strategies: Drop deletes the blocked slot's demand outright, OneStepShift
carries it forward through a FIFO backlog until a later slot can serve it.
Energy is accounted in integer grid-step units per slot, so conservation
checks are equalities, not tolerances.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SchedulingStrategy",
    "PendingDemand",
    "Backlog",
    "SlotOutcome",
    "apply_strategy",
    "load_factor",
]


class SchedulingStrategy(Enum):
    DROP = "drop"
    ONE_STEP_SHIFT = "one_step_shift"


@dataclass(frozen=True)
class PendingDemand:
    """One blocked slot's worth of demand, in integer grid steps per slot."""

    appliance_id: int
    class_name: str
    energy_steps: int

    def __post_init__(self) -> None:
        if int(self.energy_steps) != self.energy_steps or self.energy_steps <= 0:
            raise ValueError(f"energy_steps={self.energy_steps!r} must be a positive integer")
        object.__setattr__(self, "energy_steps", int(self.energy_steps))


class Backlog:
    """FIFO queue of pending demands.

    One appliance may hold several entries at once: a demand blocked again
    stays queued while the appliance's next slot may add another.
    """

    def __init__(self, entries: Iterable[PendingDemand] = ()) -> None:
        self._queue: deque[PendingDemand] = deque(entries)

    def push(self, demand: PendingDemand) -> None:
        self._queue.append(demand)

    def drain(self) -> list[PendingDemand]:
        """Remove and return all entries in FIFO order for re-presentation."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    @property
    def depth(self) -> int:
        return len(self._queue)

    def total_energy_steps(self) -> int:
        return sum(d.energy_steps for d in self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[PendingDemand]:
        return iter(self._queue)


@dataclass(frozen=True)
class SlotOutcome:
    """What one time slot served, dropped, deferred, and disabled."""

    served_load: float
    dropped_load: float
    backlog_depth: int
    disabled_ids: frozenset[int]

    @property
    def disabled_count(self) -> int:
        return len(self.disabled_ids)


def apply_strategy(
    strategy: SchedulingStrategy,
    disabled_demands: Iterable[PendingDemand],
    backlog: Backlog,
) -> int:
    """Route blocked demands per the strategy; returns dropped energy steps.

    Drop discards them and reports their energy; OneStepShift enqueues each
    for the next slot and never drops.
    """
    dropped_steps = 0
    for demand in disabled_demands:
        if strategy is SchedulingStrategy.DROP:
            dropped_steps += demand.energy_steps
        else:
            backlog.push(demand)
    return dropped_steps


def load_factor(series: Sequence[float]) -> float:
    """Mean load over peak load, in (0, 1]."""
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError("undefined load factor")
    peak = float(values.max())
    if peak <= 0.0:
        raise ValueError("undefined load factor")
    return float(values.mean()) / peak
