"""Demand handling for appliances that admission control turns away.

Two strategies: Drop deletes the blocked slot's demand outright, OneStepShift
carries it forward through a FIFO backlog until a later slot can serve it.
The slot-dynamic loop in ``simulation.run_slot_dynamic`` applies them; this
module names them and measures the resulting load shape.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

import numpy as np

__all__ = ["SchedulingStrategy", "load_factor"]


class SchedulingStrategy(Enum):
    DROP = "drop"
    ONE_STEP_SHIFT = "one_step_shift"


def load_factor(series: Sequence[float]) -> float:
    """Mean load over peak load, in (0, 1]."""
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError("undefined load factor")
    peak = float(values.max())
    if peak <= 0.0:
        raise ValueError("undefined load factor")
    return float(values.mean()) / peak
