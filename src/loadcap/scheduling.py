"""Demand handling for appliances that admission control turns away.

Two strategies: Drop deletes the blocked slot's demand outright, OneStepShift
carries it forward through a FIFO backlog until a later slot can serve it.
The slot-dynamic loop in ``simulation.run_slot_dynamic`` applies them; this
module names them and measures the resulting load shape.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

import numpy as np

__all__ = ["SchedulingStrategy", "load_factor"]


class SchedulingStrategy(Enum):
    DROP = "drop"
    ONE_STEP_SHIFT = "one_step_shift"


def load_factor(series: Sequence[float]) -> float:
    """Mean over peak load, in (0, 1]; NaN if empty, non-finite or never positive."""
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0 or not np.all(np.isfinite(values)) or values.max() <= 0.0:
        return math.nan
    return float(values.mean()) / float(values.max())
