"""Monte Carlo harness for admission control under realistic appliance runs.

Two modes.  Composition mode sizes each class once with the chosen tail
estimator and then lets the enabled appliances run freely, measuring how
often the aggregate actually reaches the ceiling.  SlotDynamic mode runs
per-slot admission over live demands, routing blocked demand through a
scheduling strategy, and reports load-shape metrics alongside the tail
statistics.

All randomness descends from the single config seed.  Appliance streams are
keyed by global appliance index, so the series of appliance i is the same
regardless of which method or policy is being evaluated (common random
numbers across compared runs).  A QoS sweep relies on that: it samples the
population once per p and builds every method's managed series from that
one pass.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .admission import (
    QosPolicy,
    _admission_frontier,
    _admits_down_set,
    _count_estimator,
    max_admissible,
)
from .models import ApplianceClass, derive_seed, sample_series
from .scheduling import SchedulingStrategy, load_factor
from .tailprob import _GRID_RTOL, ClassComposition, EstimationMethod, _grid_steps

__all__ = [
    "SimMode",
    "SimConfig",
    "EnergyLedger",
    "SimResult",
    "SweepCell",
    "TableRow",
    "run",
    "run_composition",
    "run_slot_dynamic",
    "sweep_qos",
    "enabled_percentage_table",
]

# slots with at least this many expected violations give usable k estimates
_MIN_EXPECTED_EVENTS = 10.0


class SimMode(Enum):
    COMPOSITION = "composition"
    SLOT_DYNAMIC = "slot_dynamic"


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on, seed included."""

    classes: tuple[ApplianceClass, ...]
    policy: QosPolicy
    method: EstimationMethod
    strategy: SchedulingStrategy | None = None
    slots: int = 50_000
    seed: int = 0
    mode: SimMode = SimMode.COMPOSITION
    quantum: float = 1.0
    deterministic_load: float = 0.0

    def __post_init__(self) -> None:
        classes = tuple(self.classes)
        if not classes:
            raise ValueError("classes must be non-empty")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names in {names!r}")
        object.__setattr__(self, "classes", classes)
        if int(self.slots) != self.slots or self.slots < 1:
            raise ValueError(f"slots={self.slots!r} must be a positive integer")
        object.__setattr__(self, "slots", int(self.slots))
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed={self.seed!r} must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if not (self.quantum > 0.0 and math.isfinite(self.quantum)):
            raise ValueError(f"quantum={self.quantum!r} must be positive and finite")
        det = float(self.deterministic_load)
        if not (det >= 0.0 and math.isfinite(det)):
            raise ValueError(f"deterministic_load={det!r} must be >= 0 and finite")
        object.__setattr__(self, "deterministic_load", det)
        # only slot-dynamic mode schedules (no strategy is drop) or serves unconditionally
        fixed = [cls.name for cls in classes if not cls.shiftable]
        if self.mode is not SimMode.SLOT_DYNAMIC and self.strategy is not None:
            raise ValueError(f"'strategy' {self.strategy.value!r} needs mode 'slot_dynamic'")
        if self.mode is not SimMode.SLOT_DYNAMIC and fixed:
            raise ValueError(f"non-shiftable classes {fixed!r} need mode 'slot_dynamic'")


@dataclass(frozen=True)
class EnergyLedger:
    """Shiftable demand accounting in integer grid-step units.

    served + dropped + backlog equals demanded exactly on every run; the
    backlog term is whatever is still queued when the horizon ends.
    """

    demanded_steps: int
    served_steps: int
    dropped_steps: int
    backlog_steps: int


@dataclass(frozen=True, eq=False)
class SimResult:
    """Outcome of one run.

    ``p_hat`` is the fraction of slots whose served load reached the
    ceiling; ``k`` is that fraction over the policy's tolerated probability.
    ``low_confidence`` flags runs whose expected violation count is too
    small for ``k`` to mean much.  Load factors are NaN when the series is
    all zero.  The ledger and per-slot outcomes are populated in
    SlotDynamic mode only.  ``outcomes`` is a structured array with one
    row per slot and the fields ``dropped_w``, ``backlog_depth`` (queued
    entries at the end of the slot) and ``disabled_count`` (distinct
    appliances turned away); the slot's served load is ``series_managed``.
    """

    p_hat: float
    k: float
    stderr: float
    low_confidence: bool
    lf_baseline: float
    lf_managed: float
    enabled_counts: tuple[int, ...]
    overload_slots: int
    slots: int
    series_baseline: np.ndarray
    series_managed: np.ndarray
    ledger: EnergyLedger | None = None
    outcomes: np.ndarray | None = None


@dataclass(frozen=True)
class SweepCell:
    """One (p, method) point of a QoS sweep."""

    p: float
    method: EstimationMethod
    enabled: int
    p_hat: float
    k: float
    stderr: float
    low_confidence: bool


@dataclass(frozen=True)
class TableRow:
    """Enabled count for one method, relative to the exact reference."""

    method: EstimationMethod
    enabled: int
    percent_of_exact: float


def _population(config: SimConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """(class index, index within the class, series) of every appliance, in file order."""
    index = 0
    for c, cls in enumerate(config.classes):
        for i in range(cls.count):
            yield c, i, sample_series(cls, config.slots, derive_seed(config.seed, 0, index))
            index += 1


def _result(
    config: SimConfig,
    baseline: np.ndarray,
    managed: np.ndarray,
    enabled_counts: tuple[int, ...],
    ledger: EnergyLedger | None = None,
    outcomes: np.ndarray | None = None,
) -> SimResult:
    policy, slots = config.policy, config.slots
    # same grid-snap tolerance as the tail computation's threshold rounding
    threshold = policy.c_max - _GRID_RTOL * max(1.0, abs(policy.c_max))
    overload = int(np.count_nonzero(managed >= threshold))
    p_hat = overload / slots
    return SimResult(
        p_hat=p_hat,
        k=p_hat / policy.p,
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / slots) / policy.p,
        low_confidence=policy.p * slots < _MIN_EXPECTED_EVENTS,
        lf_baseline=load_factor(baseline),
        lf_managed=load_factor(managed),
        enabled_counts=enabled_counts,
        overload_slots=overload,
        slots=slots,
        series_baseline=baseline,
        series_managed=managed,
        ledger=ledger,
        outcomes=outcomes,
    )


def run(config: SimConfig) -> SimResult:
    """Dispatch on the configured mode."""
    if config.mode is SimMode.COMPOSITION:
        return run_composition(config)
    return run_slot_dynamic(config)


def run_composition(config: SimConfig) -> SimResult:
    """Size each class statistically, then free-run the enabled appliances.

    Each class's enabled count is the largest that alone (over the constant
    base load) satisfies the policy under the configured method.  Disabled
    appliances never run; no scheduling is involved.  The baseline series
    runs every appliance for comparison.
    """
    return _compositions(config, (config.method,))[0]


def _compositions(
    config: SimConfig, methods: Sequence[EstimationMethod]
) -> list[SimResult]:
    """``run_composition`` under each of ``methods``, from one sampled population.

    Each method's managed row gets the same additions, in the same order, as
    a run of that method alone; the series themselves are never kept.
    """
    base = ClassComposition(entries=(), deterministic_load=config.deterministic_load)
    sized = [
        tuple(
            max_admissible(cls, config.policy, method, config.quantum, base=base)
            for cls in config.classes
        )
        for method in methods
    ]
    baseline = np.full(config.slots, config.deterministic_load)
    managed = [np.full(config.slots, config.deterministic_load) for _ in methods]
    for c, i, series in _population(config):
        baseline += series
        for enabled_counts, row in zip(sized, managed):
            if i < enabled_counts[c]:
                row += series
    return [
        _result(config, baseline, row, enabled_counts)
        for enabled_counts, row in zip(sized, managed)
    ]


def run_slot_dynamic(config: SimConfig) -> SimResult:
    """Per-slot greedy admission over live demands.

    Every appliance draws its own demand series.  Each slot serves all
    non-shiftable demand unconditionally, then admits backlogged demand in
    FIFO order followed by the slot's new shiftable demands in seeded
    random order, as long as the tail estimate over the admitted
    composition stays within the policy.  Blocked demand is dropped or
    queued per the strategy.  An appliance serves at most one demand unit
    per slot; further units it holds cascade to later slots.  A slot's
    served load is its whole grid steps times ``quantum``.

    Where ``admission._admits_down_set`` holds and one or two classes are
    shiftable, checks read a frontier walked once up front, and a slot with
    no backlog whose whole demand is admitted skips the per-entry loop: the
    greedy pass would admit every prefix.  Otherwise checks read a cache.
    """
    slots = config.slots
    shiftable = tuple(cls for cls in config.classes if cls.shiftable)
    # grid steps of one slot of each class's demand; an empty class draws none
    class_steps = [
        _grid_steps(cls.on_power, config.quantum) if cls.count else 0 for cls in shiftable
    ]
    # per shiftable appliance, indexed by its appliance id
    column_of: list[int] = []  # position of the appliance's class in shiftable
    steps_of: list[int] = []  # grid steps of one slot of the appliance's demand
    # row t holds which appliances want a slot of demand in slot t; each
    # class owns a contiguous block of columns
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
            steps_of.append(class_steps[column_of[-1]])
            demanded_steps += steps_of[-1] * int(np.count_nonzero(wants))
        else:
            base_served += series
    base = ClassComposition(
        tuple((c, c.count) for c in config.classes if not c.shiftable),
        config.deterministic_load,
    )
    policy, method, quantum = config.policy, config.method, config.quantum
    front: list[int] | None = None
    if _admits_down_set(policy, method) and 1 <= len(shiftable) <= 2:
        front = _admission_frontier(shiftable, policy, method, quantum, base)
        # per-slot demand count of each class, summed one column block at a time
        edges = np.cumsum([0] + [cls.count for cls in shiftable])
        counts = [demand[:, lo:hi].sum(axis=1) for lo, hi in zip(edges, edges[1:])]
        slot_steps = sum(n * steps for n, steps in zip(counts, class_steps))
        second = counts[1] if len(counts) == 2 else 0
        whole = counts[0] <= np.asarray(front)[second]
        width = 2  # one class leaves the second count at 0
    else:
        # admitted count vectors recur heavily across slots; estimate each once
        admits = functools.cache(_count_estimator(shiftable, policy, method, quantum, base))
        width = len(shiftable)
    scheduler_rng = np.random.default_rng(derive_seed(config.seed, 1))

    shift = config.strategy is SchedulingStrategy.ONE_STEP_SHIFT
    backlog: list[int] = []  # appliance ids, one per blocked slot of demand
    managed = np.zeros(slots)
    outcomes = np.zeros(
        slots,
        dtype=[("dropped_w", "f8"), ("backlog_depth", "i8"), ("disabled_count", "i8")],
    )
    served_steps = 0
    dropped_steps = 0

    for t in range(slots):
        new_ids = demand[t].nonzero()[0]
        # drawn even for a whole slot, so later slots see the same stream
        order = scheduler_rng.permutation(len(new_ids))
        if front is not None and not backlog and whole[t]:
            served_now = int(slot_steps[t])
            served_steps += served_now
            managed[t] = base_served[t] + served_now * quantum
            continue  # nothing dropped, queued or turned away
        # backlog in FIFO order, then the slot's new demand in seeded order
        queue = backlog + new_ids[order].tolist()
        backlog = []
        admitted = [0] * width
        served_ids: set[int] = set()
        disabled_ids: set[int] = set()
        served_now = 0
        dropped_now = 0
        for appliance_id in queue:
            steps = steps_of[appliance_id]
            if appliance_id not in served_ids:  # tested first: no estimate is spent
                column = column_of[appliance_id]
                admitted[column] += 1
                if front is None:
                    fits = admits(tuple(admitted))
                else:
                    fits = admitted[0] <= front[admitted[1]]
                if fits:
                    served_ids.add(appliance_id)
                    served_now += steps
                    continue
                admitted[column] -= 1
            disabled_ids.add(appliance_id)
            if shift:
                backlog.append(appliance_id)  # cascades, FIFO position kept
            else:
                dropped_now += steps

        served_steps += served_now
        dropped_steps += dropped_now
        managed[t] = base_served[t] + served_now * quantum
        outcomes[t] = (dropped_now * quantum, len(backlog), len(disabled_ids))

    ledger = EnergyLedger(
        demanded_steps=demanded_steps,
        served_steps=served_steps,
        dropped_steps=dropped_steps,
        backlog_steps=sum(steps_of[i] for i in backlog),
    )
    enabled_counts = tuple(cls.count for cls in config.classes)
    return _result(config, baseline, managed, enabled_counts, ledger, outcomes)


def _sweep_p(
    args: tuple[SimConfig, float, int, tuple[EstimationMethod, ...]],
) -> list[SweepCell]:
    config, p, p_index, methods = args
    p_config = replace(
        config,
        policy=replace(config.policy, p=p),
        seed=int(derive_seed(config.seed, 2, p_index)),
    )
    return [
        SweepCell(
            p=p,
            method=method,
            enabled=int(sum(result.enabled_counts)),
            p_hat=result.p_hat,
            k=result.k,
            stderr=result.stderr,
            low_confidence=result.low_confidence,
        )
        for method, result in zip(methods, _compositions(p_config, methods))
    ]


def _sweep_axes(
    config: SimConfig,
    p_values: Sequence[float],
    methods: Sequence[EstimationMethod] | None,
) -> tuple[tuple[float, ...], tuple[EstimationMethod, ...]]:
    """A sweep's p values and methods (all when None), checked: the sweep rules' one home."""
    if config.mode is not SimMode.COMPOSITION:
        raise ValueError(f"p_values make a composition sweep, not mode {config.mode.value!r}")
    values = tuple(float(v) for v in p_values)
    if not values:
        raise ValueError("p_values must be non-empty")
    if any(not (0.0 < v < 1.0) for v in values):
        raise ValueError("every p value must lie strictly inside (0, 1)")
    if sorted(values) != list(values):
        raise ValueError("p_values must be sorted ascending")
    chosen = tuple(EstimationMethod) if methods is None else tuple(methods)
    if not chosen:
        raise ValueError("methods must be non-empty")
    return values, chosen


def sweep_qos(
    config: SimConfig,
    p_values: Sequence[float],
    methods: Sequence[EstimationMethod] | None = None,
    jobs: int = 1,
) -> list[SweepCell]:
    """Composition-mode runs over a grid of QoS probabilities and methods.

    All methods at one p share a seed and one sampled population, so they
    see identical appliance series and differ only in how many appliances
    they enable.  Cells come back in (p, method) order.  The p values are
    independent; they run in min(jobs, len(p_values), CPUs) worker processes
    when that is above 1, with output order unchanged.
    """
    values, chosen = _sweep_axes(config, p_values, methods)
    if jobs < 1:
        raise ValueError(f"jobs={jobs!r} must be at least 1")
    tasks = [(config, p, p_index, chosen) for p_index, p in enumerate(values)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, socket and subprocess,
        # which no serial command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_p = list(pool.map(_sweep_p, tasks))
    else:
        per_p = [_sweep_p(task) for task in tasks]
    return [cell for cells in per_p for cell in cells]


def enabled_percentage_table(
    appliance_class: ApplianceClass,
    policy: QosPolicy,
    methods: Sequence[EstimationMethod] | None = None,
    quantum: float = 1.0,
    base: ClassComposition | None = None,
) -> list[TableRow]:
    """Maximum enabled counts per method, as a percentage of the exact one.

    ``base`` carries load that is enabled regardless (a second class at
    full count, constant load), matching the two-class table layouts.
    """
    chosen = tuple(methods) if methods is not None else tuple(EstimationMethod)
    reference = max_admissible(
        appliance_class, policy, EstimationMethod.EXACT, quantum, base=base
    )
    rows = []
    for method in chosen:
        if method is EstimationMethod.EXACT:
            enabled = reference
        else:
            enabled = max_admissible(appliance_class, policy, method, quantum, base=base)
        if reference > 0:
            percent = 100.0 * enabled / reference
        else:
            percent = 0.0 if enabled == 0 else math.inf
        rows.append(TableRow(method=method, enabled=enabled, percent_of_exact=percent))
    return rows
