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
population once and builds every (p, method) cell's managed series from
that one pass, so each cell is the single run at its p, method and seed.
"""

from __future__ import annotations

import functools
import math
import operator
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
from .tailprob import ClassComposition, EstimationMethod, _grid_steps, _reach_floor

__all__ = [
    "SimMode",
    "SimConfig",
    "EnergyLedger",
    "SimResult",
    "run",
    "run_slot_dynamic",
    "sweep_qos",
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
        # a string equals no member, so it would run as another one (a shift as a drop)
        kinds = dict(method=EstimationMethod, mode=SimMode, strategy=SchedulingStrategy | None)
        for name, kind in kinds.items():
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name}={getattr(self, name)!r} is not a member of its enum")
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
    """Outcome of one run: what it produced, and metrics read from that.

    A result stores its ``config`` (a sweep cell's holds its p and method),
    each class's enabled count, the baseline and managed series, and in
    SlotDynamic mode the ledger and per-slot ``outcomes``: one row per slot
    with the fields ``dropped_w``, ``backlog_depth`` (queued entries at the
    end of the slot) and ``disabled_count`` (distinct appliances turned
    away).  Every metric is a read-only property of these, so a result
    built with other series reports on them.  ``overload_slots`` counts
    managed slots that reached the ceiling, as the estimators count
    reaching (``tailprob._reach_floor`` over the base load); ``p_hat`` is
    their fraction, ``k`` that over the policy's p.  ``low_confidence``
    flags runs with too few expected violations for ``k`` to mean much.
    Load factors are NaN when the series is all zero.  The series and
    outcomes are made read-only in place, not copied, since sweep cells
    share rows, and the result holds views of them, which numpy lets no
    holder make writable again; so no write can leave a cached metric stale.
    """

    config: SimConfig
    enabled_counts: tuple[int, ...]
    series_baseline: np.ndarray
    series_managed: np.ndarray
    ledger: EnergyLedger | None = None
    outcomes: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("series_baseline", "series_managed", "outcomes"):
            values = getattr(self, name)
            if values is not None:
                values.setflags(write=False)
                object.__setattr__(self, name, values.view())

    @property
    def slots(self) -> int:
        return self.config.slots

    @functools.cached_property
    def overload_slots(self) -> int:
        det = self.config.deterministic_load
        reach = det + _reach_floor(self.config.policy.c_max - det, self.config.quantum)
        return int(np.count_nonzero(self.series_managed >= reach))

    @property
    def p_hat(self) -> float:
        return self.overload_slots / self.slots

    @property
    def k(self) -> float:
        return self.p_hat / self.config.policy.p

    @property
    def stderr(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.slots) / self.config.policy.p

    @property
    def low_confidence(self) -> bool:
        return self.config.policy.p * self.slots < _MIN_EXPECTED_EVENTS

    @functools.cached_property
    def lf_baseline(self) -> float:
        return load_factor(self.series_baseline)

    @functools.cached_property
    def lf_managed(self) -> float:
        return load_factor(self.series_managed)


def _population(config: SimConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """(class index, index within the class, series) of every appliance, in file order."""
    index = 0
    for c, cls in enumerate(config.classes):
        for i in range(cls.count):
            yield c, i, sample_series(cls, config.slots, derive_seed(config.seed, 0, index))
            index += 1


def run(config: SimConfig) -> SimResult:
    """One run in the configured mode.

    Slot-dynamic mode is ``run_slot_dynamic``.  Composition mode sizes each
    class statistically, then free-runs the enabled appliances: each
    class's enabled count is the largest that alone (over the constant
    base load) satisfies the policy under the configured method.  Disabled
    appliances never run; no scheduling is involved.  The baseline series
    runs every appliance for comparison.
    """
    if config.mode is SimMode.COMPOSITION:
        return _compositions(config, (config.policy.p,), (config.method,))[0]
    return run_slot_dynamic(config)


def _compositions(
    config: SimConfig, p_values: Sequence[float], methods: Sequence[EstimationMethod]
) -> list[SimResult]:
    """Composition ``run`` at every (p, method), in that order, from one sampled population.

    Cells sized to the same counts share one managed row, which gets the
    same additions, in the same order, as a single run of any of them; the
    series themselves are never kept.
    """
    base = ClassComposition(entries=(), deterministic_load=config.deterministic_load)
    cells = []
    for p in p_values:
        policy = replace(config.policy, p=p)
        for method in methods:
            sized = tuple(
                max_admissible(cls, policy, method, config.quantum, base=base)
                for cls in config.classes
            )
            cells.append((replace(config, policy=policy, method=method), sized))
    baseline = np.full(config.slots, config.deterministic_load)
    managed = {sized: np.full(config.slots, config.deterministic_load) for _, sized in cells}
    for c, i, series in _population(config):
        baseline += series
        for enabled_counts, row in managed.items():
            if i < enabled_counts[c]:
                row += series
    return [SimResult(cell, sized, baseline, managed[sized]) for cell, sized in cells]


def run_slot_dynamic(config: SimConfig) -> SimResult:
    """Per-slot greedy admission over live demands.

    Every appliance draws its own demand series.  Each slot serves all
    non-shiftable demand unconditionally, then admits backlogged demand in
    FIFO order followed by the slot's new shiftable demands in seeded
    random order, as long as the tail estimate over the admitted
    composition stays within the policy.  Blocked demand is dropped or
    queued per the strategy.  An appliance serves at most one demand unit
    per slot; further units it holds cascade to later slots.  A slot's
    served load is its whole grid steps times ``quantum``.  Each grid-step
    tally is class counts times class steps: demanded, served, backlog, and
    dropped, which is summed entry by entry apart from the served steps.

    Demand is held as one contiguous bool row per shiftable appliance over
    the slots, each class a block of rows; slot t's new demand is column t.
    Where ``admission._admits_down_set`` holds, a slot whose distinct
    demand fits skips the per-entry loop.  The distinct demand counts each
    queued appliance once per class, over the backlog and the new demand:
    the slot's new demand counts, plus each queued appliance whose row
    holds no demand in this slot.  Every count vector the greedy pass would
    check lies below it, so when it is admitted the pass would serve each
    appliance's first entry and turn every later entry away: repeats within
    the backlog, then new demand of an appliance already queued, back into
    the queue in queue order.  With one or two shiftable classes, checks
    read a frontier walked once up front, and a slot with no backlog reads
    whether its new demand fits from a table made before the loop.
    Otherwise checks read a cache; where the down-set does not hold
    (``clt`` at p >= 1/2), every slot runs the per-entry loop.  A config
    in any other mode raises ValueError.
    """
    if config.mode is not SimMode.SLOT_DYNAMIC:
        raise ValueError(f"run_slot_dynamic needs mode 'slot_dynamic', not {config.mode.value!r}")
    slots, policy, method, quantum = config.slots, config.policy, config.method, config.quantum
    shiftable = tuple(cls for cls in config.classes if cls.shiftable)
    # grid steps of one slot of each class's demand; an empty class draws none
    class_steps = [_grid_steps(cls.on_power, quantum) if cls.count else 0 for cls in shiftable]
    # shiftable appliance ids run class by class: column_of[i] is the position
    # of appliance i's class in shiftable, and row i of wants holds the slots
    # in which appliance i wants a slot of demand
    column_of = [c for c, cls in enumerate(shiftable) for _ in range(cls.count)]
    wants = np.empty((len(column_of), slots), dtype=bool)
    rows = iter(wants)
    base_served = np.full(slots, config.deterministic_load)
    baseline = np.full(slots, config.deterministic_load)
    for c, _, series in _population(config):
        baseline += series
        if config.classes[c].shiftable:
            np.greater(series, 0.0, out=next(rows))
        else:
            base_served += series
    base = ClassComposition(
        tuple((c, c.count) for c in config.classes if not c.shiftable),
        config.deterministic_load,
    )
    down_set = _admits_down_set(policy, method)
    front: list[int] | None = None
    if down_set and 1 <= len(shiftable) <= 2:
        front = _admission_frontier(shiftable, policy, method, quantum, base)
        width = 2  # one class leaves the second count at 0
    else:
        # admitted count vectors recur heavily across slots; estimate each once
        admits = functools.cache(_count_estimator(shiftable, policy, method, quantum, base))
        width = len(shiftable)
    # per-slot new demand count of each class, summed one row block at a time
    counts = np.zeros((slots, width), dtype=np.int64)
    edges = np.cumsum([0] + [cls.count for cls in shiftable])
    for c, (lo, hi) in enumerate(zip(edges, edges[1:])):
        counts[:, c] = wants[lo:hi].sum(axis=0)
    demanded_steps = sum(map(operator.mul, counts.sum(axis=0).tolist(), class_steps))
    # the loop reads its per-slot tables as lists, which index faster than
    # arrays; slot t's counts are new_counts[t * width : (t + 1) * width]
    if front is not None:
        whole = (counts[:, 0] <= np.asarray(front)[counts[:, 1]]).tolist()
        slot_steps = (counts[:, : len(shiftable)] @ class_steps).tolist()
        new_count = counts.sum(axis=1).tolist()
    new_counts = counts.ravel().tolist()
    wanted = wants.reshape(-1).data  # wanted[i * slots + t]: appliance i wants slot t
    shuffle = np.random.default_rng(derive_seed(config.seed, 1)).shuffle
    scratch = [None] * len(column_of)  # a whole slot shuffles a slice of it

    shift = config.strategy is SchedulingStrategy.ONE_STEP_SHIFT
    backlog: list[int] = []  # appliance ids, one per blocked slot of demand
    served = np.zeros(slots, dtype=np.int64)  # grid steps served in each slot
    outcomes = np.zeros(
        slots,
        dtype=[("dropped_w", "f8"), ("backlog_depth", "i8"), ("disabled_count", "i8")],
    )
    dropped_w, backlog_depth, disabled_count = (outcomes[f] for f in outcomes.dtype.names)
    dropped_steps = 0

    for t in range(slots):
        if not backlog and front is not None and whole[t]:
            # the same draws as shuffling the slot's ids, so later slots
            # see the same stream; nothing dropped, queued or turned away
            shuffle(scratch[: new_count[t]])
            served[t] = slot_steps[t]
            continue
        new_ids = wants[:, t].nonzero()[0].tolist()
        shuffle(new_ids)  # the same order and draws as a permutation of len(new_ids)
        if down_set:
            # the slot's distinct demand: each queued appliance once per class,
            # counted here unless it also wants a new slot of demand
            queued = set(backlog)
            distinct = new_counts[t * width : (t + 1) * width]
            queued_new = 0  # queued appliances that also want a new slot here
            for appliance_id in queued:
                if wanted[appliance_id * slots + t]:
                    queued_new += 1
                else:
                    distinct[column_of[appliance_id]] += 1
            if front is None:
                fits = admits(tuple(distinct))
            else:
                fits = distinct[0] <= front[distinct[1]]
            if fits:
                served[t] = sum(map(operator.mul, distinct, class_steps))
                # each later entry is turned away, in queue order: repeats within
                # the backlog, then new demand of a queued appliance (only
                # shifting queues, so only it repeats)
                if len(queued) < len(backlog):
                    seen: set[int] = set()
                    backlog = [i for i in backlog if i in seen or seen.add(i)]
                else:
                    backlog = []
                if queued_new:
                    backlog += [i for i in new_ids if i in queued]
                if backlog:
                    backlog_depth[t] = len(backlog)
                    disabled_count[t] = len(set(backlog))
                continue
        # backlog in FIFO order, then the slot's new demand in seeded order
        queue = backlog + new_ids
        backlog = []
        admitted = [0] * width
        served_ids: set[int] = set()
        disabled_ids: set[int] = set()
        dropped_now = 0
        for appliance_id in queue:
            if appliance_id not in served_ids:  # tested first: no estimate is spent
                column = column_of[appliance_id]
                admitted[column] += 1
                if front is None:
                    fits = admits(tuple(admitted))
                else:
                    fits = admitted[0] <= front[admitted[1]]
                if fits:
                    served_ids.add(appliance_id)
                    continue
                admitted[column] -= 1
            disabled_ids.add(appliance_id)
            if shift:
                backlog.append(appliance_id)  # cascades, FIFO position kept
            else:
                dropped_now += class_steps[column_of[appliance_id]]

        served[t] = sum(map(operator.mul, admitted, class_steps))
        dropped_steps += dropped_now
        dropped_w[t] = dropped_now * quantum
        backlog_depth[t] = len(backlog)
        disabled_count[t] = len(disabled_ids)

    ledger = EnergyLedger(
        demanded_steps=demanded_steps,
        served_steps=int(served.sum()),
        dropped_steps=dropped_steps,
        backlog_steps=sum(class_steps[column_of[i]] for i in backlog),
    )
    managed = base_served + served * quantum
    counts = tuple(cls.count for cls in config.classes)
    return SimResult(config, counts, baseline, managed, ledger, outcomes)


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
) -> list[SimResult]:
    """Composition-mode runs over a grid of QoS probabilities and methods.

    Every cell reads one sampled population drawn with the config's seed,
    so all cells see identical appliance series and differ only in how many
    appliances they enable; each equals ``run`` of its ``config``, the
    sweep's config at the cell's p and method.  Cells come back in
    (p, method) order.
    """
    return _compositions(config, *_sweep_axes(config, p_values, methods))
