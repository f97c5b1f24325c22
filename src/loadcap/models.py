"""Two-state appliance load models.

Each appliance is either OFF (drawing nothing) or ON (drawing a fixed
wattage) in every time slot.  Three ON/OFF processes are supported:

* ``Bernoulli``: every slot is an independent coin flip.
* ``TwoStateMarkov``: first-order chain with geometric run lengths.
* ``AlternatingRenewal``: ON and OFF run lengths drawn from arbitrary
  finite-support duration distributions.

Each model class names its family (as model files write it), holds its
parameters as dataclass fields, each a float or a ``DurationPmf``, and
computes its own stationary statistics and per-slot states.  The module
also fits these models to recorded power traces and samples synthetic
per-slot series from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Mapping, Union, get_args

import numpy as np

__all__ = [
    "DurationPmf",
    "Bernoulli",
    "TwoStateMarkov",
    "AlternatingRenewal",
    "LoadModel",
    "StationaryStats",
    "ApplianceClass",
    "TraceSeries",
    "FitResult",
    "MODEL_CLASSES",
    "MODEL_FAMILIES",
    "derive_seed",
    "stationary_stats",
    "sample_series",
    "fit_model",
]

def derive_seed(base_seed: int, *path: int) -> int:
    """Derive a child seed from a base seed and an index path.

    Distinct paths give statistically independent streams, and the mapping is
    stable across runs and platforms.  Used to split one experiment seed into
    per-appliance and per-sweep-cell seeds.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(int(i) for i in path))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DurationPmf:
    """Finite-support distribution of run lengths, in whole slots.

    Attributes:
        entries: sorted tuple of ``(duration, probability)`` pairs.  Durations
            are integers from 1 to ``max_duration`` (runs are sampled as
            int64), probabilities are strictly positive and sum to 1 within
            1e-9.
    """

    max_duration: ClassVar[int] = 2**63 - 1
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("duration pmf needs at least one entry")
        cleaned = []
        for dur, weight in self.entries:
            if not (1 <= dur <= self.max_duration) or int(dur) != dur:
                raise ValueError(
                    f"duration {dur!r} is not an integer from 1 to {self.max_duration}"
                )
            weight = float(weight)
            if not (0.0 < weight <= 1.0) or not math.isfinite(weight):
                raise ValueError(f"bad probability {weight!r} for duration {dur}")
            cleaned.append((int(dur), weight))
        cleaned.sort()
        if len({d for d, _ in cleaned}) != len(cleaned):
            raise ValueError("duplicate durations in pmf")
        total = math.fsum(w for _, w in cleaned)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"duration probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "DurationPmf":
        return cls(tuple((int(d), float(w)) for d, w in mapping.items()))

    @cached_property
    def _durations(self) -> np.ndarray:
        return np.array([d for d, _ in self.entries], dtype=np.int64)

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum([w for _, w in self.entries])

    def mean(self) -> float:
        return math.fsum(d * w for d, w in self.entries)

    def inverse_cdf(self, uniforms: np.ndarray) -> np.ndarray:
        """Run lengths at uniforms in [0, 1), by inverse-cdf lookup.

        A uniform at or above the last cdf entry (which may fall short of 1
        by rounding) maps to the longest duration.
        """
        idx = np.searchsorted(self._cdf, uniforms, side="right")
        return self._durations[np.minimum(idx, len(self.entries) - 1)]


@dataclass(frozen=True)
class StationaryStats:
    """Long-run ON probability and mean run lengths of a load model."""

    p_on: float
    mean_on_run: float
    mean_off_run: float


@dataclass(frozen=True)
class Bernoulli:
    """Memoryless ON/OFF process: each slot is ON with probability p_on."""

    family: ClassVar[str] = "bernoulli"
    p_on: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_on <= 1.0):
            raise ValueError(f"p_on={self.p_on!r} outside [0, 1]")

    def stationary_stats(self) -> StationaryStats:
        p = self.p_on
        on_run = 1.0 / (1.0 - p) if p < 1.0 else math.inf
        off_run = 1.0 / p if p > 0.0 else math.inf
        return StationaryStats(p_on=p, mean_on_run=on_run, mean_off_run=off_run)

    def sample_states(self, slots: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(slots) < self.p_on


@dataclass(frozen=True)
class TwoStateMarkov:
    """First-order chain on {OFF, ON} with per-slot switch probabilities.

    Both transition probabilities must lie strictly inside (0, 1) so the
    chain is irreducible and has a stationary distribution,
    p_on = p_off_to_on / (p_off_to_on + p_on_to_off).
    """

    family: ClassVar[str] = "markov"
    p_off_to_on: float
    p_on_to_off: float

    def __post_init__(self) -> None:
        for name in ("p_off_to_on", "p_on_to_off"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name}={value!r} outside (0, 1)")

    def stationary_stats(self) -> StationaryStats:
        return StationaryStats(
            p_on=self.p_off_to_on / (self.p_off_to_on + self.p_on_to_off),
            mean_on_run=1.0 / self.p_on_to_off,
            mean_off_run=1.0 / self.p_off_to_on,
        )

    def sample_states(self, slots: int, rng: np.random.Generator) -> np.ndarray:
        # geometric runs reproduce the chain exactly; a stationary initial
        # state keeps the whole series stationary.  An ON run ends at rate
        # p_on_to_off, an OFF run at p_off_to_on.
        def draw_runs(first: float, second: float, block: int) -> np.ndarray:
            return rng.geometric(np.tile((first, second), block // 2))

        rates = (self.p_on_to_off, self.p_off_to_on)
        return _alternating_states(self, slots, rng, rates, draw_runs)


@dataclass(frozen=True)
class AlternatingRenewal:
    """ON and OFF runs alternate, each length drawn fresh from its pmf.

    The stationary ON probability is the ON share of the mean cycle length.
    """

    family: ClassVar[str] = "renewal"
    on_durations: DurationPmf
    off_durations: DurationPmf

    def stationary_stats(self) -> StationaryStats:
        mean_on = self.on_durations.mean()
        mean_off = self.off_durations.mean()
        return StationaryStats(
            p_on=mean_on / (mean_on + mean_off),
            mean_on_run=mean_on,
            mean_off_run=mean_off,
        )

    def sample_states(self, slots: int, rng: np.random.Generator) -> np.ndarray:
        def draw_runs(first: DurationPmf, second: DurationPmf, block: int) -> np.ndarray:
            uniforms = rng.random(block)
            runs = np.empty(block, dtype=np.int64)
            runs[0::2] = first.inverse_cdf(uniforms[0::2])
            runs[1::2] = second.inverse_cdf(uniforms[1::2])
            return runs

        pmfs = (self.on_durations, self.off_durations)
        return _alternating_states(self, slots, rng, pmfs, draw_runs)


LoadModel = Union[Bernoulli, TwoStateMarkov, AlternatingRenewal]
MODEL_CLASSES = {cls.family: cls for cls in get_args(LoadModel)}  # family name -> class
MODEL_FAMILIES = tuple(MODEL_CLASSES)


def stationary_stats(model: LoadModel) -> StationaryStats:
    """Stationary ON probability and mean ON/OFF run lengths of ``model``."""
    if not isinstance(model, get_args(LoadModel)):
        raise TypeError(f"unknown load model {model!r}")
    return model.stationary_stats()


def _alternating_states(
    model: LoadModel,
    slots: int,
    rng: np.random.Generator,
    on_off: tuple,
    draw_runs: Callable[[object, object, int], np.ndarray],
) -> np.ndarray:
    """``model``'s states over ``slots``, filled from alternating ON and OFF runs.

    The first state is ON with the stationary ON probability.  ``on_off``
    holds what an ON and an OFF run are drawn from; ``draw_runs(first,
    second, block)`` returns ``block`` run lengths whose even positions are
    drawn from ``first`` (the first state's) and odd positions from
    ``second``, so every block starts in the first state.  Blocks are drawn
    until the runs cover ``slots``.  Each run is clipped to ``slots`` before
    any sum, so no total can overflow however long a run is drawn (a
    geometric run at p near 0 comes back as 2**63 - 1), and the run that
    reaches the horizon is cut there.  The clip changes no slot: a run of
    ``slots`` reaches the horizon from any start.  Runs drawn beyond it are
    discarded; the generator is not used afterwards, so the series is the
    one a draw-per-run loop gives from the same generator.
    """
    stats = model.stationary_stats()
    first_on = bool(rng.random() < stats.p_on)
    # about one horizon of stationary cycles per block, plus a margin
    block = 2 * (int(slots // (stats.mean_on_run + stats.mean_off_run)) + 8)
    first, second = on_off if first_on else on_off[::-1]
    blocks = []
    total = 0
    while total < slots:
        runs = np.minimum(draw_runs(first, second, block), slots)
        blocks.append(runs)
        total += int(runs.sum())
    runs = np.concatenate(blocks)
    ends = np.cumsum(runs)
    last = int(np.searchsorted(ends, slots))  # the run that reaches the horizon
    runs = runs[: last + 1]
    runs[last] -= ends[last] - slots
    states = np.zeros(last + 1, dtype=bool)
    states[0 if first_on else 1 :: 2] = True
    return np.repeat(states, runs)


@dataclass(frozen=True)
class ApplianceClass:
    """A population of identical two-state appliances.

    Attributes:
        name: label used in reports and CSV output.
        on_power: watts drawn while ON; must be positive.
        model: the ON/OFF process.  A constant load that draws ``on_power``
            every slot is ``Bernoulli(p_on=1.0)``.
        count: population size (enabled counts never exceed it), at most
            2**63 - 1, the limit ``DurationPmf.max_duration`` uses too.
        shiftable: whether a scheduler may postpone this class's demand.
    """

    name: str
    on_power: float
    model: LoadModel
    count: int
    shiftable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("appliance class needs a non-empty name")
        if not (self.on_power > 0.0 and math.isfinite(self.on_power)):
            raise ValueError(f"on_power={self.on_power!r} must be positive and finite")
        if not (0 <= self.count <= DurationPmf.max_duration) or int(self.count) != self.count:
            raise ValueError(f"count={self.count!r} must be an integer from 0 to 2**63 - 1")
        object.__setattr__(self, "count", int(self.count))
        if not isinstance(self.model, get_args(LoadModel)):
            raise ValueError(f"class {self.name!r} needs a load model, got {self.model!r}")

    @cached_property
    def p_on(self) -> float:
        """Stationary ON probability of the model."""
        return self.model.stationary_stats().p_on


def _read_only_copy(values: object) -> np.ndarray:
    """``values`` copied to float64 and frozen: a view of a read-only copy,
    which numpy lets no holder make writable again.  Each frozen record that
    holds an array (``TraceSeries``, ``tailprob.PowerPmf``) keeps one."""
    copy = np.array(values, dtype=np.float64)
    copy.setflags(write=False)
    return copy.view()


@dataclass(frozen=True, eq=False)
class TraceSeries:
    """Evenly sampled power readings in watts, kept as a read-only copy."""

    sample_period_s: float
    watts: np.ndarray

    def __post_init__(self) -> None:
        if not (self.sample_period_s > 0.0 and math.isfinite(self.sample_period_s)):
            raise ValueError(f"sample_period_s={self.sample_period_s!r} must be positive")
        arr = _read_only_copy(self.watts)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trace must be a non-empty 1-D series")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("trace readings must be finite and non-negative")
        object.__setattr__(self, "watts", arr)


def sample_series(appliance: ApplianceClass, slots: int, seed: int) -> np.ndarray:
    """Sample one appliance's per-slot power draw in watts.

    The same (appliance, slots, seed) triple always yields the same series.
    """
    if int(slots) != slots or slots < 1:
        raise ValueError(f"slots={slots!r} must be a positive integer")
    slots = int(slots)
    rng = np.random.default_rng(int(seed))
    states = appliance.model.sample_states(slots, rng)
    return states.astype(np.float64) * appliance.on_power


@dataclass(frozen=True)
class FitResult:
    """A fitted load model plus the estimated ON wattage."""

    model: LoadModel
    on_power: float


def _run_lengths(mask: np.ndarray) -> list[tuple[bool, int]]:
    """(state, length) runs of a boolean series, in order."""
    boundaries = np.flatnonzero(np.diff(mask)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [mask.size]))
    return [(bool(mask[s]), int(e - s)) for s, e in zip(starts, ends)]


def _duration_histogram(lengths: list[int]) -> DurationPmf:
    total = len(lengths)
    counts: dict[int, int] = {}
    for length in lengths:
        counts[length] = counts.get(length, 0) + 1
    return DurationPmf(tuple((d, c / total) for d, c in sorted(counts.items())))


def fit_model(trace: TraceSeries, family: str, on_threshold: float) -> FitResult:
    """Fit a load model to a trace binarized at ``on_threshold`` watts.

    Readings strictly above the threshold count as ON.  ``family`` is one of
    "bernoulli", "markov" (transition frequencies with add-one smoothing), or
    "renewal" (run-length histograms over interior runs only, so runs cut off
    by the trace boundary never bias the histogram).

    Raises ValueError("degenerate trace") when the binarized trace has no ON
    samples, no OFF samples, or (renewal) no interior run of either kind,
    and ValueError naming a NaN ``on_threshold``, which no reading exceeds.
    """
    if family not in MODEL_FAMILIES:
        raise ValueError(f"unknown model family {family!r}; choose from {MODEL_FAMILIES}")
    if math.isnan(on_threshold):
        raise ValueError(f"on_threshold={on_threshold!r} is not a number")
    on = trace.watts > float(on_threshold)
    n_on = int(np.count_nonzero(on))
    if n_on == 0 or n_on == on.size:
        raise ValueError("degenerate trace: needs both ON and OFF samples")
    on_power = float(trace.watts[on].mean())

    if family == "bernoulli":
        return FitResult(Bernoulli(p_on=n_on / on.size), on_power)

    if family == "markov":
        prev, cur = on[:-1], on[1:]
        from_off = int(np.count_nonzero(~prev))
        from_on = int(np.count_nonzero(prev))
        switched_on = int(np.count_nonzero(~prev & cur))
        switched_off = int(np.count_nonzero(prev & ~cur))
        model = TwoStateMarkov(
            p_off_to_on=(switched_on + 1) / (from_off + 2),
            p_on_to_off=(switched_off + 1) / (from_on + 2),
        )
        return FitResult(model, on_power)

    runs = _run_lengths(on)[1:-1]  # interior runs only
    on_runs = [length for state, length in runs if state]
    off_runs = [length for state, length in runs if not state]
    if not on_runs or not off_runs:
        raise ValueError("degenerate trace: no interior runs to fit")
    model = AlternatingRenewal(
        on_durations=_duration_histogram(on_runs),
        off_durations=_duration_histogram(off_runs),
    )
    return FitResult(model, on_power)
