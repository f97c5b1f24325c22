"""Tail probability machinery: exact convolution, closed-form bounds, and the
normal approximation.

The exact path is checked against brute-force enumeration over individual
appliances; every analytic bound gets a hand-computed scalar oracle; ordering
and monotonicity claims run over seeded randomized compositions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from loadcap import tailprob
from loadcap.models import ApplianceClass, Bernoulli, TraceSeries
from loadcap.tailprob import ClassComposition, EstimationMethod, PowerPmf, estimate, exact_pmf
from loadcap.tailprob import (
    _TRIM_MASS,
    _AggregateStats,
    _aggregate_stats,
    _binomial_pmf,
    _bound_bennett,
    _bound_chebyshev,
    _bound_chernoff,
    _bound_hoeffding,
    _bound_markov,
    _clt_estimate,
)

ALL_METHODS = tuple(EstimationMethod)
BOUND_METHODS = (
    EstimationMethod.MARKOV,
    EstimationMethod.CHEBYSHEV,
    EstimationMethod.HOEFFDING,
    EstimationMethod.BENNETT,
    EstimationMethod.CHERNOFF,
)


def bern(name: str, on_power: float, p_on: float, count: int) -> ApplianceClass:
    return ApplianceClass(name=name, on_power=on_power, model=Bernoulli(p_on=p_on), count=count)


def comp(*specs: tuple[float, float, int], det: float = 0.0) -> ClassComposition:
    entries = tuple(
        (bern(f"c{i}", h, p, n), n) for i, (h, p, n) in enumerate(specs)
    )
    return ClassComposition(entries=entries, deterministic_load=det)


# The worked reference composition: 100 unit-power appliances, each ON half
# the time, judged against a limit of 60 W.
WORKED = comp((1.0, 0.5, 100))
WORKED_STATS = _aggregate_stats(WORKED)


def brute_force_pmf(composition: ClassComposition, quantum: float) -> dict[int, float]:
    """Enumerate every ON/OFF pattern of the individual appliances."""
    devices: list[tuple[int, float]] = []
    for cls, enabled in composition.entries:
        steps = round(cls.on_power / quantum)
        devices.extend([(steps, cls.p_on)] * enabled)
    masses: dict[int, float] = {}
    for pattern in itertools.product((0, 1), repeat=len(devices)):
        weight = 1.0
        total = 0
        for bit, (steps, p) in zip(pattern, devices):
            weight *= p if bit else 1.0 - p
            total += steps * bit
        masses[total] = masses.get(total, 0.0) + weight
    return masses


# ---------------------------------------------------------------------------
# PowerPmf
# ---------------------------------------------------------------------------


def test_power_pmf_validation() -> None:
    with pytest.raises(ValueError):
        PowerPmf(quantum=0.0, offset=0, probabilities=np.array([1.0]))
    with pytest.raises(ValueError):
        PowerPmf(quantum=1.0, offset=-1, probabilities=np.array([1.0]))
    with pytest.raises(ValueError):
        PowerPmf(quantum=1.0, offset=0, probabilities=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        PowerPmf(quantum=1.0, offset=0, probabilities=np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        # ends must carry mass
        PowerPmf(quantum=1.0, offset=0, probabilities=np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    ("probabilities", "message"),
    [
        ([0.5, math.nan, 0.5], "probabilities must be finite and non-negative"),
        ([-0.1, 1.1], "probabilities must be finite and non-negative"),
        ([0.5, math.inf], "probabilities must be finite and non-negative"),
        ([-math.inf, 1.0], "probabilities must be finite and non-negative"),
        ([1e308, 1e308], "pmf mass is inf, not 1 within 1e-9"),
        ([1.0, 0.0], "pmf support is not trimmed; ends must carry mass"),
    ],
    ids=["nan", "negative", "plus-inf", "minus-inf", "mass-overflows", "end-without-mass"],
)
def test_power_pmf_refusal_messages(probabilities, message) -> None:
    with np.errstate(over="ignore"), pytest.raises(ValueError) as refused:
        PowerPmf(quantum=1.0, offset=0, probabilities=np.array(probabilities))
    assert str(refused.value) == message


@pytest.mark.parametrize("probabilities", [[1e308, 1e308], [1.0, 1.7e308, 1.7e308, 1.0]])
def test_power_pmf_whose_mass_overflows_is_a_value_error(probabilities) -> None:
    # finite entries whose sum is not: fsum would raise OverflowError
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="pmf mass is inf"):
        PowerPmf(quantum=1.0, offset=0, probabilities=np.array(probabilities))


def test_power_pmf_moments_match_numpy() -> None:
    probs = np.array([0.2, 0.5, 0.3])
    pmf = PowerPmf(quantum=2.0, offset=1, probabilities=probs)
    watts = np.array([2.0, 4.0, 6.0])
    assert np.array_equal(pmf.support_watts, watts)


def test_power_pmf_copies_any_array_a_caller_can_still_write() -> None:
    # a read-only view of a writable array is copied: writing to the base
    # leaves the pmf as it was
    base = np.array([0.25, 0.5, 0.25])
    view = base[:]
    view.setflags(write=False)
    pmf = PowerPmf(quantum=1.0, offset=0, probabilities=view)
    base[:] = [0.5, 0.0, 0.5]
    assert pmf.probabilities.tolist() == [0.25, 0.5, 0.25]
    assert not pmf.probabilities.flags.writeable
    # so is a read-only array over a buffer it does not own
    buffer = bytearray(np.array([0.25, 0.75]).tobytes())
    shared = np.frombuffer(buffer)
    shared.setflags(write=False)
    pmf = PowerPmf(quantum=1.0, offset=0, probabilities=shared)
    buffer[:8] = np.array([0.5]).tobytes()
    assert pmf.probabilities.tolist() == [0.25, 0.75]
    # and a writable array, and one frozen with the memory it owns, which
    # its owner can make writable again
    owned = np.array([0.25, 0.75])
    assert PowerPmf(quantum=1.0, offset=0, probabilities=owned).probabilities is not owned
    owned.setflags(write=False)
    pmf = PowerPmf(quantum=1.0, offset=0, probabilities=owned)
    owned.setflags(write=True)
    owned[:] = [5.0, 5.0]
    assert pmf.probabilities.tolist() == [0.25, 0.75]
    assert pmf.tail_at_or_above(1.0) == 0.75


@pytest.mark.parametrize("specs", [[(1.0, 0.5, 3)], [(2.0, 0.5, 3)], [(1.0, 0.5, 3), (2.0, 0.5, 3)],
                                   [(2.0, 0.5, 3), (1.0, 0.5, 3)]])  # fmt: skip
def test_exact_pmf_keeps_a_read_only_copy_apart_from_its_windows(monkeypatch, specs) -> None:
    handed = []

    class Recording(PowerPmf):
        def __post_init__(self) -> None:
            handed.append(self.probabilities)
            super().__post_init__()

    monkeypatch.setattr(tailprob, "PowerPmf", Recording)
    pmf = exact_pmf(comp(*specs))
    windows = [tailprob._class_kernel(n, p, h, 1.0)[2] for h, p, n in specs]
    for given in [handed[0], tailprob._EMPTY_LOAD, *windows]:
        assert not np.shares_memory(pmf.probabilities, given)
    assert not pmf.probabilities.flags.writeable
    with pytest.raises(ValueError, match="WRITEABLE"):
        pmf.probabilities.setflags(write=True)


def frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def held_by_pmf(given: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return PowerPmf(quantum=1.0, offset=0, probabilities=given).probabilities, given


def held_by_trace(given: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return TraceSeries(sample_period_s=1.0, watts=given).watts, given


@pytest.mark.parametrize(
    "hold",
    [
        lambda: (exact_pmf(comp()).probabilities, tailprob._EMPTY_LOAD),
        lambda: (exact_pmf(comp((1.0, 0.5, 3))).probabilities,
                 tailprob._class_kernel(3, 0.5, 1.0, 1.0)[2]),
        lambda: held_by_pmf(np.array([0.25, 0.75])),
        lambda: held_by_pmf(frozen(np.array([0.25, 0.75]))),
        lambda: held_by_pmf(np.frombuffer(bytearray(np.array([0.25, 0.75]).tobytes()))),
        lambda: held_by_trace(np.array([0.0, 5.0])),
    ],
    ids=["empty-load", "cached-window", "writable-array", "frozen-owned-array",
         "frombuffer-array", "trace-series"],
)  # fmt: skip
def test_a_shared_pmf_array_cannot_be_made_writable(hold) -> None:
    # a record keeps a view of its own read-only copy: numpy lets no holder
    # make it writable again, and it shares no memory with what it was given
    kept, given = hold()
    with pytest.raises(ValueError, match="WRITEABLE"):
        kept.setflags(write=True)
    with pytest.raises(ValueError, match="read-only"):
        kept[0] = 0.5
    assert not np.shares_memory(kept, given)


def test_a_cached_window_and_its_flipped_view_cannot_be_made_writable() -> None:
    _, _, kernel, flipped = tailprob._class_kernel(3, 0.5, 1.0, 1.0)
    for held in (kernel, flipped):
        with pytest.raises(ValueError, match="WRITEABLE"):
            held.setflags(write=True)


def test_tail_and_mass_partition_the_distribution() -> None:
    pmf = PowerPmf(quantum=1.0, offset=0, probabilities=np.array([0.25, 0.5, 0.25]))
    assert pmf.tail_at_or_above(1.0) == pytest.approx(0.75)
    # an off-grid threshold rounds up
    assert pmf.tail_at_or_above(0.5) == pytest.approx(0.75)
    assert pmf.tail_at_or_above(1.5) == pytest.approx(0.25)
    assert pmf.tail_at_or_above(0.0) == 1.0
    assert pmf.tail_at_or_above(2.5) == 0.0
    # the tail and the mass strictly below the threshold make up the pmf
    for threshold in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 99.0):
        below = pmf.probabilities[pmf.support_watts < threshold].sum()
        assert pmf.tail_at_or_above(threshold) + below == pytest.approx(1.0, abs=1e-15)


def test_tail_where_the_threshold_over_the_quantum_overflows() -> None:
    pmf = PowerPmf(quantum=0.5, offset=1, probabilities=np.array([0.25, 0.75]))
    # each ratio to the quantum is +-inf, past one end of the grid
    assert pmf.tail_at_or_above(1.7e308) == 0.0
    assert pmf.tail_at_or_above(math.inf) == 0.0
    assert pmf.tail_at_or_above(-1.7e308) == 1.0
    assert pmf.tail_at_or_above(-math.inf) == 1.0
    with pytest.raises(ValueError, match="not a number"):
        pmf.tail_at_or_above(math.nan)


# ---------------------------------------------------------------------------
# exact convolution
# ---------------------------------------------------------------------------


def test_exact_pmf_single_class_is_binomial() -> None:
    pmf = exact_pmf(comp((5.0, 0.3, 1)), quantum=5.0)
    assert pmf.offset == 0
    assert pmf.probabilities == pytest.approx([0.7, 0.3])

    pair = exact_pmf(comp((1.0, 0.5, 2)))
    assert pair.probabilities == pytest.approx([0.25, 0.5, 0.25])


def test_exact_pmf_matches_brute_force_enumeration() -> None:
    rng = np.random.default_rng(17)
    for _ in range(25):
        n_classes = int(rng.integers(1, 4))
        specs = []
        budget = 4
        for _ in range(n_classes):
            n = int(rng.integers(1, budget + 1))
            budget -= n
            specs.append((float(rng.integers(1, 5)), float(rng.uniform(0.05, 0.95)), n))
            if budget == 0:
                break
        composition = comp(*specs)
        pmf = exact_pmf(composition, quantum=1.0)
        expected = brute_force_pmf(composition, quantum=1.0)
        for idx, prob in enumerate(pmf.probabilities):
            assert abs(prob - expected.get(pmf.offset + idx, 0.0)) <= 1e-12
        assert math.fsum(expected.values()) == pytest.approx(1.0)


def test_exact_pmf_trims_negligible_ends() -> None:
    pmf = exact_pmf(comp((1.0, 1e-200, 3)))
    # all-ON outcomes carry ~1e-600 and fall below the trim floor
    assert pmf.probabilities.size < 4
    assert pmf.probabilities[0] > 0.0
    assert pmf.probabilities[-1] > 0.0
    assert math.fsum(pmf.probabilities.tolist()) == pytest.approx(1.0, abs=1e-9)


def test_exact_pmf_rejects_off_grid_power() -> None:
    with pytest.raises(ValueError, match="quantization mismatch"):
        exact_pmf(comp((1.5, 0.5, 2)), quantum=1.0)
    with pytest.raises(ValueError):
        exact_pmf(comp((1.0, 0.5, 2)), quantum=0.0)


@pytest.mark.parametrize(
    ("refused", "fits", "quantum", "points"),
    [
        # the class count, checked before its binomial
        (((1.0, 0.5, 100),), ((1.0, 0.5, 99),), 1.0, 101),
        # the first class laid out at a stride of 50 (then 49) grid steps
        (((1.0, 0.5, 2),), ((0.98, 0.5, 2),), 0.02, 101),
        # a convolution's output
        (((1.0, 0.5, 50), (2.0, 0.5, 25)), ((1.0, 0.5, 49), (2.0, 0.5, 25)), 1.0, 101),
    ],
    ids=["count", "stride", "convolution"],
)
def test_exact_pmf_refuses_a_grid_past_its_budget(
    monkeypatch, refused, fits, quantum, points
) -> None:
    monkeypatch.setattr(tailprob, "_MAX_GRID_POINTS", 100)
    tailprob._class_kernel.cache_clear()  # the count is checked once per cached class
    with pytest.raises(ValueError, match=f"needs {points} points on the {quantum!r} W grid"):
        exact_pmf(comp(*refused), quantum)
    assert exact_pmf(comp(*fits), quantum).probabilities.size in (99, 100)


def test_exact_pmf_rejects_a_pmf_that_lost_mass(monkeypatch) -> None:
    # a kernel carrying half the mass must not pass as a pmf, whether it is
    # laid out alone or convolved at one step or at a stride
    def half_mass(n: int, p_on: float, on_power: float, quantum: float):
        kernel = np.array([0.25, 0.25])
        return 0, tailprob._grid_steps(on_power, quantum), kernel, kernel[::-1]

    monkeypatch.setattr(tailprob, "_class_kernel", half_mass)
    for composition in (comp((1.0, 0.5, 3)), comp((1.0, 0.5, 3), (2.0, 0.5, 3))):
        with pytest.raises(ValueError, match="pmf mass"):
            exact_pmf(composition)


def test_exact_pmf_binomial_tail_oracle() -> None:
    # Pr(Bin(10, 1/2) >= 8) = (45 + 10 + 1) / 1024
    pmf = exact_pmf(comp((1.0, 0.5, 10)))
    assert pmf.tail_at_or_above(8.0) == pytest.approx(56.0 / 1024.0, abs=1e-15)


def test_exact_pmf_quantum_scaling_preserves_probability() -> None:
    coarse = exact_pmf(comp((4.0, 0.3, 6)), quantum=4.0)
    fine = exact_pmf(comp((4.0, 0.3, 6)), quantum=2.0)
    for thr in (0.0, 4.0, 10.0, 12.0, 24.0):
        assert coarse.tail_at_or_above(thr) == pytest.approx(fine.tail_at_or_above(thr), abs=1e-15)


def dense_reference_pmf(composition: ClassComposition, quantum: float) -> tuple[int, np.ndarray]:
    """Convolve zero-padded per-class grids densely, then trim both ends of
    the result once by full cumulative sums; exact_pmf trims each window and
    each partial sum instead, which moves only the last bits."""
    acc = np.ones(1)
    for cls, enabled in composition.entries:
        if enabled == 0:
            continue
        steps = round(cls.on_power / quantum)
        grid = np.zeros(enabled * steps + 1)
        grid[::steps] = _binomial_pmf(enabled, cls.p_on)
        acc = np.convolve(acc, grid)
    start = int(np.searchsorted(np.cumsum(acc), _TRIM_MASS, side="left"))
    stop = acc.size - int(np.searchsorted(np.cumsum(acc[::-1]), _TRIM_MASS, side="left"))
    return start, acc[start:stop]


@pytest.mark.parametrize(
    ("specs", "quantum"),
    [
        # four large classes: the binomial windows are trimmed of underflow
        ([(5.0, 0.5, 0), (1.0, 0.3, 3000), (3.0, 0.2, 2500), (7.0, 0.1, 2000),
          (13.0, 0.05, 1500)], 1.0),
        # the accumulator is shorter than the 13-step stride it is split by
        ([(1.0, 0.5, 1), (13.0, 0.2, 40), (2.0, 1.0, 3), (7.0, 0.0, 6)], 1.0),
        # non-unit quantum; an always-on class comes first
        ([(5.0, 1.0, 2), (1.5, 0.3, 400), (2.0, 0.4, 0), (2.5, 0.1, 300),
          (0.5, 0.0, 7)], 0.5),
    ],
    ids=["trimmed-windows", "stride-beyond-accumulator", "half-watt-grid"],
)
def test_exact_pmf_matches_dense_zero_padded_convolution(specs, quantum) -> None:
    composition = comp(*specs)
    pmf = exact_pmf(composition, quantum=quantum)
    offset, reference = dense_reference_pmf(composition, quantum)
    assert pmf.offset == offset
    assert pmf.probabilities.size == reference.size
    assert np.max(np.abs(pmf.probabilities - reference)) <= 1e-15
    dense = PowerPmf(quantum=quantum, offset=offset, probabilities=reference)
    mean = _aggregate_stats(composition).mean
    top = float(pmf.support_watts[-1])
    # from the mean out to the last support point, where tails reach ~1e-300
    for fraction in (0.0, 0.1, 0.3, 0.6, 1.0):
        threshold = mean + fraction * (top - mean)
        expected = dense.tail_at_or_above(threshold)
        assert 0.0 < expected < 1.0
        assert pmf.tail_at_or_above(threshold) == pytest.approx(expected, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# aggregate moments
# ---------------------------------------------------------------------------


def test_aggregate_stats_worked_composition() -> None:
    assert WORKED_STATS.mean == pytest.approx(50.0)
    assert WORKED_STATS.variance == pytest.approx(25.0)
    assert WORKED_STATS.sum_sq_ranges == pytest.approx(100.0)
    assert WORKED_STATS.max_abs == 1.0


def test_aggregate_stats_two_class_mixture() -> None:
    stats = _aggregate_stats(comp((1.0, 0.2, 100), (5.0, 0.001, 100)))
    assert stats.mean == pytest.approx(20.5)
    assert stats.variance == pytest.approx(100 * 0.2 * 0.8 + 100 * 25 * 0.001 * 0.999)
    assert stats.variance == pytest.approx(18.4975)
    assert stats.sum_sq_ranges == pytest.approx(100 + 2500)
    assert stats.max_abs == 5.0


def test_aggregate_stats_skips_disabled_entries() -> None:
    cls = bern("x", 2.0, 0.5, 10)
    stats = _aggregate_stats(ClassComposition(entries=((cls, 0),)))
    assert stats == _AggregateStats(mean=0.0, variance=0.0, sum_sq_ranges=0.0, max_abs=0.0)


# ---------------------------------------------------------------------------
# scalar bound oracles
# ---------------------------------------------------------------------------


def test_markov_bound_values() -> None:
    assert _bound_markov(WORKED_STATS, 60.0) == pytest.approx(50.0 / 60.0)
    assert _bound_markov(WORKED_STATS, 40.0) == 1.0
    assert _bound_markov(_AggregateStats(0.0, 0.0, 0.0, 0.0), 5.0) == 0.0
    # a ceiling at or below the base load is always reached
    assert estimate(EstimationMethod.MARKOV, WORKED, 0.0) == 1.0


def test_chebyshev_bound_values() -> None:
    assert _bound_chebyshev(WORKED_STATS, 60.0) == 0.25
    assert _bound_chebyshev(WORKED_STATS, 50.0) == 1.0
    assert _bound_chebyshev(WORKED_STATS, 51.0) == 1.0  # clamped, 25/1 > 1
    assert _bound_chebyshev(_AggregateStats(5.0, 0.0, 25.0, 5.0), 6.0) == 0.0
    # (t - m)**2 underflows to 0 here; v / d / d does not divide by it
    assert _bound_chebyshev(_AggregateStats(0.0, 0.0, 0.0, 0.0), 1e-200) == 0.0
    assert _bound_chebyshev(_AggregateStats(0.0, 1e-320, 0.0, 0.0), 1e-170) == 1.0


def test_hoeffding_bound_values() -> None:
    assert _bound_hoeffding(WORKED_STATS, 60.0) == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert _bound_hoeffding(WORKED_STATS, 50.0) == 1.0
    # exponent is quadratic in the distance: doubling it fourth-powers the bound
    assert _bound_hoeffding(WORKED_STATS, 70.0) == pytest.approx(math.exp(-2.0) ** 4, rel=1e-12)
    assert _bound_hoeffding(_AggregateStats(5.0, 0.0, 0.0, 0.0), 6.0) == 0.0


def test_bennett_bound_values() -> None:
    value = _bound_bennett(WORKED_STATS, 60.0)
    assert value == pytest.approx(0.16922462886375436, rel=1e-12)
    assert value == pytest.approx(0.1692, abs=1e-3)
    assert _bound_bennett(WORKED_STATS, 50.0) == 1.0
    assert _bound_bennett(_AggregateStats(5.0, 0.0, 25.0, 5.0), 6.0) == 0.0


def test_moment_bounds_where_the_squared_distance_overflows() -> None:
    # (t - m)**2 leaves the float range past 1.34e154; the bounds are then
    # computed in an order that stays finite, not read as 0
    huge = _AggregateStats(0.0, 1e308, 1e308, 1.0)
    assert _bound_chebyshev(huge, 2e154) == 0.25  # 1e308 / 4e308
    assert _bound_hoeffding(huge, 2e154) == pytest.approx(math.exp(-8.0), rel=1e-12)
    three = _aggregate_stats(comp((1.0, 0.5, 3)))
    for bound in (_bound_chebyshev, _bound_hoeffding, _bound_bennett):
        for threshold in (1e300, 1.7e308):
            assert bound(three, threshold) == 0.0
    # (1 + u) * ln(1 + u) overflows at u = 2e306; with v/b**2 negligible the
    # exponent is (d/b) * (ln(1 + u) - 1), and the bound is not 0
    value = _bound_bennett(_AggregateStats(0.0, 1e-306, 0.0, 2.0), 1.0)
    assert value == pytest.approx(math.exp(-0.5 * (math.log1p(2e306) - 1.0)), rel=1e-9)
    assert value > 0.0
    # a variance past the float range leaves only the trivial bound
    overflowed = _AggregateStats(2e153, math.inf, math.inf, 1e155)
    for bound in (_bound_chebyshev, _bound_hoeffding, _bound_bennett):
        assert bound(overflowed, 1e155) == 1.0
    # the same where d * b stays finite, so Bennett's u is 0, not NaN (the
    # stats of `loadcap bounds 1x1e155@0.001 --c-max 2e152 --quantum-w 1e155`)
    finite_u = _AggregateStats(1e152, math.inf, math.inf, 1e155)
    for bound in (_bound_chebyshev, _bound_hoeffding, _bound_bennett):
        assert bound(finite_u, 2e152) == 1.0


def test_chernoff_bound_worked_value_and_closed_form() -> None:
    value = _bound_chernoff(WORKED_STATS, 60.0)
    assert value == pytest.approx(0.1336, abs=1e-3)
    # for one homogeneous class the optimized bound has a closed form driven
    # by the relative-entropy rate between hit fraction a and the ON rate p
    a, p, n = 0.6, 0.5, 100
    kl = a * math.log(a / p) + (1.0 - a) * math.log((1.0 - a) / (1.0 - p))
    assert value == pytest.approx(math.exp(-n * kl), abs=1e-6)


def test_chernoff_bound_boundary_cases() -> None:
    assert _bound_chernoff(WORKED_STATS, 50.0) == 1.0
    assert _bound_chernoff(WORKED_STATS, 101.0) == 0.0
    # threshold exactly at the top of the support: the all-ON probability
    single = _aggregate_stats(comp((1.0, 0.5, 1)))
    assert _bound_chernoff(single, 1.0) == pytest.approx(0.5, rel=1e-9)
    three = _aggregate_stats(comp((2.0, 0.25, 3)))
    assert _bound_chernoff(three, 6.0) == pytest.approx(0.25**3, rel=1e-9)
    # a never-on class is folded away before the bound reads it
    assert estimate(EstimationMethod.CHERNOFF, comp((1.0, 0.0, 5)), 2.0) == 0.0


@pytest.mark.parametrize(
    ("specs", "c_max", "watt"),
    [
        # `loadcap bounds 2x1e155@0.01 --c-max 1e155 --quantum-w 1e155`
        (((1.0, 0.01, 2),), 1.0, 1e155),
        # `loadcap bounds 1x1e13@0.01 2x1e13@0.5 --c-max 2e13 --quantum-w 1e13`
        (((1.0, 0.01, 1), (1.0, 0.5, 2)), 2.0, 1e13),
        # `loadcap bounds 40x1e-16@0.3 10x3e-16@0.2 --c-max 5.6e-15 --quantum-w 1e-16`
        (((1.0, 0.3, 40), (3.0, 0.2, 10)), 56.0, 1e-16),
        # the same at 1e-310 W, where every wattage is subnormal
        (((1.0, 0.3, 40), (3.0, 0.2, 10)), 56.0, 1e-310),
    ],
    ids=["1e155", "1e13", "1e-16", "1e-310"],
)
def test_chernoff_search_scales_with_the_largest_on_power(specs, c_max, watt) -> None:
    # s enters the exponent as s * h; searched in watts, the bound stopped at
    # 1.0 past 1e12 W and at 1e-310 W, and was 33 times looser at 1e-16 W.
    # Searched in units near the largest ON wattage, it is its 1 W value.
    def values(w: float) -> dict[EstimationMethod, float]:
        composition = comp(*((h * w, p, n) for h, p, n in specs))
        return {m: estimate(m, composition, c_max * w, w) for m in EstimationMethod}

    at_watt = values(watt)
    chernoff = at_watt[EstimationMethod.CHERNOFF]
    hoeffding = at_watt[EstimationMethod.HOEFFDING]
    bennett = at_watt[EstimationMethod.BENNETT]
    assert at_watt[EstimationMethod.EXACT] <= chernoff <= min(hoeffding, bennett)
    assert chernoff == pytest.approx(values(1.0)[EstimationMethod.CHERNOFF], rel=1e-12)


def test_every_method_gives_one_double_under_power_of_two_units() -> None:
    # every ON wattage, the ceiling, the base load and the quantum times 2**k:
    # each method reads the same scaled summary, so the same double comes out
    def values(k: int) -> list[float]:
        unit = math.ldexp(1.0, k)
        composition = comp((unit, 0.3, 40), (3.0 * unit, 0.2, 10), det=2.0 * unit)
        return [estimate(m, composition, 58.0 * unit, unit) for m in EstimationMethod]

    at_watts = values(0)
    for k in range(-1000, 1001):
        assert values(k) == at_watts, k


def test_chernoff_search_keeps_the_readme_value() -> None:
    # `loadcap bounds 100x1@0.5 --c-max 60`, as the README prints it
    assert estimate(EstimationMethod.CHERNOFF, WORKED, 60.0) == 0.13351367725131655


def test_clt_estimate_values() -> None:
    value = _clt_estimate(WORKED_STATS, 60.0)
    assert value == pytest.approx(0.022750131948179195, rel=1e-9)
    assert _clt_estimate(WORKED_STATS, 50.0) == 0.5
    degenerate = _AggregateStats(5.0, 0.0, 25.0, 5.0)
    assert _clt_estimate(degenerate, 4.0) == 1.0
    assert _clt_estimate(degenerate, 6.0) == 0.0


def test_clt_matches_scipy_normal_tail() -> None:
    scipy_stats = pytest.importorskip("scipy.stats")
    for thr in (52.0, 55.0, 60.0, 65.0):
        z = (thr - 50.0) / 5.0
        assert _clt_estimate(WORKED_STATS, thr) == pytest.approx(
            float(scipy_stats.norm.sf(z)), rel=1e-12
        )


# ---------------------------------------------------------------------------
# estimate dispatch
# ---------------------------------------------------------------------------


def test_estimate_worked_composition_all_methods() -> None:
    expected = {
        EstimationMethod.EXACT: 0.028444,
        EstimationMethod.CLT: 0.0227501,
        EstimationMethod.HOEFFDING: math.exp(-2.0),
        EstimationMethod.BENNETT: 0.1692,
        EstimationMethod.CHERNOFF: 0.1336,
        EstimationMethod.CHEBYSHEV: 0.25,
        EstimationMethod.MARKOV: 0.8333333333,
    }
    for method, target in expected.items():
        assert estimate(method, WORKED, 60.0) == pytest.approx(target, abs=1e-4)


def test_estimate_folds_base_load_into_threshold() -> None:
    shifted = comp((1.0, 0.5, 100), det=12.5)
    for method in ALL_METHODS:
        assert estimate(method, shifted, 72.5) == estimate(method, WORKED, 60.0)


def test_estimate_saturates_when_base_load_fills_the_limit() -> None:
    loaded = comp((1.0, 0.5, 10), det=30.0)
    for method in ALL_METHODS:
        assert estimate(method, loaded, 30.0) == 1.0
        assert estimate(method, loaded, 25.0) == 1.0


@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize(
    ("c_max", "quantum", "message"),
    [
        (3.0, 0.0, "quantum=0.0 must be positive and finite"),
        (3.0, -1.0, "quantum=-1.0 must be positive and finite"),
        (3.0, math.nan, "quantum=nan must be positive and finite"),
        (3.0, math.inf, "quantum=inf must be positive and finite"),
        (math.nan, 1.0, "c_max=nan is not a number"),
    ],
    ids=["quantum-0", "quantum-negative", "quantum-nan", "quantum-inf", "c_max-nan"],
)
def test_estimate_refuses_a_bad_quantum_or_ceiling(method, c_max, quantum, message) -> None:
    with pytest.raises(ValueError, match=message):
        estimate(method, comp((1.0, 0.5, 3)), c_max, quantum)
    if not math.isnan(c_max):
        # refused before any method runs: also at a ceiling at or below the
        # base load, which every method would answer with 1 unread
        for ceiling in (2.0, 1.0, 0.0):
            with pytest.raises(ValueError, match=message):
                estimate(method, comp((1.0, 0.5, 3), det=2.0), ceiling, quantum)


@pytest.mark.parametrize("method", ["markov", "exact", None])
def test_estimate_refuses_a_non_method_at_every_ceiling(method) -> None:
    # a member's value is not a member; a ceiling at or below the base load
    # would otherwise answer 1 before the method is read
    for composition, ceiling in (
        (ClassComposition.empty(), 0.0),
        (comp((1.0, 0.5, 3), det=2.0), 1.0),
        (comp((1.0, 0.5, 3)), 2.0),
    ):
        with pytest.raises(ValueError, match="unknown estimation method"):
            estimate(method, composition, ceiling)


def test_estimate_empty_composition() -> None:
    empty = ClassComposition.empty()
    assert estimate(EstimationMethod.EXACT, empty, 5.0) == 0.0
    assert estimate(EstimationMethod.CHERNOFF, empty, 5.0) == 0.0
    assert estimate(EstimationMethod.CLT, empty, 5.0) == 0.0


def test_estimates_stay_in_unit_interval() -> None:
    rng = np.random.default_rng(23)
    for _ in range(40):
        composition = comp(
            (float(rng.integers(1, 6)), float(rng.uniform(0.01, 0.99)), int(rng.integers(1, 12)))
        )
        c_max = float(rng.uniform(0.5, 40.0))
        for method in ALL_METHODS:
            value = estimate(method, composition, c_max)
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# ordering and monotonicity properties
# ---------------------------------------------------------------------------


def random_composition(rng: np.random.Generator) -> ClassComposition:
    n_classes = int(rng.integers(1, 4))
    specs = []
    remaining = 30
    for _ in range(n_classes):
        n = int(rng.integers(1, max(2, remaining // n_classes + 1)))
        remaining -= n
        specs.append((float(rng.integers(1, 11)), float(rng.uniform(0.01, 0.99)), n))
    return comp(*specs)


def test_bounds_dominate_exact_tail() -> None:
    rng = np.random.default_rng(29)
    for _ in range(60):
        composition = random_composition(rng)
        pmf = exact_pmf(composition)
        stats = _aggregate_stats(composition)
        top = float(pmf.support_watts[-1])
        for thr in rng.uniform(0.5, top + 2.0, size=4):
            thr = float(thr)
            true_tail = pmf.tail_at_or_above(thr)
            assert _bound_chebyshev(stats, thr) >= true_tail - 1e-12
            assert _bound_hoeffding(stats, thr) >= true_tail - 1e-12
            assert _bound_bennett(stats, thr) >= true_tail - 1e-12
            assert _bound_chernoff(stats, thr) >= true_tail - 1e-12
            if thr > 0.0:
                assert _bound_markov(stats, thr) >= true_tail - 1e-12


@pytest.mark.parametrize("quantum", [1e-162, 1e-16, 1e-14, 1e-12])
def test_bounds_dominate_exact_tail_on_tiny_grids(quantum) -> None:
    # one class of one-step appliances, read at every support point and one
    # step past the top: however few watts separate a threshold from the
    # all-ON load, it does not reach that load, for chernoff as for exact
    for n in range(1, 12):
        for p_on in (0.1, 0.5, 0.9):
            composition = comp((quantum, p_on, n))
            for k in range(n + 2):
                c_max = k * quantum
                floor = estimate(EstimationMethod.EXACT, composition, c_max, quantum) - 1e-12
                for method in BOUND_METHODS:
                    value = estimate(method, composition, c_max, quantum)
                    assert value >= floor, (method, n, p_on, k)


def test_estimates_non_increasing_in_threshold() -> None:
    rng = np.random.default_rng(31)
    for _ in range(10):
        composition = random_composition(rng)
        thresholds = np.sort(rng.uniform(0.5, 35.0, size=8))
        for method in ALL_METHODS:
            values = [estimate(method, composition, float(t)) for t in thresholds]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-12


def test_monotone_methods_grow_with_extra_appliance() -> None:
    rng = np.random.default_rng(37)
    for _ in range(20):
        composition = random_composition(rng)
        extra = bern("extra", float(rng.integers(1, 6)), float(rng.uniform(0.05, 0.95)), 1)
        larger = ClassComposition(entries=composition.entries + ((extra, 1),))
        thr = float(rng.uniform(1.0, 30.0))
        above_mean = thr > _aggregate_stats(composition).mean
        for method in EstimationMethod:
            if method is EstimationMethod.CLT and not above_mean:
                continue  # the normal estimate rises with the count only above the mean
            before = estimate(method, composition, thr)
            after = estimate(method, larger, thr)
            assert after >= before - 1e-12


def test_composition_validation() -> None:
    cls = bern("x", 1.0, 0.5, 3)
    with pytest.raises(ValueError):
        ClassComposition(entries=((cls, 4),))
    with pytest.raises(ValueError):
        ClassComposition(entries=((cls, -1),))
    with pytest.raises(ValueError):
        ClassComposition(entries=((cls, 1), (cls, 2)))
    with pytest.raises(ValueError):
        ClassComposition(entries=(), deterministic_load=-1.0)
    # an always-on class is an ordinary entry; estimators fold it into the base
    always = bern("d", 2.0, 1.0, 1)
    assert ClassComposition(entries=((always, 1),)).entries == ((always, 1),)
