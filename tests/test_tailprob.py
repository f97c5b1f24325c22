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
from loadcap.models import ApplianceClass, Bernoulli
from loadcap.tailprob import (
    AggregateStats,
    ClassComposition,
    EstimationMethod,
    PowerPmf,
    aggregate_stats,
    bound_bennett,
    bound_chebyshev,
    bound_chernoff,
    bound_hoeffding,
    bound_markov,
    clt_estimate,
    estimate,
    exact_pmf,
    lower_tail,
)
from loadcap.tailprob import _TRIM_MASS, _binomial_pmf

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
WORKED_STATS = aggregate_stats(WORKED)


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


def test_tail_and_mass_partition_the_distribution() -> None:
    pmf = PowerPmf(quantum=1.0, offset=0, probabilities=np.array([0.25, 0.5, 0.25]))
    assert pmf.tail_at_or_above(1.0) == pytest.approx(0.75)
    assert pmf.mass_below(1.0) == pytest.approx(0.25)
    # an off-grid threshold rounds up, and both tails split the pmf there
    assert pmf.tail_at_or_above(0.5) == pytest.approx(0.75)
    assert pmf.mass_below(0.5) == pytest.approx(0.25)
    assert pmf.mass_below(1.5) == pytest.approx(0.75)
    assert pmf.tail_at_or_above(0.0) == 1.0
    assert pmf.tail_at_or_above(2.5) == 0.0
    assert pmf.mass_below(0.0) == 0.0
    assert pmf.mass_below(99.0) == pytest.approx(1.0)


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


def test_exact_pmf_rejects_a_pmf_that_lost_mass(monkeypatch) -> None:
    # a kernel carrying half the mass must not pass as a pmf, whether it is
    # laid out alone or convolved at one step or at a stride
    def half_mass(n: int, p_on: float) -> tuple[int, np.ndarray]:
        return 0, np.array([0.25, 0.25])

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
    """Convolve zero-padded per-class grids densely, then trim like exact_pmf."""
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
    mean = aggregate_stats(composition).mean
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
    stats = aggregate_stats(comp((1.0, 0.2, 100), (5.0, 0.001, 100)))
    assert stats.mean == pytest.approx(20.5)
    assert stats.variance == pytest.approx(100 * 0.2 * 0.8 + 100 * 25 * 0.001 * 0.999)
    assert stats.variance == pytest.approx(18.4975)
    assert stats.sum_sq_ranges == pytest.approx(100 + 2500)
    assert stats.max_abs == 5.0


def test_aggregate_stats_skips_disabled_entries() -> None:
    cls = bern("x", 2.0, 0.5, 10)
    stats = aggregate_stats(ClassComposition(entries=((cls, 0),)))
    assert stats == AggregateStats(mean=0.0, variance=0.0, sum_sq_ranges=0.0, max_abs=0.0)


# ---------------------------------------------------------------------------
# scalar bound oracles
# ---------------------------------------------------------------------------


def test_markov_bound_values() -> None:
    assert bound_markov(WORKED_STATS, 60.0) == pytest.approx(50.0 / 60.0)
    assert bound_markov(WORKED_STATS, 40.0) == 1.0
    assert bound_markov(AggregateStats(0.0, 0.0, 0.0, 0.0), 5.0) == 0.0
    with pytest.raises(ValueError, match="invalid threshold"):
        bound_markov(WORKED_STATS, 0.0)


def test_chebyshev_bound_values() -> None:
    assert bound_chebyshev(WORKED_STATS, 60.0) == 0.25
    assert bound_chebyshev(WORKED_STATS, 50.0) == 1.0
    assert bound_chebyshev(WORKED_STATS, 51.0) == 1.0  # clamped, 25/1 > 1
    assert bound_chebyshev(AggregateStats(5.0, 0.0, 25.0, 5.0), 6.0) == 0.0


def test_hoeffding_bound_values() -> None:
    assert bound_hoeffding(WORKED_STATS, 60.0) == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert bound_hoeffding(WORKED_STATS, 50.0) == 1.0
    # exponent is quadratic in the distance: doubling it fourth-powers the bound
    assert bound_hoeffding(WORKED_STATS, 70.0) == pytest.approx(math.exp(-2.0) ** 4, rel=1e-12)
    assert bound_hoeffding(AggregateStats(5.0, 0.0, 0.0, 0.0), 6.0) == 0.0


def test_bennett_bound_values() -> None:
    value = bound_bennett(WORKED_STATS, 60.0)
    assert value == pytest.approx(0.16922462886375436, rel=1e-12)
    assert value == pytest.approx(0.1692, abs=1e-3)
    assert bound_bennett(WORKED_STATS, 50.0) == 1.0
    assert bound_bennett(AggregateStats(5.0, 0.0, 25.0, 5.0), 6.0) == 0.0


def test_chernoff_bound_worked_value_and_closed_form() -> None:
    value = bound_chernoff(WORKED, 60.0)
    assert value == pytest.approx(0.1336, abs=1e-3)
    # for one homogeneous class the optimized bound has a closed form driven
    # by the relative-entropy rate between hit fraction a and the ON rate p
    a, p, n = 0.6, 0.5, 100
    kl = a * math.log(a / p) + (1.0 - a) * math.log((1.0 - a) / (1.0 - p))
    assert value == pytest.approx(math.exp(-n * kl), abs=1e-6)


def test_chernoff_bound_boundary_cases() -> None:
    assert bound_chernoff(WORKED, 50.0) == 1.0
    assert bound_chernoff(WORKED, 101.0) == 0.0
    # threshold exactly at the top of the support: the all-ON probability
    single = comp((1.0, 0.5, 1))
    assert bound_chernoff(single, 1.0) == pytest.approx(0.5, rel=1e-9)
    assert bound_chernoff(comp((2.0, 0.25, 3)), 6.0) == pytest.approx(0.25**3, rel=1e-9)
    assert bound_chernoff(comp((1.0, 0.0, 5)), 2.0) == 0.0


def test_clt_estimate_values() -> None:
    value = clt_estimate(WORKED_STATS, 60.0)
    assert value == pytest.approx(0.022750131948179195, rel=1e-9)
    assert clt_estimate(WORKED_STATS, 50.0) == 0.5
    degenerate = AggregateStats(5.0, 0.0, 25.0, 5.0)
    assert clt_estimate(degenerate, 4.0) == 1.0
    assert clt_estimate(degenerate, 6.0) == 0.0


def test_clt_matches_scipy_normal_tail() -> None:
    scipy_stats = pytest.importorskip("scipy.stats")
    for thr in (52.0, 55.0, 60.0, 65.0):
        z = (thr - 50.0) / 5.0
        assert clt_estimate(WORKED_STATS, thr) == pytest.approx(
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
# lower tail
# ---------------------------------------------------------------------------


def test_lower_tail_exact_values() -> None:
    pair = comp((1.0, 0.5, 2))
    assert lower_tail(EstimationMethod.EXACT, pair, 1.0) == pytest.approx(0.25)
    assert lower_tail(EstimationMethod.EXACT, pair, 0.0) == 0.0
    assert lower_tail(EstimationMethod.EXACT, pair, 3.0) == pytest.approx(1.0)
    # lower and upper tails partition the mass at any grid threshold
    for thr in (1.0, 2.0):
        total = lower_tail(EstimationMethod.EXACT, pair, thr) + estimate(
            EstimationMethod.EXACT, pair, thr
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_lower_tail_clt_value() -> None:
    assert lower_tail(EstimationMethod.CLT, WORKED, 40.0) == pytest.approx(
        0.022750131948179195, rel=1e-9
    )
    assert lower_tail(EstimationMethod.CLT, WORKED, 50.0) == pytest.approx(0.5)


def test_lower_tail_respects_base_load_floor() -> None:
    loaded = comp((1.0, 0.5, 4), det=10.0)
    assert lower_tail(EstimationMethod.EXACT, loaded, 10.0) == 0.0
    assert lower_tail(EstimationMethod.EXACT, loaded, 5.0) == 0.0


def test_lower_tail_rejects_bound_methods() -> None:
    for method in BOUND_METHODS:
        with pytest.raises(ValueError, match="no lower-tail form"):
            lower_tail(method, WORKED, 40.0)


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
        stats = aggregate_stats(composition)
        top = float(pmf.support_watts[-1])
        for thr in rng.uniform(0.5, top + 2.0, size=4):
            thr = float(thr)
            true_tail = pmf.tail_at_or_above(thr)
            assert bound_chebyshev(stats, thr) >= true_tail - 1e-12
            assert bound_hoeffding(stats, thr) >= true_tail - 1e-12
            assert bound_bennett(stats, thr) >= true_tail - 1e-12
            assert bound_chernoff(composition, thr) >= true_tail - 1e-12
            if thr > 0.0:
                assert bound_markov(stats, thr) >= true_tail - 1e-12


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
        larger = composition.with_added(extra)
        thr = float(rng.uniform(1.0, 30.0))
        above_mean = thr > aggregate_stats(composition).mean
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


def test_with_added_routes_deterministic_to_base_load() -> None:
    det_cls = bern("d", 2.5, 1.0, 3)
    grown = WORKED.with_added(det_cls)
    assert grown.entries == WORKED.entries + ((det_cls, 1),)
    assert grown.deterministic_load == 0.0
    based = ClassComposition(entries=WORKED.entries, deterministic_load=2.5)
    for method in ALL_METHODS:
        for thr in (40.0, 52.5, 55.0, 60.5):
            assert estimate(method, grown, thr) == estimate(method, based, thr)
    with pytest.raises(ValueError):
        # the population cap binds for always-on classes too
        ClassComposition(entries=((det_cls, 3),)).with_added(det_cls)

    partial = ClassComposition(entries=((bern("c0", 1.0, 0.5, 5), 3),))
    stoch = partial.with_added(bern("c0", 1.0, 0.5, 5))
    assert stoch.entries[0][1] == 4
    fresh = partial.with_added(bern("c1", 2.0, 0.4, 2))
    assert [n for _, n in fresh.entries] == [3, 1]
    with pytest.raises(ValueError):
        # the per-class population cap still binds
        full = ClassComposition(entries=((bern("c0", 1.0, 0.5, 3), 3),))
        full.with_added(bern("c0", 1.0, 0.5, 3))
