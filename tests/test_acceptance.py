"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single PASS line on success; run with -v to get the
per-criterion verdicts from pytest itself.  Timed criteria assert their
runtime budget too.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from loadcap.admission import QosPolicy, decision_region, max_admissible
from loadcap.models import (
    AlternatingRenewal,
    ApplianceClass,
    Bernoulli,
    DurationPmf,
    TwoStateMarkov,
    sample_series,
    stationary_stats,
)
from loadcap.scheduling import SchedulingStrategy
from loadcap.simulation import (
    SimConfig,
    SimMode,
    run,
    sweep_qos,
)
from loadcap.tailprob import (
    ClassComposition,
    EstimationMethod,
    _aggregate_stats,
    _bound_bennett,
    _bound_chebyshev,
    _bound_chernoff,
    _bound_hoeffding,
    _bound_markov,
    estimate,
    exact_pmf,
)

ALL_METHODS = tuple(EstimationMethod)


def bern(name: str, on_power: float, p_on: float, count: int) -> ApplianceClass:
    return ApplianceClass(name=name, on_power=on_power, model=Bernoulli(p_on=p_on), count=count)


def comp(*specs: tuple[float, float, int], det: float = 0.0) -> ClassComposition:
    entries = tuple((bern(f"c{i}", h, p, n), n) for i, (h, p, n) in enumerate(specs))
    return ClassComposition(entries=entries, deterministic_load=det)


def random_composition(rng: np.random.Generator, max_appliances: int = 30):
    n_classes = int(rng.integers(1, 4))
    specs = []
    remaining = max_appliances
    for j in range(n_classes):
        cap = max(1, remaining // (n_classes - j))
        n = int(rng.integers(1, cap + 1))
        remaining -= n
        specs.append((float(rng.integers(1, 11)), float(rng.uniform(0.01, 0.99)), n))
        if remaining == 0:
            break
    return comp(*specs)


def test_c01_worked_configuration_table() -> None:
    started = time.perf_counter()
    worked = comp((1.0, 0.5, 100))
    values = {m: estimate(m, worked, 60.0) for m in ALL_METHODS}

    assert values[EstimationMethod.EXACT] == pytest.approx(0.028444, abs=1e-4)
    assert values[EstimationMethod.CLT] == pytest.approx(0.0227501, abs=1e-6)
    assert values[EstimationMethod.HOEFFDING] == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert values[EstimationMethod.BENNETT] == pytest.approx(0.1692, abs=1e-3)
    assert values[EstimationMethod.CHERNOFF] == pytest.approx(0.1336, abs=1e-3)
    assert values[EstimationMethod.CHEBYSHEV] == 0.25
    assert values[EstimationMethod.MARKOV] == 50.0 / 60.0

    # the optimized exponential bound agrees with its relative-entropy form
    a, p_on, n = 0.6, 0.5, 100
    kl = a * math.log(a / p_on) + (1 - a) * math.log((1 - a) / (1 - p_on))
    assert values[EstimationMethod.CHERNOFF] == pytest.approx(math.exp(-n * kl), abs=1e-6)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: worked-configuration table matches in {elapsed:.3f}s")


def test_c02_bound_dominance_suite() -> None:
    started = time.perf_counter()
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(200):
        composition = random_composition(rng)
        pmf = exact_pmf(composition)
        stats = _aggregate_stats(composition)
        top = float(pmf.support_watts[-1])
        thresholds = np.concatenate(
            [rng.uniform(0.25, max(top, 1.0), size=6), [top, top + 1.0]]
        )
        for thr in thresholds:
            thr = float(thr)
            true_tail = pmf.tail_at_or_above(thr)
            floor = true_tail - 1e-12
            assert _bound_chebyshev(stats, thr) >= floor
            assert _bound_hoeffding(stats, thr) >= floor
            assert _bound_bennett(stats, thr) >= floor
            assert _bound_chernoff(stats, thr) >= floor
            if thr > 0.0:
                assert _bound_markov(stats, thr) >= floor
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"criterion 2 PASS: {checked} bound evaluations dominate the exact "
        f"tail in {elapsed:.1f}s"
    )


def test_c03_convolution_matches_enumeration() -> None:
    rng = np.random.default_rng(59)
    for _ in range(40):
        # up to 4 appliances split over up to 3 classes
        devices = int(rng.integers(1, 5))
        specs = []
        left = devices
        while left > 0:
            n = int(rng.integers(1, left + 1))
            specs.append((float(rng.integers(1, 5)), float(rng.uniform(0.02, 0.98)), n))
            left -= n
        composition = comp(*specs)
        pmf = exact_pmf(composition)

        per_device = []
        for cls, enabled in composition.entries:
            per_device.extend([(int(cls.on_power), cls.p_on)] * enabled)
        expected: dict[int, float] = {}
        for pattern in itertools.product((0, 1), repeat=len(per_device)):
            weight = 1.0
            total = 0
            for bit, (steps, p_on) in zip(pattern, per_device):
                weight *= p_on if bit else 1.0 - p_on
                total += steps * bit
            expected[total] = expected.get(total, 0.0) + weight

        for idx, prob in enumerate(pmf.probabilities):
            assert abs(prob - expected.get(pmf.offset + idx, 0.0)) <= 1e-12
    print("criterion 3 PASS: exact pmf equals exhaustive enumeration (<=1e-12/point)")


def test_c04_sized_simulation_k_ratios() -> None:
    started = time.perf_counter()
    config = SimConfig(
        classes=(bern("c0", 1.0, 0.1, 400),),
        policy=QosPolicy(c_max=9.0, p=0.5),  # p is swept below
        method=EstimationMethod.EXACT,
        slots=50_000,
        seed=101,
    )
    p_values = [1e-3, 1e-2, 1e-1]
    methods = (
        EstimationMethod.EXACT,
        EstimationMethod.CHERNOFF,
        EstimationMethod.BENNETT,
        EstimationMethod.MARKOV,
        EstimationMethod.CHEBYSHEV,
    )
    cells = sweep_qos(config, p_values, methods=methods)
    by_key = {(cell.config.policy.p, cell.config.method): cell for cell in cells}

    for p in p_values:
        exact_cell = by_key[(p, EstimationMethod.EXACT)]
        assert 0.3 <= exact_cell.k <= 3.0, (p, exact_cell.k)
        for method in (EstimationMethod.CHERNOFF, EstimationMethod.BENNETT):
            cell = by_key[(p, method)]
            assert 0.005 <= cell.k <= 1.0, (p, method, cell.k)
    for method in (EstimationMethod.MARKOV, EstimationMethod.CHEBYSHEV):
        assert by_key[(1e-3, method)].enabled_counts == (0,)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 4 PASS: sized-run k ratios within bands in {elapsed:.1f}s")


def test_c05_enabled_percentage_hierarchy() -> None:
    cls = bern("c0", 1.0, 0.1, 2000)
    policy = QosPolicy(c_max=90.0, p=1e-5)
    enabled = {m: max_admissible(cls, policy, m) for m in EstimationMethod}
    percent = {m: 100.0 * n / enabled[EstimationMethod.EXACT] for m, n in enabled.items()}

    assert enabled[EstimationMethod.EXACT] == 568
    assert percent[EstimationMethod.EXACT] == 100.0
    assert 85.0 <= percent[EstimationMethod.CHERNOFF] <= 95.0
    assert 84.0 <= percent[EstimationMethod.BENNETT] <= 95.0
    assert 72.0 <= percent[EstimationMethod.HOEFFDING] <= 88.0
    assert percent[EstimationMethod.CHEBYSHEV] == 0.0
    assert percent[EstimationMethod.MARKOV] == 0.0
    assert 100.0 <= percent[EstimationMethod.CLT] <= 110.0

    order = (
        EstimationMethod.CLT,
        EstimationMethod.EXACT,
        EstimationMethod.CHERNOFF,
        EstimationMethod.BENNETT,
        EstimationMethod.HOEFFDING,
        EstimationMethod.CHEBYSHEV,
        EstimationMethod.MARKOV,
    )
    counts = [enabled[m] for m in order]
    assert counts == sorted(counts, reverse=True)
    print(
        "criterion 5 PASS: enabled percentages "
        + ", ".join(f"{m.value}={percent[m]:.1f}%" for m in order)
    )


def test_c06_two_class_spot_checks() -> None:
    class1 = bern("small", 1.0, 0.2, 100)
    class2 = bern("large", 10.0, 0.001, 100)
    policy = QosPolicy(c_max=32.0, p=1.05e-4)
    base = ClassComposition(entries=((class2, 100),))

    exact_n1 = max_admissible(class1, policy, EstimationMethod.EXACT, base=base)
    assert exact_n1 == 11
    clt_n1 = max_admissible(class1, policy, EstimationMethod.CLT, base=base)
    assert abs(clt_n1 - 69) <= 2

    exact_region = decision_region(class1, class2, policy, EstimationMethod.EXACT)
    for method in (EstimationMethod.CHERNOFF, EstimationMethod.BENNETT):
        tight_region = decision_region(class1, class2, policy, method)
        assert not np.any(tight_region & ~exact_region), method
    print(
        f"criterion 6 PASS: exact count {exact_n1}, normal-approximation "
        f"count {clt_n1}, tight regions contained in the exact region"
    )


def test_c07_energy_conservation() -> None:
    rng = np.random.default_rng(53)
    for trial in range(50):
        n_classes = int(rng.integers(1, 3))
        classes = tuple(
            bern(
                f"c{j}",
                float(rng.integers(1, 4)),
                float(rng.uniform(0.05, 0.95)),
                int(rng.integers(1, 9)),
            )
            for j in range(n_classes)
        )
        config = SimConfig(
            classes=classes,
            policy=QosPolicy(
                c_max=float(rng.uniform(1.0, 12.0)), p=float(rng.uniform(1e-4, 0.5))
            ),
            method=EstimationMethod.EXACT,
            strategy=SchedulingStrategy.ONE_STEP_SHIFT,
            slots=int(rng.integers(100, 400)),
            seed=int(rng.integers(0, 2**32)),
            mode=SimMode.SLOT_DYNAMIC,
        )
        ledger = run(config).ledger
        assert ledger is not None
        assert ledger.dropped_steps == 0
        assert ledger.served_steps + ledger.backlog_steps == ledger.demanded_steps, trial
    print("criterion 7 PASS: served + backlog == demanded on 50 randomized runs")


def test_c08_load_factor_direction() -> None:
    burst_model = AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({8: 0.5, 12: 0.5}),
        off_durations=DurationPmf.from_mapping({30: 0.5, 50: 0.5}),
    )
    cls = ApplianceClass(name="burst", on_power=1.0, model=burst_model, count=20)
    config = SimConfig(
        classes=(cls,),
        policy=QosPolicy(c_max=6.0, p=1e-4),
        method=EstimationMethod.EXACT,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        slots=4000,
        seed=7,
        mode=SimMode.SLOT_DYNAMIC,
    )
    result = run(config)
    assert result.lf_managed > result.lf_baseline + 0.02
    print(
        f"criterion 8 PASS: load factor {result.lf_baseline:.4f} -> "
        f"{result.lf_managed:.4f} under the one-step scheduler"
    )


def test_c09_generator_statistics() -> None:
    slots = 100_000
    models = [
        Bernoulli(p_on=0.3),
        TwoStateMarkov(p_off_to_on=0.05, p_on_to_off=0.15),
        AlternatingRenewal(
            on_durations=DurationPmf.from_mapping({2: 0.5, 5: 0.5}),
            off_durations=DurationPmf.from_mapping({4: 0.3, 8: 0.7}),
        ),
    ]
    for model in models:
        cls = ApplianceClass(name="x", on_power=1.0, model=model, count=1)
        series = sample_series(cls, slots, seed=11)
        stats = stationary_stats(model)
        assert abs(float(np.mean(series > 0)) - stats.p_on) <= 0.01, type(model).__name__

    # renewal run lengths, interior runs only
    renewal = models[2]
    cls = ApplianceClass(name="x", on_power=1.0, model=renewal, count=1)
    on = sample_series(cls, slots, seed=11) > 0
    boundaries = np.flatnonzero(np.diff(on)) + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [on.size])))
    states = on[starts]
    interior = slice(1, -1)
    on_runs = [int(l) for s, l in zip(states[interior], lengths[interior]) if s]
    off_runs = [int(l) for s, l in zip(states[interior], lengths[interior]) if not s]
    stats = stationary_stats(renewal)
    assert abs(np.mean(on_runs) - stats.mean_on_run) <= 0.02 * stats.mean_on_run
    assert abs(np.mean(off_runs) - stats.mean_off_run) <= 0.02 * stats.mean_off_run
    print("criterion 9 PASS: generator occupancy within 0.01, run means within 2%")


def test_c10_monotonicity_properties() -> None:
    rng = np.random.default_rng(61)

    # estimates never increase as the threshold rises
    for _ in range(12):
        composition = random_composition(rng, max_appliances=20)
        thresholds = np.sort(rng.uniform(0.5, 30.0, size=8))
        for method in ALL_METHODS:
            values = [estimate(method, composition, float(t)) for t in thresholds]
            for tighter, looser in zip(values[1:], values[:-1]):
                assert tighter <= looser + 1e-12

    # capacity never shrinks as the tolerated probability grows
    cls = bern("c0", 2.0, 0.3, 80)
    budgets = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5]
    for method in ALL_METHODS:
        counts = [max_admissible(cls, QosPolicy(c_max=30.0, p=p), method) for p in budgets]
        assert counts == sorted(counts), method

    # constant base load is exactly a threshold shift, bit for bit
    for _ in range(20):
        composition = random_composition(rng, max_appliances=15)
        det = float(rng.uniform(0.5, 20.0))
        shifted = ClassComposition(entries=composition.entries, deterministic_load=det)
        c_max = float(rng.uniform(det + 0.5, det + 40.0))
        for method in ALL_METHODS:
            assert estimate(method, shifted, c_max) == estimate(
                method, composition, c_max - det
            ), method

    # two-class acceptance regions are downward-closed for monotone methods
    c1 = bern("a", 1.0, 0.35, 10)
    c2 = bern("b", 3.0, 0.15, 6)
    policy = QosPolicy(c_max=8.0, p=0.03)
    for method in (
        EstimationMethod.EXACT,
        EstimationMethod.MARKOV,
        EstimationMethod.HOEFFDING,
        EstimationMethod.CHERNOFF,
    ):
        region = decision_region(c1, c2, policy, method)
        for n1, n2 in np.argwhere(region):
            assert region[: n1 + 1, : n2 + 1].all(), (method, n1, n2)
    print("criterion 10 PASS: threshold/count/budget monotonicity and offset equivalence")
