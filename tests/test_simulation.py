"""Monte Carlo runs: composition sizing, slot-dynamic scheduling, QoS sweeps."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from loadcap.admission import QosPolicy, max_admissible
from loadcap.fileio import write_outcomes, write_result, write_series
from loadcap.models import (
    AlternatingRenewal,
    ApplianceClass,
    Bernoulli,
    DurationPmf,
    TwoStateMarkov,
    derive_seed,
    sample_series,
)
from loadcap.scheduling import SchedulingStrategy
from loadcap.simulation import (
    EnergyLedger,
    SimConfig,
    SimMode,
    SimResult,
    SweepCell,
    enabled_percentage_table,
    run,
    run_composition,
    run_slot_dynamic,
    sweep_qos,
)
from loadcap.tailprob import ClassComposition, EstimationMethod


def bern(name: str, on_power: float, p_on: float, count: int, shiftable: bool = True):
    return ApplianceClass(
        name=name,
        on_power=on_power,
        model=Bernoulli(p_on=p_on),
        count=count,
        shiftable=shiftable,
    )


def config_of(**overrides) -> SimConfig:
    defaults = dict(
        classes=(bern("c0", 1.0, 0.5, 20),),
        policy=QosPolicy(c_max=9.0, p=0.05),
        method=EstimationMethod.EXACT,
        slots=400,
        seed=3,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_sim_config_validation() -> None:
    with pytest.raises(ValueError):
        config_of(classes=())
    with pytest.raises(ValueError):
        config_of(classes=(bern("a", 1.0, 0.5, 2), bern("a", 2.0, 0.5, 2)))
    with pytest.raises(ValueError):
        config_of(slots=0)
    with pytest.raises(ValueError):
        config_of(seed=-1)
    with pytest.raises(ValueError):
        config_of(quantum=0.0)
    with pytest.raises(ValueError):
        config_of(deterministic_load=-2.0)


def test_sim_config_rejects_a_strategy_outside_slot_dynamic_mode() -> None:
    # composition mode never schedules, so a strategy or a non-shiftable
    # class would be ignored
    for strategy in SchedulingStrategy:
        with pytest.raises(ValueError, match=f"{strategy.value}.*slot_dynamic"):
            config_of(strategy=strategy)
    with pytest.raises(ValueError, match=r"non-shiftable classes \['fixed'\].*slot_dynamic"):
        config_of(classes=(bern("c0", 1.0, 0.5, 2), bern("fixed", 1.0, 0.5, 2, False)))
    assert config_of().strategy is None
    shifting = config_of(
        strategy=SchedulingStrategy.ONE_STEP_SHIFT, mode=SimMode.SLOT_DYNAMIC
    )
    assert shifting.strategy is SchedulingStrategy.ONE_STEP_SHIFT


# ---------------------------------------------------------------------------
# composition mode
# ---------------------------------------------------------------------------


def test_composition_enabled_counts_match_capacity_search() -> None:
    cfg = config_of(
        classes=(bern("a", 1.0, 0.5, 20), bern("b", 2.0, 0.2, 10)),
        policy=QosPolicy(c_max=8.0, p=0.02),
        slots=50,
    )
    result = run(cfg)
    base = ClassComposition(entries=(), deterministic_load=cfg.deterministic_load)
    for cls, enabled in zip(cfg.classes, result.enabled_counts):
        assert enabled == max_admissible(cls, cfg.policy, cfg.method, cfg.quantum, base=base)


def test_composition_generous_limit_runs_everything() -> None:
    cfg = config_of(policy=QosPolicy(c_max=1000.0, p=0.05), slots=200)
    result = run(cfg)
    assert result.enabled_counts == (20,)
    assert np.array_equal(result.series_managed, result.series_baseline)
    assert result.p_hat == 0.0
    assert result.k == 0.0
    assert result.overload_slots == 0


def test_composition_run_is_reproducible() -> None:
    cfg = config_of(slots=300)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.series_managed, b.series_managed)
    assert np.array_equal(a.series_baseline, b.series_baseline)
    assert (a.p_hat, a.k, a.stderr, a.enabled_counts) == (b.p_hat, b.k, b.stderr, b.enabled_counts)
    c = run(config_of(slots=300, seed=4))
    assert not np.array_equal(a.series_managed, c.series_managed)


def test_composition_methods_share_appliance_randomness() -> None:
    # the baseline draws every appliance regardless of sizing, so two
    # methods at one seed face the same load paths
    exact = run(config_of(method=EstimationMethod.EXACT, slots=250))
    coarse = run(config_of(method=EstimationMethod.CHEBYSHEV, slots=250))
    assert np.array_equal(exact.series_baseline, coarse.series_baseline)
    assert sum(coarse.enabled_counts) <= sum(exact.enabled_counts)


def test_composition_managed_is_prefix_of_baseline_load() -> None:
    cfg = config_of(policy=QosPolicy(c_max=6.0, p=0.01), slots=150)
    result = run(cfg)
    assert np.all(result.series_managed <= result.series_baseline + 1e-12)


def test_composition_blocking_everything_yields_nan_load_factor() -> None:
    cfg = config_of(
        classes=(bern("c0", 5.0, 0.9, 10),),
        policy=QosPolicy(c_max=4.0, p=0.001),
        slots=100,
    )
    result = run(cfg)
    assert result.enabled_counts == (0,)
    assert result.p_hat == 0.0
    assert math.isnan(result.lf_managed)
    assert not math.isnan(result.lf_baseline)


def test_composition_constant_base_load_floors_both_series() -> None:
    cfg = config_of(deterministic_load=3.0, policy=QosPolicy(c_max=12.0, p=0.05), slots=120)
    result = run(cfg)
    assert np.all(result.series_baseline >= 3.0)
    assert np.all(result.series_managed >= 3.0)


@pytest.mark.parametrize(
    "method, enabled, series_sha256, result_sha256",
    [
        (
            EstimationMethod.EXACT,
            (22, 8, 10, 3),
            "64772bee4f0d17eb0d76910a1042659b9cf7f69e5fbc67151c5b75ec556ebefe",
            "8be912130c86502b07feda7ea6f9de88fad76b65775206d816efa77e1248976d",
        ),
        (
            EstimationMethod.CHERNOFF,
            (18, 6, 10, 3),
            "c1412ae68a1d40864a7b733b7f0e3ae2a9578a41054f19507f76d90935ac0d9f",
            "9c96bc35d15054587eb200e0f004b9bc2411ca8d32d03ebb120890d55259bfba",
        ),
    ],
    ids=["exact", "chernoff"],
)
def test_composition_with_several_classes_is_pinned(
    tmp_path,
    method: EstimationMethod,
    enabled: tuple[int, ...],
    series_sha256: str,
    result_sha256: str,
) -> None:
    # one class per model family plus an always-on one, over a constant base
    # load; the first two are cut to different counts, so a count applied to
    # the wrong class changes the managed series
    renewal = AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({2: 0.5, 4: 0.5}),
        off_durations=DurationPmf.from_mapping({6: 1.0}),
    )
    cfg = config_of(
        classes=(
            bern("bern", 1.0, 0.3, 30),
            ApplianceClass(name="pump", on_power=2.0, model=TwoStateMarkov(0.1, 0.2), count=12),
            ApplianceClass(name="cycler", on_power=1.5, model=renewal, count=10),
            bern("fridge", 2.0, 1.0, 3),
        ),
        policy=QosPolicy(c_max=14.0, p=0.02),
        method=method,
        slots=400,
        seed=11,
        quantum=0.5,
        deterministic_load=2.5,
    )
    result = run_composition(cfg)
    assert result.enabled_counts == enabled
    series, doc = tmp_path / "series.csv", tmp_path / "result.json"
    write_series(str(series), result)
    write_result(str(doc), "multi", result)
    assert hashlib.sha256(series.read_bytes()).hexdigest() == series_sha256
    assert hashlib.sha256(doc.read_bytes()).hexdigest() == result_sha256


def test_tail_statistics_definitions() -> None:
    cfg = config_of(
        classes=(bern("c0", 1.0, 0.5, 1),),
        policy=QosPolicy(c_max=1.0, p=0.9),
        slots=500,
    )
    result = run(cfg)
    assert result.enabled_counts == (1,)
    hits = float(np.mean(result.series_managed >= 1.0 - 1e-9))
    assert result.p_hat == pytest.approx(hits)
    assert result.k == pytest.approx(result.p_hat / 0.9)
    assert result.stderr == pytest.approx(
        math.sqrt(result.p_hat * (1.0 - result.p_hat) / 500) / 0.9
    )
    assert not result.low_confidence  # 0.9 * 500 expected events


def test_low_confidence_flag_trips_on_rare_budgets() -> None:
    cfg = config_of(policy=QosPolicy(c_max=9.0, p=1e-4), slots=1000)
    assert run(cfg).low_confidence


# ---------------------------------------------------------------------------
# slot-dynamic mode
# ---------------------------------------------------------------------------


def test_slot_dynamic_generous_limit_serves_all_demand() -> None:
    cfg = config_of(
        policy=QosPolicy(c_max=1000.0, p=0.05),
        mode=SimMode.SLOT_DYNAMIC,
        slots=200,
    )
    result = run(cfg)
    assert np.array_equal(result.series_managed, result.series_baseline)
    ledger = result.ledger
    assert ledger is not None
    assert ledger.served_steps == ledger.demanded_steps
    assert ledger.dropped_steps == 0
    assert ledger.backlog_steps == 0


@pytest.mark.parametrize("strategy", list(SchedulingStrategy))
def test_slot_dynamic_energy_conservation(strategy: SchedulingStrategy) -> None:
    cfg = config_of(
        classes=(bern("a", 1.0, 0.4, 8), bern("b", 2.0, 0.2, 5)),
        policy=QosPolicy(c_max=5.0, p=0.05),
        mode=SimMode.SLOT_DYNAMIC,
        strategy=strategy,
        slots=400,
    )
    ledger = run(cfg).ledger
    assert ledger is not None
    assert ledger.served_steps + ledger.dropped_steps + ledger.backlog_steps == (
        ledger.demanded_steps
    )
    if strategy is SchedulingStrategy.DROP:
        assert ledger.backlog_steps == 0
    else:
        assert ledger.dropped_steps == 0


def test_slot_dynamic_single_unit_per_appliance_per_slot() -> None:
    # two always-demanding appliances, room for exactly one per slot: the
    # backlog grows by one entry each slot and the served load never doubles
    cfg = config_of(
        classes=(bern("c0", 1.0, 1.0, 2),),
        policy=QosPolicy(c_max=1.5, p=0.05),
        mode=SimMode.SLOT_DYNAMIC,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        slots=50,
    )
    result = run(cfg)
    assert np.all(result.series_managed == 1.0)
    ledger = result.ledger
    assert ledger is not None
    assert ledger.demanded_steps == 100
    assert ledger.served_steps == 50
    assert ledger.dropped_steps == 0
    assert ledger.backlog_steps == 50
    assert result.outcomes is not None
    assert result.outcomes["backlog_depth"].tolist() == list(range(1, 51))
    # the first slot turns away one appliance; later slots turn away both
    assert result.outcomes["disabled_count"].tolist() == [1] + [2] * 49


def test_slot_dynamic_non_shiftable_demand_is_never_blocked() -> None:
    cfg = config_of(
        classes=(
            bern("fixed", 2.0, 0.6, 3, shiftable=False),
            bern("flex", 1.0, 0.5, 10),
        ),
        policy=QosPolicy(c_max=3.0, p=0.01),
        mode=SimMode.SLOT_DYNAMIC,
        slots=300,
    )
    result = run(cfg)
    # rebuild the non-shiftable load from the same seeded streams
    from loadcap.models import derive_seed, sample_series

    fixed = np.zeros(cfg.slots)
    for i in range(3):
        fixed += sample_series(cfg.classes[0], cfg.slots, derive_seed(cfg.seed, 0, i))
    assert np.all(result.series_managed >= fixed - 1e-12)


def test_slot_dynamic_off_grid_non_shiftable_class_is_base_load() -> None:
    # non-shiftable load is never queued, so its power need not sit on the
    # grid; two always-on 0.7 W fridges act as 1.4 W of constant load
    pumps = bern("pump", 1.0, 0.3, 12)
    fridges = ApplianceClass(
        name="fridge", on_power=0.7, model=Bernoulli(p_on=1.0), count=2, shiftable=False
    )
    common = dict(
        policy=QosPolicy(c_max=6.0, p=0.05),
        mode=SimMode.SLOT_DYNAMIC,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        slots=300,
    )
    with_class = run_slot_dynamic(config_of(classes=(pumps, fridges), **common))
    as_load = run_slot_dynamic(config_of(classes=(pumps,), deterministic_load=1.4, **common))
    assert with_class.ledger == as_load.ledger
    assert np.array_equal(with_class.outcomes, as_load.outcomes)
    assert with_class.outcomes["disabled_count"].sum() > 0  # the base load binds
    np.testing.assert_allclose(
        with_class.series_managed, as_load.series_managed, rtol=0.0, atol=1e-12
    )


def test_slot_dynamic_outcomes_align_with_series() -> None:
    cfg = config_of(
        classes=(bern("a", 1.0, 0.4, 6),),
        policy=QosPolicy(c_max=3.0, p=0.05),
        mode=SimMode.SLOT_DYNAMIC,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        slots=120,
    )
    result = run(cfg)
    outcomes = result.outcomes
    assert outcomes is not None
    assert outcomes.shape == (cfg.slots,)
    assert outcomes.dtype.names == ("dropped_w", "backlog_depth", "disabled_count")
    assert np.all(outcomes["dropped_w"] == 0.0)
    # a slot that ends with a backlog turned someone away in it
    queued = outcomes["backlog_depth"] > 0
    assert np.any(queued)
    assert np.all(outcomes["disabled_count"][queued] >= 1)


def test_slot_dynamic_is_reproducible() -> None:
    cfg = config_of(
        classes=(bern("a", 1.0, 0.4, 6),),
        policy=QosPolicy(c_max=3.0, p=0.05),
        mode=SimMode.SLOT_DYNAMIC,
        slots=150,
    )
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.series_managed, b.series_managed)
    assert a.ledger == b.ledger


def test_two_class_slot_dynamic_walks_the_frontier_once(monkeypatch) -> None:
    # the admitted count vectors form a down-set, so one staircase walk over
    # the two shiftable classes answers every check of the run
    import loadcap.admission as admission

    calls = 0
    real_estimate = admission.estimate

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_estimate(*args, **kwargs)

    monkeypatch.setattr(admission, "estimate", counting)
    n1, n2 = 60, 20
    cfg = config_of(
        classes=(
            bern("small", 1.0, 0.3, n1),
            bern("fixed", 2.0, 0.3, 5, shiftable=False),
            bern("large", 3.0, 0.2, n2),
        ),
        policy=QosPolicy(c_max=24.0, p=0.01),
        mode=SimMode.SLOT_DYNAMIC,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        slots=2000,
    )
    result = run_slot_dynamic(cfg)
    assert result.outcomes is not None
    assert result.outcomes["backlog_depth"].max() > 0  # the per-entry checks ran too
    assert 0 < calls <= n1 + n2 + 2 * math.ceil(math.log2(n1 + 1)) + 4


def test_slot_dynamic_renewal_demand_round_trips() -> None:
    renewal = AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({2: 0.5, 4: 0.5}),
        off_durations=DurationPmf.from_mapping({6: 1.0}),
    )
    cls = ApplianceClass(name="cyc", on_power=1.0, model=renewal, count=5)
    cfg = config_of(
        classes=(cls,),
        policy=QosPolicy(c_max=2.0, p=0.2),
        mode=SimMode.SLOT_DYNAMIC,
        strategy=SchedulingStrategy.ONE_STEP_SHIFT,
        slots=500,
    )
    ledger = run(cfg).ledger
    assert ledger is not None
    assert ledger.served_steps + ledger.backlog_steps == ledger.demanded_steps


@pytest.mark.parametrize("strategy", list(SchedulingStrategy))
def test_slot_dynamic_without_shiftable_classes_serves_everything(
    strategy: SchedulingStrategy,
) -> None:
    # no column of demand: every slot's queue is empty and the whole load
    # is base load, served whatever the policy says
    fixed = ApplianceClass(
        name="fixed", on_power=2.0, model=TwoStateMarkov(0.2, 0.3), count=4, shiftable=False
    )
    cfg = config_of(
        classes=(fixed, bern("other", 1.0, 0.5, 3, shiftable=False)),
        policy=QosPolicy(c_max=3.0, p=0.01),
        mode=SimMode.SLOT_DYNAMIC,
        strategy=strategy,
        slots=200,
        deterministic_load=0.5,
    )
    result = run_slot_dynamic(cfg)
    assert result.ledger == EnergyLedger(0, 0, 0, 0)
    assert np.array_equal(result.series_managed, result.series_baseline)
    assert result.overload_slots > 0  # the policy is broken, and nothing is refused
    assert result.outcomes is not None
    assert not any(result.outcomes[name].any() for name in result.outcomes.dtype.names)


@pytest.mark.parametrize(
    "method, strategy, ledger, managed_sha256, outcomes_sha256",
    [
        (
            EstimationMethod.EXACT,
            SchedulingStrategy.ONE_STEP_SHIFT,
            (13148, 13140, 0, 8),
            "fa7c3da1f2bef90be795f8e025ba013726789f64fdc294865c9bab47974daf5a",
            "ac9c987c9dfbcfc12ac7fe89d2e8594e1fe6bcf575cbded92447780b3e82d5ce",
        ),
        (
            EstimationMethod.CHERNOFF,
            SchedulingStrategy.ONE_STEP_SHIFT,
            (13148, 13098, 0, 50),
            "ed0b64fb2357fbd6661bf4651203ed5c6c2fbc8accaa40b6b2a01ac67a4e30fc",
            "9ca5cb80cf35586bbf1270a09366dd5ef07add59eed38bd1ff7d555a0dc528cb",
        ),
        (
            EstimationMethod.EXACT,
            SchedulingStrategy.DROP,
            (13148, 13120, 28, 0),
            "26f5ad9960dda1fdf25502c7e6aff99dbdca44aea25a0b14f8a327c98a7ebb85",
            "3c9d5a6a9115166fbf550031112f43d035b712ddc4dd23accce29515e855b26e",
        ),
        (
            EstimationMethod.CHERNOFF,
            SchedulingStrategy.DROP,
            (13148, 12632, 516, 0),
            "51f288c3763c8f811a63fce8758e4f1e6d33f68c421f3eb214585aa97c764a6c",
            "c3734949e25d4d1dbd9734cfce682ac5027df6a9fe82e9b8a9c9fa250ed6993b",
        ),
    ],
    ids=["exact", "chernoff", "exact-drop", "chernoff-drop"],
)
def test_slot_dynamic_with_deterministic_classes_is_pinned(
    tmp_path,
    method: EstimationMethod,
    strategy: SchedulingStrategy,
    ledger: tuple[int, ...],
    managed_sha256: str,
    outcomes_sha256: str,
) -> None:
    # always-on classes on both sides of the shiftable split: the estimator
    # folds their load into constant watts before any tail is computed
    def det(name: str, on_power: float, count: int, shiftable: bool = True):
        return ApplianceClass(
            name=name,
            on_power=on_power,
            model=Bernoulli(p_on=1.0),
            count=count,
            shiftable=shiftable,
        )

    pump = ApplianceClass(
        name="pump", on_power=1.0, model=TwoStateMarkov(0.1, 0.2), count=12
    )
    cfg = config_of(
        classes=(
            pump,
            det("lamp", 2.0, 3),
            bern("fixed", 2.0, 0.4, 4, shiftable=False),
            det("floor", 1.5, 2, shiftable=False),
            bern("kettle", 3.0, 0.2, 5),
        ),
        policy=QosPolicy(c_max=24.0, p=0.02),
        method=method,
        mode=SimMode.SLOT_DYNAMIC,
        strategy=strategy,
        slots=500,
        seed=5,
        quantum=0.5,
        deterministic_load=1.25,
    )
    result = run_slot_dynamic(cfg)
    got = result.ledger
    assert got is not None
    assert (
        got.demanded_steps,
        got.served_steps,
        got.dropped_steps,
        got.backlog_steps,
    ) == ledger
    digest = hashlib.sha256(result.series_managed.tobytes()).hexdigest()
    assert digest == managed_sha256
    path = tmp_path / "outcomes.csv"
    write_outcomes(str(path), result)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == outcomes_sha256


# ---------------------------------------------------------------------------
# sweeps and tables
# ---------------------------------------------------------------------------


def test_sweep_validation(monkeypatch) -> None:
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfg = config_of()
    with pytest.raises(ValueError):
        sweep_qos(cfg, [])
    with pytest.raises(ValueError):
        sweep_qos(cfg, [0.1, 0.01])  # not ascending
    with pytest.raises(ValueError):
        sweep_qos(cfg, [0.0, 0.1])
    with pytest.raises(ValueError):
        sweep_qos(cfg, [0.1, 1.0])
    with pytest.raises(ValueError, match="methods must be non-empty"):
        sweep_qos(cfg, [0.01, 0.1], methods=[])
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            sweep_qos(cfg, [0.01, 0.1], jobs=jobs)


def test_sweep_rejects_a_slot_dynamic_config() -> None:
    with pytest.raises(ValueError, match="composition"):
        sweep_qos(config_of(mode=SimMode.SLOT_DYNAMIC), [0.01, 0.1])


@pytest.mark.parametrize(
    ("quantum", "deterministic_load"), [(0.5, 1.25), (0.1, 0.7)], ids=["dyadic", "decimal"]
)
def test_sweep_samples_once_per_p_and_matches_per_cell_runs(
    monkeypatch, quantum, deterministic_load
) -> None:
    renewal = AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({2: 0.5, 4: 0.5}),
        off_durations=DurationPmf.from_mapping({6: 1.0}),
    )
    models = (Bernoulli(p_on=0.3), TwoStateMarkov(0.1, 0.2), renewal, Bernoulli(p_on=1.0))
    classes = tuple(
        ApplianceClass(name=f"c{j}", on_power=steps * quantum, model=model, count=count)
        for j, (steps, model, count) in enumerate(zip((3, 5, 2, 1), models, (12, 10, 8, 4)))
    )
    config = SimConfig(
        classes=classes,
        policy=QosPolicy(c_max=deterministic_load + 14 * quantum, p=0.05),
        method=EstimationMethod.EXACT,
        slots=300,
        seed=11,
        quantum=quantum,
        deterministic_load=deterministic_load,
    )
    p_values = [0.01, 0.1]
    methods = (
        EstimationMethod.EXACT,
        EstimationMethod.CHERNOFF,
        EstimationMethod.MARKOV,
        EstimationMethod.CLT,
    )
    calls = 0

    def counting_sample_series(*args):
        nonlocal calls
        calls += 1
        return sample_series(*args)

    monkeypatch.setattr("loadcap.simulation.sample_series", counting_sample_series)
    cells = sweep_qos(config, p_values, methods=methods)
    # every method at one p reads the same single pass over the population
    assert calls == sum(cls.count for cls in classes) * len(p_values)

    expected = []
    for p_index, p in enumerate(p_values):
        for method in methods:
            result = run_composition(
                replace(
                    config,
                    policy=replace(config.policy, p=p),
                    method=method,
                    seed=derive_seed(config.seed, 2, p_index),
                )
            )
            expected.append(
                SweepCell(
                    p=p,
                    method=method,
                    enabled=sum(result.enabled_counts),
                    p_hat=result.p_hat,
                    k=result.k,
                    stderr=result.stderr,
                    low_confidence=result.low_confidence,
                )
            )
    assert cells == expected
    # the methods enable different appliances, so their managed rows differ
    assert len({cell.enabled for cell in cells[: len(methods)]}) > 1


def test_sweep_workers_are_capped_by_cells_and_cpus(monkeypatch) -> None:
    asked: list[int] = []

    class SerialPool:
        def __init__(self, max_workers: int) -> None:
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info) -> None:
            return None

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    cfg = config_of(slots=40)
    methods = (EstimationMethod.EXACT, EstimationMethod.MARKOV)
    serial = sweep_qos(cfg, [0.01, 0.1], methods=methods)
    monkeypatch.setattr("loadcap.simulation.os.cpu_count", lambda: 64)
    assert sweep_qos(cfg, [0.01, 0.1], methods=methods, jobs=10_000) == serial
    assert asked == [2]  # one worker per p value, not per cell or requested job
    for cpus in (1, None):
        monkeypatch.setattr("loadcap.simulation.os.cpu_count", lambda: cpus)
        assert sweep_qos(cfg, [0.01, 0.1], methods=methods, jobs=10_000) == serial
    assert asked == [2]  # a single CPU runs the p values in-process


def test_sweep_grid_layout_and_determinism() -> None:
    cfg = config_of(slots=120)
    methods = (EstimationMethod.EXACT, EstimationMethod.MARKOV)
    cells = sweep_qos(cfg, [0.01, 0.1], methods=methods)
    assert [(c.p, c.method) for c in cells] == [
        (0.01, EstimationMethod.EXACT),
        (0.01, EstimationMethod.MARKOV),
        (0.1, EstimationMethod.EXACT),
        (0.1, EstimationMethod.MARKOV),
    ]
    assert cells == sweep_qos(cfg, [0.01, 0.1], methods=methods)


def test_sweep_defaults_to_every_method() -> None:
    cells = sweep_qos(config_of(slots=60), [0.05])
    assert [c.method for c in cells] == list(EstimationMethod)


def test_sweep_enabled_counts_non_decreasing_in_p() -> None:
    cfg = config_of(classes=(bern("c0", 1.0, 0.3, 40),), slots=60)
    cells = sweep_qos(cfg, [0.001, 0.01, 0.1], methods=(EstimationMethod.EXACT,))
    enabled = [c.enabled for c in cells]
    assert enabled == sorted(enabled)


def test_sweep_parallel_equals_serial() -> None:
    cfg = config_of(slots=80)
    serial = sweep_qos(cfg, [0.01, 0.05], methods=(EstimationMethod.EXACT,), jobs=1)
    parallel = sweep_qos(cfg, [0.01, 0.05], methods=(EstimationMethod.EXACT,), jobs=2)
    assert serial == parallel


def test_enabled_percentage_table_reference_row() -> None:
    cls = bern("c0", 1.0, 0.1, 400)
    policy = QosPolicy(c_max=20.0, p=0.01)
    rows = enabled_percentage_table(cls, policy)
    by_method = {row.method: row for row in rows}
    exact_row = by_method[EstimationMethod.EXACT]
    assert exact_row.enabled == 114
    assert exact_row.percent_of_exact == 100.0
    for row in rows:
        assert row.percent_of_exact == pytest.approx(100.0 * row.enabled / 114)


def test_enabled_percentage_table_zero_reference() -> None:
    # the exact search admits nothing, the normal approximation one appliance
    cls = bern("c0", 1.0, 0.3, 5)
    policy = QosPolicy(c_max=0.9, p=0.2)
    rows = enabled_percentage_table(
        cls, policy, methods=(EstimationMethod.EXACT, EstimationMethod.CLT)
    )
    exact_row, clt_row = rows
    assert exact_row.enabled == 0
    assert exact_row.percent_of_exact == 0.0
    assert clt_row.enabled >= 1
    assert clt_row.percent_of_exact == math.inf


def test_run_returns_simresult_with_mode_dependent_extras() -> None:
    comp_result = run(config_of(slots=50))
    assert isinstance(comp_result, SimResult)
    assert comp_result.ledger is None
    assert comp_result.outcomes is None
    dyn_result = run(config_of(slots=50, mode=SimMode.SLOT_DYNAMIC))
    assert dyn_result.ledger is not None
    assert dyn_result.outcomes is not None


def test_run_composition_and_run_slot_dynamic_direct_entry_points() -> None:
    cfg = config_of(slots=40)
    assert run_composition(cfg).slots == 40
    assert run_slot_dynamic(config_of(slots=40, mode=SimMode.SLOT_DYNAMIC)).slots == 40
