"""Appliance load models: stationary behaviour, sampling, and trace fitting.

Covered here:
  1. stationary occupancy and mean run lengths for all three model families
  2. per-class power moments derived from occupancy
  3. series sampling (support, reproducibility, long-run frequencies, and
     block sampling equal to a draw-per-run reference, byte for byte)
  4. fitting models back from traces, including degenerate inputs
  5. seed derivation
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from loadcap.models import (
    AlternatingRenewal,
    ApplianceClass,
    Bernoulli,
    DurationPmf,
    TraceSeries,
    TwoStateMarkov,
    derive_seed,
    fit_model,
    sample_series,
    stationary_stats,
)
from loadcap.tailprob import ClassComposition, _aggregate_stats

# Shared six-sample trace used by all fit oracles below; ON threshold 1.0
# splits it into OFF,ON,ON,OFF,ON,ON.
FIT_TRACE = TraceSeries(watts=np.array([0.0, 5.0, 5.0, 0.0, 5.0, 5.0]), sample_period_s=1.0)


# ---------------------------------------------------------------------------
# stationary statistics
# ---------------------------------------------------------------------------


def test_bernoulli_stationary_triple() -> None:
    stats = stationary_stats(Bernoulli(p_on=0.5))
    assert stats.p_on == 0.5
    assert stats.mean_on_run == pytest.approx(2.0)
    assert stats.mean_off_run == pytest.approx(2.0)


def test_markov_stationary_triple() -> None:
    stats = stationary_stats(TwoStateMarkov(p_off_to_on=0.1, p_on_to_off=0.3))
    assert stats.p_on == pytest.approx(0.25)
    assert stats.mean_on_run == pytest.approx(1.0 / 0.3)
    assert stats.mean_off_run == pytest.approx(1.0 / 0.1)


def test_renewal_stationary_triple() -> None:
    model = AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({2: 1.0}),
        off_durations=DurationPmf.from_mapping({4: 0.5, 8: 0.5}),
    )
    stats = stationary_stats(model)
    assert stats.p_on == pytest.approx(2.0 / 8.0)
    assert stats.mean_on_run == pytest.approx(2.0)
    assert stats.mean_off_run == pytest.approx(6.0)


@pytest.mark.parametrize(
    "not_a_model", ["markov", DurationPmf.from_mapping({2: 1.0})], ids=["string", "duration-pmf"]
)
def test_stationary_stats_refuses_a_non_model(not_a_model) -> None:
    with pytest.raises(TypeError, match="unknown load model"):
        stationary_stats(not_a_model)


def test_class_power_moments_follow_occupancy() -> None:
    cls = ApplianceClass(name="pump", on_power=2.0, model=Bernoulli(p_on=0.25), count=7)
    assert cls.p_on == 0.25
    stats = _aggregate_stats(ClassComposition(entries=((cls, 1),)))
    assert stats.mean == pytest.approx(0.5)
    assert stats.variance == pytest.approx(4.0 * 0.25 * 0.75)


def test_deterministic_class_is_always_on() -> None:
    cls = ApplianceClass(name="base", on_power=3.0, model=Bernoulli(p_on=1.0), count=2)
    assert cls.p_on == 1.0
    stats = _aggregate_stats(ClassComposition(entries=((cls, 1),)))
    assert stats.mean == 3.0
    assert stats.variance == 0.0


def test_class_p_on_is_cached_without_changing_identity() -> None:
    renewal = AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({2: 1.0}),
        off_durations=DurationPmf.from_mapping({4: 0.5, 8: 0.5}),
    )
    models = (Bernoulli(p_on=0.3), TwoStateMarkov(p_off_to_on=0.1, p_on_to_off=0.3), renewal)
    for model in models:
        cls = ApplianceClass(name="x", on_power=2.0, model=model, count=4)
        twin = ApplianceClass(name="x", on_power=2.0, model=model, count=4)
        assert cls.p_on == stationary_stats(model).p_on
        assert cls.p_on == cls.p_on  # second read comes from the cache
        # a cached value is not a field: equality and hash see fields only
        assert cls == twin and hash(cls) == hash(twin)
        restored = pickle.loads(pickle.dumps(cls))
        assert restored == cls and restored.p_on == cls.p_on
        swapped = dataclasses.replace(cls, model=Bernoulli(p_on=0.9))
        assert swapped.p_on == 0.9
    det = ApplianceClass(name="base", on_power=3.0, model=Bernoulli(p_on=1.0), count=2)
    assert det.p_on == 1.0
    assert pickle.loads(pickle.dumps(det)).p_on == 1.0


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


def test_bernoulli_probability_bounds() -> None:
    Bernoulli(p_on=0.0)
    Bernoulli(p_on=1.0)
    with pytest.raises(ValueError):
        Bernoulli(p_on=-0.1)
    with pytest.raises(ValueError):
        Bernoulli(p_on=1.1)


@pytest.mark.parametrize("p01,p10", [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0)])
def test_markov_rates_must_be_interior(p01: float, p10: float) -> None:
    with pytest.raises(ValueError):
        TwoStateMarkov(p_off_to_on=p01, p_on_to_off=p10)


def test_duration_pmf_rejects_bad_weights() -> None:
    with pytest.raises(ValueError):
        DurationPmf.from_mapping({})
    with pytest.raises(ValueError):
        DurationPmf.from_mapping({2: 0.5, 3: 0.4})  # mass 0.9
    with pytest.raises(ValueError):
        DurationPmf.from_mapping({2: 1.0, 3: 0.0})  # zero-probability entry
    with pytest.raises(ValueError):
        DurationPmf.from_mapping({0: 1.0})  # durations start at one step
    with pytest.raises(ValueError):
        DurationPmf.from_mapping({-1: 0.5, 2: 0.5})


def test_duration_pmf_durations_fit_an_int64() -> None:
    longest = DurationPmf.from_mapping({2**63 - 1: 1.0})
    assert longest.inverse_cdf(np.array([0.5])).tolist() == [2**63 - 1]
    for past in (2**63, 1e19, math.inf, math.nan):
        with pytest.raises(ValueError, match="is not an integer from 1 to 9223372036854775807"):
            DurationPmf(((past, 1.0),))


def test_duration_pmf_mean_and_mapping_round_trip() -> None:
    pmf = DurationPmf.from_mapping({3: 0.25, 1: 0.75})
    assert pmf.mean() == pytest.approx(1.5)
    assert pmf.as_mapping() == {1: 0.75, 3: 0.25}


def test_duration_pmf_samples_stay_on_support() -> None:
    pmf = DurationPmf.from_mapping({2: 0.5, 5: 0.3, 9: 0.2})
    draws = pmf.inverse_cdf(np.random.default_rng(3).random(4000))
    assert set(np.unique(draws)) <= {2, 5, 9}
    assert abs(np.mean(draws == 2) - 0.5) < 0.03
    edges = pmf.inverse_cdf(np.array([0.0, 0.4999, 0.5, 0.8, 0.9999]))
    assert edges.tolist() == [2, 2, 5, 9, 9]
    # this cdf ends at the largest double below 1, the largest uniform a
    # generator returns: that uniform still maps onto the support
    short = DurationPmf.from_mapping({1: 0.2, 4: 0.7, 6: 0.1})
    top = np.nextafter(1.0, 0.0)
    assert short._cdf[-1] == top
    assert short.inverse_cdf(np.array([top])).tolist() == [6]


def test_appliance_class_validation() -> None:
    with pytest.raises(ValueError):
        ApplianceClass(name="x", on_power=0.0, model=Bernoulli(p_on=0.5), count=1)
    with pytest.raises(ValueError):
        ApplianceClass(name="x", on_power=1.0, model=Bernoulli(p_on=0.5), count=-1)
    with pytest.raises(ValueError):
        ApplianceClass(name="x", on_power=1.0, model=None, count=1)


def test_trace_series_validation() -> None:
    with pytest.raises(ValueError):
        TraceSeries(watts=np.array([]), sample_period_s=1.0)
    with pytest.raises(ValueError):
        TraceSeries(watts=np.array([1.0, -2.0]), sample_period_s=1.0)
    with pytest.raises(ValueError):
        TraceSeries(watts=np.array([1.0]), sample_period_s=0.0)
    series = TraceSeries(watts=np.array([1.0, 2.0]), sample_period_s=60.0)
    with pytest.raises(ValueError):
        series.watts[0] = 9.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_series_support_and_extremes() -> None:
    cls = ApplianceClass(name="x", on_power=4.0, model=Bernoulli(p_on=0.3), count=1)
    series = sample_series(cls, slots=500, seed=9)
    assert set(np.unique(series)) <= {0.0, 4.0}

    always = ApplianceClass(name="a", on_power=4.0, model=Bernoulli(p_on=1.0), count=1)
    assert np.all(sample_series(always, slots=100, seed=9) == 4.0)
    never = ApplianceClass(name="n", on_power=4.0, model=Bernoulli(p_on=0.0), count=1)
    assert np.all(sample_series(never, slots=100, seed=9) == 0.0)


def test_sample_series_deterministic_class_is_constant() -> None:
    cls = ApplianceClass(name="base", on_power=2.5, model=Bernoulli(p_on=1.0), count=1)
    assert np.all(sample_series(cls, slots=64, seed=0) == 2.5)


def test_sample_series_is_reproducible() -> None:
    cls = ApplianceClass(
        name="x",
        on_power=1.0,
        model=TwoStateMarkov(p_off_to_on=0.2, p_on_to_off=0.4),
        count=1,
    )
    a = sample_series(cls, slots=2048, seed=123)
    b = sample_series(cls, slots=2048, seed=123)
    c = sample_series(cls, slots=2048, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_series_long_run_frequency_bernoulli() -> None:
    cls = ApplianceClass(name="x", on_power=1.0, model=Bernoulli(p_on=0.5), count=1)
    series = sample_series(cls, slots=100_000, seed=5)
    assert abs(float(np.mean(series > 0)) - 0.5) < 0.01


@pytest.mark.parametrize(
    "model",
    [
        TwoStateMarkov(p_off_to_on=0.05, p_on_to_off=0.15),
        AlternatingRenewal(
            on_durations=DurationPmf.from_mapping({2: 0.5, 5: 0.5}),
            off_durations=DurationPmf.from_mapping({4: 0.3, 8: 0.7}),
        ),
    ],
)
def test_sample_series_matches_stationary_occupancy(model) -> None:
    cls = ApplianceClass(name="x", on_power=1.0, model=model, count=1)
    series = sample_series(cls, slots=100_000, seed=11)
    expected = stationary_stats(model).p_on
    assert abs(float(np.mean(series > 0)) - expected) < 0.01


def test_sample_series_rejects_bad_slot_count() -> None:
    cls = ApplianceClass(name="x", on_power=1.0, model=Bernoulli(p_on=0.5), count=1)
    with pytest.raises(ValueError):
        sample_series(cls, slots=0, seed=0)



def _reference_series(appliance: ApplianceClass, slots: int, seed: int) -> np.ndarray:
    """Draw-per-run sampler: one scalar draw per ON or OFF run, in order.

    ``sample_series`` draws its runs in blocks; it must give these bytes.
    """
    model = appliance.model
    rng = np.random.default_rng(seed)
    on = bool(rng.random() < stationary_stats(model).p_on)
    states = np.empty(slots, dtype=bool)
    pos = 0
    while pos < slots:
        if isinstance(model, TwoStateMarkov):
            run = int(rng.geometric(model.p_on_to_off if on else model.p_off_to_on))
        else:
            entries = (model.on_durations if on else model.off_durations).entries
            cdf = np.cumsum([w for _, w in entries])
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
            run = entries[min(idx, len(entries) - 1)][0]
        end = min(pos + run, slots)
        states[pos:end] = on
        pos = end
        on = not on
    return states.astype(np.float64) * appliance.on_power


def _random_pmf(rng: np.random.Generator) -> DurationPmf:
    durations = rng.choice(np.arange(1, 60), size=int(rng.integers(1, 5)), replace=False)
    weights = rng.dirichlet(np.ones(durations.size))
    return DurationPmf(tuple(zip(durations.tolist(), weights.tolist())))


def _parity_models() -> list:
    rng = np.random.default_rng(20161018)
    rates = np.exp(rng.uniform(np.log(1e-3), np.log(0.95), size=(6, 2)))
    random_markov = [TwoStateMarkov(float(a), float(b)) for a, b in rates]
    random_renewal = [AlternatingRenewal(_random_pmf(rng), _random_pmf(rng)) for _ in range(6)]
    return random_markov + random_renewal + [
        # runs far longer than any horizon; 1e-300 draws runs of 2**63 - 1
        TwoStateMarkov(1e-300, 1e-300),
        TwoStateMarkov(1e-12, 0.5),
        AlternatingRenewal(
            on_durations=DurationPmf.from_mapping({50: 1.0}),
            off_durations=DurationPmf.from_mapping({1: 0.5, 30: 0.5}),
        ),
    ]


def test_block_sampling_equals_the_draw_per_run_reference() -> None:
    first_states = set()
    for n, model in enumerate(_parity_models()):
        cls = ApplianceClass(name="x", on_power=1.5, model=model, count=1)
        for slots, seeds in ((1, 12), (2, 12), (7, 12), (20_000, 2)):
            for seed in range(seeds):
                got = sample_series(cls, slots, derive_seed(seed, n))
                want = _reference_series(cls, slots, derive_seed(seed, n))
                assert got.tobytes() == want.tobytes(), (model, slots, seed)
                first_states.add(bool(got[0] > 0.0))
    assert first_states == {False, True}


@pytest.mark.parametrize(
    "long_off", [{1: 0.999, 100_000: 0.001}, {1: 0.9999, 1_000_000: 0.0001}]
)
def test_block_sampling_covers_a_horizon_over_many_blocks(long_off: dict) -> None:
    # the stationary cycle is ~101 slots, but almost every run is one slot
    # long, so a block sized from the mean covers a few hundred slots and
    # the horizon takes many blocks (up to 12 and 50 over these seeds)
    renewal = AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({1: 1.0}),
        off_durations=DurationPmf.from_mapping(long_off),
    )
    cls = ApplianceClass(name="x", on_power=1.0, model=renewal, count=1)
    for seed in range(8):
        got = sample_series(cls, 20_000, seed)
        assert got.tobytes() == _reference_series(cls, 20_000, seed).tobytes(), seed


@pytest.mark.parametrize(
    "model, on_power, seed, sha256",
    [
        (
            TwoStateMarkov(p_off_to_on=0.05, p_on_to_off=0.1),
            1.5,
            2024,
            "46fba59e8a321a23f1919d590bd0c9a45f077b3865776ffdf44a6a9d6b083342",
        ),
        (
            AlternatingRenewal(
                on_durations=DurationPmf.from_mapping({2: 0.5, 5: 0.3, 9: 0.2}),
                off_durations=DurationPmf.from_mapping({3: 0.25, 7: 0.75}),
            ),
            2.0,
            2025,
            "6a677c300be7dd0246d010f773f340d7ef69b2d6ec5ed0d440270e3ca39f3504",
        ),
    ],
    ids=["markov", "renewal"],
)
def test_sample_series_random_stream_is_pinned(
    model, on_power: float, seed: int, sha256: str
) -> None:
    # every seeded output depends on how runs are drawn; a change there
    # must be declared, so it fails here first
    cls = ApplianceClass(name="x", on_power=on_power, model=model, count=1)
    digest = hashlib.sha256(sample_series(cls, 5000, seed).tobytes()).hexdigest()
    assert digest == sha256


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_bernoulli_from_trace() -> None:
    fit = fit_model(FIT_TRACE, family="bernoulli", on_threshold=1.0)
    assert isinstance(fit.model, Bernoulli)
    assert fit.model.p_on == pytest.approx(4.0 / 6.0)
    assert fit.on_power == pytest.approx(5.0)


def test_fit_markov_uses_smoothed_transition_counts() -> None:
    fit = fit_model(FIT_TRACE, family="markov", on_threshold=1.0)
    model = fit.model
    assert isinstance(model, TwoStateMarkov)
    # transitions: OFF->ON twice out of two OFF departures, ON->OFF once out
    # of three ON departures; add-one smoothing keeps rates interior
    assert model.p_off_to_on == pytest.approx(3.0 / 4.0)
    assert model.p_on_to_off == pytest.approx(2.0 / 5.0)


def test_fit_renewal_keeps_interior_runs_only() -> None:
    fit = fit_model(FIT_TRACE, family="renewal", on_threshold=1.0)
    model = fit.model
    assert isinstance(model, AlternatingRenewal)
    assert model.on_durations.as_mapping() == {2: 1.0}
    assert model.off_durations.as_mapping() == {1: 1.0}


def test_fit_rejects_single_state_traces() -> None:
    all_on = TraceSeries(watts=np.array([5.0, 5.0, 5.0]), sample_period_s=1.0)
    all_off = TraceSeries(watts=np.array([0.0, 0.0, 0.0]), sample_period_s=1.0)
    for trace in (all_on, all_off):
        with pytest.raises(ValueError, match="degenerate trace"):
            fit_model(trace, family="bernoulli", on_threshold=1.0)


def test_fit_renewal_needs_interior_runs() -> None:
    trace = TraceSeries(watts=np.array([0.0, 5.0, 5.0]), sample_period_s=1.0)
    with pytest.raises(ValueError, match="degenerate trace"):
        fit_model(trace, family="renewal", on_threshold=1.0)


def test_fit_rejects_unknown_family() -> None:
    with pytest.raises(ValueError):
        fit_model(FIT_TRACE, family="weibull", on_threshold=1.0)


def test_fit_on_power_is_mean_of_on_samples() -> None:
    trace = TraceSeries(watts=np.array([0.0, 4.0, 6.0, 0.0, 5.0]), sample_period_s=1.0)
    fit = fit_model(trace, family="bernoulli", on_threshold=1.0)
    assert fit.on_power == pytest.approx(5.0)


def test_fit_round_trip_recovers_bernoulli_rate() -> None:
    cls = ApplianceClass(name="x", on_power=2.0, model=Bernoulli(p_on=0.35), count=1)
    series = sample_series(cls, slots=50_000, seed=21)
    trace = TraceSeries(watts=series, sample_period_s=1.0)
    fit = fit_model(trace, family="bernoulli", on_threshold=1.0)
    assert abs(fit.model.p_on - 0.35) < 0.35 * 0.02


def test_fit_round_trip_recovers_markov_rates() -> None:
    model = TwoStateMarkov(p_off_to_on=0.08, p_on_to_off=0.2)
    cls = ApplianceClass(name="x", on_power=2.0, model=model, count=1)
    series = sample_series(cls, slots=100_000, seed=22)
    fit = fit_model(TraceSeries(watts=series, sample_period_s=1.0), family="markov", on_threshold=1.0)
    assert abs(fit.model.p_off_to_on - 0.08) < 0.08 * 0.05
    assert abs(fit.model.p_on_to_off - 0.2) < 0.2 * 0.05


# ---------------------------------------------------------------------------
# seeds and pooling
# ---------------------------------------------------------------------------


def test_derive_seed_is_deterministic_and_path_sensitive() -> None:
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 1) != derive_seed(8, 1)
    assert 0 <= derive_seed(0) < 2**64


def test_stationary_p_on_times_power_is_mean_power() -> None:
    # the class's cached p_on and the aggregate moments both come from the
    # model's stationary distribution
    model = TwoStateMarkov(p_off_to_on=0.1, p_on_to_off=0.3)
    cls = ApplianceClass(name="x", on_power=8.0, model=model, count=1)
    assert cls.p_on == stationary_stats(model).p_on
    stats = _aggregate_stats(ClassComposition(entries=((cls, 1),)))
    assert stats.mean == pytest.approx(stationary_stats(model).p_on * 8.0)
    assert math.isclose(stats.variance, 64.0 * 0.25 * 0.75)
