"""File formats: traces, model JSON, result artifacts, experiment files."""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from loadcap.fileio import (
    parse_experiment,
    read_model,
    read_trace,
    result_document,
    write_model,
    write_outcomes,
    write_pmf,
    write_region,
    write_result,
    write_series,
    write_sweep,
    write_sweep_result,
)
from loadcap.models import (
    AlternatingRenewal,
    Bernoulli,
    DurationPmf,
    TraceSeries,
    TwoStateMarkov,
)
from loadcap.scheduling import SchedulingStrategy
from loadcap.simulation import SimMode, run
from loadcap.tailprob import EstimationMethod, PowerPmf

from conftest import write_trace


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_round_trip(tmp_path) -> None:
    trace = TraceSeries(watts=np.array([0.0, 5.5, 3.25]), sample_period_s=30.0)
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace)
    loaded = read_trace(str(path))
    assert loaded.sample_period_s == 30.0
    assert np.array_equal(loaded.watts, trace.watts)


def test_trace_header_is_pinned(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("time,watts\n0,1\n")
    with pytest.raises(ValueError, match="timestamp_s,power_w"):
        read_trace(str(path))


def test_trace_malformed_row_reports_its_number(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("timestamp_s,power_w\n0,1.5\nnot-a-number,2\n")
    with pytest.raises(ValueError, match="malformed trace row 3"):
        read_trace(str(path))
    path.write_text("timestamp_s,power_w\n0,1.5,extra\n")
    with pytest.raises(ValueError, match="malformed trace row 2"):
        read_trace(str(path))


@pytest.mark.parametrize(
    "last",
    ['3,"5\n', '3,"5', '"3,5\n', '3,"5\n\n'],
    ids=["line-ending", "no-line-ending", "first-field", "blank-line-after"],
)
def test_trace_refuses_a_quote_left_open_at_the_end(tmp_path, last) -> None:
    # the csv module would close the quote at the end of the file
    path = tmp_path / "trace.csv"
    path.write_bytes(("timestamp_s,power_w\n0,0\n1,5\n2,0\n" + last).encode())
    with pytest.raises(ValueError, match="malformed trace row 5"):
        read_trace(str(path))


@pytest.mark.parametrize(
    "last",
    ['3,"5\n"', '3,"5"', '3,"5" \n', '3,"5\n"\n'],
    ids=["newline-inside", "no-line-ending", "space-after", "newline-inside-and-after"],
)
def test_trace_reads_a_quote_closed_in_the_last_row(tmp_path, last) -> None:
    path = tmp_path / "trace.csv"
    path.write_bytes(("timestamp_s,power_w\n0,0\n1,5\n2,0\n" + last).encode())
    assert read_trace(str(path)).watts.tolist() == [0.0, 5.0, 0.0, 5.0]


def test_trace_empty_and_headerless_files(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty trace file"):
        read_trace(str(path))
    path.write_text("timestamp_s,power_w\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_trace(str(path))


def test_trace_missing_file_is_oserror(tmp_path) -> None:
    with pytest.raises(OSError):
        read_trace(str(tmp_path / "nope.csv"))


def test_trace_period_from_first_gap(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("timestamp_s,power_w\n0,1\n15,2\n30,3\n")
    assert read_trace(str(path)).sample_period_s == 15.0
    path.write_text("timestamp_s,power_w\n10,9\n")
    assert read_trace(str(path)).sample_period_s == 1.0
    path.write_text("timestamp_s,power_w\n10,1\n10,2\n")
    with pytest.raises(ValueError, match="non-increasing"):
        read_trace(str(path))


def test_trace_checks_every_gap(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("timestamp_s,power_w\n0,1\n1,2\n0.5,3\n7,4\n")
    with pytest.raises(ValueError, match="trace row 4"):
        read_trace(str(path))
    path.write_text("timestamp_s,power_w\n0,1\n\n1,2\n2,3\n7,4\n")
    with pytest.raises(ValueError, match="trace row 6.*uneven"):
        read_trace(str(path))
    # float-spaced stamps whose gaps differ only by rounding are even
    path.write_text("timestamp_s,power_w\n0,1\n0.1,2\n0.2,3\n0.3,4\n")
    assert read_trace(str(path)).sample_period_s == 0.1


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


# the bytes write_model writes for each model below, at on_power 1500
WRITTEN_MODELS = {
    "bernoulli": '{\n  "family": "bernoulli",\n  "on_power": 1500.0,\n  "p_on": 0.42\n}\n',
    "markov": (
        '{\n  "family": "markov",\n  "on_power": 1500.0,\n  "p_off_to_on": 0.1,\n'
        '  "p_on_to_off": 0.25\n}\n'
    ),
    "renewal": (
        '{\n  "family": "renewal",\n  "off_durations": {\n    "3": 1.0\n  },\n'
        '  "on_durations": {\n    "2": 0.5,\n    "7": 0.5\n  },\n  "on_power": 1500.0\n}\n'
    ),
}


@pytest.mark.parametrize(
    "model",
    [
        Bernoulli(p_on=0.42),
        TwoStateMarkov(p_off_to_on=0.1, p_on_to_off=0.25),
        AlternatingRenewal(
            on_durations=DurationPmf.from_mapping({2: 0.5, 7: 0.5}),
            off_durations=DurationPmf.from_mapping({3: 1.0}),
        ),
    ],
)
def test_model_json_round_trip(tmp_path, model) -> None:
    path = tmp_path / "model.json"
    write_model(str(path), model, on_power=1500.0)
    assert path.read_bytes() == WRITTEN_MODELS[model.family].encode()
    loaded, on_power = read_model(str(path))
    assert loaded == model
    assert on_power == 1500.0


def test_model_json_rejects_unknown_family_and_keys(tmp_path) -> None:
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"family": "weibull", "on_power": 10.0}))
    with pytest.raises(
        ValueError,
        match="'family' in model file .* must be one of 'bernoulli', 'markov', 'renewal', "
        "got 'weibull'",
    ):
        read_model(str(path))
    path.write_text(
        json.dumps({"family": "bernoulli", "on_power": 10.0, "p_on": 0.5, "typo": 1})
    )
    with pytest.raises(ValueError, match="unknown keys"):
        read_model(str(path))
    path.write_text(json.dumps({"family": "bernoulli", "p_on": 0.5}))
    with pytest.raises(ValueError, match="missing 'on_power' in model file"):
        read_model(str(path))


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------


def test_write_pmf_layout(tmp_path) -> None:
    pmf = PowerPmf(quantum=2.0, offset=1, probabilities=np.array([0.25, 0.75]))
    path = tmp_path / "pmf.csv"
    write_pmf(str(path), pmf)
    assert path.read_text() == "watts,probability\n2.0,0.25\n4.0,0.75\n"


def test_write_region_layout(tmp_path) -> None:
    region = np.array([[True, False], [False, False]])
    path = tmp_path / "region.csv"
    write_region(str(path), region)
    assert path.read_text() == (
        "n1,n2,accept\n0,0,true\n0,1,false\n1,0,false\n1,1,false\n"
    )


def test_write_outcomes_layout(tmp_path) -> None:
    outcomes = np.array(
        [(1.0, 2, 1), (0.5, 0, 0)],
        dtype=[("dropped_w", "f8"), ("backlog_depth", "i8"), ("disabled_count", "i8")],
    )
    result = dataclasses.replace(
        make_result(slots=2), series_managed=np.array([3.0, 0.1]), outcomes=outcomes
    )
    path = tmp_path / "outcomes.csv"
    write_outcomes(str(path), result)
    assert path.read_text() == (
        "slot,dropped_w,backlog_depth,disabled_count\n"
        "0,1.0,2,1\n1,0.5,0,0\n"
    )


def sweep_cells(*rows):
    """Sweep results, one per (p, method, enabled, p_hat, k, stderr, low_confidence) row."""
    base = make_result()
    return [
        dataclasses.replace(
            base,
            config=dataclasses.replace(
                base.config, policy=dataclasses.replace(base.config.policy, p=p), method=method
            ),
            enabled_counts=(enabled,),
            p_hat=p_hat,
            k=k,
            stderr=stderr,
            low_confidence=low_confidence,
        )
        for p, method, enabled, p_hat, k, stderr, low_confidence in rows
    ]


def test_write_sweep_layout(tmp_path) -> None:
    cells = sweep_cells((0.01, EstimationMethod.EXACT, 7, 0.008, 0.8, 0.1, False))
    path = tmp_path / "sweep.csv"
    write_sweep(str(path), cells)
    assert path.read_text() == (
        "p,method,enabled,p_hat,k,stderr\n0.01,exact,7,0.008,0.8,0.1\n"
    )


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------


def make_result(slots: int = 25):
    from loadcap.admission import QosPolicy
    from loadcap.models import ApplianceClass
    from loadcap.simulation import SimConfig

    cls = ApplianceClass(name="c0", on_power=1.0, model=Bernoulli(p_on=0.5), count=4)
    return run(
        SimConfig(
            classes=(cls,),
            policy=QosPolicy(c_max=3.0, p=0.2),
            method=EstimationMethod.EXACT,
            slots=slots,
            seed=1,
        )
    )


def test_result_json_is_deterministic(tmp_path) -> None:
    result = make_result()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_result(str(a), "demo", result)
    write_result(str(b), "demo", result)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["name"] == "demo"
    assert doc["slots"] == 25
    # the per-slot series live in NAME.series.csv only
    assert "series_baseline" not in doc and "series_managed" not in doc
    assert "energy_steps" not in doc  # composition runs carry no ledger
    assert a.read_text().endswith("\n")


def test_result_json_nan_becomes_null() -> None:
    result = make_result()
    doc = result_document("demo", result)
    doc["lf_managed"] = math.nan
    from loadcap.fileio import _sanitize

    assert _sanitize(doc)["lf_managed"] is None


def test_write_sweep_result_round_trip(tmp_path) -> None:
    cells = sweep_cells((0.05, EstimationMethod.MARKOV, 3, 0.0, 0.0, 0.0, True))
    path = tmp_path / "sweep.json"
    write_sweep_result(str(path), "grid", cells)
    doc = json.loads(path.read_text())
    assert doc["name"] == "grid"
    assert doc["cells"] == [
        {
            "p": 0.05,
            "method": "markov",
            "enabled": 3,
            "p_hat": 0.0,
            "k": 0.0,
            "stderr": 0.0,
            "low_confidence": True,
        }
    ]


def test_csv_writers_write_what_the_csv_module_wrote(tmp_path) -> None:
    # the line writers join fields without quoting; csv.writer would quote
    # none of these either: ints, float reprs and fixed words
    def csv_module(path, header, rows) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    odd = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e-05, 0.1, float("nan"), float("inf")]
    short = odd + [-math.inf, 123456789.125]
    # then long runs in which signed zeros, NaN and ordinary values each
    # recur many times, interleaved: the series writers format each distinct
    # value once, and 0.0 and -0.0 compare equal yet print apart
    recurring = np.repeat([0.0, -0.0, float("nan"), 2.5, 0.1, 7.25], 80)
    watts = np.concatenate([short, np.random.default_rng(5).permutation(recurring)])
    result = dataclasses.replace(
        make_result(slots=len(watts)),
        series_baseline=watts,
        series_managed=watts[::-1].copy(),
        outcomes=np.array(
            [(w, i, 2 * i) for i, w in enumerate(watts)],
            dtype=[("dropped_w", "f8"), ("backlog_depth", "i8"), ("disabled_count", "i8")],
        ),
    )
    cells = sweep_cells(
        *(
            (p, method, 3, p_hat, p_hat / p, math.nan, True)
            for p, p_hat in ((1e-3, 0.0), (0.5, 1.0))
            for method in EstimationMethod
        )
    )
    pmf = PowerPmf(quantum=0.1, offset=3, probabilities=np.array([0.25, 0.5, 0.25]))
    region = np.array([[True, True, False], [True, False, False]])
    written = {
        "series": lambda path: write_series(path, result),
        "outcomes": lambda path: write_outcomes(path, result),
        "sweep": lambda path: write_sweep(path, cells),
        "pmf": lambda path: write_pmf(path, pmf),
        "region": lambda path: write_region(path, region),
    }
    series = zip(result.series_baseline.tolist(), result.series_managed.tolist())
    expected = {
        "series": (("slot", "baseline_w", "managed_w"),
                   ((t, repr(b), repr(m)) for t, (b, m) in enumerate(series))),
        "outcomes": (("slot", "dropped_w", "backlog_depth", "disabled_count"),
                     ((t, repr(d), n, k) for t, (d, n, k) in enumerate(result.outcomes.tolist()))),
        "sweep": (("p", "method", "enabled", "p_hat", "k", "stderr"),
                  ((repr(c.config.policy.p), c.config.method.value, sum(c.enabled_counts),
                    repr(c.p_hat), repr(c.k), repr(c.stderr)) for c in cells)),
        "pmf": (("watts", "probability"),
                ((repr(w), repr(p)) for w, p in zip(pmf.support_watts.tolist(),
                                                    pmf.probabilities.tolist()))),
        "region": (("n1", "n2", "accept"),
                   ((n1, n2, "true" if ok else "false")
                    for (n1, n2), ok in np.ndenumerate(region))),
    }  # fmt: skip
    for name, write in written.items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.want.csv"
        write(str(got))
        csv_module(str(want), *expected[name])
        assert got.read_bytes() == want.read_bytes(), name


def test_write_series_layout(tmp_path) -> None:
    result = make_result()
    path = tmp_path / "series.csv"
    write_series(str(path), result)
    lines = path.read_text().splitlines()
    assert lines[0] == "slot,baseline_w,managed_w"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == result.series_baseline[0]


# ---------------------------------------------------------------------------
# experiment files
# ---------------------------------------------------------------------------


# a single run becomes a sweep: 'methods' replaces 'method'
SWEEP = {"method": None, "methods": ["exact"], "p_values": [0.001, 0.01]}


def experiment_doc(**overrides):
    """A composition run; overrides set top-level keys, and None leaves a key out."""
    doc = {
        "name": "demo",
        "classes": [
            {
                "name": "c0",
                "on_power": 1.0,
                "count": 5,
                "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.5},
            }
        ],
        "policy": {"c_max": 3.0, "p": 0.1},
        "method": "exact",
        "slots": 10,
        "seed": 2,
    }
    doc.update(overrides)
    return {k: v for k, v in doc.items() if v is not None}


def write_experiment(tmp_path, doc) -> str:
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_experiment_happy_path(tmp_path) -> None:
    spec = parse_experiment(write_experiment(tmp_path, experiment_doc()))
    assert spec.name == "demo"
    assert not spec.is_sweep
    assert spec.config.slots == 10
    assert spec.config.seed == 2
    assert spec.config.method is EstimationMethod.EXACT
    assert spec.config.strategy is None  # a slot-dynamic run reads it as drop
    assert spec.config.mode is SimMode.COMPOSITION
    assert spec.config.classes[0].name == "c0"
    assert spec.config.classes[0].model == Bernoulli(p_on=0.5)
    assert spec.outputs == {}


def test_parse_experiment_sweep_axes(tmp_path) -> None:
    doc = experiment_doc(**SWEEP)
    doc["methods"] = ["markov", "exact"]
    spec = parse_experiment(write_experiment(tmp_path, doc))
    assert spec.is_sweep
    assert spec.p_values == (0.001, 0.01)
    assert spec.methods == (EstimationMethod.MARKOV, EstimationMethod.EXACT)
    assert spec.output_files == {"result_json": "demo.json", "sweep_csv": "demo.sweep.csv"}


def test_parse_experiment_sweep_rejects_slot_dynamic_mode(tmp_path) -> None:
    doc = experiment_doc(**SWEEP, mode="slot_dynamic")
    with pytest.raises(ValueError, match="p_values.*mode 'slot_dynamic'"):
        parse_experiment(write_experiment(tmp_path, doc))
    doc["mode"] = "composition"
    assert parse_experiment(write_experiment(tmp_path, doc)).is_sweep


@pytest.mark.parametrize(
    "overrides",
    [{}, {"mode": "composition"}, SWEEP],
    ids=["default-mode", "composition", "sweep"],
)
def test_parse_experiment_strategy_is_slot_dynamic_only(tmp_path, overrides) -> None:
    doc = experiment_doc(strategy="one_step_shift", **overrides)
    with pytest.raises(ValueError, match="'strategy'.*slot_dynamic"):
        parse_experiment(write_experiment(tmp_path, doc))
    doc = experiment_doc(strategy="one_step_shift", mode="slot_dynamic")
    spec = parse_experiment(write_experiment(tmp_path, doc))
    assert spec.config.strategy is SchedulingStrategy.ONE_STEP_SHIFT


def test_parse_experiment_rejects_unknown_keys(tmp_path) -> None:
    with pytest.raises(ValueError, match="unknown keys"):
        parse_experiment(write_experiment(tmp_path, experiment_doc(banana=1)))
    doc = experiment_doc()
    doc["policy"]["limit"] = 4.0
    with pytest.raises(ValueError, match="unknown keys"):
        parse_experiment(write_experiment(tmp_path, doc))
    doc = experiment_doc()
    doc["classes"][0]["power"] = 2.0
    with pytest.raises(ValueError, match="unknown keys"):
        parse_experiment(write_experiment(tmp_path, doc))
    doc = experiment_doc(outputs={"mystery_csv": "x.csv"})  # no run writes it
    with pytest.raises(ValueError, match="outputs names mystery_csv"):
        parse_experiment(write_experiment(tmp_path, doc))


def test_parse_experiment_class_needs_exactly_one_source(tmp_path) -> None:
    doc = experiment_doc()
    doc["classes"][0]["deterministic"] = True
    with pytest.raises(ValueError, match="exactly one"):
        parse_experiment(write_experiment(tmp_path, doc))
    doc = experiment_doc()
    del doc["classes"][0]["model"]
    with pytest.raises(ValueError, match="exactly one"):
        parse_experiment(write_experiment(tmp_path, doc))


def test_parse_experiment_deterministic_class(tmp_path) -> None:
    doc = experiment_doc()
    doc["classes"][0] = {
        "name": "base",
        "on_power": 2.0,
        "count": 3,
        "deterministic": True,
        "shiftable": False,
    }
    doc["mode"] = "slot_dynamic"  # the one mode that reads 'shiftable'
    spec = parse_experiment(write_experiment(tmp_path, doc))
    cls = spec.config.classes[0]
    assert cls.model == Bernoulli(p_on=1.0)
    assert cls.p_on == 1.0
    assert not cls.shiftable


@pytest.mark.parametrize(
    "where,key,value",
    [
        ("class", "count", 2.7),
        ("class", "count", 5.0),
        ("class", "count", True),
        ("class", "count", "5"),
        ("top", "slots", 10.9),
        ("top", "slots", True),
        ("top", "seed", 3.5),
        ("top", "seed", None),
        ("class", "shiftable", "false"),
        ("class", "shiftable", 0),
        ("always-on class", "deterministic", "no"),
        ("always-on class", "deterministic", 1),
    ],
)
def test_parse_experiment_rejects_values_it_would_coerce(tmp_path, where, key, value) -> None:
    doc = experiment_doc()
    if where == "always-on class":
        del doc["classes"][0]["model"]  # the flag is the class's only source
    (doc if where == "top" else doc["classes"][0])[key] = value
    with pytest.raises(ValueError, match=repr(key)):
        parse_experiment(write_experiment(tmp_path, doc))


def test_parse_experiment_model_file_reference(tmp_path) -> None:
    model_path = tmp_path / "fridge.json"
    write_model(str(model_path), Bernoulli(p_on=0.3), on_power=120.0)
    doc = experiment_doc()
    doc["classes"][0] = {"name": "fridge", "count": 4, "model_file": "fridge.json"}
    spec = parse_experiment(write_experiment(tmp_path, doc))
    cls = spec.config.classes[0]
    assert cls.model == Bernoulli(p_on=0.3)
    assert cls.on_power == 120.0  # falls back to the file's wattage


def test_parse_experiment_trace_reference_fits_at_parse_time(tmp_path) -> None:
    trace_path = tmp_path / "meter.csv"
    write_trace(
        str(trace_path),
        TraceSeries(watts=np.array([0.0, 50.0, 50.0, 0.0, 50.0, 50.0]), sample_period_s=1.0),
    )
    doc = experiment_doc()
    doc["classes"][0] = {
        "name": "pump",
        "count": 2,
        "trace": "meter.csv",
        "family": "bernoulli",
        "on_threshold": 1.0,
    }
    spec = parse_experiment(write_experiment(tmp_path, doc))
    cls = spec.config.classes[0]
    assert cls.model == Bernoulli(p_on=4.0 / 6.0)
    assert cls.on_power == 50.0


def test_parse_experiment_missing_referenced_file_is_oserror(tmp_path) -> None:
    doc = experiment_doc()
    doc["classes"][0] = {"name": "x", "count": 1, "model_file": "missing.json"}
    with pytest.raises(OSError):
        parse_experiment(write_experiment(tmp_path, doc))
    doc["classes"][0] = {"name": "x", "count": 1, "trace": "missing.csv", "family": "bernoulli"}
    with pytest.raises(OSError):
        parse_experiment(write_experiment(tmp_path, doc))


def test_parse_experiment_requires_method_or_methods(tmp_path) -> None:
    # 'method' for a single run, 'methods' for a sweep, and never the other
    with pytest.raises(ValueError, match="missing 'method'"):
        parse_experiment(write_experiment(tmp_path, experiment_doc(method=None)))
    doc = experiment_doc(**SWEEP)
    del doc["methods"]
    with pytest.raises(ValueError, match="missing 'methods' in experiment"):
        parse_experiment(write_experiment(tmp_path, doc))


def test_parse_experiment_full_policy(tmp_path) -> None:
    doc = experiment_doc(policy={"c_max": 3.0, "p": 0.1, "c_sys": 10.0})
    policy = parse_experiment(write_experiment(tmp_path, doc)).config.policy
    assert (policy.c_max, policy.p, policy.c_sys) == (3.0, 0.1, 10.0)
    # the underconsumption settings are library-only: no run reads them
    for key, value in (("c_min", 0.5), ("r", 0.2)):
        doc["policy"] = {"c_max": 3.0, "p": 0.1, key: value}
        with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
            parse_experiment(write_experiment(tmp_path, doc))
