"""Command-line interface: subcommands, exit codes, artifact files."""

from __future__ import annotations

import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import loadcap
from loadcap.cli import main
from loadcap.models import ApplianceClass, Bernoulli, TraceSeries, sample_series
from loadcap.fileio import _CLASS_KEYS, _POLICY_KEYS, _TOP_KEYS, write_model, write_trace


def bounds_table(capsys) -> dict[str, float]:
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,estimate"
    return {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_reports_every_method(capsys) -> None:
    assert main(["bounds", "100x1@0.5", "--c-max", "60"]) == 0
    table = bounds_table(capsys)
    assert table["exact"] == pytest.approx(0.028444, abs=1e-4)
    assert table["markov"] == pytest.approx(0.8333333, abs=1e-5)
    assert table["chebyshev"] == 0.25
    assert table["hoeffding"] == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert table["bennett"] == pytest.approx(0.1692, abs=1e-3)
    assert table["chernoff"] == pytest.approx(0.1336, abs=1e-3)
    assert table["clt"] == pytest.approx(0.0227501, abs=1e-6)


def test_bounds_method_subset_keeps_order(capsys) -> None:
    assert main(["bounds", "10x2@0.3", "--c-max", "9", "--methods", "clt,exact"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["clt", "exact"]


@pytest.mark.parametrize(
    ("raw", "name"),
    [("fastest", "fastest"), ("exact,", ""), ("", "")],
    ids=["unknown", "trailing-comma", "empty"],
)
def test_bounds_refuses_a_method_name_outside_its_choices(raw, name, capsys) -> None:
    assert main(["bounds", "2x1@0.5", "--c-max", "1", "--methods", raw]) == 2
    captured = capsys.readouterr()
    assert (
        f"--methods takes 'all' or a comma-separated list of 'exact', 'markov', "
        f"'chebyshev', 'hoeffding', 'bennett', 'chernoff', 'clt'; got {name!r} in {raw!r}"
    ) in captured.err
    assert captured.out == ""  # refused before any estimate


def test_bounds_constant_base_load_shifts_threshold(capsys) -> None:
    assert main(["bounds", "100x1@0.5", "--c-max", "72.5", "--det", "12.5"]) == 0
    shifted = bounds_table(capsys)
    assert main(["bounds", "100x1@0.5", "--c-max", "60"]) == 0
    plain = bounds_table(capsys)
    assert shifted == plain


def test_bounds_dump_pmf(tmp_path, capsys) -> None:
    code = main(
        [
            "bounds",
            "2x1@0.5",
            "--c-max",
            "2",
            "--dump-pmf",
            "pmf.csv",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    content = (tmp_path / "pmf.csv").read_text()
    assert content == "watts,probability\n0.0,0.25\n1.0,0.5\n2.0,0.25\n"


def test_bounds_require_gate(capsys) -> None:
    assert main(["bounds", "100x1@0.5", "--c-max", "60", "--require", "0.05"]) == 0
    capsys.readouterr()
    assert main(["bounds", "100x1@0.5", "--c-max", "60", "--require", "1e-9"]) == 4
    err = capsys.readouterr().err
    assert "no method certifies" in err


def test_bounds_quantization_mismatch_exits_2(capsys) -> None:
    assert main(["bounds", "4x1.5@0.5", "--c-max", "3"]) == 2
    assert "quantization mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("composition", "message"),
    [
        (["100@0.5"], "COUNTxWATTS@P_ON"),
        (["100x1@0.5", "--det", "-5"], "deterministic_load=-5.0"),
        (["100x1@0.5", "--det", "nan"], "deterministic_load=nan"),
        (["100x1@0.5", "--det", "inf"], "deterministic_load=inf"),
    ],
    ids=["spec", "det-negative", "det-nan", "det-inf"],
)
def test_bounds_bad_composition_spec_exits_2(composition, message, capsys) -> None:
    assert main(["bounds", *composition, "--c-max", "60"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--c-max", "nan"], "--c-max must be a finite number, got nan"),
        (["--c-max", "inf"], "--c-max must be a finite number, got inf"),
        (["--c-max=-inf"], "--c-max must be a finite number, got -inf"),
        (["--c-max", "60", "--require", "nan"], "--require must be a finite number, got nan"),
        (["--c-max", "60", "--require", "inf"], "--require must be a finite number, got inf"),
        (["--c-max", "60", "--require=-inf"], "--require must be a finite number, got -inf"),
    ],
    ids=["c-max-nan", "c-max-inf", "c-max-minus-inf", "require-nan", "require-inf",
         "require-minus-inf"],
)  # fmt: skip
def test_bounds_refuses_a_non_finite_limit(flags, message, capsys) -> None:
    # no estimate is <= NaN, and a NaN or infinite ceiling has no meaning
    assert main(["bounds", "100x1@0.5", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""  # refused before any estimate


def test_bounds_off_grid_power_with_matching_quantum(capsys) -> None:
    assert main(["bounds", "4x1.5@0.5", "--c-max", "3", "--quantum-w", "0.5"]) == 0
    table = bounds_table(capsys)
    assert 0.0 <= table["exact"] <= 1.0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


# a single run becomes a sweep: 'methods' replaces 'method'
SWEEP = {"method": None, "methods": ["exact"], "p_values": [0.01, 0.1]}


def experiment_file(tmp_path, **overrides) -> str:
    """A composition run; overrides set top-level keys, and None leaves a key out."""
    doc = {
        "name": "demo",
        "classes": [
            {
                "name": "c0",
                "on_power": 1.0,
                "count": 10,
                "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.4},
            }
        ],
        "policy": {"c_max": 5.0, "p": 0.1},
        "method": "exact",
        "slots": 200,
        "seed": 9,
    }
    doc.update(overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    return str(path)


def managed_w(series_csv) -> list[float]:
    """The managed_w column of a NAME.series.csv file."""
    return [float(row.split(",")[2]) for row in series_csv.read_text().splitlines()[1:]]


def test_simulate_writes_result_and_series(tmp_path, capsys) -> None:
    path = experiment_file(tmp_path)
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "p_hat=" in out and "lf_baseline=" in out and "enabled=" in out
    doc = json.loads((tmp_path / "demo.json").read_text())
    assert doc["name"] == "demo"
    assert doc["slots"] == 200
    series = (tmp_path / "demo.series.csv").read_text().splitlines()
    assert series[0] == "slot,baseline_w,managed_w"
    assert len(series) == 201


def test_simulate_rerun_is_byte_identical(tmp_path, capsys) -> None:
    path = experiment_file(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", path, "--out-dir", str(out_a)]) == 0
    assert main(["simulate", path, "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "demo.json").read_bytes() == (out_b / "demo.json").read_bytes()
    assert (out_a / "demo.series.csv").read_bytes() == (out_b / "demo.series.csv").read_bytes()


def test_simulate_seed_override_changes_series(tmp_path, capsys) -> None:
    path = experiment_file(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", path, "--out-dir", str(out_a)]) == 0
    assert main(["simulate", path, "--seed", "10", "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    assert managed_w(out_a / "demo.series.csv") != managed_w(out_b / "demo.series.csv")


def test_simulate_slot_dynamic_writes_outcomes(tmp_path, capsys) -> None:
    path = experiment_file(
        tmp_path, mode="slot_dynamic", strategy="one_step_shift", slots=100
    )
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    outcomes = (tmp_path / "demo.outcomes.csv").read_text().splitlines()
    assert outcomes[0] == "slot,served_w,dropped_w,backlog_depth,disabled_count"
    assert len(outcomes) == 101
    doc = json.loads((tmp_path / "demo.json").read_text())
    steps = doc["energy_steps"]
    assert steps["served"] + steps["dropped"] + steps["backlog"] == steps["demanded"]


def test_simulate_sweep_outputs(tmp_path, capsys) -> None:
    path = experiment_file(
        tmp_path,
        **{**SWEEP, "methods": ["exact", "markov"]},
        slots=100,
        outputs={"sweep_csv": "grid.csv", "result_json": "grid.json"},
    )
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p,method,enabled,p_hat,k,stderr")
    grid = (tmp_path / "grid.csv").read_text()
    assert len(grid.splitlines()) == 5  # header + 2 p-values x 2 methods
    assert out == grid
    doc = json.loads((tmp_path / "grid.json").read_text())
    assert len(doc["cells"]) == 4


def test_simulate_low_confidence_warning(tmp_path, capsys) -> None:
    path = experiment_file(tmp_path, policy={"c_max": 5.0, "p": 1e-5})
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
    assert "low-confidence" in capsys.readouterr().err


def test_simulate_missing_experiment_exits_3(tmp_path, capsys) -> None:
    assert main(["simulate", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_simulate_invalid_experiment_exits_2(tmp_path, capsys) -> None:
    for overrides, message in (
        ({"banana": 1}, "unknown keys"),
        ({"outputs": {"region_csv": "x"}}, "outputs names region_csv, which this run does not"),
    ):
        path = experiment_file(tmp_path, **overrides)
        assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


def test_simulate_non_integer_slots_exits_2(tmp_path, capsys) -> None:
    path = experiment_file(tmp_path, slots=10.9)
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 2
    assert "'slots'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"name": "experiment"},
        {"outputs": {"series_csv": "experiment.json"}},
        {"mode": "slot_dynamic", "outputs": {"outcomes_csv": "experiment.json"}},
        {**SWEEP, "outputs": {"sweep_csv": "experiment.json"}},
    ],
    ids=["result-json", "series-csv", "outcomes-csv", "sweep-csv"],
)
def test_simulate_never_overwrites_its_experiment_file(
    overrides, tmp_path, monkeypatch, capsys
) -> None:
    path = Path(experiment_file(tmp_path, **overrides))
    before = path.read_bytes()
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "experiment.json"]) == 2
    assert "experiment.json would overwrite the experiment file" in capsys.readouterr().err
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["experiment.json"]  # refused before sampling


@pytest.mark.parametrize(
    "overrides, kept, refused",
    [
        ({"outputs": {"series_csv": "demo.json"}}, "result_json", "series_csv"),
        (
            {"mode": "slot_dynamic", "outputs": {"outcomes_csv": "demo.series.csv"}},
            "series_csv",
            "outcomes_csv",
        ),
        (
            {**SWEEP, "outputs": {"result_json": "demo.sweep.csv"}},
            "result_json",
            "sweep_csv",
        ),
    ],
    ids=["series-on-result", "outcomes-on-series", "sweep-on-result"],
)
def test_simulate_refuses_two_outputs_on_one_file(
    overrides, kept, refused, tmp_path, capsys
) -> None:
    out = tmp_path / "out"
    path = experiment_file(tmp_path, **overrides)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"output {refused} " in err and f"would overwrite output {kept};" in err
    assert not out.exists()  # refused before sampling


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"outputs": {"outcomes_csv": "o.csv"}}, "outputs names outcomes_csv"),
        ({"outputs": {"sweep_csv": "s.csv"}}, "outputs names sweep_csv"),
        ({**SWEEP, "outputs": {"series_csv": "s.csv"}}, "outputs names series_csv"),
        ({**SWEEP, "outputs": {"outcomes_csv": "o.csv"}}, "outputs names outcomes_csv"),
        ({"mode": "slot_dynamic", "outputs": {"sweep_csv": "s.csv"}}, "outputs names sweep_csv"),
        # settings no run would read
        ({"methods": ["exact", "markov"]}, "'methods' applies only to sweeps"),
        ({**SWEEP, "method": "markov"}, "'method' applies only to single runs"),
        ({"policy": {"c_max": 5.0, "p": 0.1, "c_min": 1.0}}, "unknown keys ['c_min']"),
        ({"policy": {"c_max": 5.0, "p": 0.1, "r": 0.2}}, "unknown keys ['r']"),
        (
            {"classes": [{"name": "c0", "count": 2, "on_power": 1.0, "deterministic": True,
                          "shiftable": False}]},
            "non-shiftable classes ['c0']",
        ),
        # sweep axes
        ({**SWEEP, "p_values": [0.1, 0.01]}, "sorted ascending"),
        ({**SWEEP, "p_values": [0.0, 0.1]}, "strictly inside (0, 1)"),
        ({**SWEEP, "p_values": [0.1, 1.0]}, "strictly inside (0, 1)"),
        ({**SWEEP, "p_values": []}, "p_values must be non-empty"),
        ({**SWEEP, "methods": []}, "methods must be non-empty"),
    ],
    ids=["outcomes-composition", "sweep-composition", "series-sweep", "outcomes-sweep",
         "sweep-slot-dynamic", "methods-single-run", "method-sweep", "c-min", "r",
         "fixed-composition", "p-values-unsorted", "p-value-zero", "p-value-one",
         "p-values-empty", "methods-empty"],
)
def test_simulate_refuses_outputs_the_run_does_not_write(
    overrides, message, tmp_path, capsys
) -> None:
    # and every other setting the parser refuses: nothing is created first
    out = tmp_path / "out"
    path = experiment_file(tmp_path, **overrides)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # refused before sampling


def _bernoulli_class(**model) -> list[dict]:
    return [{"name": "c0", "count": 10,
             "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.4, **model}}]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"policy": {"c_max": None, "p": 0.1}}, "'c_max' in policy must be a JSON number, got None"),
        ({"policy": {"c_max": 5.0, "p": "0.1"}}, "'p' in policy must be a JSON number, got '0.1'"),
        ({"policy": {"c_max": 5.0, "p": 0.1, "c_sys": [9]}}, "'c_sys' in policy must be"),
        ({"policy": {"c_max": 10**400, "p": 0.1}}, "'c_max' in policy is too large for a float"),
        ({"quantum": "0.5"}, "'quantum' in experiment must be a JSON number, got '0.5'"),
        ({"deterministic_load": True}, "'deterministic_load' in experiment must be"),
        ({**SWEEP, "p_values": [None]}, "'p_values[0]' in experiment must be a JSON number"),
        ({"classes": _bernoulli_class(p_on=None)}, "'p_on' in classes[0].model must be"),
        ({"classes": _bernoulli_class(on_power=None)}, "'on_power' in classes[0].model must"),
        (
            {"classes": [{"name": "c0", "count": 2, "model": {
                "family": "renewal", "on_power": 1.0,
                "on_durations": {"2": None}, "off_durations": {"3": 1.0}}}]},
            "'2' in classes[0].model.on_durations must be a JSON number",
        ),
        (
            {"classes": [{"name": "c0", "count": 2, "model": {
                "family": "markov", "on_power": 1.0, "p_off_to_on": 0.2}}]},
            "missing 'p_on_to_off' in classes[0].model",
        ),
    ],
    ids=["c-max-null", "p-string", "c-sys-array", "c-max-huge-integer", "quantum-string",
         "det-load-bool",
         "p-value-null", "p-on-null", "model-on-power-null", "duration-null",
         "markov-rate-missing"],
)  # fmt: skip
def test_simulate_refuses_a_non_number_with_its_key_path(
    overrides, message, tmp_path, capsys
) -> None:
    out = tmp_path / "out"
    path = experiment_file(tmp_path, **overrides)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


METHODS_RULE = ("must be one of 'exact', 'markov', 'chebyshev', 'hoeffding', 'bennett', "
                "'chernoff', 'clt', got")
FAMILY_RULE = "must be one of 'bernoulli', 'markov', 'renewal', got"


def _renewal_class(on_durations: dict) -> list[dict]:
    return [{"name": "c0", "count": 2, "model": {
        "family": "renewal", "on_power": 1.0,
        "on_durations": on_durations, "off_durations": {"3": 1.0}}}]  # fmt: skip


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"method": "fastest"}, f"'method' in experiment {METHODS_RULE} 'fastest'"),
        ({"method": 3}, f"'method' in experiment {METHODS_RULE} 3"),
        ({**SWEEP, "methods": ["exact", "fastest"]},
         f"'methods[1]' in experiment {METHODS_RULE} 'fastest'"),
        ({"mode": "batch"},
         "'mode' in experiment must be one of 'composition', 'slot_dynamic', got 'batch'"),
        ({"mode": "slot_dynamic", "strategy": "later"},
         "'strategy' in experiment must be one of 'drop', 'one_step_shift', got 'later'"),
        ({"classes": _bernoulli_class(family="weibull")},
         f"'family' in classes[0].model {FAMILY_RULE} 'weibull'"),
        ({"classes": [{"name": "c0", "count": 2, "trace": "t.csv", "family": "weibull"}]},
         f"'family' in classes[0] {FAMILY_RULE} 'weibull'"),
        ({"classes": _renewal_class({"abc": 1.0})},
         "duration 'abc' in classes[0].model.on_durations must be a whole number >= 1"),
        ({"classes": _renewal_class({"1.5": 1.0})},
         "duration '1.5' in classes[0].model.on_durations must be a whole number >= 1"),
        ({"classes": _renewal_class({"0": 1.0})},
         "duration '0' in classes[0].model.on_durations must be a whole number >= 1"),
        ({"classes": _renewal_class({"-2": 1.0})},
         "duration '-2' in classes[0].model.on_durations must be a whole number >= 1"),
        ({"classes": _renewal_class({"2": 0.5, "02": 0.5})},
         "duration '02' in classes[0].model.on_durations must be a whole number >= 1"),
    ],
    ids=["method-unknown", "method-number", "methods-entry", "mode", "strategy",
         "model-family", "trace-family", "duration-word", "duration-fraction",
         "duration-zero", "duration-negative", "duration-leading-zero"],
)  # fmt: skip
def test_simulate_refuses_a_value_outside_its_choices_with_its_key_path(
    overrides, message, tmp_path, capsys
) -> None:
    out = tmp_path / "out"
    path = experiment_file(tmp_path, **overrides)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_null_strategy(tmp_path, capsys) -> None:
    out = tmp_path / "out"
    path = experiment_file_with(tmp_path, "strategy", None)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert "'strategy' in experiment must be one of 'drop', 'one_step_shift', got None" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def experiment_file_with(tmp_path, key: str, value) -> str:
    """``experiment_file`` with one top-level key set as given, null included."""
    path = Path(experiment_file(tmp_path))
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    return str(path)


@pytest.mark.parametrize("key", ["quantum", "deterministic_load"])
def test_simulate_refuses_a_null_number(key, tmp_path, capsys) -> None:
    out = tmp_path / "out"
    path = experiment_file_with(tmp_path, key, None)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert f"'{key}' in experiment must be a JSON number, got None" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name", ["../escaped", "sub/x", "..", "", ["x"], None],
    ids=["parent", "separator", "dotdot", "empty", "array", "null"],
)
def test_simulate_refuses_a_name_that_is_no_plain_file_name(name, tmp_path, capsys) -> None:
    out = tmp_path / "out"
    path = experiment_file_with(tmp_path, "name", name)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert "'name' in experiment must be a non-empty string" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["experiment.json"]


C0 = {"name": "c0", "on_power": 1.0, "count": 10,
      "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.4}}
FILE_NAME_RULE = "must be a non-empty string with no path separator or '..', got"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"outputs": {"series_csv": "../escaped.csv"}},
         f"'series_csv' in outputs {FILE_NAME_RULE} '../escaped.csv'"),
        ({"outputs": {"result_json": None}}, f"'result_json' in outputs {FILE_NAME_RULE} None"),
        ({"outputs": {"result_json": 5}}, f"'result_json' in outputs {FILE_NAME_RULE} 5"),
        ({"classes": [{**C0, "name": None}]},
         "'name' in classes[0] must be a JSON string, got None"),
        ({"classes": [{**C0, "name": 7}]}, "'name' in classes[0] must be a JSON string, got 7"),
        ({"classes": [{"name": "c0", "count": 2, "model_file": 5}]},
         "'model_file' in classes[0] must be a JSON string, got 5"),
        ({"classes": [{"name": "c0", "count": 2, "trace": 5, "family": "bernoulli"}]},
         "'trace' in classes[0] must be a JSON string, got 5"),
    ],
    ids=["outputs-escape", "outputs-null", "outputs-number", "class-name-null",
         "class-name-number", "model-file-number", "trace-number"],
)  # fmt: skip
def test_simulate_refuses_a_name_or_path_of_the_wrong_kind(
    overrides, message, tmp_path, monkeypatch, capsys
) -> None:
    # run from the experiment's directory with no --out-dir: any file the run
    # wrote, there or one level up, would show in a listing
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    experiment_file(run_dir, **overrides)
    monkeypatch.chdir(run_dir)
    assert main(["simulate", "experiment.json"]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(run_dir) == ["experiment.json"]
    assert os.listdir(tmp_path) == ["run"]


def test_simulate_refused_during_the_run_leaves_no_out_dir(tmp_path, capsys) -> None:
    # an off-grid quantum passes the parser and fails at sizing, before any write
    out = tmp_path / "out"
    path = experiment_file(tmp_path, quantum=0.3)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert "quantization mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_sweep_jobs_below_one_exits_2(tmp_path, capsys) -> None:
    path = experiment_file(tmp_path, **SWEEP, slots=100)
    assert main(["simulate", path, "--jobs", "-3", "--out-dir", str(tmp_path)]) == 2
    assert "jobs=-3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment keys: each one changes the run or is refused
# ---------------------------------------------------------------------------

HEATER = {"name": "heater", "count": 8,
          "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.4}}
KEY_CLASSES = [
    HEATER,
    {"name": "pump", "count": 4, "trace": "pump.csv", "family": "bernoulli",
     "on_threshold": 1.0},
    {"name": "fridge", "count": 3, "model_file": "fridge.json"},
    {"name": "floor", "count": 1, "on_power": 1.0, "deterministic": True},
]  # fmt: skip
KEY_BASES = {
    "single": {"name": "keys", "classes": KEY_CLASSES, "policy": {"c_max": 6.0, "p": 0.1},
               "method": "exact", "slots": 300, "seed": 5},
    "slot_dynamic": {"mode": "slot_dynamic"},
    "sweep": SWEEP,
}  # fmt: skip
CHANGES, REFUSED = "changes", "exit 2"

# (base run, where, key, alternative value, expected effect); 'where' is
# "top", "policy" or a class name.  One named exemption: policy.p in a
# sweep, where every p_values entry replaces it.  It stays accepted there
# because the benchmark's committed sweep input carries it.
KEY_CASES = [
    ("single", "top", "name", "renamed", CHANGES),
    ("single", "top", "classes", [HEATER], CHANGES),
    ("single", "top", "policy", {"c_max": 7.0, "p": 0.1}, CHANGES),
    ("single", "top", "method", "chebyshev", CHANGES),
    ("sweep", "top", "method", "chebyshev", REFUSED),
    ("single", "top", "methods", ["exact"], REFUSED),
    ("sweep", "top", "methods", ["exact", "chebyshev"], CHANGES),
    ("sweep", "top", "p_values", [0.02, 0.2], CHANGES),
    ("single", "top", "mode", "slot_dynamic", CHANGES),
    ("single", "top", "strategy", "drop", REFUSED),
    ("slot_dynamic", "top", "strategy", "one_step_shift", CHANGES),
    ("single", "top", "slots", 250, CHANGES),
    ("single", "top", "seed", 6, CHANGES),
    # a grid step that every power sits on gives the same answers (only
    # the pmf size changes), so the case that shows the key is read is off-grid
    ("single", "top", "quantum", 0.3, REFUSED),
    ("single", "top", "deterministic_load", 1.0, CHANGES),
    ("single", "top", "outputs", {"series_csv": "other.csv"}, CHANGES),
    ("single", "policy", "c_max", 5.0, CHANGES),
    ("single", "policy", "p", 0.2, CHANGES),
    ("single", "policy", "c_sys", 5.0, REFUSED),
    ("single", "policy", "c_min", 1.0, REFUSED),
    ("single", "policy", "r", 0.2, REFUSED),
    ("single", "heater", "name", "pump", REFUSED),
    ("single", "heater", "on_power", 2.0, CHANGES),
    ("single", "heater", "count", 6, CHANGES),
    ("single", "heater", "shiftable", False, REFUSED),
    ("slot_dynamic", "heater", "shiftable", False, CHANGES),
    ("single", "heater", "deterministic", True, REFUSED),
    ("single", "heater", "model", {"family": "bernoulli", "on_power": 1.0, "p_on": 0.6},
     CHANGES),
    ("single", "fridge", "model_file", "fridge2.json", CHANGES),
    ("single", "pump", "trace", "pump2.csv", CHANGES),
    ("single", "pump", "family", "markov", CHANGES),
    ("single", "heater", "family", "markov", REFUSED),
    ("single", "pump", "on_threshold", 3.0, CHANGES),
    ("single", "heater", "on_threshold", 3.0, REFUSED),
]  # fmt: skip


def run_keys_experiment(tmp_path, doc) -> tuple[int, dict[str, bytes]]:
    """Exit status and output files of one experiment run in a fresh directory."""
    run_dir = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
    run_dir.mkdir()
    for name, watts in (("pump.csv", [0, 2, 4, 4, 2, 0, 0, 0, 2, 4, 4, 2]),
                        ("pump2.csv", [0, 0, 2, 4, 2, 0, 0, 0, 0, 2, 4, 4])):
        write_trace(str(run_dir / name),
                    TraceSeries(watts=np.array(watts, dtype=float), sample_period_s=1.0))
    for name, p_on in (("fridge.json", 0.3), ("fridge2.json", 0.6)):
        write_model(str(run_dir / name), Bernoulli(p_on=p_on), on_power=2.0)
    (run_dir / "experiment.json").write_text(
        json.dumps({k: v for k, v in doc.items() if v is not None})
    )
    out = run_dir / "out"
    code = main(["simulate", str(run_dir / "experiment.json"), "--out-dir", str(out)])
    files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
    return code, files


@pytest.mark.parametrize(
    "base, where, key, value, effect",
    KEY_CASES,
    ids=[f"{base}-{where}-{key}" for base, where, key, *_ in KEY_CASES],
)
def test_every_experiment_key_changes_the_run_or_exits_2(
    base, where, key, value, effect, tmp_path, capsys
) -> None:
    doc = json.loads(json.dumps({**KEY_BASES["single"], **KEY_BASES[base]}))
    code, before = run_keys_experiment(tmp_path, doc)
    assert code == 0
    if where == "top":
        doc[key] = value
    elif where == "policy":
        doc["policy"][key] = value
    else:
        next(c for c in doc["classes"] if c["name"] == where)[key] = value
    code, after = run_keys_experiment(tmp_path, doc)
    capsys.readouterr()
    if effect == REFUSED:
        assert (code, after) == (2, {})
    else:
        assert code == 0 and after != before


def test_every_experiment_key_has_a_case() -> None:
    covered = {
        (where if where in ("top", "policy") else "class", key)
        for _, where, key, *_ in KEY_CASES
    }
    assert {("top", key) for key in _TOP_KEYS} <= covered
    assert {("policy", key) for key in _POLICY_KEYS} <= covered
    assert {("class", key) for key in _CLASS_KEYS} <= covered


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def test_region_writes_grid(tmp_path, capsys) -> None:
    code = main(
        [
            "region",
            "--class1",
            "6x1@0.35",
            "--class2",
            "4x3@0.15",
            "--c-max",
            "6",
            "--p",
            "0.05",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "cells accepted" in capsys.readouterr().out
    lines = (tmp_path / "region.csv").read_text().splitlines()
    assert lines[0] == "n1,n2,accept"
    assert lines[1] == "0,0,true"
    assert len(lines) == 1 + 7 * 5


def test_region_method_flag(tmp_path, capsys) -> None:
    code = main(
        [
            "region",
            "--class1",
            "3x1@0.5",
            "--class2",
            "3x1@0.5",
            "--c-max",
            "2",
            "--p",
            "0.3",
            "--method",
            "markov",
            "--out",
            "m.csv",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "m.csv").exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_writes_model_and_stats(tmp_path, capsys) -> None:
    trace_path = tmp_path / "trace.csv"
    write_trace(
        str(trace_path),
        TraceSeries(watts=np.array([0.0, 50.0, 50.0, 0.0, 50.0, 50.0]), sample_period_s=1.0),
    )
    code = main(
        [
            "fit",
            str(trace_path),
            "--family",
            "bernoulli",
            "--on-threshold",
            "1.0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "p_on=0.666" in out
    assert "on_power=50.0" in out
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["family"] == "bernoulli"
    assert doc["p_on"] == pytest.approx(4.0 / 6.0)


def test_fit_missing_trace_exits_3(tmp_path, capsys) -> None:
    code = main(
        [
            "fit",
            str(tmp_path / "nope.csv"),
            "--family",
            "bernoulli",
            "--on-threshold",
            "1.0",
        ]
    )
    assert code == 3
    capsys.readouterr()


def test_fit_degenerate_trace_exits_2(tmp_path, capsys) -> None:
    trace_path = tmp_path / "trace.csv"
    write_trace(
        str(trace_path), TraceSeries(watts=np.array([5.0, 5.0]), sample_period_s=1.0)
    )
    code = main(
        [
            "fit",
            str(trace_path),
            "--family",
            "bernoulli",
            "--on-threshold",
            "1.0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "degenerate trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "10x1@0.5", "--c-max", "5", "--jobs", "2"],
        ["region", "--class1", "6x1@0.35", "--class2", "4x3@0.15"]
        + ["--c-max", "6", "--p", "0.05", "--seed", "1"],
        ["fit", "whatever.csv", "--family", "bernoulli", "--on-threshold", "1"]
        + ["--seed", "1"],
        ["simulate", "experiment.json", "--quantum-w", "0.5"],
        ["fit", "whatever.csv", "--family", "bernoulli", "--on-threshold", "1"]
        + ["--quantum-w", "0.5"],
    ],
    ids=["bounds", "region", "fit", "simulate-quantum-w", "fit-quantum-w"],
)
def test_flags_are_rejected_where_unused(argv, capsys) -> None:
    # --seed/--jobs belong to simulate, --quantum-w to bounds and region
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fit_on_threshold_is_required(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["fit", "whatever.csv", "--family", "bernoulli"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_fit_then_simulate_round_trip_recovers_mean_power(tmp_path, capsys) -> None:
    # measure a synthetic appliance, fit it, simulate the fitted model with
    # an unconstrained policy; mean power should come back within 5%
    cls = ApplianceClass(name="x", on_power=2.0, model=Bernoulli(p_on=0.35), count=1)
    series = sample_series(cls, slots=20_000, seed=33)
    trace_path = tmp_path / "trace.csv"
    write_trace(str(trace_path), TraceSeries(watts=series, sample_period_s=1.0))
    assert (
        main(
            [
                "fit",
                str(trace_path),
                "--family",
                "bernoulli",
                "--on-threshold",
                "1.0",
                "--out",
                "fitted.json",
                "--out-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    experiment = {
        "name": "roundtrip",
        "classes": [{"name": "x", "count": 1, "model_file": "fitted.json"}],
        "policy": {"c_max": 1000.0, "p": 0.5},
        "method": "exact",
        "slots": 20_000,
        "seed": 44,
    }
    exp_path = tmp_path / "experiment.json"
    exp_path.write_text(json.dumps(experiment))
    assert main(["simulate", str(exp_path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    simulated_mean = float(np.mean(managed_w(tmp_path / "roundtrip.series.csv")))
    trace_mean = float(np.mean(series))
    assert abs(simulated_mean - trace_mean) <= 0.05 * trace_mean


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_print_what_the_readme_shows(tmp_path, monkeypatch, capsys) -> None:
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        (tmp_path / f"{json.loads(block)['name']}.json").write_text(block)
    monkeypatch.chdir(tmp_path)
    ran = []
    for command, shown in re.findall(r"```\n\$ loadcap (.*?)\n(.*?)```", text, re.S):
        argv = command.split()
        if argv[0] == "fit":
            continue  # its trace file is not part of the README
        assert main(argv) == 0
        got = capsys.readouterr()
        lines = shown.splitlines()
        assert got.out.splitlines() == [s for s in lines if not s.startswith("warning:")]
        assert got.err.splitlines() == [s for s in lines if s.startswith("warning:")]
        ran.append(argv[0])
    assert ran == ["bounds", "region", "simulate", "simulate"]


def test_readme_library_snippet_prints_what_the_readme_shows() -> None:
    snippet = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    exec(snippet.group(1), namespace)
    shown = [line.split("#") for line in snippet.group(1).splitlines() if "#" in line]
    assert [(code.strip(), value.strip()) for code, value in shown] == [
        ("max_admissible(heater, policy, EstimationMethod.EXACT)", "21"),
        ("estimate(EstimationMethod.EXACT, composition, 24.0)", "0.008740158003962517"),
    ]
    for code, value in shown:
        assert repr(eval(code, namespace)) == value.strip()


# ---------------------------------------------------------------------------
# public surface and entry points
# ---------------------------------------------------------------------------

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(loadcap.__path__) if not m.name.startswith("_")
)


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_exported_name_resolves(module) -> None:
    namespace = importlib.import_module(f"loadcap.{module}")
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


def test_package_root_exports_only_what_the_benchmark_probe_imports() -> None:
    public = {
        name
        for name, value in vars(loadcap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"ApplianceClass", "Bernoulli", "ClassComposition"}
    assert sorted(loadcap.__all__) == sorted(public)
    assert isinstance(loadcap.__version__, str)


def test_benchmark_setup_probe_runs(tmp_path) -> None:
    # perfbench/probe.py imports its classes from the package root
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "probe.py"), "setup", "--"]
        + ["bounds", "2x1@0.5", "--c-max", "1", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "loadcap", "bounds", "2x1@0.5", "--c-max", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("method,estimate")


def test_importing_the_cli_loads_no_process_pool() -> None:
    # only a sweep with --jobs above 1 imports the pool and multiprocessing
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    probe = (
        "import sys, loadcap.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_unknown_subcommand_exits_2() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
