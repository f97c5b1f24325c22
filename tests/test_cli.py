"""Command-line interface: subcommands, exit codes, artifact files."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import loadcap
import loadcap.__main__ as process_entry
from loadcap.cli import main
from loadcap.models import MODEL_CLASSES, ApplianceClass, Bernoulli, TraceSeries, sample_series
from loadcap.fileio import _CLASS_KEYS, _POLICY_KEYS, _TOP_KEYS, write_model

from conftest import write_trace

ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's sources, its output captured as
    text unless ``text=False`` asks for bytes."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    kwargs.setdefault("text", True)
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, **kwargs)


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


@pytest.mark.parametrize(
    ("argv", "c_max", "det", "lowest_w"),
    [
        (["2x1@0.5", "1x3@1.0", "--c-max", "5", "--det", "1"], 5.0, 1.0, 3.0),
        (["30x1@0.3", "4x2@0.6", "2x3@1.0", "--c-max", "25", "--det", "2.5",
          "--quantum-w", "0.5"], 25.0, 2.5, 6.0),
        (["8000x1@0.3", "2000x3@0.2", "--c-max", "3500"], 3500.0, 0.0, 1450.0),
    ],
    ids=["small", "half-watt-grid", "trimmed-ends"],
)  # fmt: skip
def test_bounds_dump_pmf_leaves_out_the_base_load(
    argv, c_max, det, lowest_w, tmp_path, capsys
) -> None:
    # the dump is the load of the listed classes, always-on ones included
    # (lowest_w), without --det; the exact row is its tail at c_max - det,
    # and its mass, both ends trimmed, is 1 within 1e-9
    argv = ["bounds", *argv, "--methods", "exact", "--dump-pmf", "pmf.csv"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    exact = bounds_table(capsys)["exact"]
    rows = (tmp_path / "pmf.csv").read_text().splitlines()[1:]
    pmf = [tuple(map(float, row.split(","))) for row in rows]
    assert pmf[0][0] == lowest_w
    assert math.fsum(p for watts, p in pmf if watts >= c_max - det) == exact
    assert abs(math.fsum(p for _, p in pmf) - 1.0) <= 1e-9


def test_bounds_require_gate(capsys) -> None:
    assert main(["bounds", "100x1@0.5", "--c-max", "60", "--require", "0.05"]) == 0
    capsys.readouterr()
    assert main(["bounds", "100x1@0.5", "--c-max", "60", "--require", "1e-9"]) == 4
    err = capsys.readouterr().err
    assert "no method certifies" in err


def test_bounds_require_accepts_equality_and_refuses_just_below(capsys) -> None:
    # the one admission rule: an estimate equal to the bound certifies it
    args = ["bounds", "100x1@0.5", "--c-max", "60", "--methods", "exact"]
    assert main(args) == 0
    best = bounds_table(capsys)["exact"]
    assert main([*args, "--require", repr(best)]) == 0
    capsys.readouterr()
    below = math.nextafter(best, 0.0)
    assert main([*args, "--require", repr(below)]) == 4
    assert capsys.readouterr().err == (
        f"no method certifies p <= {below!r}; best estimate is {best!r}\n"
    )


def test_bounds_quantization_mismatch_exits_2(capsys) -> None:
    assert main(["bounds", "4x1.5@0.5", "--c-max", "3"]) == 2
    assert "quantization mismatch" in capsys.readouterr().err


def test_bounds_refuses_an_off_grid_picowatt_power(capsys) -> None:
    # the grid tolerance scales with the quantum: 1.5 pW is not on a 1 pW grid
    argv = ["bounds", "1x1.5e-12@0.5", "--c-max", "2e-12", "--quantum-w", "1e-12"]
    assert main(argv) == 2
    assert "quantization mismatch" in capsys.readouterr().err


def test_bounds_prints_no_table_when_an_estimate_fails(capsys) -> None:
    # markov succeeds, then exact meets the off-grid power
    assert main(["bounds", "2x1.5@0.5", "--c-max", "2", "--methods", "markov,exact"]) == 2
    captured = capsys.readouterr()
    assert "quantization mismatch" in captured.err
    assert captured.out == ""


def cap_address_space() -> None:
    # an array allocated before the budget check fails at 1 GiB, not past RAM
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    ("spec", "flags", "points", "quantum"),
    [
        ("2x1@0.5", ["--c-max", "1.5", "--quantum-w", "1e-15"], 2 * 10**15 + 1, 1e-15),
        ("2x1@0.5", ["--c-max", "1.5", "--quantum-w", "1e-300"], "2.000e+300", 1e-300),
        (f"{10**9}x1@0.5", ["--c-max", "6e8"], 10**9 + 1, 1.0),
        ("10x1e308@0.5", ["--c-max", "1e308"], "1.000e+309", 1.0),
    ],
    ids=["femtowatt-grid", "1e-300-grid", "billion-appliances", "past-the-float-range"],
)
def test_bounds_refuses_an_exact_pmf_past_the_grid_budget(spec, flags, points, quantum) -> None:
    # 14.2 PiB, far more, and 7.5 GiB of float64 without the budget; a
    # fresh, capped interpreter keeps a late refusal off the host's memory
    proc = run_python("-m", "loadcap", "bounds", spec, *flags, preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"needs {points} points on the {quantum!r} W grid" in proc.stderr


def test_region_refuses_an_exact_pmf_past_the_float_range(tmp_path, capsys) -> None:
    argv = ["region", "--class1", "10x1e308@0.5", "--class2", "1x1@0.5", "--c-max", "1e308",
            "--p", "0.1", "--out-dir", str(tmp_path)]  # fmt: skip
    assert main(argv) == 2
    assert "needs 1.000e+308 points on the 1.0 W grid" in capsys.readouterr().err


def test_simulate_refuses_a_count_past_an_int64(tmp_path, capsys) -> None:
    model = {"family": "bernoulli", "on_power": 1.0, "p_on": 0.4}
    classes = [{"name": "c0", "count": 2**63, "model": model}]
    path = experiment_file(tmp_path, classes=classes)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"count={2**63} must be an integer from 0 to" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_exact_bounds_bytes_do_not_depend_on_the_cpu_set() -> None:
    # the exact pmf runs on one thread: one usable CPU or all of them, the
    # same bytes, and the value perfbench/expected.json records
    argv = ["-m", "loadcap", "bounds", "8000x1@0.3", "8000x3@0.2", "8000x7@0.1",
            "8000x13@0.05", "--c-max", "19350", "--methods", "exact"]  # fmt: skip
    cpu = min(os.sched_getaffinity(0))
    pinned = run_python(*argv, text=False, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    unpinned = run_python(*argv, text=False)
    assert pinned.returncode == unpinned.returncode == 0, pinned.stderr + unpinned.stderr
    assert pinned.stdout == unpinned.stdout
    assert b"exact,3.7841567048079274e-05" in pinned.stdout.splitlines()


def test_bounds_refuses_a_power_of_more_grid_steps_than_a_float_holds(capsys) -> None:
    argv = ["bounds", "1x1e300@0.5", "--c-max", "1e300", "--quantum-w", "1e-300"]
    assert main([*argv, "--methods", "exact"]) == 2
    assert "more steps of the 1e-300 W grid than a float holds" in capsys.readouterr().err


@pytest.mark.parametrize("quantum_w", ["-1", "0", "nan", "inf"])
def test_bounds_refuses_a_quantum_that_is_not_positive_and_finite(quantum_w, capsys) -> None:
    # markov never reads the grid, so the flag is checked up front
    argv = ["bounds", "2x1@0.5", "--c-max", "1", "--methods", "markov", "--quantum-w", quantum_w]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"--quantum-w must be positive and finite, got {float(quantum_w)!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    ("composition", "message"),
    [
        (["100@0.5"], "COUNTxWATTS@P_ON"),
        (["100x1@0.5", "--det", "-5"], "deterministic_load=-5.0"),
        (["100x1@0.5", "--det", "nan"], "deterministic_load=nan"),
        (["100x1@0.5", "--det", "inf"], "deterministic_load=inf"),
        ([f"{10**400}x1@0.5", "--methods", "markov"], "must be an integer from 0 to 2**63 - 1"),
        ([f"{10**400}x1@0.5", "--methods", "exact"], "must be an integer from 0 to 2**63 - 1"),
    ],
    ids=["spec", "det-negative", "det-nan", "det-inf", "count-markov", "count-exact"],
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


@pytest.mark.parametrize("c_max", ["1e300", "1.7e308"])
def test_bounds_at_a_huge_ceiling_stay_bounds(c_max, capsys) -> None:
    # the squared distance from the mean leaves the float range here
    assert main(["bounds", "3x1@0.5", "--c-max", c_max]) == 0
    table = bounds_table(capsys)
    assert len(table) == 7
    for method, value in table.items():
        assert table["exact"] <= value <= 1.0, method
    assert table["bennett"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["1x1e155@0.001", "--c-max", "2e152"],
        ["2x1e155@0.01", "--c-max", "1e155"],
    ],
    ids=["bennett-range-squared", "chernoff-exponent"],
)
def test_bounds_at_a_huge_on_power_stay_bounds(argv, capsys) -> None:
    # the largest wattage squared, and the Chernoff exponent at its smallest
    # s, leave the float range here
    assert main(["bounds", *argv, "--quantum-w", "1e155"]) == 0
    table = bounds_table(capsys)
    assert len(table) == 7
    for method, value in table.items():
        if method != "clt":  # an estimate, not a bound
            assert table["exact"] <= value <= 1.0, method
    # the moments and the Chernoff search, taken in units near the largest
    # wattage, do not overflow, so neither these bounds nor the normal
    # estimate fall back to trivial values
    assert max(table["hoeffding"], table["bennett"], table["chernoff"]) < 1.0
    assert 0.0 <= table["clt"] < 0.5


@pytest.mark.parametrize("c_max", ["1e308", "1.7e308"])
def test_exact_tail_where_the_ceiling_over_the_quantum_overflows(c_max, tmp_path, capsys) -> None:
    # c_max / 0.5 is inf: the threshold lies past the top of every pmf
    assert main(["bounds", "2x0.5@0.5", "--c-max", c_max, "--quantum-w", "0.5"]) == 0
    table = bounds_table(capsys)
    assert table["exact"] == 0.0
    for method, value in table.items():
        assert table["exact"] <= value <= 1.0, method
    argv = ["region", "--class1", "2x0.5@0.5", "--class2", "1x0.5@0.5", "--c-max", c_max]
    argv += ["--p", "0.1", "--quantum-w", "0.5", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "6 of 6 cells accepted" in capsys.readouterr().out


def test_bounds_off_grid_power_with_matching_quantum(capsys) -> None:
    assert main(["bounds", "4x1.5@0.5", "--c-max", "3", "--quantum-w", "0.5"]) == 0
    table = bounds_table(capsys)
    assert 0.0 <= table["exact"] <= 1.0


@pytest.mark.parametrize(
    ("argv", "c_max", "on_grid"),
    [
        (["3x1@0.5"], "3.000000001", "3"),
        (["2x1@1.0", "1x1@0.5"], "3.0000000001", "3"),
        (["2x1@1.0"], "2.0000000001", "2"),
        # no tolerance in watts: 2e-16 W does not reach the 3e-16 W all-ON load
        (["3x1e-16@0.5", "--quantum-w", "1e-16"], "2e-16", "2e-16"),
        # a squared 1e-162 W underflows; the moments are taken in units near it
        (["1x1e-162@0.5", "--quantum-w", "1e-162"], "1e-162", "1e-162"),
    ],
    ids=["all-on", "all-on-over-a-base", "base-alone", "1e-16-grid", "1e-162-appliance"],
)
def test_bounds_read_a_ceiling_in_the_reach_band_at_its_grid_point(
    argv, c_max, on_grid, capsys
) -> None:
    # a load within 1e-9 relative below the ceiling reaches it, for every
    # method: each reads the ceiling as the grid point just below it (the
    # two tiny-watt ceilings are grid points already)
    assert main(["bounds", *argv, "--c-max", c_max]) == 0
    table = bounds_table(capsys)
    for method in ("markov", "chebyshev", "hoeffding", "bennett", "chernoff"):
        assert table["exact"] <= table[method] <= 1.0, method
    assert main(["bounds", *argv, "--c-max", on_grid]) == 0
    assert table == bounds_table(capsys)
    if c_max == "2.0000000001":  # the base load alone reaches the ceiling
        assert set(table.values()) == {1.0}


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
    assert outcomes[0] == "slot,dropped_w,backlog_depth,disabled_count"
    assert len(outcomes) == 101
    doc = json.loads((tmp_path / "demo.json").read_text())
    steps = doc["energy_steps"]
    assert steps["served"] + steps["dropped"] + steps["backlog"] == steps["demanded"]


# two shiftable classes over a fixed one, on a half-watt grid above a quarter
# watt of constant load: the frontier path, with a queue that builds and drains
TWO_SHIFTABLE = {
    "name": "two",
    "classes": [
        {"name": "heater", "count": 8,
         "model": {"family": "markov", "on_power": 1.5,
                   "p_off_to_on": 0.05, "p_on_to_off": 0.1}},
        {"name": "base", "count": 4, "shiftable": False,
         "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.5}},
        {"name": "pump", "count": 12,
         "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.3}},
    ],
    "policy": {"c_max": 9.0, "p": 0.05},
    "method": "exact",
    "mode": "slot_dynamic",
    "slots": 2000, "seed": 5, "quantum": 0.5, "deterministic_load": 0.25,
}  # fmt: skip

# three shiftable classes: the cached path
THREE_SHIFTABLE = {
    "name": "three",
    "classes": [
        {"name": "pump", "count": 10,
         "model": {"family": "markov", "on_power": 1.0,
                   "p_off_to_on": 0.3, "p_on_to_off": 0.2}},
        {"name": "kettle", "count": 6,
         "model": {"family": "bernoulli", "on_power": 2.0, "p_on": 0.4}},
        {"name": "heater", "count": 4,
         "model": {"family": "markov", "on_power": 3.0,
                   "p_off_to_on": 0.2, "p_on_to_off": 0.3}},
    ],
    "policy": {"c_max": 17.0, "p": 0.05},
    "method": "chernoff",
    "mode": "slot_dynamic", "strategy": "one_step_shift",
    "slots": 2000, "seed": 7,
}  # fmt: skip


@pytest.mark.parametrize(
    "doc, series_sha256, outcomes_sha256",
    [
        (
            {**TWO_SHIFTABLE, "strategy": "one_step_shift"},
            "1add155e27112551bc4a0ac6fd793b153dd5bb8c886ccb3182471f721a13d9e6",
            "0104e35deee9a8e1382e3c72c064b9d84f021c9279d8719c5f503e0f5532ab3b",
        ),
        (
            {**TWO_SHIFTABLE, "strategy": "drop"},
            "877261f94cf9a05ac5b8e5dd67ed299bec3663c34807b6b73a9e88040267744e",
            "f36440b313a0dc8e4abb854f79017948af01358f51c230e779455f57f7bad83b",
        ),
        (
            {**TWO_SHIFTABLE, "method": "clt", "strategy": "one_step_shift"},
            "0ff2f4f87cef05c8636c2cc15f521462c084eca91456ef532a0599b624f5fbcb",
            "5cc14a9fcf2bcae44ec23342a5bdf52c6f26f92f5f703fef3c62bf6d42e50fc1",
        ),
        (
            THREE_SHIFTABLE,
            "0d33c7937b0d5235771141fa4b884e84abd3408b9c62f6dbf9c07b7c5947f529",
            "f19cbf303504ca4331a65b449dd5cad5f23ae77594c0b3977e93cd2c1c96fcff",
        ),
    ],
    ids=["two-one_step_shift", "two-drop", "two-clt", "three-one_step_shift"],
)
def test_simulate_slot_dynamic_files_are_pinned(
    doc, series_sha256, outcomes_sha256, tmp_path, capsys
) -> None:
    # the loop and the CSV writers together, byte for byte
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    series = (tmp_path / f"{doc['name']}.series.csv").read_bytes()
    outcomes = (tmp_path / f"{doc['name']}.outcomes.csv").read_bytes()
    assert hashlib.sha256(series).hexdigest() == series_sha256
    assert hashlib.sha256(outcomes).hexdigest() == outcomes_sha256
    # each per-slot value is written once: no outcomes column but slot
    # repeats a series column value for value
    def columns(data: bytes) -> list[tuple[bytes, ...]]:
        return list(zip(*(row.split(b",") for row in data.splitlines()[1:])))

    assert not set(columns(outcomes)[1:]) & set(columns(series))


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


def test_simulate_jobs_takes_only_1(tmp_path, capsys) -> None:
    # a sweep runs in one process; --jobs 1 is still accepted and changes nothing
    path = experiment_file(tmp_path, **SWEEP, slots=100)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out
    assert main(["simulate", path, "--jobs", "1", "--out-dir", str(tmp_path / "one")]) == 0
    assert capsys.readouterr().out == plain
    with pytest.raises(SystemExit) as exc:
        main(["simulate", path, "--jobs", "2", "--out-dir", str(tmp_path / "two")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "two").exists()


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
        ({"classes": _renewal_class({"2": 0.5, str(2**63): 0.5})},
         f"duration '{2**63}' in classes[0].model.on_durations must be a whole number >= 1"
         f" and <= {2**63 - 1}"),
        ({"classes": _renewal_class({"9" * 5000: 1.0})},
         "in classes[0].model.on_durations must be a whole number >= 1"),
    ],
    ids=["method-unknown", "method-number", "methods-entry", "mode", "strategy",
         "model-family", "trace-family", "duration-word", "duration-fraction",
         "duration-zero", "duration-negative", "duration-leading-zero",
         "duration-past-int64", "duration-5000-digits"],
)  # fmt: skip
def test_simulate_refuses_a_value_outside_its_choices_with_its_key_path(
    overrides, message, tmp_path, capsys
) -> None:
    out = tmp_path / "out"
    path = experiment_file(tmp_path, **overrides)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_runs_the_longest_duration_key(tmp_path, capsys) -> None:
    # 2**63 - 1 slots is the longest run a renewal model may name; half the
    # appliances' ON runs outlast any horizon
    path = experiment_file(tmp_path, classes=_renewal_class({"2": 0.5, str(2**63 - 1): 0.5}))
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert managed_w(tmp_path / "demo.series.csv")[-1] > 0.0


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
        ({"name": "../x"}, "'name' in experiment must be a non-empty string"),
        ({"policy": {"c_max": None, "p": 0.01}}, "'c_max' in policy must be a JSON number"),
    ],
    ids=["outputs-escape", "outputs-null", "outputs-number", "class-name-null",
         "class-name-number", "model-file-number", "trace-number", "name-escape",
         "c-max-null"],
)  # fmt: skip
def test_simulate_refuses_a_name_or_path_of_the_wrong_kind(
    overrides, message, tmp_path, monkeypatch, capsys
) -> None:
    # run from the experiment's directory, with and without --out-dir: that
    # directory, or any file the run wrote, there or one level up, would show
    # in a listing
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    experiment_file(run_dir, **overrides)
    monkeypatch.chdir(run_dir)
    for out_dir in ([], ["--out-dir", "out"]):
        assert main(["simulate", "experiment.json", *out_dir]) == 2
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


def test_region_of_a_bound_lies_inside_the_exact_region(tmp_path, capsys) -> None:
    # the all-ON load of 3 of the first class sits 1e-9 W below the ceiling
    accepted = {}
    for method in ("exact", "markov", "chebyshev", "hoeffding", "bennett", "chernoff"):
        argv = ["region", "--class1", "3x1@0.5", "--class2", "1x1@0.5",
                "--c-max", "3.000000001", "--p", "0.1", "--method", method,
                "--out", f"{method}.csv", "--out-dir", str(tmp_path)]  # fmt: skip
        assert main(argv) == 0
        rows = (tmp_path / f"{method}.csv").read_text().splitlines()[1:]
        accepted[method] = {row.rsplit(",", 1)[0] for row in rows if row.endswith(",true")}
    capsys.readouterr()
    assert len(accepted["exact"]) == 5
    for method, cells in accepted.items():
        assert cells <= accepted["exact"], method


@pytest.mark.parametrize("quantum_w", ["0", "-0.5", "nan"])
def test_region_refuses_a_quantum_that_is_not_positive_and_finite(
    quantum_w, tmp_path, capsys
) -> None:
    # chernoff never reads the grid, so the flag is checked up front
    argv = ["region", "--class1", "2x1@0.5", "--class2", "2x1@0.2", "--c-max", "2",
            "--p", "0.1", "--method", "chernoff", "--quantum-w", quantum_w,
            "--out-dir", str(tmp_path / "out")]  # fmt: skip
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"--quantum-w must be positive and finite, got {float(quantum_w)!r}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_region_refuses_a_grid_past_its_cell_budget(tmp_path, capsys) -> None:
    argv = ["region", "--class1", "100000000x1@0.5", "--class2", "100000000x1@0.5",
            "--c-max", "10", "--p", "0.1", "--out-dir", str(tmp_path)]  # fmt: skip
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: a region of {(10**8 + 1) ** 2} cells exceeds the budget of {2**24} cells\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "region.csv").exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_writes_model_and_stats(tmp_path, capsys) -> None:
    # CRLF line endings and a blank line read as plain rows do
    trace_path = tmp_path / "trace.csv"
    trace_path.write_bytes(b"timestamp_s,power_w\r\n0,0\r\n1,50\r\n\r\n2,50\r\n3,0\r\n"
                           b"4,50\r\n5,50\r\n")  # fmt: skip
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


def test_fit_refuses_a_quote_left_open_in_the_last_field(tmp_path, capsys) -> None:
    trace_path = tmp_path / "t.csv"
    trace_path.write_bytes(b'timestamp_s,power_w\n0,0\n1,5\n2,0\n3,"5\n')
    args = ["fit", str(trace_path), "--family", "bernoulli", "--on-threshold", "1"]
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 2
    assert "malformed trace row 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_fit_refuses_a_nan_threshold(tmp_path, capsys) -> None:
    trace_path = tmp_path / "t.csv"
    write_trace(str(trace_path), TraceSeries(watts=np.array([0.0, 5.0, 0.0]), sample_period_s=1.0))
    args = ["fit", str(trace_path), "--family", "markov", "--on-threshold", "nan"]
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 2
    assert "on_threshold=nan is not a number" in capsys.readouterr().err
    # json.load reads a bare NaN, so an experiment's threshold meets the same check
    classes = [{"name": "c0", "count": 2, "trace": "t.csv", "family": "markov"}]
    path = Path(experiment_file(tmp_path, classes=classes))
    path.write_text(path.read_text().replace('"markov"', '"markov", "on_threshold": NaN'))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "on_threshold=nan is not a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_readme_names_each_model_familys_keys() -> None:
    # the table's rows: "| `family` | `key`, `key`: what they are |"
    text = README.read_text(encoding="utf-8")
    table = re.search(r"\| family \| keys \|\n\|---\|---\|\n((?:\|.*\n)+)", text)
    rows = [row.split("|")[1:3] for row in table.group(1).splitlines()]
    named = {family.strip(" `"): re.findall(r"`(\w+)`", keys) for family, keys in rows}
    assert named == {
        family: [field.name for field in dataclasses.fields(cls)]
        for family, cls in MODEL_CLASSES.items()
    }


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
    argv = ["bounds", "2x1@0.5", "--c-max", "1", "--out-dir", str(tmp_path)]
    proc = run_python(str(ROOT / "perfbench" / "probe.py"), "setup", "--", *argv)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs(capsys) -> None:
    argv = ["bounds", "2x1@0.5", "--c-max", "1"]
    proc = run_python("-m", "loadcap", *argv)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_process_entry_freezes_the_heap_before_the_command(monkeypatch) -> None:
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(process_entry, "main", lambda: calls.append("main") or 4)
    assert process_entry.run() == 4
    assert calls == ["freeze", "main"]


def test_importing_the_entry_freezes_nothing() -> None:
    # only run() freezes: importing the CLI or the entry module leaves gc as it was
    proc = run_python(
        "-c", "import gc, loadcap.cli, loadcap.__main__; print(gc.get_freeze_count())"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_importing_the_cli_loads_no_process_pool() -> None:
    # nothing in loadcap starts worker processes; a sweep runs in one process
    probe = (
        "import sys, loadcap.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def command_argv(command: str, tmp_path: Path) -> list[str]:
    """A small, successful argv for ``command``, its input files written under tmp_path."""
    trace_path = tmp_path / "trace.csv"
    write_trace(str(trace_path), TraceSeries(watts=np.array([0.0, 5.0, 5.0, 0.0]),
                                             sample_period_s=1.0))  # fmt: skip
    experiment = tmp_path / "run.json"
    experiment.write_text(json.dumps({
        "name": "run", "classes": [{"name": "heater", "count": 4,
                                    "model": {"family": "bernoulli", "on_power": 1.0,
                                              "p_on": 0.3}}],
        "policy": {"c_max": 3.0, "p": 0.1}, "method": "chernoff", "slots": 20,
    }))  # fmt: skip
    out = ["--out-dir", str(tmp_path / "out")]
    return {
        "bounds": ["bounds", "100x1@0.5", "--c-max", "60"],
        "region": ["region", "--class1", "2x1@0.5", "--class2", "2x1@0.2", "--c-max", "2",
                   "--p", "0.1", *out],
        "fit": ["fit", str(trace_path), "--family", "bernoulli", "--on-threshold", "1", *out],
        "simulate": ["simulate", str(experiment), *out],
    }[command]  # fmt: skip


@pytest.mark.parametrize(
    ("command", "loaded", "absent"),
    [
        ("bounds", {"loadcap.tailprob"},
         {"loadcap.simulation", "loadcap.scheduling", "loadcap.fileio", "csv", "json"}),
        ("region", {"loadcap.admission", "loadcap.fileio"},
         {"loadcap.simulation", "loadcap.scheduling"}),
        ("fit", {"loadcap.fileio"}, {"loadcap.simulation", "loadcap.scheduling"}),
        ("simulate", {"loadcap.simulation", "loadcap.scheduling"}, set()),
    ],
    ids=["bounds", "region", "fit", "simulate"],
)  # fmt: skip
def test_each_command_loads_only_the_layers_it_runs(command, loaded, absent, tmp_path) -> None:
    # a fresh interpreter runs one command, then lists what it imported
    argv = command_argv(command, tmp_path)
    watched = sorted(loaded | absent)
    probe = (
        "import contextlib, io, sys\n"
        "from loadcap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        f"print(code, sorted(m for m in {watched!r} if m in sys.modules))\n"
    )
    proc = run_python("-c", probe, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"0 {sorted(loaded)!r}\n"


def test_every_command_runs_on_numpy_alone(tmp_path) -> None:
    # the runtime dependency is numpy only: a fresh interpreter in which
    # scipy, hypothesis and pytest cannot be imported runs each command
    argvs = [command_argv(command, tmp_path) for command in ("bounds", "region", "fit", "simulate")]
    probe = (
        "import contextlib, io, json, sys\n"
        "for name in ('scipy', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "from loadcap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes)\n"
    )
    proc = run_python("-c", probe, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0]\n"


@pytest.mark.parametrize("command", ["bounds", "region", "fit", "simulate"])
def test_cli_main_in_process_never_freezes_the_heap(command, tmp_path, monkeypatch) -> None:
    def refuse() -> None:
        raise AssertionError("cli.main called gc.freeze")

    monkeypatch.setattr(gc, "freeze", refuse)
    assert main(command_argv(command, tmp_path)) == 0


def test_unknown_subcommand_exits_2() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
