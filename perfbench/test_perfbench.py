"""Tests of the benchmark itself: output checks, span arithmetic, preflight.

Run with ``python3 -m pytest perfbench`` (loadcap must be importable, e.g.
``PYTHONPATH=src``, for the recorder test).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import procs
import run
import spans
import workloads
from workloads import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))

GOOD_BOUNDS = "\n".join(
    [
        "method,estimate",
        f"exact,{workloads.EXPECTED['bounds_large_exact']!r}",
        "markov,0.9302325581395349",
        "chebyshev,0.061838134430727026",
        "hoeffding,0.13555805731513595",
        "bennett,0.00045471930366684256",
        "chernoff,0.0004012029447255853",
        "clt,2.893284758587893e-05",
    ]
)


# -- output checks -------------------------------------------------------------


def test_bounds_check_accepts_recorded_table(tmp_path) -> None:
    workloads.check_bounds(GOOD_BOUNDS, str(tmp_path))


def test_bounds_check_rejects_bound_below_exact(tmp_path) -> None:
    tampered = GOOD_BOUNDS.replace("chernoff,0.0004012029447255853", "chernoff,1e-05")
    with pytest.raises(CheckFailed, match="chernoff"):
        workloads.check_bounds(tampered, str(tmp_path))


def test_bounds_check_rejects_drifted_exact_and_missing_rows(tmp_path) -> None:
    exact = workloads.EXPECTED["bounds_large_exact"]
    drifted = GOOD_BOUNDS.replace(repr(exact), repr(exact * (1 + 1e-8)))
    with pytest.raises(CheckFailed, match="recorded"):
        workloads.check_bounds(drifted, str(tmp_path))
    with pytest.raises(CheckFailed, match="one row per method"):
        workloads.check_bounds(GOOD_BOUNDS.rsplit("\n", 1)[0], str(tmp_path))


def test_region_check_compares_bytes(tmp_path, monkeypatch) -> None:
    path = tmp_path / workloads.REGION_CSV
    path.write_text("n1,n2,accept\n0,0,true\n0,1,false\n", encoding="utf-8")
    monkeypatch.setitem(workloads.EXPECTED, "region_grid_sha256", workloads.file_sha256(path))
    workloads.check_region("", str(tmp_path))
    path.write_text("n1,n2,accept\n0,0,true\n0,1,true\n", encoding="utf-8")
    with pytest.raises(CheckFailed, match="differs"):
        workloads.check_region("", str(tmp_path))
    path.unlink()
    with pytest.raises(CheckFailed, match="no region.csv"):
        workloads.check_region("", str(tmp_path))


def _write_sweep(out_dir, edit=None) -> None:
    rows = []
    for p in workloads.SWEEP_P_VALUES:
        for i, method in enumerate(workloads.METHODS):
            enabled = 100 + i + int(1000 * p)
            p_hat = 0.5 * p
            rows.append([repr(p), method, enabled, repr(p_hat), repr(p_hat / p), "0.1"])
    if edit is not None:
        edit(rows)
    lines = ["p,method,enabled,p_hat,k,stderr"] + [",".join(map(str, r)) for r in rows]
    path = os.path.join(out_dir, f"{workloads.SWEEP_NAME}.sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_sweep_check_accepts_consistent_grid(tmp_path) -> None:
    _write_sweep(tmp_path)
    workloads.check_sweep("", str(tmp_path))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows.reverse(), "order"),
        (lambda rows: rows[-1].__setitem__(2, 281), "outside"),
        (lambda rows: rows[0].__setitem__(4, "0.7"), "p_hat/p"),
        # exact (row 0 of each p block) falls from p=1e-3 to p=1e-2
        (lambda rows: rows[7].__setitem__(2, 1), "falls as p rises"),
    ],
)
def test_sweep_check_rejects_tampered_grid(tmp_path, edit, message) -> None:
    _write_sweep(tmp_path, edit)
    with pytest.raises(CheckFailed, match=message):
        workloads.check_sweep("", str(tmp_path))


def _write_shift(out_dir, steps, depths=(0, 3, 1)) -> None:
    with open(os.path.join(out_dir, f"{workloads.SHIFT_NAME}.json"), "w") as fh:
        json.dump({"energy_steps": steps}, fh)
    lines = ["slot,served_w,dropped_w,backlog_depth,disabled_count"]
    lines += [f"{t},1.0,0.0,{d},{d}" for t, d in enumerate(depths)]
    with open(os.path.join(out_dir, f"{workloads.SHIFT_NAME}.outcomes.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_shift_check_accepts_balanced_ledger(tmp_path) -> None:
    _write_shift(tmp_path, {"demanded": 10, "served": 8, "dropped": 0, "backlog": 2})
    workloads.check_shift("", str(tmp_path))


@pytest.mark.parametrize(
    "steps, depths, message",
    [
        ({"demanded": 10, "served": 7, "dropped": 0, "backlog": 2}, (0,), "balance"),
        ({"demanded": 10, "served": 7, "dropped": 1, "backlog": 2}, (0,), "dropped"),
        (
            {"demanded": 10, "served": 10, "dropped": 0, "backlog": 0},
            (0, workloads.BACKLOG_CAP),
            "backlog peaked",
        ),
    ],
)
def test_shift_check_rejects_tampered_result(tmp_path, steps, depths, message) -> None:
    _write_shift(tmp_path, steps, depths)
    with pytest.raises(CheckFailed, match=message):
        workloads.check_shift("", str(tmp_path))


def test_inputs_depend_only_on_seed(tmp_path) -> None:
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    workloads.WORKLOADS["sweep-markov"].make_inputs(5, str(tmp_path / "a"))
    workloads.WORKLOADS["sweep-markov"].make_inputs(5, str(tmp_path / "b"))
    workloads.WORKLOADS["sweep-markov"].make_inputs(6, str(tmp_path / "c"))
    trace = workloads.TRACE_CSV
    assert (tmp_path / "a" / trace).read_bytes() == (tmp_path / "b" / trace).read_bytes()
    assert (tmp_path / "a" / trace).read_bytes() != (tmp_path / "c" / trace).read_bytes()
    lines = (tmp_path / "a" / trace).read_text().splitlines()
    assert lines[0] == "timestamp_s,power_w" and len(lines) == workloads.TRACE_SAMPLES + 1


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals() -> None:
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["a.y", 2.5, 3.5, 1],
        ["b", 5.0, 9.0, 0],
        ["b.x", 5.0, 9.0, 4],
        ["lone", 11.0, 12.5, -1],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0, 1.5])


def test_self_time_counts_overlapping_children_once() -> None:
    tree = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0], ["c3", 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_count_under_and_focus_share() -> None:
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["admission.decision_region", 0.0, 8.0, 0],
        ["tailprob.estimate", 1.0, 3.0, 1],
        ["tailprob.exact_pmf", 1.5, 2.5, 2],
        ["tailprob.estimate", 4.0, 5.0, 1],
        ["tailprob.estimate", 8.5, 9.0, 0],
    ]
    assert spans.count_under(tree, "tailprob.estimate", "admission.decision_region") == 2
    assert spans.count_under(tree, "tailprob.estimate", "cli.main") == 3
    assert spans.focus_share(tree, "tailprob") == pytest.approx(3.5 / 10.0)
    assert spans.focus_share(tree, "tailprob.exact_pmf") == pytest.approx(0.1)


def test_recorder_wraps_callers_that_imported_the_name(tmp_path) -> None:
    pytest.importorskip("loadcap")
    import loadcap.admission
    import loadcap.cli
    import loadcap.tailprob

    original = loadcap.tailprob.estimate
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert loadcap.admission.estimate is not original  # bound by from-import
        argv = ["region", "--class1", "3x1@0.5", "--class2", "2x2@0.2", "--c-max", "4",
                "--p", "0.2", "--out-dir", str(tmp_path)]
        assert loadcap.cli.main(argv) == 0
    finally:
        recorder.uninstall()
    assert loadcap.admission.estimate is original and loadcap.cli.estimate is original
    names = [s[0] for s in recorder.spans]
    assert names[0] == "cli.main" and recorder.spans[0][3] == -1
    metrics = spans.layer_metrics(recorder.spans, recorder.notes)
    assert metrics["admission.decision_region.calls"] == 1
    assert metrics["tailprob.estimate.calls"] == 4 * 3
    assert metrics["admission.decision_region.estimates_per_cell"] == 1.0
    # one exact_pmf per cell over a grid of 1 + n1*1 W + n2*2 W steps
    grid = sum(1 + n1 + 2 * n2 for n1 in range(4) for n2 in range(3))
    assert metrics["tailprob.exact_pmf.grid_points"] == grid
    for name, _, _, parent in recorder.spans:
        if name == "tailprob.exact_pmf":
            assert recorder.spans[parent][0] == "tailprob.estimate"


# -- harness -------------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond() -> None:
    assert procs.tail_percentile([1.0] * 39) is None
    pct, value = procs.tail_percentile([float(i) for i in range(1, 41)])
    assert pct == 75.0 and value == 30.0
    pct, value = procs.tail_percentile([float(i) for i in range(1, 101)])
    assert pct == 90.0 and value == 90.0


def test_drift_scaled_cancels_a_drift_in_host_speed() -> None:
    # the host slows to half speed and back; the CLI does 5 references' work
    refs = [1.0, 1.5, 2.0, 2.0, 1.2, 1.0]
    times = [5.0 * (a + b) / 2 for a, b in zip(refs, refs[1:])]
    assert run.drift_scaled(times, refs) == pytest.approx(5.0 * run.REFERENCE_S)
    slower = [t * 1.3 for t in times]  # a slower program shows in full
    slower[2] = None  # a failed round is left out, not counted as fast
    assert run.drift_scaled(slower, refs) == pytest.approx(5.0 * 1.3 * run.REFERENCE_S)


def test_reference_probe_checks_its_answer() -> None:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), "reference", "--"], timeout=120
    )
    assert done.returncode == 0


def test_run_child_reports_usage_and_timeout(tmp_path) -> None:
    kwargs = dict(env=dict(os.environ), cwd=str(tmp_path),
                  stdout_path=str(tmp_path / "o"), stderr_path=str(tmp_path / "e"))
    done = procs.run_child([sys.executable, "-c", "print('hi')"], timeout_s=30, **kwargs)
    assert done.returncode == 0 and not done.timed_out
    assert done.peak_rss_mb > 1.0 and (tmp_path / "o").read_text() == "hi\n"
    slow = procs.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                           timeout_s=0.5, **kwargs)
    assert slow.timed_out and slow.returncode != 0 and slow.wall_s < 10


def test_refuses_to_run_without_program_sources(tmp_path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
