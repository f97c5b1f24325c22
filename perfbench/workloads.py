"""The four benchmark workloads: their inputs, command lines and output checks.

Each workload is built so that one layer of loadcap does most of its work
and the others use that layer little or differently, so a gain shows where
it is claimed and a cost that lands elsewhere shows too:

* ``bounds-large``: one dense ``exact_pmf`` convolution at large n
  (tail estimators, the kernel).  Sampling, the closed loop and I/O idle.
* ``region-grid``: the same tail layer through ~18k tiny calls from
  ``decision_region`` (per-call overhead and call count).
* ``sweep-markov``: a 3 p x 7 method QoS sweep where ``sample_series``
  dominates, plus a trace read and fit at parse time.
* ``slot-dynamic-shift``: the per-slot admission loop with one-step
  shifting, memoised estimates, a backlog and ~1 MB of output files.

Inputs come from ``--seed`` only; the first two workloads are fixed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

METHODS = ("exact", "markov", "chebyshev", "hoeffding", "bennett", "chernoff", "clt")
# The estimators that are upper bounds on the exact tail (clt is an estimate).
BOUND_METHODS = ("markov", "chebyshev", "hoeffding", "bennett", "chernoff")
# Methods whose estimate never falls as the enabled count rises, copied from
# loadcap.tailprob.MONOTONE_IN_COUNT: their sized count cannot fall as p rises.
MONOTONE_METHODS = ("exact", "markov", "hoeffding", "chernoff", "clt")

SWEEP_P_VALUES = (1e-3, 1e-2, 1e-1)
SWEEP_POPULATION = 60 + 200 + 20
TRACE_SAMPLES = 60_000
# Worst backlog the slot-dynamic workload may reach; typical runs peak near
# 140.  A backlog that does not drain is a failure, not a slower run.
BACKLOG_CAP = 1000

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str  # the reason for each workload is recorded in BENCHMARK.json
    # (input dir, out dir) -> CLI argv after the program name
    argv: Callable[[str, str], list[str]]
    # (seed, input dir) -> None; writes the input files
    make_inputs: Callable[[int, str], None]
    # (stdout text, out dir) -> None; raises CheckFailed
    check: Callable[[str, str], None]
    # span name, or module prefix, that should hold most of the traced time
    focus: str


# -- bounds-large ------------------------------------------------------------

BOUNDS_SPECS = ("8000x1@0.3", "8000x3@0.2", "8000x7@0.1", "8000x13@0.05")
BOUNDS_C_MAX = "19350"


def _bounds_argv(in_dir: str, out_dir: str) -> list[str]:
    return ["bounds", *BOUNDS_SPECS, "--c-max", BOUNDS_C_MAX, "--out-dir", out_dir]


def check_bounds(stdout: str, out_dir: str) -> None:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "method,estimate":
        raise CheckFailed(f"bounds: bad header {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != list(METHODS) or any(len(r) != 2 for r in rows):
        raise CheckFailed(f"bounds: expected one row per method, got {rows!r}")
    table = {name: float(value) for name, value in rows}
    exact = table["exact"]
    reference = EXPECTED["bounds_large_exact"]
    if not math.isclose(exact, reference, rel_tol=1e-9, abs_tol=0.0):
        raise CheckFailed(f"bounds: exact={exact!r}, recorded {reference!r}")
    for name in BOUND_METHODS:
        if not table[name] >= exact:
            raise CheckFailed(f"bounds: {name}={table[name]!r} below exact={exact!r}")


# -- region-grid ---------------------------------------------------------------

REGION_CSV = "region.csv"


def _region_argv(in_dir: str, out_dir: str) -> list[str]:
    return [
        "region", "--class1", "150x1@0.35", "--class2", "120x3@0.15",
        "--c-max", "80", "--p", "1e-3", "--method", "exact",
        "--out", REGION_CSV, "--out-dir", out_dir,
    ]  # fmt: skip


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def check_region(stdout: str, out_dir: str) -> None:
    path = os.path.join(out_dir, REGION_CSV)
    if not os.path.isfile(path):
        raise CheckFailed("region: no region.csv written")
    if file_sha256(path) != EXPECTED["region_grid_sha256"]:
        raise CheckFailed("region: region.csv differs from the recorded grid")


# -- sweep-markov --------------------------------------------------------------

SWEEP_NAME = "sweep"
TRACE_CSV = "renewal_trace.csv"


def write_renewal_trace(seed: int, path: str) -> None:
    """A 4 W on/off power trace with ON runs of 4-8 and OFF runs of 20-40 slots."""
    rng = random.Random(seed)
    rows = []
    on = rng.random() < 0.3
    while len(rows) < TRACE_SAMPLES:
        run = rng.randint(4, 8) if on else rng.randint(20, 40)
        for _ in range(run):
            watts = 4.0 + rng.gauss(0.0, 0.1) if on else abs(rng.gauss(0.0, 0.05))
            rows.append(watts)
        on = not on
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp_s,power_w\n")
        for i, watts in enumerate(rows[:TRACE_SAMPLES]):
            fh.write(f"{float(i)!r},{watts!r}\n")


def _make_sweep(seed: int, in_dir: str) -> None:
    write_renewal_trace(seed, os.path.join(in_dir, TRACE_CSV))
    doc = {
        "name": SWEEP_NAME,
        "classes": [
            {"name": "markov2", "count": 60,
             "model": {"family": "markov", "on_power": 2.0,
                       "p_off_to_on": 0.05, "p_on_to_off": 0.1}},
            {"name": "bern1", "count": 200,
             "model": {"family": "bernoulli", "on_power": 1.0, "p_on": 0.25}},
            {"name": "renewal4", "count": 20, "on_power": 4.0,
             "trace": TRACE_CSV, "family": "renewal", "on_threshold": 2.0},
        ],
        "policy": {"c_max": 70.0, "p": SWEEP_P_VALUES[0]},
        "methods": list(METHODS),
        "p_values": list(SWEEP_P_VALUES),
        "slots": 10_000,
        "seed": seed,
    }  # fmt: skip
    with open(os.path.join(in_dir, f"{SWEEP_NAME}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _sweep_argv(in_dir: str, out_dir: str) -> list[str]:
    return ["simulate", os.path.join(in_dir, f"{SWEEP_NAME}.json"), "--out-dir", out_dir]


def check_sweep(stdout: str, out_dir: str) -> None:
    path = os.path.join(out_dir, f"{SWEEP_NAME}.sweep.csv")
    if not os.path.isfile(path):
        raise CheckFailed("sweep: no sweep.csv written")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    order = [(p, m) for p in SWEEP_P_VALUES for m in METHODS]
    got = [(float(r["p"]), r["method"]) for r in rows]
    if got != order:
        raise CheckFailed(f"sweep: cells {got!r} not in (p, method) order")
    enabled: dict[tuple[float, str], int] = {}
    for row in rows:
        p, n = float(row["p"]), int(row["enabled"])
        if not 0 <= n <= SWEEP_POPULATION:
            raise CheckFailed(f"sweep: enabled={n} outside [0, {SWEEP_POPULATION}]")
        k, p_hat = float(row["k"]), float(row["p_hat"])
        if not math.isclose(k, p_hat / p, rel_tol=1e-12, abs_tol=1e-300):
            raise CheckFailed(f"sweep: k={k!r} is not p_hat/p={p_hat / p!r}")
        enabled[(p, row["method"])] = n
    for method in MONOTONE_METHODS:
        counts = [enabled[(p, method)] for p in SWEEP_P_VALUES]
        if counts != sorted(counts):
            raise CheckFailed(f"sweep: {method} enabled {counts} falls as p rises")


# -- slot-dynamic-shift --------------------------------------------------------

SHIFT_NAME = "shift"


def _make_shift(seed: int, in_dir: str) -> None:
    doc = {
        "name": SHIFT_NAME,
        "classes": [
            {"name": "pumps", "count": 120,
             "model": {"family": "renewal", "on_power": 1.0,
                       "on_durations": {"8": 0.5, "12": 0.5},
                       "off_durations": {"30": 0.5, "50": 0.5}}},
            {"name": "heaters", "count": 40,
             "model": {"family": "markov", "on_power": 3.0,
                       "p_off_to_on": 0.05, "p_on_to_off": 0.1}},
            {"name": "base", "count": 10, "shiftable": False,
             "model": {"family": "bernoulli", "on_power": 2.0, "p_on": 0.3}},
        ],
        "policy": {"c_max": 50.0, "p": 1e-3},
        "method": "exact",
        "mode": "slot_dynamic",
        "strategy": "one_step_shift",
        "slots": 20_000,
        "seed": seed,
    }  # fmt: skip
    with open(os.path.join(in_dir, f"{SHIFT_NAME}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _shift_argv(in_dir: str, out_dir: str) -> list[str]:
    return ["simulate", os.path.join(in_dir, f"{SHIFT_NAME}.json"), "--out-dir", out_dir]


def peak_backlog(outcomes_csv: str) -> int:
    with open(outcomes_csv, encoding="utf-8", newline="") as fh:
        return max((int(r["backlog_depth"]) for r in csv.DictReader(fh)), default=0)


def check_shift(stdout: str, out_dir: str) -> None:
    result = os.path.join(out_dir, f"{SHIFT_NAME}.json")
    outcomes = os.path.join(out_dir, f"{SHIFT_NAME}.outcomes.csv")
    if not (os.path.isfile(result) and os.path.isfile(outcomes)):
        raise CheckFailed("shift: result or outcomes file missing")
    with open(result, encoding="utf-8") as fh:
        steps = json.load(fh)["energy_steps"]
    if steps["demanded"] != steps["served"] + steps["dropped"] + steps["backlog"]:
        raise CheckFailed(f"shift: energy ledger does not balance: {steps!r}")
    if steps["dropped"] != 0:
        raise CheckFailed(f"shift: one_step_shift dropped {steps['dropped']} steps")
    peak = peak_backlog(outcomes)
    if peak >= BACKLOG_CAP:
        raise CheckFailed(f"shift: backlog peaked at {peak}, cap {BACKLOG_CAP}")


def _no_inputs(seed: int, in_dir: str) -> None:
    pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bounds-large",
            _bounds_argv, _no_inputs, check_bounds, "tailprob.exact_pmf",
        ),
        Workload(
            "region-grid",
            _region_argv, _no_inputs, check_region, "tailprob",
        ),
        Workload(
            "sweep-markov",
            _sweep_argv, _make_sweep, check_sweep, "models.sample_series",
        ),
        Workload(
            "slot-dynamic-shift",
            _shift_argv, _make_shift, check_shift, "simulation.run_slot_dynamic",
        ),
    )
}
