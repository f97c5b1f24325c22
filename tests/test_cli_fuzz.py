"""Fuzz gate for the command line: ``bounds``, ``region`` and ``simulate``
over arguments and experiment files drawn from an edge set of numbers.

Every run ends with exit 0, 2 (invalid input), 3 (I/O) or 4 (``--require``
unmet), never a traceback.  A run that exits 0 reports estimates in [0, 1],
bounds at or above the exact tail (within 1e-12, as the tail property tests
allow), and bound regions inside the exact one.
Region counts stay at most 12 and runs short, so the gate stays quick.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest

from loadcap.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
EXITS = {0, 2, 3, 4}
BOUNDS = ("markov", "chebyshev", "hoeffding", "bennett", "chernoff")
# zero, the least subnormal, a square past the float range, the largest
# finite float, the infinities, NaN, negatives, and wattages off a 1 W grid
EDGES = (0.0, 5e-324, 1e155, 1.7e308, float("inf"), float("-inf"), float("nan"), -1.0, -2.5)
COUNTS = (0, 1, 3, 12)


def numbers(usual: tuple) -> st.SearchStrategy:
    """One of ``usual`` or an edge; the usual values are listed several times
    so that a run with every number usual, which exits 0, is drawn often."""
    return st.sampled_from(usual * (2 * len(EDGES) // len(usual) + 1) + EDGES)


WATTS = numbers((1.0, 2.0, 3.0, 0.5, 1.5, 2.7))
P_ONS = numbers((0.05, 0.3, 0.5, 0.95, 1.0))  # ON probabilities
PS = numbers((1e-3, 0.01, 0.1, 0.5, 0.7))  # tolerated probabilities
LIMITS = numbers((1.0, 4.0, 10.0, 25.0))
QUANTA = numbers((1.0, 0.5, 0.3))
LOADS = numbers((0.0, 2.0))


def text(value: float) -> str:
    return repr(value)


def flag(name: str, value: float) -> str:
    """``--name=value``: a value such as -inf after a separate flag reads as an option."""
    return f"{name}={value!r}"


@st.composite
def specs(draw) -> str:
    count = draw(st.sampled_from(COUNTS * 3 + (2**63, 10**30)))
    return f"{count}x{text(draw(WATTS))}@{text(draw(P_ONS))}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXITS, (argv, code, err.getvalue())
    return code, out.getvalue()


@SETTINGS
@hypothesis.given(
    st.lists(specs(), min_size=1, max_size=3),
    LIMITS,
    st.one_of(st.none(), LOADS),
    st.one_of(st.none(), QUANTA),
    st.one_of(st.none(), PS),
)
def test_bounds_exits_cleanly_and_never_undercuts_exact(composition, c_max, det, quantum, require):
    argv = ["bounds", *composition, flag("--c-max", c_max)]
    for name, value in (("--det", det), ("--quantum-w", quantum), ("--require", require)):
        if value is not None:
            argv.append(flag(name, value))
    code, out = run_cli(argv)
    if code not in (0, 4):
        return
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    table = {method: float(value) for method, value in rows.items()}
    assert all(0.0 <= value <= 1.0 for value in table.values()), (argv, table)
    # within the rounding slack the tail property tests allow: chernoff's
    # all-ON limit exp(sum n ln p) can round one ulp below the exact product
    assert all(table[name] >= table["exact"] - 1e-12 for name in BOUNDS), (argv, table)


def accepted_cells(path: str) -> set[tuple[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {(r["n1"], r["n2"]) for r in csv.DictReader(fh) if r["accept"] == "true"}


@SETTINGS
@hypothesis.given(
    st.tuples(st.sampled_from(COUNTS), WATTS, P_ONS),
    st.tuples(st.sampled_from(COUNTS), WATTS, P_ONS),
    LIMITS,
    PS,
    st.one_of(st.none(), QUANTA),
    st.sampled_from(BOUNDS),
)
def test_region_exits_cleanly_and_bound_regions_lie_inside_exact(
    class1, class2, c_max, p, quantum, bound
):
    with tempfile.TemporaryDirectory() as out_dir:
        regions = {}
        for method in ("exact", bound):
            argv = ["region", "--class1", "{}x{!r}@{!r}".format(*class1),
                    "--class2", "{}x{!r}@{!r}".format(*class2), flag("--c-max", c_max),
                    flag("--p", p), "--method", method, "--out", f"{method}.csv",
                    "--out-dir", out_dir]  # fmt: skip
            if quantum is not None:
                argv.append(flag("--quantum-w", quantum))
            if run_cli(argv)[0] == 0:
                regions[method] = accepted_cells(os.path.join(out_dir, f"{method}.csv"))
        if len(regions) == 2:
            assert regions[bound] <= regions["exact"], (class1, class2, c_max, p, quantum)


@st.composite
def model_docs(draw) -> dict:
    family = draw(st.sampled_from(("bernoulli", "markov", "renewal")))
    doc = {"family": family, "on_power": draw(WATTS)}
    if family == "bernoulli":
        doc["p_on"] = draw(P_ONS)
    elif family == "markov":
        doc["p_off_to_on"] = draw(P_ONS)
        doc["p_on_to_off"] = draw(P_ONS)
    else:
        doc["on_durations"] = {"2": draw(st.sampled_from((1.0,) * 9 + EDGES))}
        doc["off_durations"] = {"3": 0.5, "5": 0.5}
    return doc


@st.composite
def experiments(draw) -> dict:
    classes = [
        {"name": f"c{i}", "count": draw(st.sampled_from(COUNTS * 3 + (2**63, -1, 2.0, True))),
         "model": draw(model_docs())}
        for i in range(draw(st.integers(1, 2)))
    ]  # fmt: skip
    doc = {
        "name": "fuzz",
        "classes": classes,
        "policy": {"c_max": draw(LIMITS), "p": draw(PS)},
        "slots": draw(st.sampled_from((1, 40) * 6 + (0, -1, 10**12, 2**63, 1.5, True))),
        "seed": draw(st.sampled_from((0, 7) * 4 + (-1, 2**64, 1.0))),
    }
    for key, values in (("quantum", QUANTA), ("deterministic_load", LOADS)):
        if draw(st.booleans()):
            doc[key] = draw(values)
    if draw(st.booleans()):
        doc["p_values"] = sorted(draw(st.lists(PS, min_size=1, max_size=2)))
        methods = st.sampled_from(("exact", "chernoff", "clt"))
        doc["methods"] = draw(st.lists(methods, min_size=1, max_size=3))
    else:
        doc["method"] = draw(st.sampled_from(("exact", "hoeffding", "clt")))
        if draw(st.booleans()):
            doc["mode"] = "slot_dynamic"
            doc["strategy"] = draw(st.sampled_from(("drop", "one_step_shift")))
    return doc


@hypothesis.settings(SETTINGS, max_examples=250)
@hypothesis.given(experiments())
def test_simulate_exits_cleanly_on_small_experiments(doc):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN and the infinities are written as the parser reads them
        code, _ = run_cli(["simulate", path, "--out-dir", os.path.join(work, "out")])
        if code != 0:
            return
        with open(os.path.join(work, "out", "fuzz.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        for cell in result.get("cells", [result]):
            assert cell["p_hat"] is None or 0.0 <= cell["p_hat"] <= 1.0, (doc, cell)
