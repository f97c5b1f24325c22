"""Write ``tests/answers.json``: admission answers that a refactor must keep.

The corpus holds, for small fixed inputs:

* ``sizing``: ``max_admissible`` of one class of each model family, at two
  counts and two ON wattages, under every method, at five values of p and
  two grid quanta, with the ``estimate`` at the sized count;
* ``regions``: the sha256 of ``decision_region`` for three two-class pairs
  under every method;
* ``runs``: enabled counts and ``overload_slots`` of small composition,
  sweep and slot-dynamic runs at seeds 1 and 2 (and the energy ledger of
  the slot-dynamic ones).

``tests/test_answers.py`` recomputes every row with ``compute`` and
compares it with the file.  Regenerate the file only for a declared change
of answers, and quote how many rows moved:

    PYTHONPATH=src python tests/make_answers.py
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Any

from loadcap.admission import QosPolicy, decision_region, max_admissible
from loadcap.models import (
    AlternatingRenewal,
    ApplianceClass,
    Bernoulli,
    DurationPmf,
    TwoStateMarkov,
)
from loadcap.scheduling import SchedulingStrategy
from loadcap.simulation import SimConfig, SimMode, run, sweep_qos
from loadcap.tailprob import ClassComposition, EstimationMethod, estimate

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")

MODELS = {
    "bernoulli": Bernoulli(p_on=0.3),
    "markov": TwoStateMarkov(p_off_to_on=0.1, p_on_to_off=0.2),
    "renewal": AlternatingRenewal(
        on_durations=DurationPmf.from_mapping({2: 0.5, 5: 0.5}),
        off_durations=DurationPmf.from_mapping({4: 0.3, 9: 0.7}),
    ),
}
COUNTS = (12, 40)
WATTS = (1.0, 3.0)  # on both grids below; 3 W is a stride of 3 or 6 steps
P_VALUES = (1e-4, 1e-3, 1e-2, 0.1, 0.6)  # 0.6 takes clt's scan path
QUANTA = (1.0, 0.5)
SEEDS = (1, 2)


def _cls(name: str, family: str, on_power: float, count: int, shiftable: bool = True):
    return ApplianceClass(
        name=name, on_power=on_power, model=MODELS[family], count=count, shiftable=shiftable
    )


def _sizing() -> list[dict[str, Any]]:
    rows = []
    for family in MODELS:
        for count in COUNTS:
            for watts in WATTS:
                cls = _cls(family, family, watts, count)
                c_max = 0.5 * count * watts + 0.25  # off every grid point
                for method in EstimationMethod:
                    for p in P_VALUES:
                        for quantum in QUANTA:
                            policy = QosPolicy(c_max=c_max, p=p)
                            sized = max_admissible(cls, policy, method, quantum)
                            comp = ClassComposition(entries=((cls, sized),))
                            rows.append({
                                "family": family, "count": count, "on_power": watts,
                                "method": method.value, "p": p, "quantum": quantum,
                                "c_max": c_max, "sized": sized,
                                "estimate": estimate(method, comp, c_max, quantum),
                            })  # fmt: skip
    return rows


REGION_PAIRS = (
    # (class1, class2, c_max, p)
    (("a", "bernoulli", 1.0, 10), ("b", "bernoulli", 3.0, 6), 8.0, 0.03),
    (("m", "markov", 2.0, 8), ("r", "renewal", 1.0, 14), 11.5, 0.01),
    (("x", "renewal", 3.0, 7), ("y", "markov", 3.0, 9), 20.0, 0.05),
)


def _regions() -> list[dict[str, Any]]:
    rows = []
    for spec1, spec2, c_max, p in REGION_PAIRS:
        class1, class2 = _cls(*spec1), _cls(*spec2)
        policy = QosPolicy(c_max=c_max, p=p)
        for method in EstimationMethod:
            region = decision_region(class1, class2, policy, method)
            digest = hashlib.sha256(region.astype("u1").tobytes()).hexdigest()
            rows.append({
                "class1": spec1[0], "class2": spec2[0], "method": method.value,
                "shape": list(region.shape), "accepted": int(region.sum()), "sha256": digest,
            })  # fmt: skip
    return rows


def _configs(seed: int) -> dict[str, SimConfig]:
    mixed = (
        _cls("bern", "bernoulli", 1.0, 30),
        _cls("markov", "markov", 2.0, 12),
        _cls("renewal", "renewal", 3.0, 6),
    )
    composition = SimConfig(
        classes=mixed, policy=QosPolicy(c_max=16.0, p=0.01), method=EstimationMethod.EXACT,
        slots=1500, seed=seed, deterministic_load=2.0,
    )  # fmt: skip
    fixed = _cls("fixed", "bernoulli", 2.0, 4, shiftable=False)
    dynamic = dict(mode=SimMode.SLOT_DYNAMIC, slots=1500, seed=seed)
    return {
        "composition": composition,
        "composition-chernoff-half-grid": replace(
            composition, method=EstimationMethod.CHERNOFF, quantum=0.5
        ),
        "shift-two-classes": SimConfig(
            classes=(mixed[0], fixed, mixed[2]), policy=QosPolicy(c_max=22.0, p=1e-3),
            method=EstimationMethod.EXACT, strategy=SchedulingStrategy.ONE_STEP_SHIFT,
            **dynamic,
        ),  # fmt: skip
        "drop-three-classes": SimConfig(
            classes=(*mixed, fixed), policy=QosPolicy(c_max=30.0, p=0.01),
            method=EstimationMethod.HOEFFDING, strategy=SchedulingStrategy.DROP, **dynamic,
        ),  # fmt: skip
        "shift-clt-above-half": SimConfig(
            classes=mixed[:2], policy=QosPolicy(c_max=18.0, p=0.6),
            method=EstimationMethod.CLT, strategy=SchedulingStrategy.ONE_STEP_SHIFT,
            **dynamic,
        ),  # fmt: skip
    }


def _run_row(name: str, seed: int, result) -> dict[str, Any]:
    row = {
        "run": name, "seed": seed, "p": result.config.policy.p,
        "method": result.config.method.value, "enabled_counts": list(result.enabled_counts),
        "overload_slots": result.overload_slots,
    }  # fmt: skip
    if result.ledger is not None:
        ledger = result.ledger
        row["ledger"] = [
            ledger.demanded_steps, ledger.served_steps, ledger.dropped_steps, ledger.backlog_steps
        ]
    return row


def _runs() -> list[dict[str, Any]]:
    rows = []
    for seed in SEEDS:
        configs = _configs(seed)
        for name, config in configs.items():
            rows.append(_run_row(name, seed, run(config)))
        for cell in sweep_qos(configs["composition"], (1e-3, 1e-2, 0.1)):
            rows.append(_run_row("sweep", seed, cell))
    return rows


def compute() -> dict[str, list[dict[str, Any]]]:
    return {"sizing": _sizing(), "regions": _regions(), "runs": _runs()}


def write(answers: dict[str, list[dict[str, Any]]]) -> None:
    """The corpus as JSON with one row per line, so a diff counts moved rows."""
    sections = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
        + "\n]"
        for name, rows in sorted(answers.items())
    ]
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    write(compute())
    print(f"wrote {PATH}")
