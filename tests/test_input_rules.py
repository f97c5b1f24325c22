"""The library's input rules: each public record and function refuses a value
of the wrong type or outside its range with a ValueError that names it.

The rules are the experiment file's: a bool is not a number, a float is not
a count, and a string is neither.  numpy integer and float scalars are
numbers.  ``ENTRY_POINTS`` lists, for every public entry point, a call that
takes wrong arguments by name and, for each argument, the name an error
message gives it and the wrong values it must refuse;
``test_input_rules_properties.py`` draws from the same table.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Callable

import numpy as np
import pytest

from loadcap.admission import QosPolicy, decision_region, max_admissible
from loadcap.models import (
    AlternatingRenewal,
    ApplianceClass,
    Bernoulli,
    DurationPmf,
    TraceSeries,
    TwoStateMarkov,
    fit_model,
    sample_series,
    stationary_stats,
)
from loadcap.scheduling import SchedulingStrategy
from loadcap.simulation import SimConfig, SimMode, run, run_slot_dynamic, sweep_qos
from loadcap.tailprob import ClassComposition, EstimationMethod, PowerPmf, estimate, exact_pmf

EXACT = EstimationMethod.EXACT
HEATER = ApplianceClass(name="h", on_power=2.0, model=Bernoulli(p_on=0.3), count=30)
PUMP = ApplianceClass(name="pump", on_power=1.0, model=TwoStateMarkov(0.1, 0.2), count=4)
POLICY = QosPolicy(c_max=24.0, p=0.01)
CONFIG = SimConfig(classes=(HEATER,), policy=POLICY, method=EXACT, slots=50, seed=1)
ONE_SLOT = DurationPmf.from_mapping({1: 1.0})
TRACE = TraceSeries(sample_period_s=1.0, watts=np.array([0.0, 5.0, 0.0, 5.0, 5.0, 0.0]))

# wrong for every number and every count, and those of them wrong where None is not
SOME_NUMBER = (True, False, np.bool_(True), "1", "0.3", [1.0], 1j, np.str_("2"))
NOT_NUMBERS = SOME_NUMBER + (None,)
COUNTS = NOT_NUMBERS + (2.0, np.float64(3.0), math.nan, math.inf, -math.inf, -1)
POSITIVE = NOT_NUMBERS + (0.0, -1.0, math.nan, math.inf, -math.inf, 10**400)
OPEN_UNIT = NOT_NUMBERS + (0.0, 1.0, -0.5, 1.5, math.nan, math.inf)
NON_NEGATIVE = NOT_NUMBERS + (-1.0, -1e-300, math.nan, math.inf, 10**400)
ANY_NUMBER = NOT_NUMBERS + (math.nan, 10**400)
RECORDS = (True, "h", None, 3, 2.5, {}, {"c_max": 24.0, "p": 0.01})
MEMBERS = ("exact", "drop", "composition", None, 0, True)


def _durations(duration: Any = 1, weight: Any = 1.0) -> DurationPmf:
    return DurationPmf(((duration, weight),))


def _appliance(**wrong: Any) -> ApplianceClass:
    fields = dict(name="h", on_power=2.0, model=Bernoulli(p_on=0.3), count=30, shiftable=True)
    return ApplianceClass(**{**fields, **wrong})


def _sim_config(**wrong: Any) -> SimConfig:
    fields = dict(classes=(HEATER,), policy=POLICY, method=EXACT, slots=50, seed=1)
    return SimConfig(**{**fields, **wrong})


def _composition(enabled: Any = 3, **wrong: Any) -> ClassComposition:
    return ClassComposition(entries=((HEATER, enabled),), **wrong)


def _sweep(p_value: Any = 0.01, method: Any = EXACT, **wrong: Any) -> list:
    """``sweep_qos`` over one p value and one method, each wrong in its list or not."""
    return sweep_qos(**{"config": CONFIG, "p_values": [p_value], "methods": [method], **wrong})


def _call(function: Callable, **defaults: Any) -> Callable[..., Any]:
    return lambda **wrong: function(**{**defaults, **wrong})


# entry point -> (call taking wrong arguments by name,
#                 {argument: (the name its message gives, wrong values)})
ENTRY_POINTS: dict[str, tuple[Callable[..., Any], dict[str, tuple[str, tuple]]]] = {
    "DurationPmf": (
        _durations,
        {
            "duration": ("duration", COUNTS + (0, 2**63)),
            "weight": ("probability of duration 1", NOT_NUMBERS + (0.0, -0.5, 1.5, math.nan)),
        },
    ),
    "Bernoulli": (
        _call(Bernoulli, p_on=0.3),
        {"p_on": ("p_on", NOT_NUMBERS + (-0.5, 1.5, math.nan, math.inf, -math.inf))},
    ),
    "TwoStateMarkov": (
        _call(TwoStateMarkov, p_off_to_on=0.1, p_on_to_off=0.2),
        {"p_off_to_on": ("p_off_to_on", OPEN_UNIT), "p_on_to_off": ("p_on_to_off", OPEN_UNIT)},
    ),
    "AlternatingRenewal": (
        _call(AlternatingRenewal, on_durations=ONE_SLOT, off_durations=ONE_SLOT),
        {
            "on_durations": ("on_durations", RECORDS + ({1: 1.0},)),
            "off_durations": ("off_durations", RECORDS + (((1, 1.0),),)),
        },
    ),
    "ApplianceClass": (
        _appliance,
        {
            "name": ("name", (None, 3, True, b"h")),
            "on_power": ("on_power", POSITIVE),
            "model": ("model", RECORDS + (ONE_SLOT,)),
            "count": ("count", COUNTS + (2**63,)),
            "shiftable": ("shiftable", ("no", "false", 0, 1, None, np.bool_(True))),
        },
    ),
    "TraceSeries": (
        _call(TraceSeries, sample_period_s=1.0, watts=np.ones(3)),
        {"sample_period_s": ("sample_period_s", POSITIVE)},
    ),
    "PowerPmf": (
        _call(PowerPmf, quantum=1.0, offset=0, probabilities=np.array([0.5, 0.5])),
        {"quantum": ("quantum", POSITIVE), "offset": ("offset", COUNTS + (2**63,))},
    ),
    "ClassComposition": (
        _composition,
        {
            "enabled": ("enabled count of 'h'", COUNTS + (31,)),
            "deterministic_load": ("deterministic_load", NON_NEGATIVE),
        },
    ),
    "QosPolicy": (
        _call(QosPolicy, c_max=24.0, p=0.01, c_sys=None),
        {
            "c_max": ("c_max", POSITIVE),
            "p": ("p", OPEN_UNIT),
            "c_sys": ("c_sys", SOME_NUMBER + (23.0, 0.0, math.nan, -math.inf)),
        },
    ),
    "SimConfig": (
        _sim_config,
        {
            "classes": ("classes", (None, 3, "h", HEATER)),
            "policy": ("policy", RECORDS),
            "method": ("method", MEMBERS),
            "strategy": ("strategy", ("drop", "one_step_shift", 0, True)),
            "mode": ("mode", ("composition", "slot_dynamic", 0, True)),
            "slots": ("slots", COUNTS + (0,)),
            "seed": ("seed", COUNTS),
            "quantum": ("quantum", POSITIVE),
            "deterministic_load": ("deterministic_load", NON_NEGATIVE),
        },
    ),
    "estimate": (
        _call(estimate, method=EXACT, composition=_composition(), c_max=24.0, quantum=1.0),
        {
            "method": ("method", MEMBERS),
            "composition": ("composition", RECORDS + (((HEATER, 3),),)),
            "c_max": ("c_max", ANY_NUMBER),
            "quantum": ("quantum", POSITIVE),
        },
    ),
    "exact_pmf": (
        _call(exact_pmf, composition=_composition(), quantum=1.0),
        {
            "composition": ("composition", RECORDS + (((HEATER, 3),),)),
            "quantum": ("quantum", POSITIVE),
        },
    ),
    "max_admissible": (
        _call(max_admissible, appliance_class=HEATER, policy=POLICY, method=EXACT, quantum=1.0),
        {
            "appliance_class": ("appliance_class", RECORDS),
            "policy": ("policy", RECORDS),
            "method": ("method", MEMBERS),
            "quantum": ("quantum", POSITIVE),
            "base": ("base", (True, "h", 3, {}, ((HEATER, 3),))),
        },
    ),
    "decision_region": (
        _call(decision_region, class1=HEATER, class2=PUMP, policy=POLICY, method=EXACT),
        {
            "class1": ("class1", RECORDS),
            "class2": ("class2", RECORDS),
            "policy": ("policy", RECORDS),
            "method": ("method", MEMBERS),
            "quantum": ("quantum", POSITIVE),
        },
    ),
    "run": (_call(run, config=CONFIG), {"config": ("config", RECORDS)}),
    "run_slot_dynamic": (
        _call(run_slot_dynamic, config=replace(CONFIG, mode=SimMode.SLOT_DYNAMIC)),
        {"config": ("config", RECORDS)},
    ),
    "sweep_qos": (
        _sweep,
        {
            "config": ("config", RECORDS),
            "p_values": ("p_values", (0.1, "0.1", None, {0.1}, np.array([0.1]))),
            "p_value": ("p_values[0]", OPEN_UNIT),
            "methods": ("methods", ("exact", EXACT, 1, {EXACT})),
            "method": ("methods[0]", MEMBERS),
        },
    ),
    "sample_series": (
        _call(sample_series, appliance=HEATER, slots=10, seed=1),
        {
            "appliance": ("appliance", RECORDS),
            "slots": ("slots", COUNTS + (0,)),
            "seed": ("seed", COUNTS),
        },
    ),
    "stationary_stats": (
        _call(stationary_stats, model=Bernoulli(p_on=0.3)),
        {"model": ("model", RECORDS + (ONE_SLOT, object()))},
    ),
    "fit_model": (
        _call(fit_model, trace=TRACE, family="markov", on_threshold=1.0),
        {"trace": ("trace", RECORDS + (np.ones(3),)), "on_threshold": ("on_threshold", ANY_NUMBER)},
    ),
}


def refusal(entry: str, wrong: dict[str, Any]) -> str:
    """The message of the ValueError ``entry`` raises on the ``wrong`` arguments."""
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as refused:  # anything else escapes and fails
        call(**wrong)
    return str(refused.value)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_refuses_each_wrong_value_by_name(entry: str) -> None:
    for argument, (label, values) in ENTRY_POINTS[entry][1].items():
        for value in values:
            message = refusal(entry, {argument: value})
            assert message.startswith(f"{label}="), (argument, value, message)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_takes_its_defaults(entry: str) -> None:
    ENTRY_POINTS[entry][0]()  # the table's wrong values are wrong one at a time


def test_the_misuses_that_used_to_pass_or_crash() -> None:
    cases = [
        (lambda: _appliance(count=True), "count=True must be an integer from 0 to 2**63 - 1"),
        (lambda: _appliance(count=2.0), "count=2.0 must be an integer from 0 to 2**63 - 1"),
        (lambda: _appliance(on_power="1"), "on_power='1' is not a number"),
        (lambda: _appliance(shiftable="no"), "shiftable='no' is not a bool"),
        (lambda: QosPolicy(c_max=True, p=0.01), "c_max=True is not a number"),
        (lambda: QosPolicy(c_max="24", p=0.01), "c_max='24' is not a number"),
        (lambda: Bernoulli(p_on="0.3"), "p_on='0.3' is not a number"),
        (lambda: TwoStateMarkov("0.1", 0.2), "p_off_to_on='0.1' is not a number"),
        (lambda: _sim_config(slots=True), "slots=True must be an integer from 1 to 2**63 - 1"),
        (lambda: _sim_config(slots=10.0), "slots=10.0 must be an integer from 1 to 2**63 - 1"),
        (
            lambda: _composition(True),
            "enabled count of 'h'=True must be an integer from 0 to 30",
        ),
        (lambda: sweep_qos(CONFIG, ["0.1"]), "p_values[0]='0.1' is not a number"),
        (
            lambda: max_admissible(HEATER, {"c_max": 24, "p": 0.01}, EXACT),
            "policy={'c_max': 24, 'p': 0.01} is not a QosPolicy",
        ),
        (lambda: estimate(EXACT, [(HEATER, 3)], 24.0), "composition=[(ApplianceClass("),
        (lambda: exact_pmf(_composition(), "1"), "quantum='1' is not a number"),
        (lambda: stationary_stats(object()), "model=<object object at"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value).startswith(message)


def test_numpy_scalars_stay_accepted() -> None:
    as_numpy = _appliance(on_power=np.float32(2.0), count=np.int64(30))
    assert as_numpy == HEATER
    assert type(as_numpy.on_power) is float and type(as_numpy.count) is int
    assert Bernoulli(p_on=np.float64(0.3)) == Bernoulli(p_on=0.3)
    assert _durations(np.uint8(1), np.float16(1.0)) == ONE_SLOT
    policy = QosPolicy(c_max=np.int32(24), p=np.float64(0.01))
    assert policy == POLICY and type(policy.c_max) is float
    config = _sim_config(slots=np.int16(50), seed=np.uint64(1), quantum=np.float64(1.0))
    assert config == CONFIG
    assert _composition(np.int8(3)).entries == _composition(3).entries
    comp = _composition()
    assert estimate(EXACT, comp, np.float64(24.0), np.float32(1.0)) == estimate(EXACT, comp, 24.0)
    sized = max_admissible(HEATER, POLICY, EXACT, np.float64(1.0))
    assert sized == max_admissible(HEATER, POLICY, EXACT)
    assert sweep_qos(CONFIG, [np.float64(0.01)])[0].enabled_counts == run(CONFIG).enabled_counts
    series = sample_series(HEATER, np.int64(10), np.int64(1))
    assert np.array_equal(series, sample_series(HEATER, 10, 1))


def test_a_run_past_the_simulator_budget_is_refused_before_it_starts() -> None:
    # slots x (1 + shiftable appliances) at most 2**25: the budget's edge
    # builds, one slot more is refused, and a non-shiftable appliance is
    # not counted
    budget = 2**25
    fixed = replace(PUMP, shiftable=False)
    slot_dynamic = dict(mode=SimMode.SLOT_DYNAMIC, strategy=SchedulingStrategy.DROP)
    at_edge = budget // 31
    assert _sim_config(slots=at_edge).slots == at_edge
    with pytest.raises(ValueError, match=r"^slots x \(1 \+ shiftable appliances\)="):
        _sim_config(slots=at_edge + 1)
    _sim_config(classes=(HEATER, fixed), slots=at_edge, **slot_dynamic)
    with pytest.raises(ValueError, match=f"must be an integer from 1 to {budget}"):
        _sim_config(slots=10**12)
    # the benchmark's largest runs sit far inside it
    assert 20_000 * (1 + 160) < budget and 10_000 * (1 + 280) < budget
