"""File formats: traces, fitted models, pmfs, regions, results, experiments.

CSV output is locale-independent ('.' decimal, '\\n' line endings, UTF-8)
and JSON output is stable (sorted keys, no timestamps), so rerunning
a command with the same inputs and seed reproduces files byte for byte.
NaN is serialized as null.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import warnings
from array import array
from dataclasses import dataclass, fields
from enum import EnumMeta
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence, get_type_hints

import numpy as np

from .admission import QosPolicy
from .models import (
    MODEL_CLASSES,
    MODEL_FAMILIES,
    ApplianceClass,
    Bernoulli,
    DurationPmf,
    LoadModel,
    TraceSeries,
    fit_model,
)
from .tailprob import EstimationMethod, PowerPmf

if TYPE_CHECKING:  # the simulator loads only when an experiment file is parsed
    from .simulation import SimConfig, SimResult

__all__ = [
    "TRACE_HEADER",
    "ExperimentSpec",
    "read_trace",
    "read_model",
    "write_model",
    "write_pmf",
    "write_region",
    "write_series",
    "write_outcomes",
    "write_sweep",
    "write_result",
    "write_sweep_result",
    "parse_experiment",
]

TRACE_HEADER = ("timestamp_s", "power_w")


def _write_csv(path: str, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header, then ``lines`` as given, each ending in '\\n'.

    Every field loadcap writes is an int, a float repr or a fixed word,
    none holding a comma, quote or line break, so no field needs quoting.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def read_trace(path: str) -> TraceSeries:
    """Load a measured power trace from CSV.

    The header must be exactly ``timestamp_s,power_w``; every data row must
    hold two numbers.  Fields follow standard CSV quoting (a quote left open
    at the end of the file is a malformed row), a number may carry
    whitespace around it, blank lines are skipped (but counted in the row
    numbers of error messages), and ``#`` starts no comment.  Timestamps
    must be strictly increasing and evenly spaced: every gap must match the
    first one to within ``1e-9 * max(1, |t|)``.  The sample period is that
    first gap (1 s for single-row traces).

    numpy's C reader parses the usual file.  What it refuses (quotes,
    ``1_0``, a malformed row), a file whose gaps break the period, and one
    holding a character numpy would wrongly strip are read again by
    ``_read_trace_rows``, which accepts the same files, gives the same
    numbers and names the offending row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _check_trace_header(fh)
        table = None
        if not _holds_separator_controls(path):
            try:
                with warnings.catch_warnings():
                    # a header-only file is refused by _read_trace_rows below
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data", UserWarning
                    )
                    table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
    if table is not None and table.shape[0] > 0 and table.shape[1] == 2:
        period, bad = _check_gaps(table[:, 0])
        if bad is None:
            return TraceSeries(sample_period_s=period, watts=table[:, 1])
    return _read_trace_rows(path)


def _holds_separator_controls(path: str) -> bool:
    """Whether the file holds one of the ASCII separators U+001C..U+001F.

    numpy's reader strips them around a number as whitespace and float()
    does not, so only the csv reader may read such a file.  In UTF-8 these
    bytes stand for nothing else.  The file is read in 64 KiB blocks: one
    buffer the size of a 1.3 MB trace raised a later peak of the process's
    memory by about 1 MB.
    """
    with open(path, "rb") as raw:
        for block in iter(functools.partial(raw.read, 1 << 16), b""):
            if any(byte in block for byte in b"\x1c\x1d\x1e\x1f"):
                return True
    return False


def _check_trace_header(fh: Iterator[str]) -> None:
    """Consume the header record of a trace file; refuse it unless it is TRACE_HEADER."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise ValueError("empty trace file") from None
    if tuple(h.strip() for h in header) != TRACE_HEADER:
        raise ValueError(
            f"bad trace header {header!r}; expected {','.join(TRACE_HEADER)}"
        )


def _check_gaps(stamps: np.ndarray) -> tuple[float, int | None]:
    """The sample period, and the index of the first gap that breaks it or None.

    The period is the first gap (1.0 for one stamp).  Gap ``i`` lies between
    stamps ``i`` and ``i + 1``; it breaks the period when it is not positive
    or differs from the first gap by more than ``1e-9 * max(1, |t|)``.
    """
    gaps = np.diff(stamps)
    period = float(gaps[0]) if gaps.size else 1.0
    even = np.abs(gaps - period) <= 1e-9 * np.maximum(1.0, np.abs(stamps[1:]))
    bad = np.flatnonzero(~((gaps > 0.0) & even))  # NaN gaps fail both tests
    return period, (int(bad[0]) if bad.size else None)


def _read_trace_rows(path: str) -> TraceSeries:
    """``read_trace`` with the csv module, one row at a time.

    The reference parser: it reads every file ``read_trace`` accepts, to the
    same trace, and raises the message each refused file gets.
    """
    ended = False

    def lines() -> Iterator[str]:
        nonlocal ended
        yield from fh
        ended = True

    with open(path, "r", encoding="utf-8", newline="") as fh:
        _check_trace_header(fh)
        times: list[float] = []
        watts: list[float] = []
        row_numbers = array("q")  # record number of each data row, in 8 bytes
        for row_number, row in enumerate(csv.reader(lines()), start=2):
            if not row:
                continue
            try:
                # a record that ends only where the file does left a quote open
                if len(row) != 2 or ended:
                    raise ValueError
                times.append(float(row[0]))
                watts.append(float(row[1]))
            except ValueError:
                raise ValueError(f"malformed trace row {row_number}: {row!r}") from None
            row_numbers.append(row_number)
    if not watts:
        raise ValueError("trace has no data rows")
    period, bad = _check_gaps(np.array(times))
    if bad is not None:
        gap = times[bad + 1] - times[bad]
        row_number = row_numbers[bad + 1]  # the gap's later row
        problem = (
            "is not positive (non-increasing timestamps)"
            if not gap > 0.0
            else f"differs from the first gap {period!r} (uneven sampling)"
        )
        raise ValueError(f"trace row {row_number}: timestamp gap {gap!r} {problem}")
    return TraceSeries(sample_period_s=period, watts=np.array(watts))


def _require_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"unknown keys {unknown!r} in {where}")


_REQUIRED = object()
_FILE_NAME = "file name"  # a string usable as an output file name inside --out-dir
_SEPARATORS = {"/", os.sep, os.altsep} - {None}
_KINDS = {  # what a value of each kind must be, as error messages say it
    int: "a JSON integer",
    float: "a JSON number",
    bool: "true or false",
    str: "a JSON string",
    dict: "an object",
    list: "an array",
    _FILE_NAME: "a non-empty string with no path separator or '..'",
}


def _json(
    doc: Mapping[str, Any], key: str, where: str, kind: Any, default: Any = _REQUIRED
) -> Any:
    """``doc[key]`` checked against a kind; nothing is coerced.

    A kind is a key of ``_KINDS``, a tuple of the allowed strings, or an
    Enum class, whose member named by its value comes back.  ``where`` names
    ``doc`` in messages.  A missing key is an error unless a ``default`` is
    given, and a default of None also reads a null as absent.  A bool is
    never a number; a number comes back as a float.
    """
    if isinstance(kind, EnumMeta):
        value = _json(doc, key, where, tuple(member.value for member in kind), default)
        return None if value is None else kind(value)
    value = doc.get(key)
    if key not in doc or (value is None and default is None):
        if default is _REQUIRED:
            raise ValueError(f"missing {key!r} in {where}")
        return default
    if isinstance(kind, tuple):
        ok = value in kind
    elif kind is _FILE_NAME:
        ok = isinstance(value, str) and value != "" and ".." not in value
        ok = ok and not _SEPARATORS & set(value)
    elif isinstance(value, bool):
        ok = kind is bool
    else:
        ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        rule = _KINDS.get(kind) or "one of " + ", ".join(map(repr, kind))
        raise ValueError(f"{key!r} in {where} must be {rule}, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ValueError(f"{key!r} in {where} is too large for a float") from None


def _read_object(path: str, what: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object")
    return doc


def _model_fields(family: type) -> dict[str, type]:
    """A model class's field names and kinds (float or DurationPmf), in order."""
    kinds = get_type_hints(family)
    return {field.name: kinds[field.name] for field in fields(family)}


def write_model(path: str, model: LoadModel, on_power: float) -> None:
    """Persist a model as a flat JSON object: its family, ``on_power`` and fields."""
    doc: dict[str, Any] = {"family": model.family, "on_power": float(on_power)}
    for name, kind in _model_fields(type(model)).items():
        value = getattr(model, name)
        doc[name] = {str(d): p for d, p in value.entries} if kind is DurationPmf else value
    _write_json(path, doc)


def _model_from_doc(doc: Mapping[str, Any], where: str) -> tuple[LoadModel, float]:
    family = MODEL_CLASSES[_json(doc, "family", where, MODEL_FAMILIES)]
    on_power = _json(doc, "on_power", where, float)
    kinds = _model_fields(family)
    _require_keys(doc, {"family", "on_power", *kinds}, where)
    longest = DurationPmf.max_duration

    def pmf(key: str) -> DurationPmf:
        weights = _json(doc, key, where, dict)
        for k in weights:  # as write_model writes them, so no two keys name one duration
            digits = k.isascii() and k.isdigit() and k[0] != "0"
            if not (digits and len(k) <= len(str(longest)) and int(k) <= longest):
                raise ValueError(
                    f"duration {k!r} in {where}.{key} must be a whole number >= 1"
                    f" and <= {longest}, with no sign or leading zero"
                )
        return DurationPmf.from_mapping(
            {int(k): _json(weights, k, f"{where}.{key}", float) for k in weights}
        )

    read = {float: lambda key: _json(doc, key, where, float), DurationPmf: pmf}
    return family(**{name: read[kind](name) for name, kind in kinds.items()}), on_power


def read_model(path: str) -> tuple[LoadModel, float]:
    """Load a model JSON; returns the model and its ON wattage."""
    where = f"model file {path!r}"
    return _model_from_doc(_read_object(path, where), where)


def write_pmf(path: str, pmf: PowerPmf) -> None:
    rows = zip(pmf.support_watts.tolist(), pmf.probabilities.tolist())
    _write_csv(path, ("watts", "probability"), (f"{w!r},{p!r}\n" for w, p in rows))


def write_region(path: str, region: np.ndarray) -> None:
    words = ("false", "true")
    lines = (
        f"{n1},{n2},{words[ok]}\n"
        for n1, row in enumerate(region)
        for n2, ok in enumerate(row.tolist())
    )
    _write_csv(path, ("n1", "n2", "accept"), lines)


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float in ``values``, formatted once per distinct value.

    Values are told apart by their 64-bit patterns, so 0.0 and -0.0 keep
    their own reprs, and every NaN is 'nan' as ``repr`` writes it.  A
    slot-dynamic series holds few distinct values over many slots.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    words = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return words[inverse].tolist()


def write_series(path: str, result: SimResult) -> None:
    rows = zip(_reprs(result.series_baseline), _reprs(result.series_managed))
    _write_csv(
        path,
        ("slot", "baseline_w", "managed_w"),
        (f"{t},{base},{managed}\n" for t, (base, managed) in enumerate(rows)),
    )


def write_outcomes(path: str, result: SimResult) -> None:
    """A slot-dynamic run's dropped load, backlog depth and turned-away count per slot.

    A slot's served load is not repeated here: it is the series file's
    ``managed_w``.
    """
    outcomes = result.outcomes
    rows = zip(
        _reprs(outcomes["dropped_w"]),
        outcomes["backlog_depth"].tolist(),
        outcomes["disabled_count"].tolist(),
    )
    _write_csv(
        path,
        ("slot", "dropped_w", "backlog_depth", "disabled_count"),
        (
            f"{t},{dropped},{depth},{disabled}\n"
            for t, (dropped, depth, disabled) in enumerate(rows)
        ),
    )


_SWEEP_HEADER = ("p", "method", "enabled", "p_hat", "k", "stderr")


def _sweep_cell(c: SimResult) -> dict[str, Any]:
    """A sweep cell's fields: ``_SWEEP_HEADER``'s, then ``low_confidence``."""
    config = c.config
    values = (config.policy.p, config.method.value, sum(c.enabled_counts), c.p_hat, c.k, c.stderr)
    return {**dict(zip(_SWEEP_HEADER, values)), "low_confidence": c.low_confidence}


def _sweep_lines(cells: Sequence[SimResult]) -> Iterator[str]:
    for cell in map(_sweep_cell, cells):
        p, method, enabled, p_hat, k, stderr, _ = cell.values()
        yield f"{p!r},{method},{enabled},{p_hat!r},{k!r},{stderr!r}\n"


def write_sweep(path: str, cells: Sequence[SimResult]) -> None:
    _write_csv(path, _SWEEP_HEADER, _sweep_lines(cells))


def _sanitize(value: Any) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _write_json(path: str, doc: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(dict(doc)), fh, sort_keys=True, indent=2)
        fh.write("\n")


def result_document(name: str, result: SimResult) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": name,
        "p_hat": result.p_hat,
        "k": result.k,
        "stderr": result.stderr,
        "low_confidence": result.low_confidence,
        "lf_baseline": result.lf_baseline,
        "lf_managed": result.lf_managed,
        "enabled_counts": list(result.enabled_counts),
        "overload_slots": result.overload_slots,
        "slots": result.slots,
    }
    if result.ledger is not None:
        doc["energy_steps"] = {
            "demanded": result.ledger.demanded_steps,
            "served": result.ledger.served_steps,
            "dropped": result.ledger.dropped_steps,
            "backlog": result.ledger.backlog_steps,
        }
    return doc


def write_result(path: str, name: str, result: SimResult) -> None:
    _write_json(path, result_document(name, result))


def write_sweep_result(path: str, name: str, cells: Sequence[SimResult]) -> None:
    _write_json(path, {"name": name, "cells": [_sweep_cell(c) for c in cells]})


# the files each kind of run writes: output key -> default name suffix
_RUN_OUTPUTS = {
    "sweep": {"result_json": ".json", "sweep_csv": ".sweep.csv"},
    "composition": {"result_json": ".json", "series_csv": ".series.csv"},
    "slot_dynamic": {"result_json": ".json", "series_csv": ".series.csv",
                     "outcomes_csv": ".outcomes.csv"},
}  # fmt: skip


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed experiment file: a run config plus sweep axes and output names."""

    name: str
    config: SimConfig
    p_values: tuple[float, ...] | None
    methods: tuple[EstimationMethod, ...] | None
    outputs: dict[str, str]

    @property
    def is_sweep(self) -> bool:
        return self.p_values is not None

    @property
    def output_files(self) -> dict[str, str]:
        """Output key -> file name for every file the run writes, ``outputs`` applied."""
        kind = "sweep" if self.is_sweep else self.config.mode.value
        return {k: self.outputs.get(k, self.name + s) for k, s in _RUN_OUTPUTS[kind].items()}


_CLASS_KEYS = {
    "name",
    "on_power",
    "count",
    "shiftable",
    "deterministic",
    "model",
    "model_file",
    "trace",
    "family",
    "on_threshold",
}
_POLICY_KEYS = {"c_max", "p", "c_sys"}
_TOP_KEYS = {
    "name",
    "classes",
    "policy",
    "method",
    "methods",
    "p_values",
    "mode",
    "strategy",
    "slots",
    "seed",
    "quantum",
    "deterministic_load",
    "outputs",
}


def _parse_class(doc: Mapping[str, Any], where: str, base_dir: str) -> ApplianceClass:
    _require_keys(doc, _CLASS_KEYS, where)

    def read(key: str, kind: Any, default: Any = _REQUIRED) -> Any:
        return _json(doc, key, where, kind, default)

    name = read("name", str)
    count = read("count", int)
    shiftable = read("shiftable", bool, True)
    given = {
        "model": read("model", dict, None),
        "model_file": read("model_file", str, None),
        "trace": read("trace", str, None),
        "deterministic": read("deterministic", bool, False) or None,
    }
    sources = [key for key, value in given.items() if value is not None]
    if len(sources) != 1:
        raise ValueError(
            f"{where} needs exactly one of model, model_file, trace, "
            f"deterministic; got {sources!r}"
        )
    source = sources[0]
    stray = sorted({"family", "on_threshold"} & set(doc))
    if stray and source != "trace":
        raise ValueError(f"{stray!r} in {where} apply only to a class fitted from a trace")
    if source == "deterministic":  # no wattage of its own: on_power is required
        model: LoadModel = Bernoulli(p_on=1.0)
        source_power = read("on_power", float)
    elif source == "model":
        model, source_power = _model_from_doc(given["model"], f"{where}.model")
    elif source == "model_file":
        model, source_power = read_model(os.path.join(base_dir, given["model_file"]))
    else:
        family = read("family", MODEL_FAMILIES)
        trace = read_trace(os.path.join(base_dir, given["trace"]))
        fitted = fit_model(trace, family, read("on_threshold", float, 0.0))
        model, source_power = fitted.model, fitted.on_power
    on_power = read("on_power", float, None)  # absent or null: the source's wattage
    return ApplianceClass(
        name=name,
        on_power=source_power if on_power is None else on_power,
        model=model,
        count=count,
        shiftable=shiftable,
    )


def parse_experiment(path: str) -> ExperimentSpec:
    """Parse and validate an experiment file.

    Unknown keys are rejected at every level.  Referenced model and trace
    files are read during parsing, so a missing file fails here, not midway
    through a run.
    """
    from .scheduling import SchedulingStrategy
    from .simulation import SimConfig, SimMode, _sweep_axes

    doc = _read_object(path, "experiment file")
    _require_keys(doc, _TOP_KEYS, "experiment")

    def read(key: str, kind: Any, default: Any = _REQUIRED) -> Any:
        return _json(doc, key, "experiment", kind, default)

    def read_array(key: str, kind: Any) -> list[Any]:  # entry i is read as 'key[i]'
        entries = {f"{key}[{i}]": value for i, value in enumerate(read(key, list))}
        return [_json(entries, k, "experiment", kind) for k in entries]

    name = read("name", _FILE_NAME)
    policy_doc = read("policy", dict)
    _require_keys(policy_doc, _POLICY_KEYS, "policy")
    policy = QosPolicy(
        c_max=_json(policy_doc, "c_max", "policy", float),
        p=_json(policy_doc, "p", "policy", float),
        c_sys=_json(policy_doc, "c_sys", "policy", float, None),
    )
    base_dir = os.path.dirname(os.path.abspath(path))
    classes = tuple(
        _parse_class(c, f"classes[{i}]", base_dir)
        for i, c in enumerate(read_array("classes", dict))
    )

    # a single run reads 'method'; a sweep runs every entry of 'methods'
    sweep = "p_values" in doc
    unread, readers = ("method", "single runs") if sweep else ("methods", "sweeps (p_values)")
    if unread in doc:
        raise ValueError(f"{unread!r} applies only to {readers}")
    p_values = methods = None
    if sweep:
        p_values = read_array("p_values", float)
        methods = read_array("methods", EstimationMethod)
    outputs_doc = read("outputs", dict, {})
    outputs = {key: _json(outputs_doc, key, "outputs", _FILE_NAME) for key in outputs_doc}

    config = SimConfig(
        classes=classes,
        policy=policy,
        method=EstimationMethod.EXACT if sweep else read("method", EstimationMethod),
        strategy=read("strategy", SchedulingStrategy) if "strategy" in doc else None,
        slots=read("slots", int, 50_000),
        seed=read("seed", int, 0),
        mode=read("mode", SimMode, SimMode.COMPOSITION),
        quantum=read("quantum", float, 1.0),
        deterministic_load=read("deterministic_load", float, 0.0),
    )
    if sweep:
        p_values, methods = _sweep_axes(config, p_values, methods)
    spec = ExperimentSpec(
        name=name, config=config, p_values=p_values, methods=methods, outputs=outputs
    )
    unwritten = sorted(set(spec.outputs) - set(spec.output_files))
    if unwritten:
        raise ValueError(
            f"outputs names {', '.join(unwritten)}, which this run does not write; "
            f"it writes {', '.join(spec.output_files)}"
        )
    return spec
