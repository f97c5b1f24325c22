"""Command-line front end.

Subcommands: bounds (tail estimates for a composition), simulate (run an
experiment file), region (two-class acceptance grid), fit (model from a
trace).  Exit codes: 0 success, 2 validation error, 3 I/O error, 4 when
`bounds --require` finds no method that certifies the requested QoS.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
from typing import Sequence

# Each command imports the file layer and the simulator inside its own
# function, so `bounds` starts without either and `region` and `fit` without
# the simulator.  A span recorder that rebinds a module's function is still
# seen there: the import reads the module attribute at call time.
from .admission import QosPolicy, _admits_estimate, decision_region
from .models import MODEL_FAMILIES, ApplianceClass, Bernoulli, _real, fit_model, stationary_stats
from .tailprob import ClassComposition, EstimationMethod, estimate, exact_pmf

__all__ = ["main"]

_EXIT_VALIDATION = 2
_EXIT_IO = 3
_EXIT_UNSATISFIABLE = 4

_SPEC_PATTERN = re.compile(r"^(\d+)x([^@]+)@(.+)$")


def _parse_composition_spec(specs: Sequence[str]) -> ClassComposition:
    """Build a composition from COUNTxWATTS@P_ON strings (e.g. 100x1@0.5)."""
    entries = []
    for i, spec in enumerate(specs):
        m = _SPEC_PATTERN.match(spec)
        if m is None:
            raise ValueError(
                f"bad composition spec {spec!r}; expected COUNTxWATTS@P_ON like 100x1@0.5"
            )
        count = int(m.group(1))
        watts = float(m.group(2))
        p_on = float(m.group(3))
        cls = ApplianceClass(
            name=f"c{i}", on_power=watts, model=Bernoulli(p_on=p_on), count=count
        )
        entries.append((cls, count))
    return ClassComposition(entries=tuple(entries))


def _parse_methods(raw: str) -> tuple[EstimationMethod, ...]:
    if raw.strip().lower() == "all":
        return tuple(EstimationMethod)
    names = [name.strip().lower() for name in raw.split(",")]
    allowed = tuple(method.value for method in EstimationMethod)
    for name in names:
        if name not in allowed:
            raise ValueError(
                f"--methods takes 'all' or a comma-separated list of "
                f"{', '.join(map(repr, allowed))}; got {name!r} in {raw!r}"
            )
    return tuple(map(EstimationMethod, names))


def _out_path(args: argparse.Namespace, filename: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, filename)


def _cmd_bounds(args: argparse.Namespace) -> int:
    for flag, value in (("--c-max", args.c_max), ("--require", args.require)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value!r}")
    # estimate refuses it too, but this message names the flag, and bounds
    # refuses it before it runs any estimate or writes the dump
    _real("--quantum-w", args.quantum_w, 0.0)
    composition = ClassComposition(
        entries=_parse_composition_spec(args.composition).entries,
        deterministic_load=args.det,
    )
    methods = _parse_methods(args.methods)
    values = [estimate(method, composition, args.c_max, args.quantum_w) for method in methods]
    if args.dump_pmf is not None:
        from .fileio import write_pmf

        write_pmf(_out_path(args, args.dump_pmf), exact_pmf(composition, args.quantum_w))
    # the table appears only once every estimate and the dump have succeeded
    print("method,estimate")
    for method, value in zip(methods, values):
        print(f"{method.value},{value!r}")
    if args.require is not None and not any(
        _admits_estimate(value, args.require) for value in values
    ):
        print(
            f"no method certifies p <= {args.require!r}; "
            f"best estimate is {min(values)!r}",
            file=sys.stderr,
        )
        return _EXIT_UNSATISFIABLE
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .fileio import (
        _SWEEP_HEADER,
        _sweep_lines,
        parse_experiment,
        write_outcomes,
        write_result,
        write_series,
        write_sweep,
        write_sweep_result,
    )
    from .simulation import run, sweep_qos

    spec = parse_experiment(args.experiment)
    config = spec.config
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    paths = {key: os.path.join(args.out_dir, name) for key, name in spec.output_files.items()}
    claimed = {os.path.realpath(args.experiment): "the experiment file"}
    for key, path in paths.items():
        real = os.path.realpath(path)
        if real in claimed:
            raise ValueError(
                f"output {key} {path} would overwrite {claimed[real]}; "
                "pass another --out-dir or rename it under outputs"
            )
        claimed[real] = f"output {key}"
    # the out dir appears only once there is something to write into it
    if spec.is_sweep:
        cells = sweep_qos(config, spec.p_values, spec.methods)
        os.makedirs(args.out_dir, exist_ok=True)
        write_sweep(paths["sweep_csv"], cells)
        write_sweep_result(paths["result_json"], spec.name, cells)
        print(*_SWEEP_HEADER, sep=",")
        sys.stdout.writelines(_sweep_lines(cells))
        return 0
    result = run(config)
    os.makedirs(args.out_dir, exist_ok=True)
    write_result(paths["result_json"], spec.name, result)
    write_series(paths["series_csv"], result)
    if result.outcomes is not None:
        write_outcomes(paths["outcomes_csv"], result)
    print(f"p_hat={result.p_hat!r} k={result.k!r} stderr={result.stderr!r}")
    print(f"lf_baseline={result.lf_baseline!r} lf_managed={result.lf_managed!r}")
    print(f"enabled={','.join(str(n) for n in result.enabled_counts)}")
    if result.low_confidence:
        print(
            "warning: expected violation count below 10; k is low-confidence",
            file=sys.stderr,
        )
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    from .fileio import write_region

    _real("--quantum-w", args.quantum_w, 0.0)
    comp = _parse_composition_spec([args.class1, args.class2])
    (class1, _), (class2, _) = comp.entries
    policy = QosPolicy(c_max=args.c_max, p=args.p)
    method = EstimationMethod(args.method)
    region = decision_region(class1, class2, policy, method, args.quantum_w)
    out = _out_path(args, args.out)
    write_region(out, region)
    accepted = int(region.sum())
    print(f"wrote {out}: {accepted} of {region.size} cells accepted")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .fileio import read_trace, write_model

    trace = read_trace(args.trace)
    fitted = fit_model(trace, args.family, args.on_threshold)
    out = _out_path(args, args.out)
    write_model(out, fitted.model, fitted.on_power)
    stats = stationary_stats(fitted.model)
    print(f"wrote {out}")
    print(
        f"p_on={stats.p_on!r} mean_on_run={stats.mean_on_run!r} "
        f"mean_off_run={stats.mean_off_run!r} on_power={fitted.on_power!r}"
    )
    return 0


def _add_common(parser: argparse.ArgumentParser, quantum_w: bool = False) -> None:
    if quantum_w:  # simulate takes the grid step from the experiment file
        parser.add_argument(
            "--quantum-w", type=float, default=1.0, help="power grid step in watts"
        )
    parser.add_argument(
        "--out-dir", default=".", help="directory for output files"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadcap",
        description="Probabilistic admission control for stochastic appliance loads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser(
        "bounds", help="tail estimates of a composition under every method"
    )
    _add_common(bounds, quantum_w=True)
    bounds.add_argument(
        "composition", nargs="+", help="class specs, COUNTxWATTS@P_ON (e.g. 100x1@0.5)"
    )
    bounds.add_argument("--c-max", type=float, required=True, help="consumption ceiling")
    bounds.add_argument(
        "--det", type=float, default=0.0, help="constant base load in watts"
    )
    bounds.add_argument(
        "--methods", default="all", help="comma-separated method names, or 'all'"
    )
    bounds.add_argument(
        "--dump-pmf", default=None, metavar="FILE", help="also write the exact pmf CSV"
    )
    bounds.add_argument(
        "--require",
        type=float,
        default=None,
        metavar="P",
        help="exit 4 unless some method's estimate is <= P",
    )
    bounds.set_defaults(func=_cmd_bounds)

    simulate = sub.add_parser("simulate", help="run an experiment file")
    _add_common(simulate)
    simulate.add_argument(
        "--seed", type=int, default=None, help="base RNG seed; default keeps the file's"
    )
    # a sweep runs in one process; perfbench/probe.py still passes --jobs 1
    # to every traced simulate command, so that value alone is accepted
    simulate.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
    simulate.add_argument("experiment", help="experiment JSON path")
    simulate.set_defaults(func=_cmd_simulate)

    region = sub.add_parser("region", help="two-class acceptance grid CSV")
    _add_common(region, quantum_w=True)
    region.add_argument("--class1", required=True, help="COUNTxWATTS@P_ON")
    region.add_argument("--class2", required=True, help="COUNTxWATTS@P_ON")
    region.add_argument("--c-max", type=float, required=True)
    region.add_argument("--p", type=float, required=True, help="QoS probability")
    region.add_argument(
        "--method",
        default="exact",
        choices=[m.value for m in EstimationMethod],
    )
    region.add_argument("--out", default="region.csv", help="output CSV name")
    region.set_defaults(func=_cmd_region)

    fit = sub.add_parser("fit", help="fit a load model to a trace CSV")
    _add_common(fit)
    fit.add_argument("trace", help="trace CSV path")
    fit.add_argument("--family", required=True, choices=MODEL_FAMILIES)
    fit.add_argument(
        "--on-threshold",
        type=float,
        required=True,
        help="watts above which a sample counts as ON",
    )
    fit.add_argument("--out", default="model.json", help="output model JSON name")
    fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
