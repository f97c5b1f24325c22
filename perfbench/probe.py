"""Child process of the benchmark; runs in a fresh interpreter.

``probe.py setup -- ARGV...``: import ``loadcap.cli`` and parse the
workload's input the way the CLI would (argv, then the experiment file with
any trace it fits, or the composition specs), with no computation.  The
parent times this from launch to exit as the set-up time.

``probe.py reference --``: a fixed computation that uses nothing of loadcap:
an interpreter start with ``import numpy``, a pure-Python loop over a
dict, scalar draws from a numpy generator and one dense ``np.convolve``.
The parent times it like the CLI and divides the CLI's times by it, so
that the host's drift in speed cancels.

``probe.py trace SPANS_JSON -- ARGV...``: run ``loadcap.cli.main`` in this
process with every public function wrapped by the span recorder, then write
the spans, notes and the time the write took to SPANS_JSON.
"""

from __future__ import annotations

import json
import re
import sys
import time


def setup(argv: list[str]) -> int:
    import loadcap.cli
    from loadcap import ApplianceClass, Bernoulli, ClassComposition
    from loadcap.fileio import parse_experiment

    args = loadcap.cli.build_parser().parse_args(argv)
    if args.command == "simulate":
        parse_experiment(args.experiment)
        return 0
    specs = args.composition if args.command == "bounds" else [args.class1, args.class2]
    entries = []
    for i, spec in enumerate(specs):
        count, watts, p_on = re.fullmatch(r"(\d+)x([^@]+)@(.+)", spec).groups()
        cls = ApplianceClass(
            name=f"c{i}", on_power=float(watts), model=Bernoulli(p_on=float(p_on)),
            count=int(count),
        )  # fmt: skip
        entries.append((cls, int(count)))
    ClassComposition(entries=tuple(entries))
    return 0


def reference() -> int:
    import numpy as np

    table: dict[int, int] = {}
    acc = 0
    for i in range(800_000):
        key = i % 97
        table[key] = table.get(key, 0) + (i * i) % 7
        acc += table[key]
    rng = np.random.default_rng(12345)
    draws = sum(rng.random() < 0.25 for _ in range(120_000))
    wide = np.convolve(np.full(40_000, 2.5e-5), np.full(16_000, 6.25e-5))
    # fixed inputs give a fixed answer; a wrong one means a broken interpreter
    return 0 if acc > 0 and 0 < draws < 120_000 and abs(wide.sum() - 1.0) < 1e-9 else 1


def trace(spans_path: str, argv: list[str]) -> int:
    import loadcap.cli
    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    if argv[0] == "simulate":
        argv = argv + ["--jobs", "1"]  # sweeps would otherwise trace no workers
    code = loadcap.cli.main(argv)
    start = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "notes": recorder.notes}, fh)
    dump_s = time.perf_counter() - start
    with open(spans_path + ".dump_s", "w", encoding="utf-8") as fh:
        fh.write(repr(dump_s))
    return code


def main() -> int:
    split = sys.argv.index("--")
    head, argv = sys.argv[1:split], sys.argv[split + 1 :]
    if head == ["reference"]:
        return reference()
    if head == ["setup"]:
        return setup(argv)
    if len(head) == 2 and head[0] == "trace":
        return trace(head[1], argv)
    print(f"usage: probe.py setup|reference|trace SPANS -- ARGV (got {head!r})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
