"""End-to-end and per-layer benchmark of the loadcap CLI.

Run from anywhere; the checkout root is the parent of this directory:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  With ``--trace 0`` each
workload's CLI command runs as a subprocess, untraced, round after round
while another round fits in ``--seconds``, after one untimed warm-up.  Each
round is one CLI run, one set-up probe (a fresh interpreter that imports
``loadcap.cli`` and parses the input, no compute) and one reference probe
(a fixed computation that uses nothing of loadcap).  Every run's outputs are
checked.

The host's speed drifts by up to 1.8x over minutes, alike for every
process, so raw times of the same code taken minutes apart disagree by
more than any useful bound.  ``wall_s``, ``cpu_s`` and ``setup_s`` are
therefore medians over the rounds of the raw time divided by the mean time
of the two reference probes around it, times ``REFERENCE_S``: seconds on a
host where the reference takes ``REFERENCE_S``.  Nothing the program does
changes the reference, so a change to loadcap moves them as it moves the
raw times.  The raw medians are printed beside them.

With ``--trace 1`` untraced runs alternate with traced runs of the same
command in one process (``probe.py trace``), and the per-layer metrics come
from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  Lines before it give each timing's
sample count and tail percentile, ``fail_frac``, and a run manifest.  Inputs
and outputs live in a temporary directory under the checkout, removed on
exit.  Exits 2 without a result when the checkout has no loadcap sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from typing import Callable

import procs
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")

# One BLAS/OpenMP thread: with its default threads OpenBLAS spreads the
# bounds-large convolution over both cores and the run measures the scheduler.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PROBES = 5  # set-up and reference probes per run, also when rounds are few
# Reported times are scaled to a host where the reference probe takes this
# long; it took 0.55 to 0.9 s on the 2-vCPU x86_64 host the bounds were set on.
REFERENCE_S = 0.7
RUN_TIMEOUT_S = 45.0  # a typical run takes 2-5 s; a runaway backlog never ends
HARD_LIMIT_S = 170.0  # the whole benchmark run ends within 180 s


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "none" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """Digest of the package sources; identifies the code where .git is absent."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "loadcap")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def manifest(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **PINNED_ENV,
    }


class Runner:
    """One workload's inputs, runs and failure count inside a temporary dir."""

    def __init__(self, workload: workloads.Workload, seed: int, tmp: str, started: float):
        self.workload = workload
        self.tmp = tmp
        self.started = started
        self.in_dir = os.path.join(tmp, "in")
        os.makedirs(self.in_dir)
        workload.make_inputs(seed, self.in_dir)
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # warm-up leaves bytecode
        self.env.update(PINNED_ENV, PYTHONPATH=SRC, PYTHONHASHSEED="0", TMPDIR=tmp)
        self.attempted = 0
        self.failures: list[str] = []
        self._count = 0

    def _timeout(self) -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        return max(1.0, min(RUN_TIMEOUT_S, left))

    def _child(self, argv: list[str], tag: str) -> tuple[procs.ChildRun, str, str]:
        stdout = os.path.join(self.tmp, f"{tag}.stdout")
        stderr = os.path.join(self.tmp, f"{tag}.stderr")
        run = procs.run_child(
            [sys.executable, *argv], env=self.env, cwd=self.tmp,
            stdout_path=stdout, stderr_path=stderr, timeout_s=self._timeout(),
        )  # fmt: skip
        return run, stdout, stderr

    def _judge(
        self, tag: str, run: procs.ChildRun, stdout: str, stderr: str, out_dir: str
    ) -> bool:
        """Count one attempted run; check its outputs when it exited cleanly."""
        self.attempted += 1
        if run.timed_out:
            problem = f"timed out after {run.wall_s:.1f} s"
        elif run.returncode != 0:
            with open(stderr, encoding="utf-8", errors="replace") as fh:
                problem = f"exit {run.returncode}: {fh.read()[-400:].strip()}"
        else:
            with open(stdout, encoding="utf-8") as fh:
                text = fh.read()
            try:
                self.workload.check(text, out_dir)
                return True
            except workloads.CheckFailed as exc:
                problem = str(exc)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
        self.failures.append(f"{tag}: {problem}")
        return False

    def _next(self, kind: str) -> tuple[str, str]:
        self._count += 1
        tag = f"{kind}{self._count:04d}"  # fixed width: stdout echoes the path
        out_dir = os.path.join(self.tmp, tag)
        os.makedirs(out_dir)
        return tag, out_dir

    def cli(self) -> tuple[procs.ChildRun, int, bool]:
        """One untraced CLI run: (usage, bytes written incl. stdout, passed)."""
        tag, out_dir = self._next("run")
        argv = ["-m", "loadcap", *self.workload.argv(self.in_dir, out_dir)]
        run, stdout, stderr = self._child(argv, tag)
        ok = self._judge(tag, run, stdout, stderr, out_dir)
        written = procs.tree_bytes(out_dir) + os.path.getsize(stdout)
        shutil.rmtree(out_dir)
        return run, written, ok

    def _probe(self, kind: str, argv: list[str], out_dir: str) -> procs.ChildRun:
        run, _, stderr = self._child([os.path.join(HERE, "probe.py"), *argv], kind)
        shutil.rmtree(out_dir)
        if run.returncode != 0 or run.timed_out:
            with open(stderr, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"{kind} probe failed: {fh.read()[-400:]}")
        return run

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter importing loadcap.cli and parsing input."""
        tag, out_dir = self._next("setup")
        argv = ["setup", "--", *self.workload.argv(self.in_dir, out_dir)]
        return self._probe(tag, argv, out_dir).wall_s

    def reference_probe(self) -> procs.ChildRun:
        """Usage of the fixed reference computation in a fresh interpreter."""
        tag, out_dir = self._next("reference")
        return self._probe(tag, ["reference", "--"], out_dir)

    def traced(self) -> tuple[dict, float, bool]:
        """One traced in-process run: (layer metrics, wall minus span dump, passed)."""
        tag, out_dir = self._next("traced")
        spans_path = os.path.join(self.tmp, f"{tag}.spans.json")
        argv = [os.path.join(HERE, "probe.py"), "trace", spans_path, "--"]
        argv += self.workload.argv(self.in_dir, out_dir)
        run, stdout, stderr = self._child(argv, tag)
        ok = self._judge(tag, run, stdout, stderr, out_dir)
        metrics: dict = {}
        wall = run.wall_s
        if ok:
            with open(spans_path, encoding="utf-8") as fh:
                recorded = json.load(fh)
            with open(spans_path + ".dump_s", encoding="utf-8") as fh:
                wall -= float(fh.read())
            metrics = spans.layer_metrics(recorded["spans"], recorded["notes"])
            metrics["trace.focus_share"] = spans.focus_share(
                recorded["spans"], self.workload.focus
            )
            outcomes = os.path.join(out_dir, f"{workloads.SHIFT_NAME}.outcomes.csv")
            if os.path.isfile(outcomes):
                metrics["scheduling.peak_backlog"] = workloads.peak_backlog(outcomes)
        shutil.rmtree(out_dir)
        return metrics, wall, ok


def describe(name: str, values: list[float], unit: str) -> str:
    tail = procs.tail_percentile(values)
    tail_text = f"p{tail[0]:g}={tail[1]:.6g}" if tail else "no tail percentile (<10 beyond p75)"
    middle = statistics.median(values)
    return f"  {name:<14} {middle:.6g} {unit}  median of n={len(values)}, {tail_text}"


def drift_scaled(times: list[float | None], refs: list[float]) -> float:
    """Median over rounds of ``times[i]`` over the mean of ``refs[i]`` and
    ``refs[i + 1]``, the reference times just before and after round i,
    scaled to ``REFERENCE_S``.  A round whose time is None is skipped.
    """
    ratios = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:]) if t is not None]
    return statistics.median(ratios) * REFERENCE_S


def repeat_within(seconds: int, one_round: Callable[[], None]) -> None:
    """Run ``one_round`` once, then again while another round fits in ``seconds``."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def measure(runner: Runner, seconds: int, trace: bool) -> dict[str, float]:
    # untimed warm-up: compiles bytecode, caches the input files and numpy
    runner.setup_probe()
    runner.reference_probe()
    if trace:
        plain: list[float] = []
        traced_walls: list[float] = []
        per_run: list[dict] = []

        def traced_round() -> None:
            run, _, ok = runner.cli()
            if ok:
                plain.append(run.wall_s)
            metrics, wall, ok = runner.traced()
            if ok:
                traced_walls.append(wall)
                per_run.append(metrics)

        repeat_within(seconds, traced_round)
        out: dict[str, float] = {}
        for key in set().union(*per_run) if per_run else ():
            out[key] = statistics.median([m.get(key, 0.0) for m in per_run])
        if plain and traced_walls:
            out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
        print(f"  traced runs: {len(per_run)}, untraced runs: {len(plain)}")
        return out

    before = runner.reference_probe()  # opens the first round's bracket
    # (CLI run, or None if it failed; set-up time; reference run after them)
    rounds: list[tuple[procs.ChildRun | None, float, procs.ChildRun]] = []
    rss, written = [], []

    def timed_round() -> None:
        run, nbytes, ok = runner.cli()
        if ok:
            rss.append(run.peak_rss_mb)
            written.append(nbytes)
        rounds.append((run if ok else None, runner.setup_probe(), runner.reference_probe()))

    repeat_within(seconds, timed_round)
    while len(rounds) < MIN_PROBES:
        rounds.append((None, runner.setup_probe(), runner.reference_probe()))
    runs = [run for run, _, _ in rounds]
    if not any(runs):
        return {}
    refs = [before] + [ref for _, _, ref in rounds]
    ref_walls = [ref.wall_s for ref in refs]
    setups = [setup for _, setup, _ in rounds]
    for name, values in (
        ("reference_s", ref_walls[1:]), ("setup_s", setups),
        ("wall_s", [run.wall_s for run in runs if run]),
        ("cpu_s", [run.cpu_s for run in runs if run]),
    ):  # fmt: skip
        print(describe(name, values, "s") + " (raw)")
    out = {
        "wall_s": drift_scaled([run.wall_s if run else None for run in runs], ref_walls),
        "setup_s": drift_scaled(setups, ref_walls),
        "cpu_s": drift_scaled(
            [run.cpu_s if run else None for run in runs], [ref.cpu_s for ref in refs]
        ),
    }
    for name, value in out.items():
        print(f"  {name:<14} {value:.6g} s  median ratio to the reference, "
              f"scaled to a {REFERENCE_S:g} s reference")
    print(describe("peak_rss_mb", rss, "MB"))
    print(describe("output_bytes", written, "B"))
    out["peak_rss_mb"] = statistics.median(rss)
    out["output_bytes"] = statistics.median(written)
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    started = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"workload {name} (seed {seed}, {seconds} s, trace {int(trace)}): {why}")
    print("manifest " + json.dumps(manifest(name, seed, seconds, int(trace))))
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_PARENT)
    try:
        runner = Runner(workload, seed, tmp, started)
        measured = measure(runner, seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run still uses it
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    print(f"  fail_frac      {failed / runner.attempted:.6g} ratio  "
          f"({failed} failed of {runner.attempted} attempted runs)")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    if trace:
        for key, value in metrics.items():
            print(f"  {key:<52} {value['value']:.6g} {value['unit']}")
    return {
        "correct": failed == 0 and bool(measured),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: the running child is killed and
    # reaped and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "loadcap", "cli.py")):
        print(f"error: no loadcap sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    except Exception:
        traceback.print_exc()
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
