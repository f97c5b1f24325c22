"""Child processes with their resource usage, and the statistics over them."""

from __future__ import annotations

import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(
    argv: list[str],
    *,
    env: dict[str, str],
    cwd: str,
    stdout_path: str,
    stderr_path: str,
    timeout_s: float,
) -> ChildRun:
    """Run one command to completion, timed from launch to exit.

    The child is reaped with ``wait4`` so that its own CPU time and peak
    resident size are read, not the running totals over all children.  A
    child still running after ``timeout_s`` is killed and reported as timed
    out.
    """
    lock = threading.Lock()
    reaped = False
    killed = False

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )

        def kill() -> None:
            nonlocal killed
            with lock:
                if not reaped:
                    killed = True
                    proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        with lock:
            reaped = True
        wall = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        timed_out=killed,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p90/p75 with at least ten samples beyond it.

    Returns (percentile, value), or None when the sample is too small.
    """
    n = len(values)
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0, 75.0):
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))  # nearest rank, 1-based
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def tree_bytes(root: str) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
