"""Helpers shared by the test modules."""

from __future__ import annotations

from loadcap.fileio import TRACE_HEADER
from loadcap.models import TraceSeries


def write_trace(path: str, trace: TraceSeries) -> None:
    """Write ``trace`` as a CSV file that ``read_trace`` reads back.

    The pinned header comes first, then one ``timestamp_s,power_w`` row per
    sample, timestamps counting from 0 at the sample period.
    """
    period = trace.sample_period_s
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        fh.writelines(f"{i * period!r},{w!r}\n" for i, w in enumerate(trace.watts.tolist()))
