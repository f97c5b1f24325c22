"""Property checks of the trace reader.

``read_trace`` parses with numpy's C reader and hands every file that
reader refuses to ``_read_trace_rows``, the csv-module reader.  For any
file, both must give what ``reference_read_trace`` gives: the csv reader as
it stood before the numpy path, kept here whole so a change to a helper the
two share cannot move the reference with it.
"""

from __future__ import annotations

import csv
import re
from array import array

import numpy as np
import pytest

import loadcap.fileio
from loadcap.fileio import TRACE_HEADER, _read_trace_rows, read_trace
from loadcap.models import TraceSeries

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference_read_trace(path: str) -> TraceSeries:
    """``read_trace`` as it stood before, with the csv module alone.

    It accepts one kind of file ``read_trace`` now refuses, a quote left
    open at the end of the file; ``trace_files`` writes none.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty trace file") from None
        if tuple(h.strip() for h in header) != TRACE_HEADER:
            raise ValueError(
                f"bad trace header {header!r}; expected {','.join(TRACE_HEADER)}"
            )
        times: list[float] = []
        watts: list[float] = []
        row_numbers = array("q")
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 2:
                    raise ValueError
                times.append(float(row[0]))
                watts.append(float(row[1]))
            except ValueError:
                raise ValueError(f"malformed trace row {row_number}: {row!r}") from None
            row_numbers.append(row_number)
    if not watts:
        raise ValueError("trace has no data rows")
    stamps = np.array(times)
    gaps = np.diff(stamps)
    period = float(gaps[0]) if gaps.size else 1.0
    even = np.abs(gaps - period) <= 1e-9 * np.maximum(1.0, np.abs(stamps[1:]))
    bad = np.flatnonzero(~((gaps > 0.0) & even))
    if bad.size:
        i = int(bad[0])
        gap = float(gaps[i])
        row_number = row_numbers[i + 1]
        problem = (
            "is not positive (non-increasing timestamps)"
            if not gap > 0.0
            else f"differs from the first gap {period!r} (uneven sampling)"
        )
        raise ValueError(f"trace row {row_number}: timestamp gap {gap!r} {problem}")
    return TraceSeries(sample_period_s=period, watts=np.array(watts))


def outcome(reader, path: str) -> tuple:
    """A reader's result, comparable with ``==``: the period and the watts'
    bytes, or the ValueError message."""
    try:
        trace = reader(path)
    except ValueError as exc:
        return ("refused", str(exc))
    return ("read", trace.sample_period_s, trace.watts.tobytes())


# padding around a field
SPACES = ("", "", "", " ", "\t", "  ", " \t")
# every other character str.isspace() knows but line iteration does not split at
WHITESPACE = tuple(c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\r\n \t")
ENDINGS = ("\n", "\r\n", "\r")
# lines the csv reader refuses: whitespace-only, and a '#' that starts no comment
FILLERS = (" ", "\t", "#", "# 0,1")


def respell(value: float, spelling: str) -> str:
    """``value`` as a field in a spelling other than its repr: the csv
    reader takes the first six, neither reader takes the last two."""
    text = repr(value)
    if spelling == "17g":
        return f"{value:.17g}"
    if spelling == "e":
        return f"{value:e}"
    if spelling == "int" and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    if spelling == "quoted":
        return f'" {text}"'
    if spelling == "underscore":  # between the first two adjacent digits
        return re.sub(r"(?<=\d)(?=\d)", "_", text, count=1)
    if spelling == "arabic":  # Arabic-Indic digits
        return text.translate({ord("0") + d: 0x660 + d for d in range(10)})
    if spelling == "hex":
        return value.hex()
    if spelling == "d":
        return text.replace("e", "d") if "e" in text else text + "d0"
    return text


SPELLINGS = ("17g", "e", "int", "quoted", "underscore", "arabic", "hex", "d")
SHAPES = ("extra", "empty-column", "single", "hash", "empties", "spaces")
HEADERS = (" timestamp_s ,\tpower_w", '"timestamp_s","power_w"', "time,watts")
# what may be odd about a file; most files get none and some two
ODDITIES = ("none",) * 5 + ("header", "empty", "gap", "reading", "spelling", "spelling")
ODDITIES += ("space", "space", "shape", "line")


@st.composite
def trace_files(draw) -> str:
    """A trace file's text.  A header, then one row per stamp with spaces
    and tabs around its fields, blank lines between rows and each line with
    its own ending.  An oddity is another header, a zero, negative or uneven
    gap, a refused reading, a respelled field, a rarer whitespace character
    next to a field, a row of another shape, a whitespace-only or '#' line,
    or no row at all."""
    odd = draw(st.lists(st.sampled_from(ODDITIES), min_size=1, max_size=2))
    rng = draw(st.randoms(use_true_random=True))
    header = draw(st.sampled_from(HEADERS)) if "header" in odd else "timestamp_s,power_w"
    n = 0 if "empty" in odd else draw(st.integers(min_value=1, max_value=12))
    start = draw(st.sampled_from([0.0, 10.0, -3.5, 1e9]) | st.floats(-1e6, 1e6))
    period = draw(st.sampled_from([1.0, 0.1, 15.0, 1e-3]) | st.floats(1e-6, 1e6))
    stamps = [start + i * period for i in range(n)]
    if "gap" in odd and n > 2:
        j = rng.randrange(2, n)
        stamps[j] = draw(
            st.sampled_from(
                [
                    stamps[j - 1],  # a zero gap
                    stamps[j - 2],  # a negative gap
                    stamps[j] + period / 2,  # an uneven gap
                    stamps[j] * (1 + 1e-13),  # within the tolerance
                ]
            )
        )
    watts = draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n))
    if "reading" in odd and n:
        watts[rng.randrange(n)] = draw(st.sampled_from([-1.0, float("nan"), 1e400]))
    fields = [[repr(t), repr(w)] for t, w in zip(stamps, watts)]
    if "spelling" in odd and n:
        i, j = rng.randrange(n), rng.randrange(2)
        fields[i][j] = respell((stamps, watts)[j][i], draw(st.sampled_from(SPELLINGS)))
    pads = [[rng.choice(SPACES) for _ in range(4)] for _ in fields]
    if "space" in odd and n:
        pads[rng.randrange(n)][rng.randrange(4)] = draw(st.sampled_from(WHITESPACE))
    rows = [f"{a}{t}{b},{c}{w}{d}" for (t, w), (a, b, c, d) in zip(fields, pads)]
    if "shape" in odd and n:
        i = rng.randrange(n)
        t, w = fields[i]
        rows[i] = {
            "extra": f"{t},{w},1.0",
            "empty-column": f"{t},",
            "single": t,
            "hash": f"#{t},{w}",
            "empties": ",",
            "spaces": " , ",
        }[draw(st.sampled_from(SHAPES))]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(rng.randrange(len(rows) + 1), "")  # a blank line
    if "line" in odd:
        rows.insert(rng.randrange(len(rows) + 1), draw(st.sampled_from(FILLERS)))
    body = "".join(line + rng.choice(ENDINGS) for line in [header, *rows])
    if draw(st.booleans()):
        body = body.rstrip("\r\n")  # no line ending after the last row
    return body


@hypothesis.settings(max_examples=250, deadline=None, database=None)
@hypothesis.given(text=trace_files())
def test_read_trace_gives_the_csv_reference_result(tmp_path_factory, text: str) -> None:
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_read_trace, str(path))
    assert outcome(_read_trace_rows, str(path)) == expected
    assert outcome(read_trace, str(path)) == expected


def test_plain_traces_take_the_numpy_path(tmp_path, monkeypatch) -> None:
    def refused(path: str) -> TraceSeries:
        raise AssertionError(f"{path} fell back to the csv reader")

    monkeypatch.setattr(loadcap.fileio, "_read_trace_rows", refused)
    path = tmp_path / "trace.csv"
    path.write_bytes(b"timestamp_s,power_w\r\n0.0, 1.5\r\n\r\n1.0,\t2.25 \r\r2.0,0\n")
    trace = read_trace(str(path))
    assert trace.sample_period_s == 1.0
    assert trace.watts.tolist() == [1.5, 2.25, 0.0]


@pytest.mark.parametrize(
    "rows",
    [
        '0,"1.5"\n1,2\n',
        "0,1_0\n1,2\n",
        "0,1\n1,2,3\n",
        "0,1\n\n2,2\n5,3\n",
        "#0,1\n",
        "0,\x1f1\n1,2\n",  # numpy would strip it; float() refuses it
    ],
    ids=["quoted", "underscore", "extra-column", "uneven-gap", "hash", "separator-control"],
)
def test_what_numpy_refuses_goes_to_the_csv_reader(tmp_path, monkeypatch, rows) -> None:
    calls = []

    def counted(path: str) -> TraceSeries:
        calls.append(path)
        return _read_trace_rows(path)

    monkeypatch.setattr(loadcap.fileio, "_read_trace_rows", counted)
    path = tmp_path / "trace.csv"
    path.write_text("timestamp_s,power_w\n" + rows)
    assert outcome(read_trace, str(path)) == outcome(reference_read_trace, str(path))
    assert calls == [str(path)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"], ids=["no-line", "blank", "blank-crlf"])
def test_a_header_only_file_is_refused_without_a_warning(tmp_path, body) -> None:
    # numpy warns that its input held no data; the caller sees only the refusal
    path = tmp_path / "trace.csv"
    path.write_bytes(b"timestamp_s,power_w\n" + body.encode())
    with pytest.raises(ValueError, match="trace has no data rows"):
        read_trace(str(path))
