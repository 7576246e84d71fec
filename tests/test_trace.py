"""The trace-v1 CSV: write, read back, and reject foreign files."""

import math

import pytest

from flownav import trace
from flownav.errors import AlignmentError
from flownav.trace import TRACE_COLUMNS, TraceRow, read_trace, write_trace


def _rows():
    n = len(TRACE_COLUMNS)
    values = [math.pi, -1.0 / 3.0, 1e-20, 123456.789012345, 0.0, -2.5e7,
              math.inf]
    return [TraceRow(*(values[(i + k) % len(values)] * (k + 1)
                       for i in range(n)))
            for k in range(3)]


def test_round_trip_bytes_and_values(tmp_path):
    rows = _rows()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(rows, first)
    back = read_trace(first)
    write_trace(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        assert got.values() == [float(format(v, ".9g"))
                                for v in want.values()]


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(_rows(), path)
    text = path.read_text().replace(trace.TRACE_VERSION, "trace-v0", 1)
    path.write_text(text)
    with pytest.raises(AlignmentError):
        read_trace(path)


@pytest.mark.parametrize("columns", [
    TRACE_COLUMNS[:-1],                            # one missing
    TRACE_COLUMNS[1:] + TRACE_COLUMNS[:1],         # reordered
])
def test_wrong_columns_rejected(tmp_path, columns):
    path = tmp_path / "t.csv"
    write_trace(_rows(), path)
    lines = path.read_text().splitlines()
    lines[1] = ",".join(columns)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AlignmentError):
        read_trace(path)
