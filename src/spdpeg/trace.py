"""Trace records shared by all solvers, with strict CSV round-tripping."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    wall_seconds: float
    objective: float
    test_loss: float
    accuracy: float
    feasibility_gap: float
    max_dual_norm: float


# the CSV header: the schema version, then the fields of a record, of which
# every one after the iteration is a float
TRACE_COLUMNS = ("schema_version", *(f.name for f in fields(TraceRecord)))


def write_trace_csv(path, records) -> None:
    # repr keeps the shortest digits that round-trip, so files are
    # byte-stable across identical runs
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow([SCHEMA_VERSION, r.iteration,
                             *(repr(float(getattr(r, name)))
                               for name in TRACE_COLUMNS[2:])])


def read_trace_csv(path) -> list[TraceRecord]:
    """The records of a trace file; a bad header, a short or long row, a
    bad number or another schema version is a ValueError that names the
    file and its line."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_COLUMNS:
                raise ValueError("unexpected trace header")
            for row in reader:
                if len(row) != len(TRACE_COLUMNS):
                    raise ValueError(f"malformed trace row {row!r}")
                if int(row[0]) != SCHEMA_VERSION:
                    raise ValueError(f"unsupported trace schema version {row[0]}")
                records.append(TraceRecord(int(row[1]), *(float(v) for v in row[2:])))
        except ValueError as exc:
            raise ValueError(f"{path} line {max(reader.line_num, 1)}: {exc}") from None
    return records
