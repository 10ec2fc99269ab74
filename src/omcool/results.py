"""Result tables and their CSV rendering, the one artifact of every run:
metadata as leading '# key=value' comments, then a header row, then records
with full round-trip float precision.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class ResultTable:
    """The rows of a solve, sweep or taxonomy run are solved as they are
    read, once: a reader that needs them twice takes list(table.rows)."""
    columns: list[str]
    rows: Iterable[list]
    metadata: dict[str, str] = field(default_factory=dict)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def stream_csv(table: ResultTable, fh: io.TextIOBase) -> None:
    """Write the metadata and header to ``fh``, then each row as it is read,
    so a run that fails has written every row before the failing one."""
    for key in sorted(table.metadata):
        fh.write(f"# {key}={table.metadata[key]}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_value(v) for v in row])


def table_to_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    stream_csv(table, buf)
    return buf.getvalue()


def write_csv(table: ResultTable, path: str | Path) -> None:
    with open(path, "w") as fh:  # before the first row is solved
        stream_csv(table, fh)

