"""Result tables and their CSV / SVG renderings.

CSV is the canonical artifact: metadata as leading '# key=value' comments,
then a header row, then records with full round-trip float precision.
SVG is a convenience renderer (line chart for one axis, heatmap for two).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, SolverError


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


def _parse_value(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


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


def read_csv(path: str | Path) -> ResultTable:
    """Parse a CSV written by ``table_to_csv``; blank lines are skipped.
    Raises ParseError when the file cannot be read, has a line the csv
    module refuses (a field over its size limit), has no header row, or has
    a record whose field count differs from the header's."""
    metadata = {}
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for index, line in enumerate(lines):
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].rstrip("\r\n").partition("=")
            metadata[key] = value
            # a blank line in its place keeps reader.line_num the file's line
            lines[index] = "\n"
    reader = csv.reader(lines)
    try:
        records = [(reader.line_num, record) for record in reader if record]
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    if not records:
        raise ParseError(f"{path}: no header row")
    (_, columns), *records = records
    for number, record in records:
        if len(record) != len(columns):
            raise ParseError(f"{path}:{number}: {len(record)} fields where the header "
                             f"has {len(columns)}")
    rows = [[_parse_value(v) for v in record] for _, record in records]
    return ResultTable(columns=columns, rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# SVG rendering

_WIDTH, _HEIGHT = 720, 520
_MARGIN = 70
_PLOT_W, _PLOT_H = _WIDTH - 2 * _MARGIN, _HEIGHT - 2 * _MARGIN

# blue -> yellow anchor ramp; normalization is per-run min/max
_RAMP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


def _ramp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    x = t * (len(_RAMP) - 1)
    i = min(int(x), len(_RAMP) - 2)
    f = x - i
    rgb = [round(a + (b - a) * f) for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _text(x, y, attrs: str, text) -> str:
    """The one writer of chart text: a <text> element at (x, y) with
    ``attrs``, its text XML-escaped, as a column name may hold <, > or &."""
    from xml.sax.saxutils import escape  # only a chart pays its import (urllib.request)

    return f'<text x="{x}" y="{y}" {attrs}>{escape(str(text))}</text>'


def _drawable(cell) -> bool:
    """The one rule for every axis and output cell a chart draws: an int or
    float, not a bool, that is finite as a float (no nan, no inf, and no int
    beyond float range)."""
    return isinstance(cell, (int, float)) and not isinstance(cell, bool) \
        and abs(cell) <= sys.float_info.max


def _scale(values: list[float]) -> tuple[bool, Callable[[float], float]]:
    """(log, unit) for the heatmap's colours and the line chart's y axis:
    log is true when every value is positive and they span more than two
    decades; unit maps a value to [0, 1] between their min and max on that
    scale (to 0 when they are all equal)."""
    log = min(values) > 0 and max(values) / min(values) > 100
    scaled = math.log10 if log else float
    lo = scaled(min(values))
    span = (scaled(max(values)) - lo) or 1.0
    return log, lambda v: (scaled(v) - lo) / span


def table_to_svg(table: ResultTable) -> str:
    """A heatmap when the first two metadata axes are both columns, else a
    line chart over the first axis.  Raises SolverError for an empty table,
    an axis column that is missing or has no drawable cell, no output column
    with a drawable cell, or no point with every cell it needs drawable."""
    rows = list(table.rows)  # all read before any is drawn
    if not rows:
        raise SolverError("cannot render an empty table")
    axes = [n for n in table.metadata.get("axes", "").split(",") if n] or table.columns[:1]
    axes = axes[:2] if len(axes) >= 2 and set(axes[:2]) <= set(table.columns) else axes[:1]
    cells = dict(zip(table.columns, zip(*rows)))  # each column's cells
    for ax in axes:
        if ax not in cells:
            raise SolverError(f"axis column {ax!r} missing from table")
        if not any(map(_drawable, cells[ax])):
            raise SolverError(f"axis column {ax!r} has no numeric value to draw against")
    outputs = [c for c in table.columns if c not in axes and any(map(_drawable, cells[c]))]
    if not outputs:
        raise SolverError("no numeric output column to render")
    if len(axes) == 2:
        title, body = _heatmap_svg(cells, *axes, outputs[0])
    else:
        title, body = _line_svg(table.columns, rows, axes[0], outputs)
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(_WIDTH / 2, 24, 'text-anchor="middle" font-size="15"', title),
        *body, "</svg>"]) + "\n"


def _heatmap_svg(cells: dict, ax1: str, ax2: str, out: str) -> tuple[str, list[str]]:
    """The title and elements of ``out`` over the ax1 x ax2 grid: one cell
    per point whose three cells are drawable."""
    xs = sorted({float(x) for x in cells[ax1] if _drawable(x)})
    ys = sorted({float(y) for y in cells[ax2] if _drawable(y)})
    values = {(float(x), float(y)): float(v) for x, y, v in zip(cells[ax1], cells[ax2], cells[out])
              if _drawable(x) and _drawable(y) and _drawable(v)}
    if not values:
        raise SolverError("no finite values to render")
    finite = list(values.values())
    log_scale, unit = _scale(finite)
    cw = _PLOT_W / len(xs)
    ch = _PLOT_H / len(ys)
    x_pos = {x: i for i, x in enumerate(xs)}
    y_pos = {y: j for j, y in enumerate(ys)}
    parts = []
    for (x, y), v in sorted(values.items()):
        px = _MARGIN + x_pos[x] * cw
        py = _HEIGHT - _MARGIN - (y_pos[y] + 1) * ch
        parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                     f'height="{ch + 0.5:.2f}" fill="{_ramp_color(unit(v))}"/>')
    parts.extend(_axis_labels(ax1, ax2, xs[0], xs[-1], ys[0], ys[-1]))
    parts.append(_text(_WIDTH - _MARGIN, _MARGIN - 12, 'text-anchor="end" font-size="12"',
                       f"min={min(finite):.4g} max={max(finite):.4g}"))
    return f"{out} over {ax1} x {ax2}" + (" (log color)" if log_scale else ""), parts


def _line_svg(columns: list[str], rows: list[list], ax: str,
              outputs: list[str]) -> tuple[str, list[str]]:
    """The title and elements of each output column against ``ax``, drawn
    through the rows whose axis and output cells are drawable."""
    # a series draws one line per run of rows with the same label columns,
    # those before the axis (a taxonomy's configuration)
    ia = columns.index(ax)
    series = {}
    for cname in outputs:
        iv = columns.index(cname)
        pts = [(row[:ia], float(row[ia]), float(row[iv])) for row in rows
               if _drawable(row[ia]) and _drawable(row[iv])]
        if pts:
            series[cname] = pts
    if not series:
        raise SolverError("no finite values to render")
    all_y = [p[2] for pts in series.values() for p in pts]
    all_x = [p[1] for pts in series.values() for p in pts]
    log_scale, unit = _scale(all_y)
    x_lo, x_hi = min(all_x), max(all_x)
    x_span = (x_hi - x_lo) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = []
    for k, (cname, pts) in enumerate(series.items()):
        color = colors[k % len(colors)]
        for _, line in itertools.groupby(pts, key=lambda p: p[0]):
            coords = []
            for _, x, y in line:
                px = _MARGIN + (x - x_lo) / x_span * _PLOT_W
                py = _HEIGHT - _MARGIN - unit(y) * _PLOT_H
                coords.append(f"{px:.2f},{py:.2f}")
            parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(_text(_WIDTH - _MARGIN, _MARGIN + 16 * k,
                           f'text-anchor="end" font-size="12" fill="{color}"', cname))
    parts.extend(_axis_labels(ax, "", x_lo, x_hi, min(all_y), max(all_y)))
    return ", ".join(series) + f" vs {ax}" + (" (log y)" if log_scale else ""), parts


def _axis_labels(xname, yname, x_lo, x_hi, y_lo, y_hi) -> list[str]:
    bottom = _HEIGHT - _MARGIN
    return [
        f'<line x1="{_MARGIN}" y1="{bottom}" x2="{_WIDTH - _MARGIN}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{bottom}" stroke="black"/>',
        _text(_WIDTH / 2, _HEIGHT - 16, 'text-anchor="middle" font-size="13"', xname),
        _text(_MARGIN, bottom + 18, 'text-anchor="middle" font-size="11"', f"{x_lo:.4g}"),
        _text(_WIDTH - _MARGIN, bottom + 18, 'text-anchor="middle" font-size="11"', f"{x_hi:.4g}"),
        _text(_MARGIN - 8, bottom, 'text-anchor="end" font-size="11"', f"{y_lo:.4g}"),
        _text(_MARGIN - 8, _MARGIN + 4, 'text-anchor="end" font-size="11"', f"{y_hi:.4g}"),
        _text(18, _HEIGHT / 2, f'font-size="13" transform="rotate(-90 18 {_HEIGHT / 2})" '
              'text-anchor="middle"', yname),
    ]
