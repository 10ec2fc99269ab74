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
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
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
    Raises ParseError when the file cannot be read, has no header row, or
    has a record whose field count differs from the header's."""
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
    records = [(reader.line_num, record) for record in reader if record]
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

# blue -> yellow anchor ramp; normalization is per-run min/max
_RAMP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


def _ramp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    x = t * (len(_RAMP) - 1)
    i = min(int(x), len(_RAMP) - 2)
    f = x - i
    rgb = [round(a + (b - a) * f) for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(values) -> list[float]:
    return [float(v) for v in values if _is_number(v)]


def _check_axes(cells: dict, *axes: str) -> None:
    """Refuse to draw against an axis column that holds no number."""
    for ax in axes:
        if not _numeric(cells[ax]):
            raise SolverError(f"axis column {ax!r} has no numeric value to draw against")


def _axis_columns(table: ResultTable) -> list[str]:
    return [n for n in table.metadata.get("axes", "").split(",") if n] or table.columns[:1]


def table_to_svg(table: ResultTable) -> str:
    table = replace(table, rows=list(table.rows))  # all read before any is drawn
    if not table.rows:
        raise SolverError("cannot render an empty table")
    axes = _axis_columns(table)
    if len(axes) >= 2 and axes[0] in table.columns and axes[1] in table.columns:
        return _heatmap_svg(table, axes[0], axes[1])
    return _line_svg(table, axes[0])


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]


def _heatmap_svg(table: ResultTable, ax1: str, ax2: str) -> str:
    cells = dict(zip(table.columns, zip(*table.rows)))  # each column's cells
    _check_axes(cells, ax1, ax2)
    out_cols = [c for c in table.columns if c not in (ax1, ax2) and _numeric(cells[c])]
    if not out_cols:
        raise SolverError("no numeric output column to render")
    out = out_cols[0]
    xs = sorted(set(_numeric(cells[ax1])))
    ys = sorted(set(_numeric(cells[ax2])))
    values = {(float(x), float(y)): float(v) for x, y, v in zip(cells[ax1], cells[ax2], cells[out])
              if _is_number(x) and _is_number(y) and _is_number(v)}
    finite = [v for v in values.values() if math.isfinite(v)]
    if not finite:
        raise SolverError("no finite values to render")
    positive = [v for v in finite if v > 0]
    log_scale = bool(positive) and min(positive) > 0 and len(positive) == len(finite) \
        and max(positive) / min(positive) > 100
    lo = math.log10(min(finite)) if log_scale else min(finite)
    hi = math.log10(max(finite)) if log_scale else max(finite)
    span = (hi - lo) or 1.0

    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN
    cw = plot_w / len(xs)
    ch = plot_h / len(ys)
    x_pos = {x: i for i, x in enumerate(xs)}
    y_pos = {y: j for j, y in enumerate(ys)}
    parts = _svg_open(f"{out} over {ax1} x {ax2}" + (" (log color)" if log_scale else ""))
    for (x, y), v in sorted(values.items()):
        if not math.isfinite(v):
            continue
        vv = math.log10(v) if log_scale and v > 0 else (lo if log_scale else v)
        t = (vv - lo) / span
        px = _MARGIN + x_pos[x] * cw
        py = _HEIGHT - _MARGIN - (y_pos[y] + 1) * ch
        parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                     f'height="{ch + 0.5:.2f}" fill="{_ramp_color(t)}"/>')
    parts.extend(_axis_labels(ax1, ax2, xs[0], xs[-1], ys[0], ys[-1]))
    parts.append(f'<text x="{_WIDTH - _MARGIN}" y="{_MARGIN - 12}" text-anchor="end" '
                 f'font-size="12">min={min(finite):.4g} max={max(finite):.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _line_svg(table: ResultTable, ax: str) -> str:
    if ax not in table.columns:
        raise SolverError(f"axis column {ax!r} missing from table")
    cells = dict(zip(table.columns, zip(*table.rows)))  # each column's cells
    _check_axes(cells, ax)
    out_cols = [c for c in table.columns if c != ax and _numeric(cells[c])]
    if not out_cols:
        raise SolverError("no numeric output column to render")
    # a series draws one line per run of rows with the same label columns,
    # those before the axis (a taxonomy's configuration)
    ia = table.columns.index(ax)
    series = {}
    for cname in out_cols:
        iv = table.columns.index(cname)
        pts = [(row[:ia], float(row[ia]), float(row[iv])) for row in table.rows
               if _is_number(row[ia]) and _is_number(row[iv]) and math.isfinite(float(row[iv]))]
        if pts:
            series[cname] = pts
    if not series:
        raise SolverError("no finite values to render")
    all_y = [p[2] for pts in series.values() for p in pts]
    all_x = [p[1] for pts in series.values() for p in pts]
    log_scale = min(all_y) > 0 and max(all_y) / min(all_y) > 100
    ys = [math.log10(y) for y in all_y] if log_scale else all_y
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = _svg_open(", ".join(series) + f" vs {ax}" + (" (log y)" if log_scale else ""))
    for k, (cname, pts) in enumerate(series.items()):
        color = colors[k % len(colors)]
        for _, line in itertools.groupby(pts, key=lambda p: p[0]):
            coords = []
            for _, x, y in line:
                yy = math.log10(y) if log_scale else y
                px = _MARGIN + (x - x_lo) / x_span * plot_w
                py = _HEIGHT - _MARGIN - (yy - y_lo) / y_span * plot_h
                coords.append(f"{px:.2f},{py:.2f}")
            parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN}" y="{_MARGIN + 16 * k}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{cname}</text>')
    parts.extend(_axis_labels(ax, "", x_lo, x_hi, min(all_y), max(all_y)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _axis_labels(xname, yname, x_lo, x_hi, y_lo, y_hi) -> list[str]:
    bottom = _HEIGHT - _MARGIN
    return [
        f'<line x1="{_MARGIN}" y1="{bottom}" x2="{_WIDTH - _MARGIN}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{bottom}" stroke="black"/>',
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 16}" text-anchor="middle" font-size="13">{xname}</text>',
        f'<text x="{_MARGIN}" y="{bottom + 18}" text-anchor="middle" font-size="11">{x_lo:.4g}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{bottom + 18}" text-anchor="middle" font-size="11">{x_hi:.4g}</text>',
        f'<text x="{_MARGIN - 8}" y="{bottom}" text-anchor="end" font-size="11">{y_lo:.4g}</text>',
        f'<text x="{_MARGIN - 8}" y="{_MARGIN + 4}" text-anchor="end" font-size="11">{y_hi:.4g}</text>',
        f'<text x="18" y="{_HEIGHT / 2}" font-size="13" '
        f'transform="rotate(-90 18 {_HEIGHT / 2})" text-anchor="middle">{yname}</text>',
    ]
