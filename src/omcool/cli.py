"""Command-line entry point.

Verbs: solve, sweep, taxonomy, atomic, preset (each writes CSV), emit (CSV or SVG).
Exit codes: 0 success, 2 parse error (including an unreadable --config or
--in, a --config nested too deeply for json's decoder, or an --in with no
header row, a field over the csv module's size limit, or a record whose
field count differs from the header's), 3 validation error (including
--points below 1, --jobs below 1 on a sweep or any preset, run or dump,
and a range with a non-finite bound, no point, or, over more points than
one, MIN >= MAX or a MAX - MIN that is not finite), 4 unstable system, 5
solver failure (also a failed write, a drift or noise matrix that
overflows from finite fields, a range too large to hold in memory, and an
emitted SVG of a table with no finite number in an axis column, such as a
solve's).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .config_io import parse_config
from .errors import ConfigError, OmcoolError, ParseError, UnstableSystemError
from .presets import get_preset, preset_names
from .results import ResultTable, read_csv, stream_csv, table_to_svg, write_csv
from .sweep import SweepAxis, run_atomic, run_solve, run_sweep, run_taxonomy

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNSTABLE = 4
EXIT_SOLVER = 5


def _attach_range_values(argv: list[str]) -> list[str]:
    """argv with each --ratio/--kappa glued to the value after it
    (``--ratio=-3:3:7``), so argparse takes a range that starts with '-' as
    the value, not as an option."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in ("--ratio", "--kappa") and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _jobs(args) -> int:
    """--jobs (default 1), checked here for every verb that takes it."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(table: ResultTable, out: str | None) -> None:
    if out:
        write_csv(table, out)
    else:
        stream_csv(table, sys.stdout)


def _cmd_solve(args) -> int:
    table = run_solve(parse_config(args.config))
    table.rows = list(table.rows)  # solved before the write, so a failed solve writes nothing
    _write_csv(table, args.out)
    return EXIT_UNSTABLE if table.rows[0][table.columns.index("stable")] is False else EXIT_OK


def _cmd_sweep(args) -> int:
    model = parse_config(args.config)
    axes = [SweepAxis.parse(spec) for spec in args.axis]
    _write_csv(run_sweep(model, axes, parallelism=_jobs(args)), args.out)
    return EXIT_OK


def _cmd_taxonomy(args) -> int:
    model = parse_config(args.config)
    kappa = SweepAxis.parse(args.kappa, "cavities.0.decay") if args.kappa else None
    _write_csv(run_taxonomy(model, kappa), args.out)
    return EXIT_OK


def _cmd_atomic(args) -> int:
    table = run_atomic(args.levels, SweepAxis.parse(args.ratio, "ratio"))
    _write_csv(table, args.out)
    return EXIT_OK


def _cmd_preset(args) -> int:
    preset = get_preset(args.name, points=args.points)
    jobs = _jobs(args)
    if args.dump:
        _write_text(json.dumps(preset.document, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    table = preset.run(jobs)
    table.metadata["preset"] = args.name
    _write_csv(table, args.out)
    return EXIT_OK


def _cmd_emit(args) -> int:
    table = read_csv(args.infile)
    if args.format == "svg":
        _write_text(table_to_svg(table), args.out)
    else:
        _write_csv(table, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The omcool parser, built at the first call and shared by every later
    one in the process.  Sharing it is safe: each parse_args makes a fresh
    Namespace, and --axis appends to a None default, so no parsed value is
    kept between calls."""
    parser = argparse.ArgumentParser(
        prog="omcool",
        description="Steady-state cooling analysis for linearized optomechanical networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one-shot solve of a config document")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="parameter sweep over a 1D or 2D grid")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", action="append", required=True,
                   metavar="PATH:MIN:MAX:POINTS[:log]")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("taxonomy", help="evaluate the 14 coupling configurations")
    p.add_argument("--config", required=True)
    p.add_argument("--kappa", metavar="MIN:MAX:POINTS",
                   help="sweep the intermediate-cavity decay per configuration")
    p.set_defaults(func=_cmd_taxonomy)

    p = sub.add_parser("atomic", help="three-/four-level eigenanalysis over a ratio grid")
    p.add_argument("--levels", type=int, choices=(3, 4), required=True)
    p.add_argument("--ratio", required=True, metavar="MIN:MAX:POINTS")
    p.set_defaults(func=_cmd_atomic)

    p = sub.add_parser("preset", help="dump or run a named figure/table preset")
    p.add_argument("name", choices=preset_names())
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dump", action="store_true", help="emit the preset's config (or atomic grid) as JSON")
    group.add_argument("--run", action="store_true", help="run the preset (default)")
    p.add_argument("--points", type=int, default=None, help="grid points per axis")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("emit", help="re-emit a saved result table as CSV or SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("csv", "svg"), required=True)
    p.set_defaults(func=_cmd_emit)
    for p in sub.choices.values():
        p.add_argument("--out", help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_range_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (OmcoolError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = ((ParseError, EXIT_PARSE), (ConfigError, EXIT_VALIDATION),
                 (UnstableSystemError, EXIT_UNSTABLE))
        return next((code for kind, code in codes if isinstance(exc, kind)), EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
