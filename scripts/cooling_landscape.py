#!/usr/bin/env python3
"""Cooling landscape over the driving-detuning x cavity-decay plane.

Reproduces the two-resonator cooling maps: final phonon number of one
mechanical mode as the intermediate cavity's detuning and decay rate are
swept with the auxiliary coupling on.  Writes a CSV table and an SVG
heatmap.

Usage: python scripts/cooling_landscape.py [--preset fig2a] [--points 60]
       [--jobs 4] [--outdir results]
"""

import argparse
from pathlib import Path

from omcool.presets import get_preset
from omcool.results import write_csv, write_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="fig2a",
                        choices=[f"fig2{p}" for p in "abcd"]
                        + [f"fig3{p}" for p in "abcd"])
    parser.add_argument("--points", type=int, default=60)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()
    for flag, value in (("--points", args.points), ("--jobs", args.jobs)):
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")

    preset = get_preset(args.preset, points=args.points)
    table = preset.run(args.jobs)
    table.metadata["preset"] = preset.name

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{preset.name}.csv"
    svg_path = outdir / f"{preset.name}.svg"
    write_csv(table, csv_path)
    write_svg(table, svg_path)

    occupations = [row[2] for row in table.rows if row[2] is not None]
    print(f"{preset.name}: {len(table.rows)} grid points, "
          f"min occupation {min(occupations):.4f}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
