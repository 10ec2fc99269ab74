#!/usr/bin/env python3
"""Cooling of an N-resonator mechanical chain.

Solves the chain with the auxiliary cavity and phonon hopping on (all
chain dark modes broken) and off (dark modes intact), printing the final
phonon number of every resonator, and sweeps the intermediate cavity
detuning to CSV/SVG.

Usage: python scripts/chain_cooling.py [--n 3] [--points 80] [--jobs 4]
       [--outdir results]
"""

import argparse
from pathlib import Path

from omcool.presets import chain_config
from omcool.results import table_to_svg, write_csv
from omcool.sweep import SweepAxis, run_solve, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3, help="number of resonators")
    parser.add_argument("--points", type=int, default=80)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()
    for flag, value, low in (("--n", args.n, 2), ("--points", args.points, 1),
                             ("--jobs", args.jobs, 1)):
        if value < low:
            parser.error(f"{flag} must be >= {low}, got {value}")

    n_f = [f"n_f_{l + 1}" for l in range(args.n)]
    broken = run_solve(chain_config(args.n))
    intact = run_solve(chain_config(args.n, Gs=0.0, eta=0.0))
    print(f"N = {args.n}")
    for label, table, spec in (("broken", broken, ".4f"), ("intact", intact, ".1f")):
        (row,) = table.rows
        cells = [row[table.columns.index(c)] for c in n_f]  # empty on an unstable chain
        print(f"  dark modes {label}:",
              "  ".join("unstable" if v is None else format(v, spec) for v in cells))

    table = run_sweep(chain_config(args.n),
                      [SweepAxis("cavities.0.detuning", 0.5, 1.5, args.points)],
                      [*n_f, "stable"], args.jobs)
    table.rows = list(table.rows)  # written twice, as CSV and SVG
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"chain_n{args.n}.csv"
    svg_path = outdir / f"chain_n{args.n}.svg"
    write_csv(table, csv_path)
    svg_path.write_text(table_to_svg(table))
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
