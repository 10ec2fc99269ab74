#!/usr/bin/env python3
"""Excited-state probabilities of the driven three- and four-level systems.

Sweeps the amplitude ratio and records per-eigenstate excited-level
probabilities: the three-level system keeps one probability pinned at
zero (its dark state) while the four-level system's auxiliary coupling
lifts every probability above zero.

Usage: python scripts/atomic_probabilities.py [--points 120]
       [--outdir results]
"""

import argparse
from pathlib import Path

from omcool.presets import get_preset
from omcool.results import write_csv, write_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=120)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for levels, name in ((3, "fig13a"), (4, "fig13b")):
        table = get_preset(name, points=args.points).run(1)
        probs = [row[1 + levels:] for row in table.rows]
        floor = min(min(p) for p in probs)
        print(f"{levels}-level system: minimum excited-state probability "
              f"over the grid = {floor:.3e}")
        csv_path = outdir / f"atomic_{levels}level.csv"
        write_csv(table, csv_path)
        write_svg(table, outdir / f"atomic_{levels}level.svg")
        print(f"wrote {csv_path}")


if __name__ == "__main__":
    main()
