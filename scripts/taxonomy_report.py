#!/usr/bin/env python3
"""Dark-mode taxonomy of the network-coupled four-mode system.

Enumerates the 14 coupling configurations (closed-channel subsets of
{J, eta, Gs1, Gs2} of sizes 1-3), evaluates the analytical dark-mode
condition for each, and solves for the final phonon numbers at the
default decay rate.  Prints a summary table and writes the full CSV.

Usage: python scripts/taxonomy_report.py [--kappa 0.05:1.0:100]
       [--outdir results]
"""

import argparse
import sys
from pathlib import Path

from omcool.cli import attach_range_values
from omcool.errors import ConfigError
from omcool.presets import network4_config
from omcool.results import write_csv
from omcool.sweep import SweepAxis, run_taxonomy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kappa", default=None, metavar="MIN:MAX:POINTS",
                        help="optional decay-rate sweep per configuration")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args(attach_range_values(sys.argv[1:]))

    base = network4_config()
    summary = table = run_taxonomy(base)
    summary.rows = list(summary.rows)  # printed, counted and, without --kappa, written
    if args.kappa:
        try:
            table = run_taxonomy(base, SweepAxis.parse(args.kappa, "cavities.0.decay"))
        except ConfigError as exc:
            parser.error(f"--kappa: {exc}")

    print(f"{'closed':<14} {'dark':<6} {'n_f_1':>10} {'n_f_2':>10}")
    rows = [dict(zip(summary.columns, row)) for row in summary.rows]
    for r in rows:
        print(f"{r['closed_channels']:<14} {str(r['dark']):<6} {r['n_f_1']:>10.4f} {r['n_f_2']:>10.4f}")
    dark_count = sum(1 for r in rows if r["dark"])
    print(f"\n{dark_count} dark / {len(summary.rows) - dark_count} broken")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "taxonomy.csv"
    write_csv(table, path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
