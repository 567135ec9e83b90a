#!/usr/bin/env python3
"""Rebuild a summary report from trace files, without re-simulating.

Points at the ``traces/`` directory of a previous campaign and recomputes
every statistic from the CSVs alone — the box-plot numbers per
aggressiveness bucket included.  Useful for re-analysis after the fact::

    python3 scripts/summarize_traces.py results/traces --out reanalysis
"""

import argparse
import os
import sys

from roundabout_sim.cli import format_row, summarize, write_summary_csv, write_summary_json
from roundabout_sim.dynamics import VEHICLE_DIAMETER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", help="traces/ directory of a campaign")
    parser.add_argument("--out", metavar="DIR",
                        help="also write summary.csv / summary.json here")
    parser.add_argument("--diameter", type=float, default=VEHICLE_DIAMETER,
                        help="collision diameter used for re-detection [m]")
    args = parser.parse_args(argv)

    report = summarize(args.traces, diameter=args.diameter)
    for row in report.rows:
        print(format_row(row))
    print("min-distance medians by aggressiveness bucket:")
    for b in report.buckets_min_distance:
        med = "-" if b.median is None else f"{b.median:.2f} m"
        print(f"  [{b.w_lo:.1f}, {b.w_hi:.1f}): {b.count:4d} runs  median {med}")
    if report.warnings:
        print(f"{report.warnings} malformed trace file(s) skipped")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_summary_csv(report, os.path.join(args.out, "summary.csv"))
        write_summary_json(report, os.path.join(args.out, "summary.json"))
        print(f"wrote {args.out}/summary.csv and summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
