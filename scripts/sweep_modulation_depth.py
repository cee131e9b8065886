#!/usr/bin/env python3
"""Detection probability versus backscatter modulation depth.

The modulation depth is the simulator's stand-in for tag-to-handset
distance: deeper modulation means a closer tag. Sweeps a fixed-noise channel
over a list of depths and reports detection per point; plot-ready CSV out.
"""

import argparse
import sys

from srsbs.channel import ChannelConfig
from srsbs.harness import (
    ExperimentConfig,
    derive_seed,
    format_results,
    results_row,
    sweep,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=100)
    parser.add_argument("--code", type=int, default=7)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--noise-sigma", type=float, default=0.02)
    parser.add_argument(
        "--depths",
        default="0.05,0.04,0.03,0.02,0.015,0.01,0.005",
        help="comma-separated modulation depths, deepest first",
    )
    parser.add_argument("--out", help="write rows as CSV here")
    args = parser.parse_args(argv)

    try:
        depths = [float(x) for x in args.depths.split(",") if x.strip()]
    except ValueError:
        depths = []
    try:
        if not depths:
            raise ValueError(f"--depths must be comma-separated numbers, got {args.depths!r}")
        base = ExperimentConfig(
            scenario=ChannelConfig(
                base_gain=0.3, modulation_depth=depths[0], noise_sigma=args.noise_sigma
            ),
            tag_code_id=args.code,
            messages=args.messages,
            seed=args.seed,
        )
        table = sweep(base, "modulation_depth", depths)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'depth':>8}{'detection':>12}{'cross fa':>12}")
    rows = []
    for i, (depth, metrics) in enumerate(table):
        print(
            f"{depth:>8.3f}{metrics.detection_probability:>12.4f}"
            f"{metrics.cross_false_alarm_probability:>12.4f}"
        )
        rows.append(results_row(depth, metrics, derive_seed(base.seed, i)))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_results(rows, "csv"))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
