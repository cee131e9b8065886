#!/usr/bin/env python3
"""Tag-off/tag-on baseline across every channel preset.

Prints a per-scenario table of detection, false alarm and cross false alarm
probabilities with exact 95% intervals, and optionally writes the rows as
CSV. The full protocol uses 300 messages per phase; trim with --messages for
a quick look.
"""

import argparse
import sys

from srsbs.harness import (
    ExperimentConfig,
    format_results,
    metrics_summary,
    results_row,
    run_phases,
)
from srsbs.channel import PRESETS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=300)
    parser.add_argument("--code", type=int, default=7)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", help="write rows as CSV here")
    args = parser.parse_args(argv)

    runs = []
    try:
        for name in PRESETS:
            config = ExperimentConfig(
                scenario=name,
                tag_code_id=args.code,
                messages=args.messages,
                seed=args.seed,
            )
            runs.append((name, config, *run_phases(config, keep_trace=False)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    print(f"{'scenario':<14}{'detection':>12}{'false alarm':>14}{'cross fa':>12}")
    for name, config, off, on in runs:
        summary = metrics_summary(on)
        lo, hi = summary["detection_ci95"]
        print(
            f"{name:<14}{on.detection_probability:>12.4f}"
            f"{off.false_alarm_probability:>14.4f}"
            f"{on.cross_false_alarm_probability:>12.4f}"
            f"   detection CI95 [{lo:.3f}, {hi:.3f}]"
        )
        rows.append(results_row(f"{name}:off", off, config.seed))
        rows.append(results_row(f"{name}:on", on, config.seed))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_results(rows, "csv"))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
