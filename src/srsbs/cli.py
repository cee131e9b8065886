"""Command-line surface: gen-codes | simulate | detect | baseline | sweep.

Defaults reproduce the standard parameter set (10 ms period, 31-chip codes
repeated 7 times, alpha 0.55, windows of 5, deviation factor 0.2, theta 0.4,
300 messages), so ``srsbs simulate --scenario noiseless`` is a meaningful run
without any config file.

Seed precedence: --seed flag, then the SRSBS_SEED environment variable, then
the config file. Every run that writes an output file also writes a manifest
with the fully resolved configuration next to it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from ._config import dump
from .channel import RNG_LAYOUT
from .detector import EVENT_DTYPE, Detector
from .harness import ExperimentConfig
from .tag import generate_gold_set

SEED_ENV_VAR = "SRSBS_SEED"


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise OSError(f"cannot read config {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            byte, offset = exc.object[exc.start], exc.start
            raise ValueError(f"config {path} is not UTF-8 text: byte {byte:#04x} at offset {offset}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        config = ExperimentConfig.from_dict(raw)
    else:
        config = ExperimentConfig()
    if getattr(args, "scenario", None):
        config = dataclasses.replace(config, scenario=args.scenario)
    if getattr(args, "code", None) is not None:
        config = dataclasses.replace(config, tag_code_id=args.code)
    if getattr(args, "messages", None) is not None:
        config = dataclasses.replace(config, messages=args.messages)
    seed = _resolve_seed(args, config.seed)
    return dataclasses.replace(config, seed=seed)


def _resolve_seed(args, file_seed: int) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return file_seed


def _write_output(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_manifest(args, command: str, config, extra: dict | None = None) -> None:
    if not args.out:
        return
    path = Path(args.out).with_name(Path(args.out).name + ".manifest.json")
    path.write_text(harness.manifest_json(command, config, extra))


def cmd_gen_codes(args) -> int:
    code_set = generate_gold_set()
    lines = []
    for cid in code_set.labels:
        chips = ",".join(str(int(c)) for c in code_set.code(cid))
        lines.append(f"{cid},{chips}")
    _write_output(args, "\n".join(lines) + "\n")
    _write_manifest(args, "gen-codes", {"codes": dump(harness.CodeConfig())})
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    keep_trace = bool(args.export_trace)
    metrics = harness.run_experiment(config, keep_trace=keep_trace)
    if args.export_trace:
        with open(args.export_trace, "w") as fh:
            harness.write_trace(fh, metrics.trace)
    if args.events:
        with open(args.events, "w") as fh:
            fh.write(harness.format_events(metrics.events, "csv"))
    row = harness.results_row(config.scenario_name(), metrics, config.seed)
    _write_output(args, harness.format_results([row], args.format))
    summary = harness.metrics_summary(metrics)
    _write_manifest(args, "simulate", config, {"metrics": summary, "rng_layout": RNG_LAYOUT})
    return 0


def cmd_detect(args) -> int:
    config = _load_config(args)
    detector_config = dataclasses.replace(config.detector, code_set=config.codes.build())
    detector = Detector(detector_config, config.filter)
    try:
        # bytes that are not UTF-8 reach the parser escaped, and it names their line
        with open(args.trace, errors="surrogateescape") as fh:
            chunks = harness.trace_chunks(fh)
            events = np.concatenate([np.empty(0, EVENT_DTYPE), *map(detector.event_array, chunks)])
    except OSError as exc:
        raise OSError(f"cannot read trace {args.trace}: {exc.strerror}") from exc
    except UnicodeError as exc:
        raise ValueError(f"trace {args.trace}: {exc}") from None
    _write_output(args, harness.format_events(events, args.format))
    _write_manifest(
        args, "detect", config, {"trace": str(args.trace), "events": len(events)}
    )
    return 0


def cmd_baseline(args) -> int:
    config = _load_config(args)
    off, on = harness.run_phases(config, keep_trace=True)
    if args.export_trace:
        base = Path(args.export_trace)
        for phase, metrics in (("off", off), ("on", on)):
            path = base.with_name(base.name + f".{phase}.txt")
            with open(path, "w") as fh:
                harness.write_trace(fh, metrics.trace)
    rows = [
        harness.results_row("off", off, config.seed),
        harness.results_row("on", on, config.seed),
    ]
    _write_output(args, harness.format_results(rows, args.format))
    _write_manifest(
        args,
        "baseline",
        config,
        {
            "metrics_off": harness.metrics_summary(off),
            "metrics_on": harness.metrics_summary(on),
            "rng_layout": RNG_LAYOUT,
        },
    )
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"--values must be comma-separated numbers, got {args.values!r}")
    results = harness.sweep(config, args.param, values)
    rows = [
        harness.results_row(value, metrics, harness.derive_seed(config.seed, i))
        for i, (value, metrics) in enumerate(results)
    ]
    _write_output(args, harness.format_results(rows, args.format))
    extra = {"parameter": args.param, "values": values, "rng_layout": RNG_LAYOUT}
    _write_manifest(args, "sweep", config, extra)
    return 0


def _add_common(parser: argparse.ArgumentParser, with_scenario: bool = True) -> None:
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    if with_scenario:
        parser.add_argument("--scenario", help="channel scenario preset name")
        parser.add_argument("--code", type=int, help="tag code id (0..32)")
        parser.add_argument("--messages", type=int, help="message transmissions R")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srsbs",
        description="Simulate and detect backscatter tags keyed onto uplink sounding pilots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-codes", help="emit the 33 candidate codes as CSV")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen_codes)

    p = sub.add_parser("simulate", help="run one seeded experiment")
    _add_common(p)
    p.add_argument("--export-trace", help="write the raw amplitude trace here")
    p.add_argument("--events", help="write raw detection events CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="run the detector over a recorded trace")
    _add_common(p, with_scenario=False)
    p.add_argument("--trace", required=True, help="amplitude trace, one value per line")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("baseline", help="tag-off then tag-on phase pair")
    _add_common(p)
    p.add_argument("--export-trace", help="trace path prefix (.off.txt / .on.txt)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="repeat an experiment over parameter values")
    _add_common(p)
    p.add_argument("--param", required=True, help="channel or detector field to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
