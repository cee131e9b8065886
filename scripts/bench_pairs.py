#!/usr/bin/env python3
"""Run the benchmark on a parent revision and on the working tree, in alternating pairs.

    python scripts/bench_pairs.py --change "what the change does" \\
        --pairs detect_outdoor_trace=1,2,3,4,5,6 --pairs baseline_indoor_long=2,3 \\
        [--against HEAD]

Copies the files of a git revision (default HEAD, the parent) and of the
working tree into sibling temporary directories and runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` from each,
one run at a time, with T the benchmark's ``run_seconds``. Each (workload,
seed) is one pair; pair i runs the parent first when i is even and the change
first when it is odd. After every run it rewrites ``BENCH_<N>.json`` at the
repository root (N one past the highest existing series) with each side's
median and quartiles per metric, how many pairs the change won, each side's
median wall time and calls per run (what a check of the series will cost),
and every run's wall time and detail record. The exit code is 1 when any run
failed or gave a wrong output, else 0.
"""

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SIDES = ("parent", "change")
SECONDS = BENCHMARK["run_seconds"]
COMMAND = f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {SECONDS:g} --trace 0"
METHOD = (
    "parent and change run from sibling copies of their files, one run at a time, "
    "alternating which side runs first in each pair; us_per_period and setup_s are "
    "the benchmark's host-scaled values; quartiles are inclusive"
)


def workload_seeds(text: str) -> tuple[str, list[int]]:
    """``NAME=S1,S2,...``: one pair per seed of the named workload."""
    name, _, seeds = text.partition("=")
    if name not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    try:
        values = [int(s) for s in seeds.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be comma-separated integers, got {seeds!r}") from None
    return name, values


def next_series() -> int:
    found = [int(m[1]) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return max(found, default=0) + 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument(
        "--pairs", required=True, action="append", type=workload_seeds, metavar="WORKLOAD=SEEDS",
        help="a workload and the seeds of its pairs; repeat for more workloads",
    )
    parser.add_argument("--against", default="HEAD", help="the parent revision")
    args = parser.parse_args(argv)
    args.series = next_series()
    return args


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """Per workload: each end-to-end metric's spread per side and the pairs the change won."""
    summary = {}
    for name in dict.fromkeys(run["workload"] for run in runs):
        by_seed = {}
        for run in runs:
            if run["workload"] == name and run["record"] is not None:
                by_seed.setdefault(run["seed"], {})[run["side"]] = run["record"]["result"]
        pairs = {seed: sides for seed, sides in by_seed.items() if len(sides) == 2}
        entry = {"seeds": sorted(by_seed), "pairs": len(pairs)}
        for metric in BENCHMARK["end_to_end"]:
            key, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            values = {
                side: [r[side]["metrics"][key]["value"] for r in pairs.values()] for side in SIDES
            }
            margins = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            entry[key] = {
                "better": metric["better"],
                **{side: quartiles(values[side]) for side in SIDES if values[side]},
                "change_wins": sum(m > 0 for m in margins),
                "ties": sum(m == 0 for m in margins),
                "parent_values": values["parent"],
                "change_values": values["change"],
            }
        # what a check of this workload costs: each side's wall time and calls per run
        done = {
            side: [r for r in runs if (r["workload"], r["side"]) == (name, side) and r["record"] is not None]
            for side in SIDES
        }
        entry["wall_s"] = {s: statistics.median(r["wall_s"] for r in rs) for s, rs in done.items() if rs}
        entry["calls_per_run"] = {
            s: statistics.median(r["record"]["result"]["attempted"] for r in rs) for s, rs in done.items() if rs
        }
        results = [(side, result) for sides in by_seed.values() for side, result in sides.items()]
        entry["failed_calls"] = {s: sum(r["failed"] for side, r in results if side == s) for s in SIDES}
        entry["correct"] = all(r["correct"] for _, r in results) and all(
            run["record"] is not None for run in runs if run["workload"] == name
        )
        summary[name] = entry
    return summary


def document(args: argparse.Namespace, parent_commit: str, runs: list[dict]) -> dict:
    records = [run["record"] for run in runs if run["record"] is not None]
    environment = dict(records[0]["environment"]) if records else {}
    if records:
        environment["loadavg_end"] = records[-1]["environment"]["loadavg_end"]
    return {
        "series": args.series,
        "change": args.change,
        "parent_commit": parent_commit,
        "command": COMMAND,
        "method": METHOD,
        "environment": environment,
        "summary": summarize(runs),
        "runs": runs,
    }


def run_series(args: argparse.Namespace, run, parent_commit: str, out: Path, clock=time.perf_counter) -> dict:
    """Run every pair through ``run(side, workload, seed) -> (exit_code, record or None)``.

    Each run's ``wall_s`` is its time on ``clock``. ``out`` is rewritten
    after each run, so an interrupted series keeps its runs.
    """
    runs: list[dict] = []
    pairs = [(name, seed) for name, seeds in args.pairs for seed in seeds]
    for i, (name, seed) in enumerate(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            start = clock()
            exit_code, record = run(side, name, seed)
            runs.append({
                "side": side, "sequence": len(runs), "workload": name, "seed": seed,
                "finished_utc": time.strftime("%H:%M:%S", time.gmtime()),
                "wall_s": clock() - start, "exit_code": exit_code, "record": record,
            })
            doc = document(args, parent_commit, runs)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def copy_tree(revision: str | None, dest: Path) -> None:
    """The files of ``revision``, or of the working tree (tracked and not ignored) for None."""
    if revision is not None:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", revision], capture_output=True, check=True
        ).stdout
    else:
        listed = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            capture_output=True, check=True,
        ).stdout.decode().split("\0")
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            for name in filter(None, listed):
                if (ROOT / name).is_file():
                    tar.add(ROOT / name, arcname=name)
        archive = buffer.getvalue()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def benchmark(checkout: Path, name: str, seed: int) -> tuple[int, dict | None]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL)
    detail = checkout / ".perfbench_out" / f"{name}-seed{seed}-trace0.json"
    record = json.loads(detail.read_text()) if proc.returncode in (0, 1) and detail.exists() else None
    detail.unlink(missing_ok=True)
    return proc.returncode, record


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{args.against}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    out = ROOT / f"BENCH_{args.series}.json"
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        copy_tree(parent_commit, checkouts["parent"])
        copy_tree(None, checkouts["change"])

        def run(side, name, seed):
            exit_code, record = benchmark(checkouts[side], name, seed)
            print(f"{side:6s} {name} seed={seed}: exit {exit_code}", flush=True)
            return exit_code, record

        doc = run_series(args, run, parent_commit, out)
    for name, entry in doc["summary"].items():
        for side in entry["wall_s"]:
            print(f"{name} {side}: median wall {entry['wall_s'][side]:.1f} s, "
                  f"{entry['calls_per_run'][side]:g} calls per run")
        for metric in BENCHMARK["end_to_end"] if entry["pairs"] else ():
            e = entry[metric["name"]]
            print(
                f"{name} {metric['name']}: parent {e['parent']['median']:.6g} "
                f"change {e['change']['median']:.6g} ({e['change_wins']}/{entry['pairs']} change wins)"
            )
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(entry["correct"] for entry in doc["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
