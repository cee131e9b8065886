#!/usr/bin/env python3
"""Regenerate the golden fixtures in tests/golden and report what moved.

Runs the commands that tests/test_golden.py pins, through that file's own
helpers, once with the working tree's source and once with the source of a
git revision (default HEAD). Then it rewrites tests/golden/digests.json and
tests/golden/short_trace_events.csv from the working tree's outputs and
prints one line per pinned file: whether its digest changed; for an events
file, whether any (period_index, code_id) pair changed against the revision
and the largest change of a correlation; for a changed manifest, each JSON
path added, removed or changed against the revision. Last it runs
tests/test_golden.py on the new fixtures; the exit code is pytest's.

    python scripts/regen_goldens.py [--against REV]
"""

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import copy_tree

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def write_outputs(outdir: Path) -> None:
    """Run every pinned command into ``outdir`` with the ``srsbs`` on the path."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_golden as golden

    digests = {"simulate": {}}
    with contextlib.redirect_stdout(io.StringIO()):
        for scenario in golden.PRESETS:
            workdir = outdir / "simulate" / scenario
            workdir.mkdir(parents=True)
            digests["simulate"][scenario] = golden.simulate_digests(workdir, scenario)
        for name in ("baseline", "detect"):
            (outdir / name).mkdir()
        digests["baseline"] = golden.baseline_digests(outdir / "baseline")
        golden.detect_events(outdir / "detect")
    (outdir / "digests.json").write_text(json.dumps(digests))


def run_side(src: Path, outdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--write", str(outdir)], env=env, check=True)
    return json.loads((outdir / "digests.json").read_text())


def read_events(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    pairs = [(int(row["period_index"]), int(row["code_id"])) for row in rows]
    return pairs, [float(row["correlation"]) for row in rows]


def compare_events(old: Path, new: Path) -> str:
    """Whether the (period, code) pairs of two events files agree, and by how much r moved."""
    old_pairs, old_r = read_events(old)
    new_pairs, new_r = read_events(new)
    if old_pairs != new_pairs:
        return f"(period, code) pairs CHANGED ({len(old_pairs)} -> {len(new_pairs)} events)"
    drift = max((abs(a - b) for a, b in zip(old_r, new_r)), default=0.0)
    return f"(period, code) pairs unchanged ({len(new_pairs)} events), max |r change| {drift:.1e}"


def manifest_changes(old: dict, new: dict, prefix: str = "") -> list[str]:
    """Each JSON path that ``new`` adds, removes or changes against ``old``, as ``"removed a.b"``."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        path = f"{prefix}{key}"
        if key not in new:
            lines.append(f"removed {path}")
        elif key not in old:
            lines.append(f"added {path}")
        elif isinstance(old[key], dict) and isinstance(new[key], dict):
            lines.extend(manifest_changes(old[key], new[key], path + "."))
        elif old[key] != new[key]:
            lines.append(f"changed {path}")
    return lines


def report_manifest(tmp: Path, manifest: Path) -> None:
    """Print the JSON paths that moved in one manifest between the revision's and the new run."""
    old, new = (json.loads((tmp / side / manifest).read_text()) for side in ("old_out", "new_out"))
    for line in manifest_changes(old, new):
        print(f"    {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", help="git revision to compare events with")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)  # one side's run
    args = parser.parse_args(argv)
    if args.write:
        write_outputs(args.write)
        return 0

    pinned = json.loads((GOLDEN / "digests.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        copy_tree(args.against, tmp / "old")
        run_side(tmp / "old" / "src", tmp / "old_out")
        new = run_side(ROOT / "src", tmp / "new_out")

        print("tests/golden/digests.json")
        for name in sorted(new["baseline"]):
            moved = pinned["baseline"].get(name) != new["baseline"][name]
            print(f"  baseline/{name}: {'changed' if moved else 'unchanged'}")
            if name == "manifest" and moved:
                report_manifest(tmp, Path("baseline", "baseline.csv.manifest.json"))
        for scenario, digests in sorted(new["simulate"].items()):
            for name in sorted(digests):
                moved = pinned["simulate"].get(scenario, {}).get(name) != digests[name]
                line = f"  simulate/{scenario}/{name}: {'changed' if moved else 'unchanged'}"
                if name == "events":
                    events = Path("simulate", scenario, "events.csv")
                    line += "; " + compare_events(tmp / "old_out" / events, tmp / "new_out" / events)
                print(line)
                if name == "manifest" and moved:
                    report_manifest(tmp, Path("simulate", scenario, "results.csv.manifest.json"))
        detect = tmp / "new_out" / "detect" / "events.csv"
        fixture = GOLDEN / "short_trace_events.csv"
        moved = "unchanged" if detect.read_bytes() == fixture.read_bytes() else "changed"
        report = compare_events(tmp / "old_out" / "detect" / "events.csv", detect)
        print(f"tests/golden/short_trace_events.csv: {moved}; {report}")

        (GOLDEN / "digests.json").write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
        shutil.copyfile(detect, fixture)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    test = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py"]
    return subprocess.run(test, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
