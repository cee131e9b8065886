"""Outputs pinned across versions.

``golden/digests.json`` holds the sha256 of every file that ``simulate`` and
``baseline`` write for fixed arguments; ``golden/short_trace.txt`` is a
recorded three-message trace and ``golden/short_trace_events.csv`` the events
``detect`` reports for it. A change that alters any of these bytes says so,
with the reason, in CHANGES.md and refreshes the fixture in the same change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from srsbs.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())
PRESETS = ("noiseless", "indoor_short", "indoor_long", "outdoor")
SIMULATE_ARGS = ["--code", "7", "--messages", "20", "--seed", "11"]
BASELINE_ARGS = ["--scenario", "indoor_long", "--code", "7", "--messages", "5", "--seed", "11"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_digests(workdir: Path, scenario: str) -> dict:
    out, events, trace = workdir / "results.csv", workdir / "events.csv", workdir / "trace.txt"
    argv = ["simulate", "--scenario", scenario, *SIMULATE_ARGS, "--out", str(out),
            "--events", str(events), "--export-trace", str(trace)]
    assert main(argv) == 0
    manifest = out.with_name(out.name + ".manifest.json")
    return {name: sha256(p) for name, p in
            (("results", out), ("events", events), ("trace", trace), ("manifest", manifest))}


def baseline_digests(workdir: Path) -> dict:
    out, prefix = workdir / "baseline.csv", workdir / "trace"
    argv = ["baseline", *BASELINE_ARGS, "--out", str(out), "--export-trace", str(prefix)]
    assert main(argv) == 0
    files = {
        "results": out,
        "manifest": out.with_name(out.name + ".manifest.json"),
        "trace_off": workdir / "trace.off.txt",
        "trace_on": workdir / "trace.on.txt",
    }
    return {name: sha256(p) for name, p in files.items()}


@pytest.mark.parametrize("scenario", PRESETS)
def test_simulate_outputs_pinned(tmp_path, capsys, scenario):
    assert simulate_digests(tmp_path, scenario) == DIGESTS["simulate"][scenario]


def test_baseline_outputs_pinned(tmp_path, capsys):
    assert baseline_digests(tmp_path) == DIGESTS["baseline"]


def test_detect_events_pinned(tmp_path, capsys):
    out = tmp_path / "events.csv"
    assert main(["detect", "--trace", str(GOLDEN / "short_trace.txt"), "--out", str(out)]) == 0
    expected = (GOLDEN / "short_trace_events.csv").read_text()
    assert expected.count("\n") > 1  # the pinned trace does produce events
    assert out.read_text() == expected
