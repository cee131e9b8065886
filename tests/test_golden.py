"""Outputs pinned across versions.

``golden/digests.json`` holds the sha256 of every file that ``simulate`` and
``baseline`` write for fixed arguments; ``golden/short_trace.txt`` is a
recorded three-message trace and ``golden/short_trace_events.csv`` the events
``detect`` reports for it. A change that alters any of these bytes says so,
with the reason, in CHANGES.md and refreshes the fixture in the same change;
``scripts/regen_goldens.py`` rewrites both fixtures from these helpers.
"""

import hashlib
import json
from pathlib import Path

import pytest

from srsbs.cli import main
from srsbs.detector import Detector, pearson
from srsbs.harness import read_events_csv, read_trace
from srsbs.tag import encode_repetition

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


def detect_events(workdir: Path) -> Path:
    out = workdir / "events.csv"
    assert main(["detect", "--trace", str(GOLDEN / "short_trace.txt"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("scenario", PRESETS)
def test_simulate_outputs_pinned(tmp_path, capsys, scenario):
    assert simulate_digests(tmp_path, scenario) == DIGESTS["simulate"][scenario]


def test_baseline_outputs_pinned(tmp_path, capsys):
    assert baseline_digests(tmp_path) == DIGESTS["baseline"]


def test_detect_events_pinned(tmp_path, capsys):
    out = detect_events(tmp_path)
    expected = (GOLDEN / "short_trace_events.csv").read_text()
    assert expected.count("\n") > 1  # the pinned trace does produce events
    assert out.read_text() == expected


def test_pinned_correlations_follow_the_definition(gold_set):
    """Each pinned correlation is ``pearson`` of its code and its filtered window."""
    with open(GOLDEN / "short_trace.txt") as fh:
        trace = read_trace(fh)
    with open(GOLDEN / "short_trace_events.csv") as fh:
        pinned = {ev.period_index: ev for ev in read_events_csv(fh)}
    assert len(pinned) == 41
    detector = Detector()
    for period, value in enumerate(trace):
        detector.process(value)
        if period in pinned:
            event = pinned.pop(period)
            template = encode_repetition(gold_set.code(event.code_id), 7)
            r = pearson(template, detector.state.correlation_window)
            assert abs(event.correlation - r) <= 1e-12, period
    assert not pinned
