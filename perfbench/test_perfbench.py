"""Self-tests of the benchmark: every workload at a tiny size, and the gate.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run._import_srsbs()

BENCHMARK = json.loads(run.BENCHMARK.read_text())
TINY = {
    "baseline_indoor_long": {"messages": 2},
    "detect_outdoor_trace": {"messages": 3},
    "sweep_depth_short": {"messages": 1, "depths": (0.05, 0.01)},
}


def tiny(name, tmp_path, seed=5, **overrides):
    return run.WORKLOADS[name](seed, tmp_path, **{**TINY[name], **overrides})


def failed_calls(workload):
    result = run.run_calls(workload, 0.0, trace=False)
    calls = [result["warmup"], *result["plain"]]
    failed, problems = run.verdict(workload, calls)
    return failed, len(calls), problems


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_passes_at_tiny_size(name, tmp_path):
    failed, attempted, problems = failed_calls(tiny(name, tmp_path))
    assert attempted >= 4
    assert failed == 0, problems


def test_corrupted_trace_value_trips_the_gate(tmp_path):
    workload = tiny("detect_outdoor_trace", tmp_path)
    lines = workload.trace.read_text().splitlines()
    lines[300] = "nan"
    workload.trace.write_text("\n".join(lines) + "\n")
    failed, attempted, problems = failed_calls(workload)
    assert failed / attempted > 0, problems


def test_wrong_code_trips_the_gate(tmp_path):
    workload = tiny("baseline_indoor_long", tmp_path, code=run.TAG_CODE + 1)
    failed, attempted, problems = failed_calls(workload)
    assert failed == attempted
    assert any("reference" in p for p in problems)


def test_reference_detector_matches_recorded_digest(tmp_path):
    import synth

    reference = json.loads(run.REFERENCE.read_text())
    seed = reference["held_out_seed"]
    codes = run._code_family()
    assert synth.code_family_digest(codes) == reference["code_family_sha256"]
    trace = synth.outdoor_trace(seed, reference["detect_outdoor_trace"]["messages"], codes[run.TAG_CODE])
    expected = synth.reference_events(trace, synth.normalized_templates(codes))
    events = [(int(p), int(expected["code"][p])) for p in (expected["code"] >= 0).nonzero()[0]]
    assert not expected["ambiguous"].any()
    assert synth.events_digest(events) == reference["detect_outdoor_trace"]["events_sha256"][str(seed)]


def test_trace_input_depends_only_on_seed():
    import synth

    chips = run._code_family()[run.TAG_CODE]
    a, b = synth.outdoor_trace(3, 2, chips), synth.outdoor_trace(3, 2, chips)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != synth.outdoor_trace(4, 2, chips).tobytes()


@pytest.mark.parametrize("trace", [0, 1])
def test_result_reports_every_declared_metric(trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    monkeypatch.setitem(
        run.WORKLOADS, "baseline_indoor_long",
        lambda seed, workdir: run.BaselineIndoorLong(seed, workdir, messages=2),
    )
    results = [run.run("baseline_indoor_long", 9, 0.0, bool(trace))["result"] for _ in range(2)]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and math.isfinite(entry["value"])
    if trace:
        counts = [m["name"] for m in declared if m["unit"] == "count"]
        first, second = (r["metrics"] for r in results)
        assert {c: first[c] for c in counts} == {c: second[c] for c in counts}
        assert first["channel.normals_per_period"]["value"] == 289
        assert 0.5 < first["trace.coverage"]["value"] <= 1.0


def test_without_srsbs_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_depth_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
