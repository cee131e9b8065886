"""Smoke tests of the experiment scripts under ``scripts/``."""

import argparse
import csv
import json
import importlib.util
from pathlib import Path

import pytest

from srsbs.harness import derive_seed

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_modulation_depth_reports_each_point_seed(tmp_path, capsys):
    out = tmp_path / "depth.csv"
    script = load_script("sweep_modulation_depth")
    assert script.main(["--messages", "1", "--depths", "0.05,0.02", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["parameter_value"] for row in rows] == ["0.05", "0.02"]
    # point i runs with the child seed i of the base seed 41
    assert [int(row["seed"]) for row in rows] == [derive_seed(41, 0), derive_seed(41, 1)]


@pytest.mark.parametrize(
    "depths, message",
    [
        (",", "error: --depths must be comma-separated numbers, got ','"),
        ("0.05,deep", "error: --depths must be comma-separated numbers, got '0.05,deep'"),
        ("-0.01", "error: modulation_depth must be >= 0"),
    ],
)
def test_sweep_modulation_depth_rejects_bad_depths(capsys, depths, message):
    script = load_script("sweep_modulation_depth")
    assert script.main(["--messages", "1", "--depths", depths]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def bench_record(side, workload, seed):
    """A run's detail record as ``perfbench/run.py`` writes it, cut to what the series reads."""
    values = {"us_per_period": 3.0 if side == "parent" else 2.0 + seed / 100,
              "setup_s": 0.4, "peak_rss_mb": 70.0, "pass_ratio": 1.0}
    return {
        "workload": workload, "seed": seed,
        "environment": {"nproc": 2, "loadavg_start": [seed, 0, 0], "loadavg_end": [seed, 1, 1]},
        "result": {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {key: {"value": value, "unit": "x"} for key, value in values.items()},
        },
    }


def test_bench_pairs_alternates_sides_and_writes_the_series(tmp_path):
    script = load_script("bench_pairs")
    args = argparse.Namespace(
        change="faster detect", series=9,
        pairs=[("detect_outdoor_trace", [1, 2, 3]), ("sweep_depth_short", [4])],
    )
    calls = []

    def run(side, workload, seed):  # stands in for one benchmark run
        calls.append((side, workload, seed))
        if (side, workload) == ("change", "sweep_depth_short"):
            return 2, None  # the benchmark could not run
        return 0, bench_record(side, workload, seed)

    out = tmp_path / "BENCH_9.json"
    doc = script.run_series(args, run, "abc123", out)
    detect = "detect_outdoor_trace"
    assert calls == [
        ("parent", detect, 1), ("change", detect, 1), ("change", detect, 2), ("parent", detect, 2),
        ("parent", detect, 3), ("change", detect, 3),
        ("change", "sweep_depth_short", 4), ("parent", "sweep_depth_short", 4),
    ]
    assert json.loads(out.read_text()) == doc
    assert list(doc) == [
        "series", "change", "parent_commit", "command", "method", "environment", "summary", "runs",
    ]
    assert (doc["series"], doc["change"], doc["parent_commit"]) == (9, "faster detect", "abc123")
    assert doc["command"].endswith("--seconds 30 --trace 0")
    assert doc["environment"]["loadavg_start"] == [1, 0, 0]
    assert doc["environment"]["loadavg_end"] == [4, 1, 1]
    assert [run["sequence"] for run in doc["runs"]] == list(range(8))
    assert doc["runs"][6] == {
        "side": "change", "sequence": 6, "workload": "sweep_depth_short", "seed": 4,
        "finished_utc": doc["runs"][6]["finished_utc"], "exit_code": 2, "record": None,
    }

    summary = doc["summary"][detect]
    assert (summary["seeds"], summary["pairs"], summary["correct"]) == ([1, 2, 3], 3, True)
    assert summary["failed_calls"] == {"parent": 0, "change": 0}
    speed = summary["us_per_period"]
    assert speed["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 3}
    assert speed["change"] == {"median": 2.02, "q1": pytest.approx(2.015), "q3": pytest.approx(2.025), "n": 3}
    assert (speed["change_wins"], speed["ties"]) == (3, 0)
    assert speed["change_values"] == [2.01, 2.02, 2.03]
    assert (summary["pass_ratio"]["change_wins"], summary["pass_ratio"]["ties"]) == (0, 3)
    sweep = doc["summary"]["sweep_depth_short"]
    assert (sweep["pairs"], sweep["correct"]) == (0, False)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--pairs", "detect_outdoor_trace=1"], "the following arguments are required: --change"),
        (["--change", "x", "--pairs", "detect=1"], "unknown workload 'detect'"),
        (["--change", "x", "--pairs", "detect_outdoor_trace=1,two"], "seeds must be comma-separated integers"),
    ],
)
def test_bench_pairs_rejects_bad_arguments(capsys, argv, message):
    script = load_script("bench_pairs")
    with pytest.raises(SystemExit) as info:
        script.parse_args(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_bench_pairs_defaults_to_the_next_series():
    script = load_script("bench_pairs")
    args = script.parse_args(["--change", "x", "--pairs", "baseline_indoor_long=2,3"])
    existing = [int(p.stem.split("_")[1]) for p in SCRIPTS.parent.glob("BENCH_*.json")]
    assert args.series == max(existing, default=0) + 1
    assert (args.against, args.pairs) == ("HEAD", [("baseline_indoor_long", [2, 3])])
