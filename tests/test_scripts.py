"""Smoke tests of the experiment scripts under ``scripts/``."""

import csv
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
