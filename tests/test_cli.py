import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from srsbs.cli import main
from srsbs.detector import BLOCK, Detector
from srsbs.harness import ExperimentConfig, format_events, run_experiment, write_trace

TESTS_DIR = Path(__file__).parent


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    doc = {"scenario": "noiseless", "tag_code_id": 7, "messages": 3, "seed": 5}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestGenCodes:
    def test_emits_33_rows(self, capsys):
        code, out, _ = run_cli(["gen-codes"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 33
        first = rows[0].split(",")
        assert first[0] == "0"
        assert len(first) == 32
        assert set(first[1:]) <= {"1", "-1"}

    def test_byte_identical_across_invocations(self, capsys):
        _, out1, _ = run_cli(["gen-codes"], capsys)
        _, out2, _ = run_cli(["gen-codes"], capsys)
        assert out1 == out2

    def test_piped_output_passes_brute_force_audit(self, tmp_path):
        gen = subprocess.run(
            [sys.executable, "-m", "srsbs.cli", "gen-codes"],
            capture_output=True,
            text=True,
            check=True,
        )
        audit = subprocess.run(
            [sys.executable, str(TESTS_DIR / "code_audit.py")],
            input=gen.stdout,
            capture_output=True,
            text=True,
        )
        assert audit.returncode == 0, audit.stderr
        assert "audit ok" in audit.stdout

    def test_out_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "codes.csv"
        code, _, _ = run_cli(["gen-codes", "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 33
        manifest = json.loads((tmp_path / "codes.csv.manifest.json").read_text())
        assert manifest["command"] == "gen-codes"


class TestSimulate:
    def test_noiseless_detection_in_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("parameter_value,detection_probability")
        assert lines[1].split(",")[1] == "1.0"

    def test_scenario_flag_without_config(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--scenario", "noiseless", "--messages", "2"], capsys
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "1.0"

    def test_manifest_and_json_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "results.json"
        code, _, _ = run_cli(
            [
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["detection_probability"] == 1.0
        manifest = json.loads((tmp_path / "results.json.manifest.json").read_text())
        assert manifest["config"]["seed"] == 5
        assert manifest["metrics"]["n_srs"] == 3 * 217

    def test_trace_detect_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trace = tmp_path / "trace.txt"
        events = tmp_path / "events.csv"
        code, _, _ = run_cli(
            [
                "simulate",
                "--config",
                str(cfg),
                "--export-trace",
                str(trace),
                "--events",
                str(events),
                "--out",
                str(tmp_path / "r.csv"),
            ],
            capsys,
        )
        assert code == 0
        detected = tmp_path / "events2.csv"
        code, _, _ = run_cli(
            ["detect", "--trace", str(trace), "--config", str(cfg), "--out", str(detected)],
            capsys,
        )
        assert code == 0
        assert detected.read_bytes() == events.read_bytes()
        # a clean tag-on trace yields events for the configured code only
        rows = detected.read_text().strip().splitlines()[1:]
        assert rows
        assert {row.split(",")[1] for row in rows} == {"7"}

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "noiseless", "nope": 1}))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert "unknown config keys" in err

    def test_unknown_scenario_is_config_error(self, capsys):
        code, _, err = run_cli(["simulate", "--scenario", "underwater"], capsys)
        assert code == 2
        assert "unknown scenario" in err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert "bad.json" in err

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--config", str(tmp_path / "ghost.json")], capsys
        )
        assert code == 1
        assert "ghost.json" in err


    @pytest.mark.parametrize(
        "doc, argv",
        [
            ('{"messages": 2.5}', ["simulate"]),
            ('{"messages": true}', ["simulate"]),
            ("[1, 2]", ["simulate"]),
            ('{"tag_enabled": "false"}', ["simulate"]),
            ('{"tag_enabled": 1}', ["simulate"]),
            ('{"filter": {"median_window": 2.5}}', ["simulate"]),
            ('{"filter": {"alpha": true}}', ["simulate"]),
            ('{"scenario": {"modulation_depth": NaN}}', ["simulate"]),
            ('{"scenario": {"base_gain": Infinity}}', ["simulate"]),
            ('{"scenario": {"seed": 3}}', ["simulate"]),
            ('{"detector": {"code_set": 1}}', ["simulate"]),
            ('{"codes": {"poly_a": 5}}', ["simulate"]),
            ('{"codes": [1]}', ["simulate"]),
            ('{"zc": {"target_length": 150}}', ["simulate"]),
            ('{"messages": 2}', ["sweep", "--param", "seed", "--values", "1"]),
            ('{"zc": {"base_length": 2305843009213693951}}', ["simulate"]),
            ('{"filter": {"x": 1}}', ["simulate"]),
            ('{"scenario": {"modulation_depth": 1e308, "noise_sigma": 0.1}, "messages": 2}',
             ["simulate"]),
            ('{"scenario": {"noise_sigma": 0.1}, "messages": 2}',
             ["sweep", "--param", "modulation_depth", "--values", "0.05,1e308"]),
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, doc, argv):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run_cli([*argv, "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSeedPrecedence:
    def test_env_overrides_file(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, seed=5)
        monkeypatch.setenv("SRSBS_SEED", "99")
        _, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert out.strip().splitlines()[1].split(",")[-1] == "99"

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, seed=5)
        monkeypatch.setenv("SRSBS_SEED", "99")
        _, out, _ = run_cli(
            ["simulate", "--config", str(cfg), "--seed", "123"], capsys
        )
        assert out.strip().splitlines()[1].split(",")[-1] == "123"

    @pytest.mark.parametrize("where", ["flag", "env", "file"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch, where):
        cfg = write_config(tmp_path, **({"seed": -1} if where == "file" else {}))
        argv = ["simulate", "--config", str(cfg)]
        if where == "flag":
            argv += ["--seed", "-1"]
        if where == "env":
            monkeypatch.setenv("SRSBS_SEED", "-1")
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    def test_bad_env_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("SRSBS_SEED", "pi")
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "SRSBS_SEED" in err


class TestDetect:
    def test_constant_trace_zero_events(self, tmp_path, capsys):
        trace = tmp_path / "flat.txt"
        trace.write_text("".join("0.3\n" for _ in range(500)))
        code, out, _ = run_cli(["detect", "--trace", str(trace)], capsys)
        assert code == 0
        assert out.strip().splitlines() == ["period_index,code_id,correlation"]

    def test_missing_trace_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["detect", "--trace", str(tmp_path / "ghost.txt")], capsys
        )
        assert code == 1
        assert "ghost.txt" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.3"])
    def test_bad_trace_value_is_config_error(self, tmp_path, capsys, bad):
        # one bad sample at line 601 of a six-message noiseless trace
        trace = tmp_path / "trace.txt"
        code, _, _ = run_cli(
            ["simulate", "--scenario", "noiseless", "--messages", "6", "--code", "7",
             "--export-trace", str(trace)],
            capsys,
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        lines[600] = bad
        trace.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["detect", "--trace", str(trace)], capsys)
        assert code == 2
        assert out == ""
        assert "line 601" in err

    def test_corrupt_trace_is_config_error(self, tmp_path, capsys):
        trace = tmp_path / "bad.txt"
        trace.write_text("0.3\nbanana\n")
        code, _, err = run_cli(["detect", "--trace", str(trace)], capsys)
        assert code == 2
        assert "line 2" in err


@pytest.fixture(scope="module")
def long_trace():
    """An outdoor tag-on trace a little over three detector blocks long."""
    config = ExperimentConfig(scenario="outdoor", tag_code_id=7, messages=57, seed=3)
    return run_experiment(config, keep_trace=True).trace


class TestChunkedDetect:
    """``detect`` reads its trace in chunks; its events are those of the whole trace."""

    @pytest.mark.parametrize(
        "lines, blank_every",
        [(BLOCK - 1, 0), (BLOCK, 0), (BLOCK + 1, 0), (3 * BLOCK + 5, 0), (3 * BLOCK + 5, 997)],
    )
    def test_events_equal_whole_trace_detection(self, tmp_path, capsys, long_trace, lines, blank_every):
        values = long_trace[: lines - (lines // blank_every if blank_every else 0)]
        buf = io.StringIO()
        write_trace(buf, values)
        text = buf.getvalue().splitlines(keepends=True)
        if blank_every:  # blank lines shift every later value across the chunk boundaries
            for at in range(blank_every - 1, lines, blank_every):
                text.insert(at, "\n")
        assert len(text) == lines
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(text))
        expected = format_events(Detector().process_block(values), "csv")
        assert expected.count("\n") > 1  # some events fire
        code, out, err = run_cli(["detect", "--trace", str(trace)], capsys)
        assert (code, err) == (0, "")
        assert out == expected

    def test_bad_value_in_the_last_chunk_leaves_no_output(self, tmp_path, capsys, long_trace):
        lines = [f"{value!r}\n" for value in long_trace[: 3 * BLOCK + 5].tolist()]
        lines[3 * BLOCK + 1] = "nan\n"
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(lines))
        out_path = tmp_path / "events.csv"
        code, out, err = run_cli(["detect", "--trace", str(trace), "--out", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: trace line {3 * BLOCK + 2} is not a finite non-negative magnitude: 'nan'\n"
        assert list(tmp_path.iterdir()) == [trace]


class TestBaselineAndSweep:
    def test_baseline_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, messages=2)
        code, out, _ = run_cli(["baseline", "--config", str(cfg)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("off,")
        assert lines[2].startswith("on,")
        assert lines[2].split(",")[1] == "1.0"

    def test_baseline_trace_export(self, tmp_path, capsys):
        cfg = write_config(tmp_path, messages=2)
        prefix = tmp_path / "phase"
        code, _, _ = run_cli(
            ["baseline", "--config", str(cfg), "--export-trace", str(prefix)], capsys
        )
        assert code == 0
        off = (tmp_path / "phase.off.txt").read_text().splitlines()
        on = (tmp_path / "phase.on.txt").read_text().splitlines()
        assert len(off) == len(on) == 2 * 217

    def test_sweep_rows_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, messages=2)
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "sweep",
                "--config",
                str(cfg),
                "--param",
                "modulation_depth",
                "--values",
                "0.05,0.01",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.05,")
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["parameter"] == "modulation_depth"

    def test_sweep_bad_values_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run_cli(
            ["sweep", "--config", str(cfg), "--param", "theta", "--values", "a,b"],
            capsys,
        )
        assert code == 2
        assert "--values" in err

    def test_sweep_unknown_param_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run_cli(
            ["sweep", "--config", str(cfg), "--param", "magic", "--values", "1"],
            capsys,
        )
        assert code == 2
        assert "unknown sweep parameter" in err

    def test_sweep_int_field_rejects_fractional_value(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--scenario", "noiseless", "--param", "v", "--values", "7.5",
             "--messages", "2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: v must be int, got 7.5\n"

    def test_sweep_int_field_runs_integral_value_as_int(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--scenario", "noiseless", "--param", "v", "--values", "7",
             "--messages", "2"],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "7.0"  # the value as given
        assert row[1] == "1.0"
        assert row[4] == str(2 * 7 * 31)  # n_srs = R * v * n, with v the int 7

    @pytest.mark.parametrize("values", [",", " "])
    def test_sweep_empty_values_rejected(self, values, capsys):
        code, out, err = run_cli(
            ["sweep", "--scenario", "noiseless", "--param", "modulation_depth",
             "--values", values, "--messages", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --values must be comma-separated numbers, got {values!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--export-trace", "trace.txt", "--events", "events.csv"],
        ["baseline", "--export-trace", "trace"],
        ["sweep", "--param", "noise_sigma", "--values", "0.12,0.06"],
    ],
    ids=["simulate", "baseline", "sweep"],
)
def test_manifest_records_rng_layout_and_reruns_repeat(tmp_path, capsys, monkeypatch, argv):
    outputs = []
    for run in ("first", "second"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        args = [*argv, "--scenario", "outdoor", "--code", "7", "--messages", "1",
                "--seed", "9", "--out", "results.csv"]
        assert main(args) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(workdir.iterdir())})
    assert outputs[0] == outputs[1]
    manifest = json.loads(outputs[0]["results.csv.manifest.json"])
    assert manifest["command"] == argv[0]
    assert manifest["rng_layout"] == 2
