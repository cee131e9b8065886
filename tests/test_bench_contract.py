"""The benchmark's traced run still finds what it instruments.

``perfbench/tracing.py`` wraps srsbs functions by module attribute name and
counts the normal draws through the generator passed last to ``propagate``
and ``step``. A rename, a moved function or a change in the draws per period
breaks the traced benchmark run; this test makes it fail here first. The
layers it wraps are the one-period reference API (``ook_state``,
``propagate``, ``step``, ``average_magnitude``, looked up in
``srsbs.harness``) and the one-sample streaming detector
(``Detector.process``). Runs simulate the channel in blocks
(``received_magnitudes``, on its own stream layout) and detect with the
block kernel, which call none of them, so the layers are counted on a
per-period loop over as many periods. The benchmark's set-up child and its
workloads also call srsbs outside the tracer, through the config API; those
calls are checked here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from srsbs import cli, harness
from srsbs.channel import get_preset
from srsbs.detector import Detector
from srsbs.harness import CodeConfig, read_trace
from srsbs.srs import make_srs_symbol
from srsbs.tag import encode_repetition

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PERIODS = 217  # one message
NORMALS_PER_PERIOD = 2 * 144 + 1  # complex noise on each subcarrier, one drift draw
CHANNEL_LAYERS = (
    "channel.propagate",
    "channel.step",
    "tag.keying",
    "detector.magnitude",
)
STREAMING_LAYERS = (
    "detector.gate",
    "detector.median",
    "detector.sd",
    "detector.process",
    "detector.correlate",
)


def _layer_calls(tracer) -> dict:
    return {name: acc["calls"] for name, acc in tracer.report()["accumulators"].items()}


def test_traced_simulate_counts_every_layer(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(
            ["simulate", "--scenario", "outdoor", "--messages", "1", "--code", "7",
             "--seed", "3", "--out", str(tmp_path / "results.csv"),
             "--export-trace", str(tmp_path / "trace.txt")]
        )
    assert code == 0

    with open(tmp_path / "trace.txt") as fh:
        trace = read_trace(fh)
    assert trace.size == PERIODS
    tracer = tracing.Tracer()
    with tracer.installed():
        channel = get_preset("outdoor")
        message = encode_repetition(CodeConfig().build().code(7), 7)
        pilot = make_srs_symbol()
        rng = np.random.default_rng(3)
        gain = channel.base_gain
        for k in range(PERIODS):
            b = harness.ook_state(message, k)
            received = harness.propagate(pilot, b, gain, channel, rng)
            gain = harness.step(gain, channel, rng)
            harness.average_magnitude(received)
    assert np.all(np.isfinite(trace)) and np.all(trace > 0)
    assert tracer.report()["counts"]["channel.normals"] == NORMALS_PER_PERIOD * PERIODS
    calls = _layer_calls(tracer)
    for layer in CHANNEL_LAYERS:
        assert calls.get(layer) == PERIODS, layer

    tracer = tracing.Tracer()
    with tracer.installed():
        detector = Detector()
        for a in trace:
            detector.process(a)
    calls = _layer_calls(tracer)
    for layer in STREAMING_LAYERS:
        assert calls.get(layer) == PERIODS, layer


def _bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    return run


def test_setup_child_builds_a_detector(monkeypatch):
    run = _bench_run(monkeypatch)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", run.SETUP_CHILD, str(PERFBENCH)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    split = json.loads(proc.stdout.splitlines()[0])
    assert set(split) == {"import_s", "codes_s", "detector_s"}


def test_sweep_workload_runs_and_checks(tmp_path, monkeypatch):
    run = _bench_run(monkeypatch)
    workload = run.WORKLOADS["sweep_depth_short"](1, tmp_path, messages=1, depths=(0.05, 0.01))
    assert cli.main(workload.argv) == 0
    assert workload.check() == []


def test_detect_workload_runs_and_checks(tmp_path, monkeypatch):
    run = _bench_run(monkeypatch)
    workload = run.WORKLOADS["detect_outdoor_trace"](1, tmp_path, messages=3)
    assert cli.main(workload.argv) == 0
    assert workload.check() == []
