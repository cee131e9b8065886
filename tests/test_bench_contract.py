"""The benchmark's traced run still finds what it instruments.

``perfbench/tracing.py`` wraps srsbs functions by module attribute name and
counts the normal draws through the generator passed last to ``propagate``
and ``step``. A rename, a moved function or a change in the draws per period
breaks the traced benchmark run; this test makes it fail here first.
"""

from pathlib import Path

from srsbs import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PERIODS = 217  # one message
NORMALS_PER_PERIOD = 2 * 144 + 1  # complex noise on each subcarrier, one drift draw
PER_PERIOD_LAYERS = (
    "channel.propagate",
    "channel.step",
    "tag.keying",
    "detector.magnitude",
    "detector.gate",
    "detector.median",
    "detector.sd",
    "detector.process",
    "detector.correlate",
)


def test_traced_simulate_counts_every_layer(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(
            ["simulate", "--scenario", "outdoor", "--messages", "1", "--code", "7",
             "--seed", "3", "--out", str(tmp_path / "results.csv")]
        )
    assert code == 0
    report = tracer.report()
    assert report["counts"]["channel.normals"] == NORMALS_PER_PERIOD * PERIODS
    calls = {name: acc["calls"] for name, acc in report["accumulators"].items()}
    for layer in PER_PERIOD_LAYERS:
        assert calls.get(layer) == PERIODS, layer
