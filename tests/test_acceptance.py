"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy runs are shared through module-scoped fixtures. Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from srsbs.channel import ChannelConfig
from srsbs.cli import main as cli_main
from srsbs.detector import Detector, DetectorConfig, DetectorState, FilterConfig, hard_threshold, pearson
from srsbs.harness import ExperimentConfig, dedup_events, run_experiment, run_phases, sweep
from srsbs.srs import ZcConfig, generate_zc_base, make_srs_symbol
from srsbs.tag import OokSchedule, encode_repetition, generate_gold_set


@pytest.fixture(scope="module")
def code_set():
    return generate_gold_set()


@pytest.fixture(scope="module")
def indoor_long_phases():
    config = ExperimentConfig(
        scenario="indoor_long", tag_code_id=7, messages=300, seed=2024
    )
    start = time.perf_counter()
    off, on = run_phases(config, keep_trace=False)
    elapsed = time.perf_counter() - start
    return off, on, elapsed


def test_c01_gold_code_audit(code_set):
    start = time.perf_counter()
    codes = code_set.codes.astype(np.int64)
    assert codes.shape == (33, 31)
    assert len({tuple(c) for c in codes}) == 33
    # independent brute force: explicit rotation matrices per code
    rotations = [
        np.stack([np.roll(c, lag) for lag in range(31)]) for c in codes
    ]
    for i in range(33):
        assert int(codes[i] @ codes[i]) == 31
        for j in range(33):
            if i == j:
                continue
            values = set(int(v) for v in codes[i] @ rotations[j].T)
            assert values <= {-9, -1, 7}, f"pair ({i},{j}): {sorted(values)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS: 33 codes, cross-correlation three-valued "
        f"{{-9,-1,7}}, lag-0 peak 31 ({elapsed:.2f}s)"
    )


def test_c02_timing_identities(indoor_long_phases):
    schedule = OokSchedule.for_message(v=7, n=31)
    assert schedule.message_duration == 2.17
    assert 300 * 7 * 31 == 65100
    _, on, _ = indoor_long_phases
    assert on.n_srs == 65100
    assert on.simulated_seconds == pytest.approx(651.0, abs=1e-9)
    print(
        "\nACCEPTANCE 2 PASS: message duration 2.17 s exactly; "
        "300 messages = 65100 sounding periods"
    )


def test_c03_noiseless_end_to_end():
    start = time.perf_counter()
    on = run_experiment(
        ExperimentConfig(scenario="noiseless", tag_code_id=11, messages=50, seed=7)
    )
    off = run_experiment(
        ExperimentConfig(
            scenario="noiseless", tag_code_id=11, tag_enabled=False, messages=50, seed=8
        )
    )
    elapsed = time.perf_counter() - start
    assert on.detection_probability == 1.0
    assert on.cross_false_alarm_probability == 0.0
    assert off.false_alarm_probability == 0.0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 3 PASS: noiseless R=50 detection 1.00, "
        f"false alarm 0.00, cross false alarm 0.00 ({elapsed:.1f}s)"
    )


def test_c04_pearson_oracle(code_set):
    def oracle(x, y):
        n = len(x)
        mx = sum(x) / n
        my = sum(y) / n
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(
            sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
        )
        return 0.0 if den == 0 else num / den

    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        template = rng.choice([-1.0, 1.0], size=217)
        window = rng.normal(0.0, 1.0, size=217)
        worst = max(worst, abs(pearson(template, window) - oracle(template, window)))
    assert worst < 1e-10

    # the matrix path used per period must match the same oracle
    detector = Detector(DetectorConfig(code_set=code_set))
    templates = [
        encode_repetition(code_set.code(cid), 7).astype(float)
        for cid in code_set.labels
    ]
    worst_matrix = 0.0
    for _ in range(20):
        window = rng.normal(0.0, 1.0, size=217)
        detector.state.correlation_window[:] = window
        detector.state.window_fill = 217
        r = detector.correlate()
        for cid, template in enumerate(templates):
            worst_matrix = max(worst_matrix, abs(r[cid] - oracle(template, window)))
    assert worst_matrix < 1e-10

    affine = 2.0 * templates[3] + 5.0
    assert abs(pearson(templates[3], affine) - 1.0) < 1e-12
    print(
        f"\nACCEPTANCE 4 PASS: correlator matches direct-formula oracle "
        f"(worst scalar {worst:.1e}, worst matrix {worst_matrix:.1e}); affine image r=1"
    )


def test_c05_decision_scale_invariance(code_set):
    config = ExperimentConfig(
        scenario="indoor_long", tag_code_id=7, messages=20, seed=99
    )
    metrics = run_experiment(config, keep_trace=True)
    # recorded stream downstream of the validity gate
    gate_state = DetectorState()
    gate_cfg = FilterConfig()
    gated = [hard_threshold(float(a), gate_state, gate_cfg) for a in metrics.trace]

    def downstream(stream):
        det = Detector(
            DetectorConfig(code_set=code_set), FilterConfig(enable_hard=False)
        )
        events = [ev for a in stream if (ev := det.process(a))]
        return dedup_events(events, 217)

    base = downstream(gated)
    assert base, "reference stream must produce detections"
    for c in (0.5, 2.0, 10.0):
        scaled = downstream([c * a for a in gated])
        assert [(e.period_index, e.code_id) for e in scaled] == [
            (e.period_index, e.code_id) for e in base
        ], f"scale {c}"
        for e_base, e_scaled in zip(base, scaled):
            assert abs(e_base.correlation - e_scaled.correlation) < 1e-12
    print(
        f"\nACCEPTANCE 5 PASS: de-duplicated events identical under "
        f"x0.5/x2/x10 scaling ({len(base)} events)"
    )


def test_c06_monotonicity():
    depth_base = ExperimentConfig(
        scenario=ChannelConfig(base_gain=0.3, modulation_depth=0.05, noise_sigma=0.02),
        tag_code_id=7,
        messages=100,
        seed=41,
    )
    depth_table = sweep(depth_base, "modulation_depth", [0.05, 0.02, 0.01])
    depth_det = [m.detection_probability for _, m in depth_table]
    assert all(a >= b for a, b in zip(depth_det, depth_det[1:])), depth_det

    noise_base = ExperimentConfig(
        scenario=ChannelConfig(base_gain=0.3, modulation_depth=0.01, noise_sigma=0.01),
        tag_code_id=7,
        messages=100,
        seed=42,
    )
    noise_table = sweep(noise_base, "noise_sigma", [0.01, 0.05, 0.10])
    noise_det = [m.detection_probability for _, m in noise_table]
    assert all(a >= b for a, b in zip(noise_det, noise_det[1:])), noise_det
    print(
        f"\nACCEPTANCE 6 PASS: detection non-increasing over depth sweep "
        f"{depth_det} and noise sweep {noise_det}"
    )


def test_c07_filter_efficacy():
    # spikes land below the validity gate so the median/SD stages do the work
    scenario = ChannelConfig(
        base_gain=0.15,
        modulation_depth=0.05,
        noise_sigma=0.005,
        spike_probability=0.01,
        spike_gain=3.0,
    )
    base = ExperimentConfig(scenario=scenario, tag_code_id=7, messages=200, seed=314)
    with_filters = run_experiment(base)
    bypassed = run_experiment(
        dataclasses.replace(
            base,
            filter=FilterConfig(median_window=1, sd_window=1),
        )
    )
    assert (
        with_filters.detection_probability >= bypassed.detection_probability
    ), (with_filters.detection_probability, bypassed.detection_probability)
    print(
        f"\nACCEPTANCE 7 PASS: detection {with_filters.detection_probability:.2f} "
        f"with filters vs {bypassed.detection_probability:.2f} bypassed "
        f"(200 message trials, 1% spikes at gain 3)"
    )


def test_c08_calibration_targets(indoor_long_phases):
    off, on, elapsed = indoor_long_phases
    assert on.detection_probability >= 0.90
    assert on.cross_false_alarm_probability <= 0.01
    assert off.false_alarm_probability == 0.0
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 8 PASS: indoor_long R=300 detection "
        f"{on.detection_probability:.4f} >= 0.90, cross false alarm "
        f"{on.cross_false_alarm_probability:.4f} <= 0.01, tag-off false alarm "
        f"{off.false_alarm_probability:.4f} = 0 ({elapsed:.0f}s < 300s)"
    )


def test_c09_pilot_sequence_properties():
    symbol = make_srs_symbol()
    assert np.max(np.abs(np.abs(symbol) - 1.0)) < 1e-12
    base = generate_zc_base(ZcConfig())
    n = base.size
    worst = 0.0
    for lag in range(1, n):
        value = sum(base[i] * base[(i + lag) % n].conjugate() for i in range(n))
        worst = max(worst, abs(value) / n)
    assert worst < 1e-9
    print(
        f"\nACCEPTANCE 9 PASS: pilot unit-modulus within 1e-12; worst "
        f"off-peak cyclic autocorrelation {worst:.1e} < 1e-9"
    )


def test_c10_reproducibility(tmp_path, capsys):
    config = {
        "scenario": "indoor_short",
        "tag_code_id": 3,
        "messages": 5,
        "seed": 555,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"results_{run}.csv"
        trace = tmp_path / f"trace_{run}.txt"
        events = tmp_path / f"events_{run}.csv"
        code = cli_main(
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--export-trace",
                str(trace),
                "--events",
                str(events),
            ]
        )
        capsys.readouterr()
        assert code == 0
        manifest = out.with_name(out.name + ".manifest.json")
        outputs.append(
            (
                out.read_bytes(),
                trace.read_bytes(),
                events.read_bytes(),
                manifest.read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    assert outputs[0][3] == outputs[1][3]
    print(
        "\nACCEPTANCE 10 PASS: identical config+seed gives byte-identical "
        "results, trace and events files"
    )
