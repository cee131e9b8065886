import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from srsbs import channel as channel_module
from srsbs import detector as detector_module
from srsbs.channel import ChannelConfig
from srsbs.detector import (
    BLOCK,
    DetectionEvent,
    Detector,
    DetectorConfig,
    DetectorState,
    FilterConfig,
)
from srsbs.harness import (
    CodeConfig,
    EVENTS_HEADER,
    ExperimentConfig,
    RESULTS_HEADER,
    clopper_pearson,
    dedup_events,
    derive_seed,
    detect_trace,
    format_events,
    format_results,
    manifest_json,
    metrics_summary,
    read_events_csv,
    read_trace,
    results_row,
    run_experiment,
    run_phases,
    sweep,
    write_events_csv,
    write_results_csv,
    write_trace,
)
from srsbs.srs import ZcConfig
from srsbs.tag import encode_repetition

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def quick_config(**kwargs):
    defaults = dict(scenario="noiseless", tag_code_id=7, messages=4, seed=1)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def two_proportion_z(k1, n1, k2, n2):
    p = (k1 + k2) / (n1 + n2)
    if p in (0.0, 1.0):
        return 0.0
    se = math.sqrt(p * (1 - p) * (1 / n1 + 1 / n2))
    return ((k1 / n1) - (k2 / n2)) / se


class TestRunExperiment:
    def test_noiseless_tag_on_detects_every_message(self):
        metrics = run_experiment(quick_config())
        assert metrics.detection_probability == 1.0
        assert metrics.cross_false_alarm_probability == 0.0
        assert metrics.false_alarm_probability == 0.0
        assert metrics.n_srs == 4 * 217

    def test_noiseless_tag_off_is_silent(self):
        metrics = run_experiment(quick_config(tag_enabled=False))
        assert metrics.false_alarm_probability == 0.0
        assert metrics.events == []

    def test_counting_conservation(self):
        metrics = run_experiment(quick_config(messages=6))
        assert metrics.detected + metrics.missed == 6

    def test_reproducibility(self):
        cfg = quick_config(scenario="outdoor", messages=3, seed=77)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.events == b.events
        assert a.detection_probability == b.detection_probability
        assert a.cross_false_alarm_probability == b.cross_false_alarm_probability

    def test_trace_collection(self):
        metrics = run_experiment(quick_config(messages=2), keep_trace=True)
        assert metrics.trace is not None
        assert metrics.trace.size == 2 * 217

    def test_invalid_code_id_rejected(self):
        with pytest.raises(ValueError, match="tag_code_id"):
            run_experiment(quick_config(tag_code_id=40))

    @pytest.mark.filterwarnings("error")  # and without numpy's overflow warning
    @pytest.mark.parametrize("name", ["loud", "custom"])
    def test_overflowing_channel_rejected(self, monkeypatch, name):
        # squaring a received sample of ~3e307 overflows to inf
        channel = ChannelConfig(modulation_depth=1e308, noise_sigma=0.1)
        monkeypatch.setitem(channel_module.PRESETS, "loud", channel)
        config = quick_config(scenario="loud" if name == "loud" else channel, messages=1)
        with pytest.raises(ValueError, match=f"scenario '{name}' gives a non-finite trace"):
            run_experiment(config)

    def test_simulated_seconds(self):
        metrics = run_experiment(quick_config(messages=2))
        assert metrics.simulated_seconds == pytest.approx(2 * 2.17, abs=1e-12)


class TestRunPhases:
    def test_noiseless_phase_traces(self):
        off, on = run_phases(quick_config(messages=2))
        # off: constant at the base gain; on: two-valued keyed amplitude
        assert np.ptp(off.trace) == 0.0
        levels = np.unique(on.trace)
        assert levels == pytest.approx([0.3, 0.3 * 1.05], abs=1e-12)

    def test_off_deviation_below_on_deviation(self):
        scenario = ChannelConfig(base_gain=0.3, modulation_depth=0.05, noise_sigma=0.005)
        off, on = run_phases(quick_config(scenario=scenario, messages=2))
        assert np.std(off.trace) < np.std(on.trace)

    def test_off_phase_silent_in_clean_presets(self):
        for name in ("noiseless", "indoor_short"):
            off, _ = run_phases(quick_config(scenario=name, messages=3))
            assert off.false_alarm_probability == 0.0
            assert off.events == []

    def test_null_depth_equalizes_on_and_off(self):
        scenario = dataclasses.replace(
            ChannelConfig(base_gain=0.3, modulation_depth=0.0, spike_probability=0.01)
        )
        off, on = run_phases(quick_config(scenario=scenario, messages=5))
        z = two_proportion_z(
            on.detected, on.messages, off.false_alarm_windows, off.messages
        )
        assert abs(z) < 1.96


class TestSweep:
    def test_empty_values_give_empty_table(self):
        assert sweep(quick_config(), "modulation_depth", []) == []

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(quick_config(), "magic", [1.0])

    def test_unknown_parameter_rejected_even_with_no_values(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(quick_config(), "magic", [])

    def test_depth_sweep_monotone_quick(self):
        base = quick_config(
            scenario=ChannelConfig(base_gain=0.3, modulation_depth=0.05, noise_sigma=0.02),
            messages=10,
            seed=3,
        )
        table = sweep(base, "modulation_depth", [0.05, 0.02, 0.01])
        dets = [m.detection_probability for _, m in table]
        assert all(a >= b for a, b in zip(dets, dets[1:]))

    def test_theta_sweep_on_tag_off_noise(self):
        base = quick_config(
            scenario=ChannelConfig(base_gain=0.3, modulation_depth=0.01, noise_sigma=0.05),
            tag_enabled=False,
            messages=8,
            seed=9,
        )
        table = sweep(base, "theta", [0.2, 0.4, 0.6])
        fas = [m.false_alarm_probability for _, m in table]
        assert all(a >= b for a, b in zip(fas, fas[1:]))

    def test_detector_parameter_routed(self):
        table = sweep(quick_config(messages=1), "theta", [0.3])
        assert len(table) == 1

    @pytest.mark.parametrize("parameter", ["polarity_agnostic", "code_set", "sd_replacement"])
    def test_non_numeric_field_rejected(self, parameter):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(quick_config(), parameter, [1.0])

    def test_bad_value_fails_before_the_first_run(self, monkeypatch):
        import srsbs.harness as harness

        monkeypatch.setattr(harness, "run_experiment", pytest.fail)
        with pytest.raises(ValueError, match="v must be int, got 7.5"):
            sweep(quick_config(), "v", [7.0, 7.5])


class TestCodeFamily:
    """``CodeConfig.build`` builds each distinct family once per process; it is read-only."""

    def test_equal_configs_share_one_family(self):
        assert CodeConfig().build() is CodeConfig().build()
        assert CodeConfig(seed_a=(1, 0, 1, 0, 1)).build() is not CodeConfig().build()

    def test_family_cannot_be_written(self):
        family = CodeConfig().build()
        with pytest.raises(ValueError, match="read-only"):
            family.codes[0, 0] = -family.codes[0, 0]
        with pytest.raises(ValueError, match="read-only"):
            family.code(3)[:] = 1

    def test_sweep_output_does_not_depend_on_a_warm_cache(self):
        base = quick_config(scenario="outdoor", messages=1, seed=9)

        def table():
            points = sweep(base, "modulation_depth", [0.05, 0.01])
            rows = [results_row(value, m, derive_seed(9, i)) for i, (value, m) in enumerate(points)]
            return format_results(rows, "csv")

        CodeConfig.build.cache_clear()
        assert table() == table()


class TestSeedsAndIntervals:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_clopper_pearson_bounds(self):
        lo, hi = clopper_pearson(0, 300)
        assert lo == 0.0
        assert hi == pytest.approx(0.01220, abs=2e-4)
        lo, hi = clopper_pearson(300, 300)
        assert hi == 1.0
        assert lo == pytest.approx(0.98780, abs=2e-4)
        assert clopper_pearson(0, 0) == (0.0, 1.0)

    def test_clopper_pearson_near_beta_quantiles(self):
        from scipy import stats

        alpha = 1.0 - 0.95
        for n in [*range(1, 120), 300, 301, 600, 1000]:
            k = np.arange(n + 1)
            lo = np.where(k == 0, 0.0, stats.beta.ppf(alpha / 2, k, n - k + 1))
            hi = np.where(k == n, 1.0, stats.beta.ppf(1 - alpha / 2, k + 1, n - k))
            got = np.array([clopper_pearson(int(i), n) for i in k])
            np.testing.assert_allclose(got[:, 0], lo, rtol=1e-12, atol=0, err_msg=f"n={n}")
            np.testing.assert_allclose(got[:, 1], hi, rtol=1e-12, atol=0, err_msg=f"n={n}")

    @staticmethod
    def exact_tail(n: int, p: float, ks: range) -> Fraction:
        """P(Bin(n, p) in ks), exactly, for the float p."""
        p = Fraction(p)
        a, b = p.numerator, p.denominator
        return Fraction(sum(math.comb(n, j) * a**j * (b - a) ** (n - j) for j in ks), b**n)

    def test_clopper_pearson_brackets_exact_tails(self):
        tail = Fraction(1.0 - 0.95) / 2
        for n in range(1, 41):
            for k in range(n + 1):
                lo, hi = clopper_pearson(k, n)
                if k > 0:
                    at_least = range(k, n + 1)
                    assert self.exact_tail(n, lo * (1 - 1e-12), at_least) < tail, (k, n)
                    assert self.exact_tail(n, lo * (1 + 1e-12), at_least) > tail, (k, n)
                if k < n:
                    at_most = range(k + 1)
                    assert self.exact_tail(n, hi * (1 - 1e-12), at_most) > tail, (k, n)
                    assert self.exact_tail(n, hi * (1 + 1e-12), at_most) < tail, (k, n)

    @pytest.mark.parametrize(
        "successes, trials, confidence, message",
        [
            (6, 5, 0.95, "successes must be in 0..5, got 6"),
            (-1, 5, 0.95, "successes must be in 0..5, got -1"),
            (2, -3, 0.95, "trials must be >= 0, got -3"),
            (0, 0, 1.5, "confidence must be in (0, 1), got 1.5"),
            (2, 5, 1.0, "confidence must be in (0, 1), got 1.0"),
            (2, 5, 0.0, "confidence must be in (0, 1), got 0.0"),
            (2, 5, math.nan, "confidence must be in (0, 1), got nan"),
        ],
    )
    def test_clopper_pearson_rejects_impossible_counts(self, successes, trials, confidence, message):
        with pytest.raises(ValueError) as excinfo:
            clopper_pearson(successes, trials, confidence)
        assert str(excinfo.value) == message

    @staticmethod
    def scipy_loaded_after(tmp_path, argv) -> list[bool]:
        """In a fresh interpreter: is any scipy module loaded after ``import
        srsbs.harness``, and then after ``cli.main(argv)``?"""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        script = (
            "import sys, srsbs.harness, srsbs.cli\n"
            "def scipy(): return any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
            "print(scipy())\n"
            f"assert srsbs.cli.main({argv!r}) == 0\n"
            "print(scipy())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return [line == "True" for line in proc.stdout.split()]

    def test_import_leaves_scipy_stats_out(self, tmp_path):
        trace = Path(__file__).resolve().parent / "golden" / "short_trace.txt"
        argv = ["detect", "--trace", str(trace), "--out", "events.csv"]
        assert self.scipy_loaded_after(tmp_path, argv) == [False, False]
        assert (tmp_path / "events.csv").read_text().count("\n") > 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--messages", "2", "--out", "results.csv"],
            ["baseline", "--messages", "2", "--out", "results.csv"],
            ["sweep", "--messages", "2", "--param", "modulation_depth", "--values", "0.3,0.001",
             "--out", "results.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_leave_scipy_out(self, tmp_path, argv):
        """The interval commands; ``detect`` is the test above."""
        assert self.scipy_loaded_after(tmp_path, argv) == [False, False]
        assert (tmp_path / "results.csv").read_text().count("\n") > 1


class TestDedup:
    def ev(self, period, code, r=0.9):
        return DetectionEvent(period_index=period, code_id=code, correlation=r)

    def test_consecutive_same_code_collapse(self):
        events = [self.ev(10, 7), self.ev(11, 7), self.ev(12, 7)]
        assert dedup_events(events, 217) == [self.ev(10, 7)]

    def test_gap_splits_runs(self):
        events = [self.ev(10, 7), self.ev(12, 7)]
        assert dedup_events(events, 217) == events

    def test_code_change_splits_runs(self):
        events = [self.ev(10, 7), self.ev(11, 8), self.ev(12, 8)]
        assert dedup_events(events, 217) == [self.ev(10, 7), self.ev(11, 8)]

    def test_run_capped_at_message_duration(self):
        events = [self.ev(k, 7) for k in range(300)]
        deduped = dedup_events(events, 217)
        assert [e.period_index for e in deduped] == [0, 217]


class TestConfigSerialization:
    def test_round_trip_with_preset(self):
        cfg = quick_config(messages=12, seed=5)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_round_trip_with_explicit_channel(self):
        cfg = quick_config(
            scenario=ChannelConfig(base_gain=0.2, modulation_depth=0.03, noise_sigma=0.01)
        )
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"scenario": "noiseless", "color": "red"})

    def test_json_round_trip_of_every_section(self):
        cfg = quick_config(
            scenario=ChannelConfig(base_gain=0.2, modulation_depth=0.03, drift_rate=0.001),
            tag_enabled=False,
            detector=DetectorConfig(theta=0.35, v=6, polarity_agnostic=True),
            filter=FilterConfig(sd_window=3, deviation_factor=1.5, sd_replacement="previous"),
            codes=CodeConfig(seed_a=(1, 0, 1, 0, 1)),
            zc=ZcConfig(root=3, base_length=137),
        )
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_prebuilt_code_set_is_not_a_config_key(self, gold_set):
        cfg = quick_config(detector=DetectorConfig(code_set=gold_set))
        assert "code_set" not in cfg.to_dict()["detector"]
        with pytest.raises(ValueError, match=r"bad detector config: unknown keys \['code_set'\]"):
            ExperimentConfig.from_dict({"detector": {"code_set": None}})

    def test_unknown_nested_keys_rejected(self):
        with pytest.raises(ValueError, match="bad detector config"):
            ExperimentConfig.from_dict({"detector": {"gamma": 1}})
        with pytest.raises(ValueError, match=r"bad filter config: unknown keys \['x'\]"):
            ExperimentConfig.from_dict({"filter": {"x": 1}})
        with pytest.raises(ValueError, match="bad scenario config"):
            ExperimentConfig.from_dict({"scenario": {"loudness": 11}})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentConfig(scenario="underwater")

    def test_messages_must_be_positive(self):
        with pytest.raises(ValueError, match="messages"):
            quick_config(messages=0)

    def test_custom_codes_round_trip(self):
        cfg = quick_config()
        cfg = dataclasses.replace(
            cfg, codes=CodeConfig(seed_a=(1, 0, 1, 0, 1), seed_b=(0, 1, 1, 1, 0))
        )
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.codes == cfg.codes


class TestFilesAndFormats:
    def test_trace_round_trip_exact(self):
        values = np.random.default_rng(0).normal(0.3, 0.01, 50)
        buf = io.StringIO()
        write_trace(buf, values)
        buf.seek(0)
        back = read_trace(buf)
        np.testing.assert_array_equal(back, values)

    def test_trace_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 2"):
            read_trace(io.StringIO("0.5\nbanana\n"))

    def test_results_csv_header(self):
        buf = io.StringIO()
        metrics = run_experiment(quick_config(messages=1))
        write_results_csv(buf, [results_row("noiseless", metrics, 1)])
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(RESULTS_HEADER)
        assert lines[1].startswith("noiseless,1.0,0.0,0.0,217,1")

    def test_events_csv_round_trip(self):
        events = [DetectionEvent(216, 7, 0.4685831)]
        buf = io.StringIO()
        write_events_csv(buf, events)
        buf.seek(0)
        assert read_events_csv(buf) == events

    def test_events_csv_header(self):
        buf = io.StringIO()
        write_events_csv(buf, [])
        assert buf.getvalue().splitlines()[0] == ",".join(EVENTS_HEADER)

    def test_format_json_valid(self):
        metrics = run_experiment(quick_config(messages=1))
        rows = [results_row("noiseless", metrics, 1)]
        parsed = json.loads(format_results(rows, "json"))
        assert parsed[0]["detection_probability"] == 1.0
        events_doc = json.loads(format_events(metrics.events, "json"))
        assert len(events_doc) == len(metrics.events)

    def test_manifest_contains_resolved_config(self):
        cfg = quick_config()
        doc = json.loads(manifest_json("simulate", cfg))
        assert doc["tool"] == "srsbs"
        assert doc["config"]["scenario"] == "noiseless"
        assert doc["config"]["detector"]["theta"] == 0.4
        assert doc["config"]["filter"]["alpha"] == 0.55

    def test_metrics_summary_has_intervals(self):
        metrics = run_experiment(quick_config(messages=2))
        summary = metrics_summary(metrics)
        assert summary["detection_ci95"][0] <= 1.0 <= summary["detection_ci95"][1]


NOT_A_NUMBER = "is not a number"
NOT_A_MAGNITUDE = "is not a finite non-negative magnitude"


class TestTraceGrammar:
    """A trace line holds what ``float()`` takes once the line is stripped.

    The reader parses ``BLOCK`` lines at a time, so bad lines sit on both
    sides of the chunk boundaries and their numbers must stay the file's.
    """

    @pytest.mark.parametrize(
        "text, value",
        [("1_0", 10.0), ("\u0661\u0662", 12.0), (" 0.5 ", 0.5), ("+0.5", 0.5),
         (".5", 0.5), ("5.", 5.0), ("1e-05", 1e-05), ("0.5\x1c", 0.5), ("-0.0", -0.0)],
    )
    def test_accepts_what_float_accepts(self, text, value):
        trace = read_trace(io.StringIO(f"0.25\n\n{text}\n  \n0.75\n"))
        assert trace.tolist() == [0.25, value, 0.75]

    def test_crlf_endings_and_blank_lines_in_a_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"0.25\r\n\r\n0.5\r\n" * BLOCK)
        with open(path) as fh:
            assert read_trace(fh).tolist() == [0.25, 0.5] * BLOCK

    @pytest.mark.parametrize("line_no", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    @pytest.mark.parametrize(
        "text, message",
        [("1__0", NOT_A_NUMBER), ("0x10", NOT_A_NUMBER), ("0.1 0.2", NOT_A_NUMBER),
         ("1,5", NOT_A_NUMBER), ("0.5\x1c0.2", NOT_A_NUMBER), ("nan", NOT_A_MAGNITUDE),
         ("inf", NOT_A_MAGNITUDE), ("-0.3", NOT_A_MAGNITUDE)],
    )
    def test_rejects_with_the_file_line_number(self, text, message, line_no):
        lines = ["0.25\n"] * (2 * BLOCK + 10)
        lines[2] = "\n"  # a blank line counts toward the line numbers
        lines[line_no - 1] = f"{text}\n"
        with pytest.raises(ValueError) as info:
            read_trace(io.StringIO("".join(lines)))
        assert str(info.value) == f"trace line {line_no} {message}: {text!r}"

    @given(
        values=st.lists(
            st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=16
        ),
        length=st.integers(min_value=BLOCK - 2, max_value=2 * BLOCK + 2),
    )
    @example(values=[0.3], length=BLOCK)
    @example(values=[5e-324, 1.7976931348623157e308], length=BLOCK + 1)
    @settings(max_examples=20, deadline=None)
    def test_write_read_round_trip_across_chunks(self, values, length):
        trace = np.resize(np.array(values), length)
        buf = io.StringIO()
        write_trace(buf, trace)
        buf.seek(0)
        assert read_trace(buf).tobytes() == trace.tobytes()


class TestDetectTrace:
    def test_matches_in_memory_events(self):
        cfg = quick_config(messages=3)
        metrics = run_experiment(cfg, keep_trace=True)
        detector_cfg = dataclasses.replace(cfg.detector, code_set=cfg.codes.build())
        events = detect_trace(metrics.trace, Detector(detector_cfg, cfg.filter))
        assert events == metrics.events


def _tuples(events):
    return [(ev.period_index, ev.code_id, ev.correlation) for ev in events]


class TestChunkedDetection:
    """Whole, chunked and per-sample detection of one trace agree exactly."""

    with open(GOLDEN / "short_trace.txt") as fh:
        trace = read_trace(fh)
    with open(GOLDEN / "short_trace_events.csv") as fh:
        pinned = _tuples(read_events_csv(fh))

    def test_whole_and_per_sample_give_the_pinned_events(self):
        assert len(self.pinned) == 41
        assert _tuples(detect_trace(self.trace, Detector())) == self.pinned
        detector = Detector()
        per_sample = [detector.process(a) for a in self.trace]
        assert _tuples(ev for ev in per_sample if ev is not None) == self.pinned

    @given(
        cuts=st.lists(st.integers(min_value=0, max_value=len(trace)), max_size=12),
        one_by_one=st.lists(st.booleans(), min_size=13, max_size=13),
    )
    @example(cuts=[0, 300, 300, 651, len(trace)], one_by_one=[False, True] * 6 + [False])
    @settings(max_examples=25, deadline=None)
    def test_random_chunks_give_the_pinned_events(self, cuts, one_by_one):
        """Each chunk goes through the block kernel or sample by sample, on one detector."""
        detector = Detector()
        events = []
        for chunk, per_sample in zip(np.split(self.trace, sorted(cuts)), one_by_one):
            if per_sample:
                events.extend(ev for a in chunk if (ev := detector.process(a)) is not None)
            else:
                events.extend(detect_trace(chunk, detector))
        assert _tuples(events) == self.pinned


def _per_sample(trace, detector):
    return [ev for a in trace if (ev := detector.process(a)) is not None]


@pytest.fixture(scope="module")
def kernel_traces():
    """The golden trace, and simulated ones: noisy, flat tag-off, clean tag-on."""
    with open(GOLDEN / "short_trace.txt") as fh:
        traces = {"golden": read_trace(fh)}
    for scenario, tag_enabled in (("outdoor", True), ("indoor_long", False), ("indoor_short", True)):
        config = quick_config(scenario=scenario, tag_enabled=tag_enabled, messages=3, seed=5)
        traces[f"{scenario}-{tag_enabled}"] = run_experiment(config, keep_trace=True).trace
    return traces


def _sd_ties(medians, factor, width):
    """Periods whose deviation lies exactly on the SD bound of a full window that is not flat."""
    windows = sliding_window_view(medians, width)
    mean, sigma = windows.mean(axis=1), windows.std(axis=1)
    near = np.abs(np.abs(windows[:, -1] - mean) - factor * sigma) <= 1e-9 * factor * sigma
    ties = []
    for k in np.flatnonzero(near & (sigma > 0)):
        window = [Fraction(value) for value in windows[k].tolist()]
        centre = sum(window) / width
        variance = sum((value - centre) ** 2 for value in window) / width
        if (window[-1] - centre) ** 2 == Fraction(factor) ** 2 * variance:
            ties.append(int(k) + width - 1)
    return ties


@pytest.fixture(scope="module")
def synth():
    """The benchmark's seeded input and independent reference detector."""
    spec = importlib.util.spec_from_file_location("synth", PERFBENCH / "synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outdoor_traces(synth, gold_set):
    """The benchmark's 300-message outdoor traces on seeds with SD ties at factor 0.5."""
    return {seed: synth.outdoor_trace(seed, 300, gold_set.codes[7]) for seed in (0, 1, 4, 5)}


class TestBlockKernel:
    """``Detector.process_block`` gives the events of per-sample ``process``, bit for bit."""

    @pytest.mark.parametrize(
        "detector_kwargs, filter_kwargs",
        [
            ({}, {"enable_hard": False}),
            ({}, {"median_window": 1}),
            ({}, {"sd_window": 1}),
            ({}, {"sd_replacement": "previous"}),
            ({}, {"median_window": 4}),
            ({}, {"deviation_factor": 2.0}),
            ({"polarity_agnostic": True}, {}),
        ],
    )
    def test_matches_process(self, kernel_traces, gold_set, detector_kwargs, filter_kwargs):
        detector_cfg = DetectorConfig(code_set=gold_set, **detector_kwargs)
        filter_cfg = FilterConfig(**filter_kwargs)
        for name, trace in kernel_traces.items():
            expected = _per_sample(trace, Detector(detector_cfg, filter_cfg))
            got = Detector(detector_cfg, filter_cfg).process_block(trace)
            assert _tuples(got) == _tuples(expected), name

    def test_nan_without_the_gate(self, gold_set):
        """NaN that no gate replaces sorts last in every median window, per sample or per block."""
        rng = np.random.default_rng(0)
        bits = np.resize(encode_repetition(gold_set.code(5), 7), 651)
        trace = 0.3 * (1.0 + 0.05 * (bits > 0)) + rng.normal(0, 0.0005, bits.size)
        trace[[100, 300, 500]] = np.nan
        detector_cfg = DetectorConfig(code_set=gold_set, theta=0.1)
        filter_cfg = FilterConfig(enable_hard=False)
        expected = _per_sample(trace, Detector(detector_cfg, filter_cfg))
        assert expected
        assert _tuples(Detector(detector_cfg, filter_cfg).process_block(trace)) == _tuples(expected)

    @pytest.mark.parametrize("factor", [0.2, 0.5, 2.0])
    def test_filters_match_the_reference_on_sd_ties(
        self, synth, outdoor_traces, gold_set, monkeypatch, factor
    ):
        """Gate, median and SD filter give the reference detector's output bit for bit.

        Median outputs repeat, so many SD windows hold two levels, and a
        sample's deviation then sits exactly on the bound in exact
        arithmetic at factor 0.5 or 2.0; rounding alone decides it. The
        kernel and ``synth._filtered`` sum in the same order, so they
        decide alike. On the first three messages, which hold such ties at
        0.5 and 2.0, per-sample, whole and chunked detection give one event
        list at a theta low enough that nearly every window fires.
        """
        monkeypatch.setattr(synth, "DEVIATION_FACTOR", factor)
        filter_cfg = FilterConfig(deviation_factor=factor)
        detector_cfg = DetectorConfig(code_set=gold_set, theta=1e-3)
        for seed, trace in outdoor_traces.items():
            state = DetectorState()
            medians = detector_module._median_block(
                detector_module._gate_block(trace, state, filter_cfg), state, filter_cfg
            )
            filtered = detector_module._sd_block(medians, state, filter_cfg)
            assert filtered.tobytes() == synth._filtered(trace).tobytes(), seed
            stretch = trace[:651]
            if factor != 0.2:
                assert _sd_ties(medians[: stretch.size], factor, filter_cfg.sd_window), seed
            expected = _per_sample(stretch, Detector(detector_cfg, filter_cfg))
            assert len(expected) > 400, seed
            whole = Detector(detector_cfg, filter_cfg).process_block(stretch)
            assert _tuples(whole) == _tuples(expected), seed
            chunked = Detector(detector_cfg, filter_cfg)
            chunks = np.split(stretch, [1, 3, 217, 300])
            events = [ev for chunk in chunks for ev in chunked.process_block(chunk)]
            assert _tuples(events) == _tuples(expected), seed

    def test_pattern_one_ulp_deep(self, gold_set):
        """A code keyed one ulp deep fires; the screen must not round it away."""
        chips = encode_repetition(gold_set.code(7), 7) > 0
        level = 0.3
        trace = np.where(np.tile(chips, 2), np.nextafter(level, 1.0), level)
        detector_cfg = DetectorConfig(code_set=gold_set)
        filter_cfg = FilterConfig(median_window=1, sd_window=1)
        expected = _per_sample(trace, Detector(detector_cfg, filter_cfg))
        assert expected
        got = Detector(detector_cfg, filter_cfg).process_block(trace)
        assert _tuples(got) == _tuples(expected)

    def test_windows_around_a_step(self, gold_set):
        """Constant windows, then windows holding one new value, at a low theta."""
        trace = np.concatenate([np.full(300, 0.3), np.full(300, 0.31), np.full(300, 0.3)])
        detector_cfg = DetectorConfig(code_set=gold_set, theta=0.05)
        filter_cfg = FilterConfig(median_window=1, sd_window=1)
        expected = _per_sample(trace, Detector(detector_cfg, filter_cfg))
        assert expected
        got = Detector(detector_cfg, filter_cfg).process_block(trace)
        assert _tuples(got) == _tuples(expected)

    def test_constant_stretches_of_several_values(self, gold_set):
        """Each constant window takes the outcome of its own value.

        A constant window whose mean does not come out exact has a tiny
        nonzero norm, and at a theta of 1e-30 it fires with a code that
        depends on the value; 1/3 and 0.25 give flat windows. All the
        stretches sit in one block, so the kernel stacks each value once.
        """
        values = (0.1, 1 / 3, 0.3, 0.1, 0.45, 0.25, 0.3)
        trace = np.concatenate([np.full(300, value) for value in values])
        detector_cfg = DetectorConfig(code_set=gold_set, theta=1e-30)
        filter_cfg = FilterConfig(median_window=1, sd_window=1)
        expected = _per_sample(trace, Detector(detector_cfg, filter_cfg))
        outcomes = {}  # value -> the events of the windows holding only that value
        for ev in expected:
            window = trace[ev.period_index - 216 : ev.period_index + 1]
            if np.all(window == window[0]):
                outcomes.setdefault(window[0], set()).add((ev.code_id, ev.correlation))
        assert sorted(outcomes) == [0.1, 0.3, 0.45]
        assert len({frozenset(events) for events in outcomes.values()}) == 3
        got = Detector(detector_cfg, filter_cfg).process_block(trace)
        assert _tuples(got) == _tuples(expected)

    def test_theta_a_hair_under_a_correlation(self, gold_set, monkeypatch):
        """Theta 1e-12 under a window's exact best correlation: only the screen's slack keeps it.

        The code is keyed 1e-5 deep after a step of 0.2, so the screen's chip
        sums cancel badly and round some windows' correlations down by more
        than 1e-12. Screening without slack finds such a window; with its
        slack the kernel must still give that window's event.
        """
        chips = encode_repetition(gold_set.code(7), 7) > 0
        trace = np.concatenate([np.full(300, 0.5), np.where(np.tile(chips, 2), 0.3 + 1e-5, 0.3)])
        filter_cfg = FilterConfig(enable_hard=False, median_window=1, sd_window=1)
        events = _per_sample(trace, Detector(DetectorConfig(code_set=gold_set, theta=0.1), filter_cfg))

        def under(event):
            return DetectorConfig(code_set=gold_set, theta=event.correlation - 1e-12)

        with monkeypatch.context() as patch:
            patch.setattr(detector_module, "SCREEN_MARGIN", 0.0)
            edge = next(
                (ev for ev in events if ev not in Detector(under(ev), filter_cfg).process_block(trace)),
                None,
            )
        assert edge is not None, "no window that the screen rounds below theta"
        expected = _per_sample(trace, Detector(under(edge), filter_cfg))
        assert edge in expected
        assert _tuples(Detector(under(edge), filter_cfg).process_block(trace)) == _tuples(expected)

    @pytest.mark.parametrize("event", [0, 40])
    @pytest.mark.parametrize("below", [False, True])
    def test_theta_at_an_event_correlation(self, gold_set, event, below):
        """Theta on a pinned correlation, or one ulp under it, sits on the screen's edge."""
        trace = TestChunkedDetection.trace
        period, _, r = TestChunkedDetection.pinned[event]
        theta = np.nextafter(r, 0.0) if below else r
        config = DetectorConfig(code_set=gold_set, theta=float(theta))
        expected = _per_sample(trace, Detector(config))
        assert (period in {ev.period_index for ev in expected}) == below
        assert _tuples(Detector(config).process_block(trace)) == _tuples(expected)


class TestBlockKernelAtAnyChipRun:
    """Whole, chunked and per-sample detection agree bit for bit at any chip run ``v``."""

    @pytest.mark.parametrize("agnostic", [False, True])
    @pytest.mark.parametrize("v", [2, 7, 8, 9, 16])
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 0.3, 1e3, 1e6]) | st.floats(0.0, 1e6),
        depth=st.floats(1e-4, 1e-2),
        cuts=st.lists(st.integers(0, 1100), max_size=5),
    )
    @settings(max_examples=3, deadline=None)
    def test_matches_process(self, gold_set, v, agnostic, seed, offset, depth, cuts):
        """A code keyed ``depth`` deep, maybe inverted, on an offset up to 1e6, with noise and spikes."""
        rng = np.random.default_rng(seed)
        length = 31 * v
        size = int(rng.integers(2 * length, 2 * length + 50))  # holds an aligned window
        level = max(offset, 0.3)
        keyed = np.resize(encode_repetition(gold_set.code(int(rng.integers(33))), v) > 0, size + length)
        sign = rng.choice([-1.0, 1.0])
        trace = offset + sign * depth * level * keyed[int(rng.integers(length)) :][:size]
        trace += rng.normal(0.0, depth * level * rng.uniform(0.01, 0.5), size)
        trace[rng.random(size) < 0.01] += 10 * level  # spikes for the gate
        filter_cfg = FilterConfig(
            alpha=offset + 2 * level,
            median_window=int(rng.integers(1, v)),
            sd_window=int(rng.integers(1, v)),
            deviation_factor=float(rng.choice([0.2, 2.0, 20.0])),
        )
        detector_cfg = DetectorConfig(code_set=gold_set, v=v, polarity_agnostic=agnostic)
        expected = _tuples(_per_sample(trace, Detector(detector_cfg, filter_cfg)))
        assert _tuples(Detector(detector_cfg, filter_cfg).process_block(trace)) == expected
        chunked = Detector(detector_cfg, filter_cfg)
        pieces = [chunked.event_array(chunk) for chunk in np.split(trace, sorted(cuts))]
        assert np.concatenate(pieces).tolist() == expected
