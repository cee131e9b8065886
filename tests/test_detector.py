import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsbs import detector as detector_module
from srsbs.detector import (
    DetectionEvent,
    Detector,
    DetectorConfig,
    DetectorState,
    FilterConfig,
    average_magnitude,
    hard_threshold,
    median_filter,
    pearson,
    sd_filter,
)
from srsbs.harness import ExperimentConfig
from srsbs.tag import encode_repetition


def two_pass_pearson(x, y):
    """Independent textbook implementation used as the oracle."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
    )
    if den == 0:
        return 0.0
    return num / den


class TestAverageMagnitude:
    def test_unit_modulus_gives_one(self):
        values = np.exp(1j * np.linspace(0, 5, 144))
        assert average_magnitude(values) == pytest.approx(1.0, abs=1e-15)

    def test_two_level_mean(self):
        mags = np.concatenate([np.full(72, 0.4), np.full(72, 0.6)])
        values = mags * np.exp(1j * np.linspace(0, 3, 144))
        assert average_magnitude(values) == pytest.approx(0.5, abs=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(144) + 1j * rng.standard_normal(144)
        oracle = sum(abs(v) for v in values) / 144
        assert average_magnitude(values) == pytest.approx(oracle, abs=1e-12)


class TestHardThreshold:
    def test_valid_sample_passes(self):
        state = DetectorState(last_valid=0.28)
        cfg = FilterConfig(alpha=0.55)
        assert hard_threshold(0.30, state, cfg) == 0.30
        assert state.last_valid == 0.30

    def test_invalid_sample_replaced(self):
        state = DetectorState(last_valid=0.28)
        cfg = FilterConfig(alpha=0.55)
        assert hard_threshold(0.90, state, cfg) == 0.28
        assert state.last_valid == 0.28

    def test_nan_sample_replaced(self):
        state = DetectorState(last_valid=0.28)
        assert hard_threshold(math.nan, state, FilterConfig(alpha=0.55)) == 0.28
        assert state.last_valid == 0.28

    def test_first_sample_always_accepted(self):
        state = DetectorState()
        cfg = FilterConfig(alpha=0.55)
        assert hard_threshold(0.90, state, cfg) == 0.90
        assert state.last_valid == 0.90


class TestMedianFilter:
    def run_stream(self, stream, window=5):
        state = DetectorState()
        cfg = FilterConfig(median_window=window)
        return [median_filter(x, state, cfg) for x in stream]

    def test_rejects_single_spike(self):
        out = self.run_stream([0.1, 0.9, 0.1, 0.1, 0.1])
        assert out[-1] == 0.1

    def test_constant_is_fixed_point(self):
        out = self.run_stream([0.3] * 10)
        assert out == [0.3] * 10

    def test_warmup_even_prefix_averages_centre(self):
        out = self.run_stream([1.0, 3.0])
        assert out == [1.0, 2.0]

    @settings(max_examples=60, deadline=None)
    @given(
        stream=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        window=st.integers(min_value=1, max_value=6),
    )
    def test_matches_sorting_oracle(self, stream, window):
        out = self.run_stream(stream, window)
        for k, got in enumerate(out):
            tail = stream[max(0, k - window + 1) : k + 1]
            ordered = sorted(tail)
            m = len(ordered)
            want = (
                ordered[m // 2]
                if m % 2
                else 0.5 * (ordered[m // 2 - 1] + ordered[m // 2])
            )
            assert got == want

    def test_idempotent_on_constant(self):
        stream = [0.4] * 12
        once = self.run_stream(stream)
        twice = self.run_stream(once)
        assert twice == once

    def test_monotone_input_stays_monotone(self):
        # causal window delays a ramp; shape survives both passes
        stream = [float(x) for x in range(15)]
        once = self.run_stream(stream)
        twice = self.run_stream(once)
        assert all(a <= b for a, b in zip(once, once[1:]))
        assert all(a <= b for a, b in zip(twice, twice[1:]))
        assert once[6:] == stream[4:-2]


class TestSdFilter:
    def run_one(self, history, incoming, **cfg_kwargs):
        state = DetectorState()
        cfg = FilterConfig(**cfg_kwargs)
        for x in history:
            sd_filter(x, state, cfg)
        return sd_filter(incoming, state, cfg)

    def test_zero_deviation_passes(self):
        assert self.run_one([0.3] * 4, 0.3) == 0.3

    def test_outlier_replaced_by_window_mean(self):
        # window [1,1,1,1,2]: mean 1.2, population std 0.4, |2-1.2| > 0.2*0.4
        assert self.run_one([1.0] * 4, 2.0) == pytest.approx(1.2, abs=1e-15)

    def test_outlier_replaced_by_previous_output(self):
        assert self.run_one([1.0] * 4, 2.0, sd_replacement="previous") == 1.0

    @pytest.mark.parametrize("replacement", ["mean", "previous"])
    @pytest.mark.parametrize("factor", [0.0, 0.2])
    def test_windows_of_one_return_their_input(self, replacement, factor):
        """A window of 1 is the identity, which is why ``Detector`` skips such a stage."""
        rng = np.random.default_rng(4)
        x = rng.normal(0.3, 0.2, 300)
        odd = rng.choice(x.size, 60, replace=False)
        x[odd] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300], odd.size)
        cfg = FilterConfig(
            median_window=1, sd_window=1, deviation_factor=factor, sd_replacement=replacement
        )
        state = DetectorState()
        for chunk in np.split(x, [1, 2, 9, 150]):
            assert detector_module._median_block(chunk, state, cfg).tobytes() == chunk.tobytes()
            assert detector_module._sd_block(chunk, state, cfg).tobytes() == chunk.tobytes()

    @pytest.mark.parametrize("replacement", ["mean", "previous"])
    @pytest.mark.parametrize(
        "x",
        [[1e200, -1e200, 1e200, 3.0], [0.3, np.inf, 0.2, -np.inf, 0.4, 0.5, 0.3]],
        ids=["squares-overflow", "inf"],
    )
    def test_moments_beyond_range_are_quiet(self, x, replacement):
        """Overflowing squares and inf - inf give an infinite or NaN SD without a warning.

        The outlier test then compares false, so every sample is kept, as
        before the moments were computed quietly.
        """
        x = np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = detector_module._sd_block(x, DetectorState(), FilterConfig(sd_replacement=replacement))
        assert out.tobytes() == x.tobytes()

    def test_first_sample_passes(self):
        # single-sample window has zero deviation
        assert self.run_one([], 0.7) == 0.7


class TestPearson:
    def test_affine_image(self):
        rng = np.random.default_rng(2)
        template = rng.choice([-1.0, 1.0], size=217)
        window = 2.0 * template + 5.0
        assert abs(pearson(template, window) - 1.0) < 1e-12

    def test_negated_template(self):
        rng = np.random.default_rng(3)
        template = rng.choice([-1.0, 1.0], size=217)
        assert abs(pearson(template, -template) + 1.0) < 1e-12

    def test_zero_variance_window(self):
        template = np.array([1.0, -1.0, 1.0, -1.0])
        assert pearson(template, np.full(4, 0.3)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.ones(5), np.ones(6))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_two_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        template = rng.choice([-1.0, 1.0], size=50)
        window = rng.normal(size=50)
        got = pearson(template, window)
        want = two_pass_pearson(list(template), list(window))
        assert got == pytest.approx(want, abs=1e-10)
        assert -1.0 <= got <= 1.0

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(8)
        template = rng.choice([-1.0, 1.0], size=217)
        assert abs(pearson(template, template.copy()) - 1.0) < 1e-12


@pytest.fixture()
def detector(gold_set):
    return Detector(DetectorConfig(code_set=gold_set))


class TestDetectStep:
    def test_warmup_emits_nothing(self, gold_set, detector):
        template = encode_repetition(gold_set.code(7), 7).astype(float)
        for y in template[:216]:
            assert detector.detect_step(float(y)) is None

    def test_aligned_affine_image_detects_exactly(self, gold_set, detector):
        template = encode_repetition(gold_set.code(7), 7).astype(float)
        events = []
        for y in 2.0 * template + 5.0:
            ev = detector.detect_step(float(y))
            if ev:
                events.append(ev)
        assert len(events) == 1
        assert events[0].period_index == 216
        assert events[0].code_id == 7
        assert abs(events[0].correlation - 1.0) < 1e-12

    def test_correlating_leaves_the_window_alone(self, detector):
        """The correlator centres and squares a copy, never the detector's window."""
        values = 0.3 + np.random.default_rng(3).normal(0.0, 0.01, size=217)
        for y in values[:-1]:
            assert detector.detect_step(float(y)) is None
        window = detector.state.correlation_window.copy()
        assert detector.correlate() is not None
        assert detector.state.correlation_window.tobytes() == window.tobytes()
        detector.detect_step(float(values[-1]))  # the first full window: it correlates
        assert detector.state.correlation_window.tobytes() == np.append(window[1:], values[-1]).tobytes()
        assert detector.correlate() is not None
        assert detector.state.correlation_window.tobytes() == np.append(window[1:], values[-1]).tobytes()

    def test_flat_window_never_detects(self, detector):
        for k in range(500):
            assert detector.detect_step(0.3) is None

    def test_tag_off_noise_never_detects(self, detector):
        # flat stream plus small white noise over 300 message durations
        rng = np.random.default_rng(2024)
        ys = 1.0 + rng.normal(0.0, 0.001, size=300 * 217)
        events = [ev for y in ys if (ev := detector.detect_step(float(y)))]
        assert events == []

    def test_tie_breaks_to_lowest_code_id(self, gold_set):
        # a code and its negation tie exactly on |r|; the lower id must win
        from srsbs.tag import GoldCodeSet

        code = gold_set.code(0)
        pair = GoldCodeSet(codes=np.stack([code, -code]), labels=(0, 1))
        det = Detector(DetectorConfig(code_set=pair, polarity_agnostic=True))
        template = encode_repetition(code, 7).astype(float)
        events = [ev for y in template if (ev := det.detect_step(float(y)))]
        assert len(events) == 1
        assert events[0].code_id == 0

    def test_polarity_agnostic_mode(self, gold_set):
        plain = Detector(DetectorConfig(code_set=gold_set))
        agnostic = Detector(DetectorConfig(code_set=gold_set, polarity_agnostic=True))
        template = encode_repetition(gold_set.code(3), 7).astype(float)
        flipped = -template
        got_plain = [ev for y in flipped if (ev := plain.detect_step(float(y)))]
        got_agnostic = [ev for y in flipped if (ev := agnostic.detect_step(float(y)))]
        assert got_plain == []
        assert len(got_agnostic) == 1
        assert got_agnostic[0].code_id == 3
        assert got_agnostic[0].correlation == pytest.approx(-1.0, abs=1e-12)


def window_stack(gold_set, k, seed, v=7):
    """``k`` windows of mixed kinds: noisy, offset, keyed, constant and flat."""
    rng = np.random.default_rng(seed)
    length = 31 * v
    stack = rng.normal(0.3, rng.uniform(1e-6, 0.1, size=(k, 1)), size=(k, length))
    kinds = rng.integers(0, 5, size=k)
    keyed = encode_repetition(gold_set.code(int(rng.integers(33))), v) > 0
    stack[kinds == 1] += 1e6  # a large offset next to a small spread
    stack[kinds == 2] = 0.3 + 0.01 * keyed + rng.normal(0.0, 1e-3, size=(np.sum(kinds == 2), length))
    # constant rows whose mean does not come out exact, and rows of exact zero variance
    stack[kinds == 3] = rng.choice([0.1, 1 / 3, 0.7, 0.45], size=(np.sum(kinds == 3), 1))
    stack[kinds == 4] = rng.choice([0.0, 0.25, 2.0], size=(np.sum(kinds == 4), 1))
    return stack


def check_rows_match_one_row_calls(detector, stack, cuts):
    """Each row of ``stack`` has its one-row call's bits, whole and split at ``cuts``."""
    k = len(stack)
    correlations, norm = detector._correlations(stack.copy())  # it works in place
    assert correlations.shape == (k, 33)
    alone = [detector._correlations(window[None].copy()) for window in stack]
    assert correlations.tobytes() == np.concatenate([r for r, _ in alone]).tobytes()
    assert norm.tobytes() == np.concatenate([n for _, n in alone]).tobytes()
    parts = np.split(stack, sorted(c % (k + 1) for c in cuts))
    pieces = np.concatenate([detector._correlations(part.copy())[0] for part in parts])
    assert pieces.tobytes() == correlations.tobytes()


class TestStackedCorrelations:
    """``Detector._correlations`` gives each row of a stack the bits of a one-row call."""

    @pytest.mark.parametrize("k", [1, 2, 3, 217, 4096])
    @given(seed=st.integers(0, 2**32 - 1), cuts=st.lists(st.integers(0, 4096), max_size=4))
    @settings(max_examples=4, deadline=None)
    def test_rows_match_one_row_calls(self, gold_set, k, seed, cuts):
        detector = Detector(DetectorConfig(code_set=gold_set))
        check_rows_match_one_row_calls(detector, window_stack(gold_set, k, seed), cuts)

    @pytest.mark.parametrize("v", [8, 9, 16])
    @pytest.mark.parametrize("k", [1, 3, 217, 4096])
    @given(seed=st.integers(0, 2**32 - 1), cuts=st.lists(st.integers(0, 4096), max_size=4))
    @settings(max_examples=2, deadline=None)
    def test_rows_match_one_row_calls_at_longer_chip_runs(self, gold_set, v, k, seed, cuts):
        """From v = 8 numpy would sum a chip pairwise; the left-to-right sum keeps rows alike."""
        detector = Detector(DetectorConfig(code_set=gold_set, v=v))
        check_rows_match_one_row_calls(detector, window_stack(gold_set, k, seed, v), cuts)

    def test_flat_rows_are_nan_and_varied_rows_finite(self, gold_set):
        detector = Detector(DetectorConfig(code_set=gold_set))
        stack = np.stack([np.full(217, 0.25), np.random.default_rng(0).normal(0.3, 0.01, 217)])
        correlations, norm = detector._correlations(stack)
        assert norm[0] == 0 and np.all(np.isnan(correlations[0]))
        assert norm[1] > 0 and np.all(np.isfinite(correlations[1]))


class TestPipeline:
    def make_stream(self, gold_set, seed=0, periods=3 * 217):
        """Two-level keyed stream with mild noise, already below alpha."""
        rng = np.random.default_rng(seed)
        template = encode_repetition(gold_set.code(5), 7)
        bits = np.resize(template, periods)
        return 0.3 * (1.0 + 0.05 * (bits > 0)) + rng.normal(0, 0.0005, periods)

    def run_downstream(self, stream, gold_set, scale=1.0):
        det = Detector(
            DetectorConfig(code_set=gold_set),
            FilterConfig(enable_hard=False),
        )
        events = []
        correlations = []
        for a in stream:
            ev = det.process(float(a) * scale)
            if ev:
                events.append(ev)
                correlations.append(ev.correlation)
        return events, correlations

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_scale_invariance_downstream_of_gate(self, gold_set, scale):
        stream = self.make_stream(gold_set)
        base_events, base_r = self.run_downstream(stream, gold_set)
        scaled_events, scaled_r = self.run_downstream(stream, gold_set, scale)
        assert [(e.period_index, e.code_id) for e in base_events] == [
            (e.period_index, e.code_id) for e in scaled_events
        ]
        assert base_events  # the stream must actually produce detections
        for r0, r1 in zip(base_r, scaled_r):
            assert abs(r0 - r1) < 1e-12

    def test_full_pipeline_detects_keyed_stream(self, gold_set):
        stream = self.make_stream(gold_set, seed=4)
        det = Detector(DetectorConfig(code_set=gold_set))
        events = [ev for a in stream if (ev := det.process(float(a)))]
        assert events
        assert {e.code_id for e in events} == {5}


class TestConfigValidation:
    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            DetectorConfig(theta=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(theta=1.0)

    def test_filter_windows_must_fit_repetition_run(self, gold_set):
        with pytest.raises(ValueError, match="median window"):
            Detector(
                DetectorConfig(code_set=gold_set),
                FilterConfig(median_window=7),
            )
        with pytest.raises(ValueError, match="SD window"):
            Detector(
                DetectorConfig(code_set=gold_set),
                FilterConfig(sd_window=9),
            )

    def test_windows_of_one_fit_any_repetition_run(self, gold_set):
        for v in (1, 2):
            Detector(
                DetectorConfig(code_set=gold_set, v=v),
                FilterConfig(median_window=1, sd_window=1),
            )
        with pytest.raises(ValueError, match="median window"):
            Detector(DetectorConfig(code_set=gold_set, v=5), FilterConfig(median_window=5))
        with pytest.raises(ValueError, match="SD window"):
            Detector(DetectorConfig(code_set=gold_set, v=5), FilterConfig(median_window=1, sd_window=5))

    def test_filter_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FilterConfig(median_window=0)
        with pytest.raises(ValueError):
            FilterConfig(deviation_factor=-1.0)
        with pytest.raises(ValueError):
            FilterConfig(sd_replacement="zero")

    def test_chip_count_is_not_a_config_key(self):
        """The code family fixes 31 chips, so no config sets a chip count."""
        with pytest.raises(ValueError, match=r"bad detector config: unknown keys \['n'\]"):
            ExperimentConfig.from_dict({"detector": {"n": 31}})
