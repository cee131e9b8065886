import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from srsbs.channel import (
    BLOCK,
    ChannelConfig,
    PRESETS,
    get_preset,
    propagate,
    received_magnitudes,
    step,
)
from srsbs.detector import average_magnitude
from srsbs.harness import CodeConfig
from srsbs.srs import make_srs_symbol
from srsbs.tag import encode_repetition

from channel_model import layout_streams, one_period_trace

TRANSPARENT = 0.0
BACKSCATTER = 1.0


def receive(pilot, b, cfg, rng):
    return propagate(pilot, b, cfg.base_gain, cfg, rng)


class TestPropagate:
    def test_noiseless_transparent_identity(self):
        cfg = ChannelConfig(base_gain=1.0, modulation_depth=0.05)
        pilot = make_srs_symbol()
        rx = receive(pilot, TRANSPARENT, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(rx, pilot)

    def test_noiseless_backscatter_depth(self):
        cfg = ChannelConfig(base_gain=1.0, modulation_depth=0.05)
        rx = receive(make_srs_symbol(), BACKSCATTER, cfg, np.random.default_rng(0))
        assert np.max(np.abs(np.abs(rx) - 1.05)) < 1e-12

    def test_mean_magnitude_matches_rician(self):
        # independent closed form: per-subcarrier magnitude is Rice(nu, sigma_c)
        # with nu the clean amplitude and sigma_c the per-component noise std
        sigma = 0.05
        gain = 0.3
        cfg = ChannelConfig(base_gain=gain, modulation_depth=0.0, noise_sigma=sigma)
        rng = np.random.default_rng(42)
        pilot = make_srs_symbol()
        n_periods = 10_000
        total = 0.0
        for _ in range(n_periods):
            rx = receive(pilot, TRANSPARENT, cfg, rng)
            total += np.abs(rx).mean()
        measured = total / n_periods
        sigma_c = sigma / math.sqrt(2.0)
        rice = stats.rice(b=gain / sigma_c, scale=sigma_c)
        se = rice.std() / math.sqrt(144 * n_periods)
        assert abs(measured - rice.mean()) < 3 * se

    def test_spike_scales_whole_symbol(self):
        pilot = make_srs_symbol()
        quiet = ChannelConfig(base_gain=1.0, spike_probability=0.0)
        spiky = ChannelConfig(base_gain=1.0, spike_probability=1.0, spike_gain=3.0)
        rx_quiet = receive(pilot, TRANSPARENT, quiet, np.random.default_rng(7))
        rx_spiky = receive(pilot, TRANSPARENT, spiky, np.random.default_rng(7))
        np.testing.assert_allclose(rx_spiky, 3.0 * rx_quiet, rtol=1e-12)

    def test_spike_affects_single_period(self):
        # same noise stream; spikes drawn per period leave other periods alone
        spiky = ChannelConfig(base_gain=1.0, noise_sigma=0.01, spike_probability=0.5)
        base = dataclasses.replace(spiky, spike_probability=0.0)
        pilot = make_srs_symbol()
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        ratios = []
        for _ in range(50):
            rx_a = receive(pilot, TRANSPARENT, base, rng_a)
            rx_b = receive(pilot, TRANSPARENT, spiky, rng_b)
            ratio = rx_b / rx_a
            assert np.allclose(ratio, ratio[0])
            ratios.append(complex(ratio[0]))
        assert {round(r.real, 9) for r in ratios} == {1.0, 3.0}

    def test_determinism(self):
        cfg = ChannelConfig(base_gain=0.3, noise_sigma=0.02, spike_probability=0.1)
        pilot = make_srs_symbol()
        out = []
        for _ in range(2):
            gain = cfg.base_gain
            rng = np.random.default_rng(123)
            values = []
            for _ in range(20):
                values.append(propagate(pilot, BACKSCATTER, gain, cfg, rng))
                gain = step(gain, cfg, rng)
            out.append(np.stack(values))
        np.testing.assert_array_equal(out[0], out[1])

    def test_null_depth_states_indistinguishable(self):
        cfg = ChannelConfig(base_gain=0.3, modulation_depth=0.0, noise_sigma=0.02)
        pilot = make_srs_symbol()
        rng = np.random.default_rng(11)
        n = 10_000
        on = np.empty(n)
        off = np.empty(n)
        for i in range(n):
            on[i] = np.abs(receive(pilot, BACKSCATTER, cfg, rng)).mean()
            off[i] = np.abs(receive(pilot, TRANSPARENT, cfg, rng)).mean()
        result = stats.ks_2samp(on, off)
        assert result.pvalue > 0.01


class TestStep:
    def test_zero_drift_keeps_gain(self):
        cfg = ChannelConfig(base_gain=0.4, drift_rate=0.0)
        rng = np.random.default_rng(0)
        gain = cfg.base_gain
        for _ in range(100):
            gain = step(gain, cfg, rng)
        assert gain == 0.4

    def test_fixed_seed_replays_trajectory(self):
        def trajectory():
            cfg = ChannelConfig(base_gain=1.0, drift_rate=0.01)
            rng = np.random.default_rng(5)
            gains = [cfg.base_gain]
            for _ in range(217):
                gains.append(step(gains[-1], cfg, rng))
            return gains

        assert trajectory() == trajectory()

    def test_log_gain_random_walk_variance(self):
        # var(log g_K / g_0) = K * rate^2 for a K-step walk
        rate = 0.001
        walks = 4000
        steps = 217
        cfg = ChannelConfig(base_gain=1.0, drift_rate=rate)
        rng = np.random.default_rng(99)
        finals = np.empty(walks)
        for i in range(walks):
            gain = cfg.base_gain
            for _ in range(steps):
                gain = step(gain, cfg, rng)
            finals[i] = math.log(gain)
        expected = steps * rate**2
        assert np.var(finals) == pytest.approx(expected, rel=0.15)


class TestConfigAndPresets:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_gain=0.0),
            dict(modulation_depth=-0.1),
            dict(noise_sigma=-1.0),
            dict(spike_probability=1.5),
            dict(spike_gain=1.0),
            dict(drift_rate=-0.2),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)

    def test_preset_names(self):
        assert set(PRESETS) == {"noiseless", "indoor_short", "indoor_long", "outdoor"}
        assert get_preset("noiseless").noise_sigma == 0.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_preset("underwater")

    def test_presets_ordered_by_modulation_to_noise(self):
        """Modulation depth over all disturbances combined, spikes by excess gain times rate."""

        def ratio(config):
            disturbance = (
                config.noise_sigma
                + config.spike_probability * (config.spike_gain - 1.0)
                + config.drift_rate
            )
            return math.inf if disturbance == 0 else config.modulation_depth / disturbance

        names = ("noiseless", "indoor_short", "indoor_long", "outdoor")
        ratios = [ratio(PRESETS[name]) for name in names]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestReceivedMagnitudes:
    """The block simulation against the one-period model on the same streams.

    Stream layout 2 draws the noise, the spikes and the drift from three
    streams spawned from the run seed. The one-period model in
    ``channel_model`` draws the same values one period at a time; the traces
    differ only by rounding, because the block code takes the gain as an exp
    of a cumulative sum instead of a product of exps, the magnitude as
    ``sqrt(x*x + y*y)`` instead of ``hypot``, and spikes the mean instead of
    the symbol. ``RTOL`` bounds that rounding over a few hundred periods; a
    draw out of place moves a value by far more.
    """

    MESSAGE = encode_repetition(CodeConfig().build().code(7), 7)
    CONFIGS = {
        **PRESETS,
        "custom": ChannelConfig(
            modulation_depth=0.03, noise_sigma=0.02, spike_probability=0.3, drift_rate=0.01
        ),
    }
    RTOL = 1e-12
    SEED = 2024

    def keying(self, n, tag_on=True):
        return np.resize(self.MESSAGE > 0, n) if tag_on else np.zeros(n)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 217])
    @pytest.mark.parametrize("tag_on", [True, False])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_per_period_loop(self, name, tag_on, n):
        config = self.CONFIGS[name]
        pilot = make_srs_symbol()
        b = self.keying(n, tag_on)
        expected = one_period_trace(pilot, b, config, *layout_streams(self.SEED))
        trace = received_magnitudes(pilot, b, config, self.SEED)
        np.testing.assert_allclose(trace, expected, rtol=self.RTOL, atol=0)

    @pytest.mark.parametrize("tag_on", [True, False])
    def test_clean_channel_matches_propagate(self, tag_on):
        # no noise, spikes or drift: the magnitude is the amplitude times mean|p_k|
        config = ChannelConfig(modulation_depth=0.05)
        pilot = make_srs_symbol()
        b = self.keying(217, tag_on)
        rng = np.random.default_rng(self.SEED)
        gain = config.base_gain
        expected = []
        for k in range(b.size):
            expected.append(average_magnitude(propagate(pilot, b[k], gain, config, rng)))
            gain = step(gain, config, rng)
        trace = received_magnitudes(pilot, b, config, self.SEED)
        assert np.max(np.abs(trace / np.array(expected) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 217])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_prefix_of_a_longer_run(self, name, n):
        config = self.CONFIGS[name]
        pilot = make_srs_symbol()
        b = self.keying(5 * BLOCK)
        whole = received_magnitudes(pilot, b, config, self.SEED)
        assert received_magnitudes(pilot, b[:n], config, self.SEED).tobytes() == whole[:n].tobytes()

    def test_depths_share_spikes_and_gains(self):
        pilot = make_srs_symbol()
        b = self.keying(217)
        shallow = ChannelConfig(modulation_depth=0.01, spike_probability=0.3, drift_rate=0.01)
        deep = dataclasses.replace(shallow, modulation_depth=0.05)
        a = received_magnitudes(pilot, b, shallow, self.SEED) / (1.0 + 0.01 * b)
        c = received_magnitudes(pilot, b, deep, self.SEED) / (1.0 + 0.05 * b)
        np.testing.assert_allclose(a, c, rtol=1e-14, atol=0)
        # what they share holds both sources: without drift only the spikes
        # (x3) are left, and the ratio to that is the gain walk, with no x3 steps
        steady = received_magnitudes(
            pilot, b, dataclasses.replace(shallow, drift_rate=0.0), self.SEED
        ) / (1.0 + 0.01 * b)
        assert 0 < np.sum(steady > 2 * steady.min()) < b.size
        walk = np.log(a / steady)
        assert np.ptp(walk) > 0.01
        assert np.max(np.abs(np.diff(walk))) < 0.1

    def test_noise_levels_share_the_noise(self):
        # |2g p + 2 sigma n| = 2 |g p + sigma n|, exactly in binary floating point
        pilot = make_srs_symbol()
        b = self.keying(217)
        quiet = ChannelConfig(base_gain=0.3, modulation_depth=0.03, noise_sigma=0.02)
        loud = dataclasses.replace(quiet, base_gain=0.6, noise_sigma=0.04)
        trace = received_magnitudes(pilot, b, quiet, self.SEED)
        np.testing.assert_array_equal(received_magnitudes(pilot, b, loud, self.SEED), 2 * trace)
        other = received_magnitudes(pilot, b, quiet, self.SEED + 1)
        assert not np.array_equal(other, trace)

    def test_magnitudes_follow_the_one_period_model(self):
        # independent seeds; no drift, so the periods of each trace are independent
        config = ChannelConfig(
            modulation_depth=0.05, noise_sigma=0.12, spike_probability=0.05
        )
        pilot = make_srs_symbol()
        b = self.keying(3000)
        trace = received_magnitudes(pilot, b, config, 1)
        model = one_period_trace(pilot, b, config, *layout_streams(2))
        assert stats.ks_2samp(trace, model).pvalue > 0.01

    def test_log_gain_increments_follow_the_one_period_model(self):
        config = ChannelConfig(modulation_depth=0.0, drift_rate=0.01)
        pilot = make_srs_symbol()
        b = np.zeros(5000)
        increments = np.diff(np.log(received_magnitudes(pilot, b, config, 1)))
        model = np.diff(np.log(one_period_trace(pilot, b, config, *layout_streams(2))))
        assert stats.ks_2samp(increments, model).pvalue > 0.01
        assert np.std(increments) == pytest.approx(config.drift_rate, rel=0.05)

    def test_empty_keying_gives_empty_trace(self):
        trace = received_magnitudes(make_srs_symbol(), np.zeros(0), PRESETS["outdoor"], 1)
        assert trace.shape == (0,)
        assert trace.dtype == np.float64
