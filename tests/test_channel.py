import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from srsbs.channel import (
    BLOCK,
    ChannelConfig,
    PRESETS,
    effective_modulation_to_noise,
    get_preset,
    propagate,
    received_magnitudes,
    step,
)
from srsbs.detector import average_magnitude
from srsbs.harness import CodeConfig
from srsbs.srs import make_srs_symbol
from srsbs.tag import encode_repetition, ook_state

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
        ratios = [
            effective_modulation_to_noise(PRESETS[name])
            for name in ("noiseless", "indoor_short", "indoor_long", "outdoor")
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestReceivedMagnitudes:
    """The block simulation against a loop of the one-period reference API.

    Both must give the same bytes and leave the generator in the same state:
    the block function draws the same stream and does the same arithmetic.
    """

    MESSAGE = encode_repetition(CodeConfig().build().code(7), 7)
    CONFIGS = {
        **PRESETS,
        "custom": ChannelConfig(
            modulation_depth=0.03, noise_sigma=0.02, spike_probability=0.3, drift_rate=0.01
        ),
    }

    def reference(self, pilot, n, tag_on, config, rng):
        gain = config.base_gain
        out = []
        for k in range(n):
            b = ook_state(self.MESSAGE, k) if tag_on else 0.0
            received = propagate(pilot, b, gain, config, rng)
            gain = step(gain, config, rng)
            out.append(average_magnitude(received))
        return np.array(out)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 217])
    @pytest.mark.parametrize("tag_on", [True, False])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_per_period_loop(self, name, tag_on, n):
        config = self.CONFIGS[name]
        pilot = make_srs_symbol()
        rng_ref = np.random.default_rng(2024)
        rng_block = np.random.default_rng(2024)
        expected = self.reference(pilot, n, tag_on, config, rng_ref)
        b = np.resize(self.MESSAGE > 0, n) if tag_on else np.zeros(n)
        trace = received_magnitudes(pilot, b, config, rng_block)
        assert trace.tobytes() == expected.tobytes()
        assert rng_block.bit_generator.state == rng_ref.bit_generator.state

    def test_empty_keying_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        trace = received_magnitudes(make_srs_symbol(), np.zeros(0), PRESETS["outdoor"], rng)
        assert trace.size == 0
        assert rng.bit_generator.state == state
