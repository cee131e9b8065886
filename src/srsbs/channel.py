"""Synthetic propagation between the handset, the tag and the receiver.

The tag's reflective state shows up as a small multiplicative amplitude
change on the whole pilot symbol; everything else the receiver sees is
nuisance: circular complex noise per subcarrier, rare symbol-wide magnitude
spikes (front-end artifacts), and a slow random-walk gain drift. A run
draws each of the three from its own stream spawned from the run seed, so it
is fully determined by its seed.

Preset parameter values are simulator calibration choices: the filter chain
colors white per-period noise badly enough that the indoor presets carry
their disturbance through spikes (removed by the amplitude validity gate)
rather than noise, keeping the tag-off stream event-free at the default
detection threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import check_fields


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters. No field changes how much any stream is drawn,
    except that ``noise_sigma = 0`` draws no noise, so two configs under one
    seed see the same realization of every source they share."""

    base_gain: float = 0.3
    modulation_depth: float = 0.05
    noise_sigma: float = 0.0
    spike_probability: float = 0.0
    spike_gain: float = 3.0
    drift_rate: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.base_gain <= 0:
            raise ValueError(f"base_gain must be positive, got {self.base_gain}")
        if self.modulation_depth < 0:
            raise ValueError("modulation_depth must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0 <= self.spike_probability <= 1:
            raise ValueError("spike_probability must lie in [0, 1]")
        if self.spike_gain <= 1:
            raise ValueError("spike_gain must exceed 1")
        if self.drift_rate < 0:
            raise ValueError("drift_rate must be >= 0")


def propagate(
    pilot: np.ndarray, b: float, gain: float, config: ChannelConfig, rng: np.random.Generator
) -> np.ndarray:
    """Received pilot for one period.

    ``rx_n = g * (1 + depth * b) * tx_n + noise_n`` with ``b = 1`` while the
    tag backscatters, noise circular complex Gaussian with standard deviation
    ``noise_sigma`` per subcarrier. With probability ``spike_probability`` the
    whole symbol (noise included) is additionally scaled by ``spike_gain``.

    The one-period reference of ``received_magnitudes``, on one generator:
    it draws 288 noise normals and one uniform whatever the parameters, so
    two configs see the same noise under the same generator state. In the
    block simulation the same holds per stream.
    """
    z = rng.standard_normal((2, pilot.size))
    noise = (z[0] + 1j * z[1]) * (config.noise_sigma / math.sqrt(2.0))
    received = gain * (1.0 + config.modulation_depth * b) * pilot + noise
    if rng.random() < config.spike_probability:
        received = received * config.spike_gain
    return received


def step(gain: float, config: ChannelConfig, rng: np.random.Generator) -> float:
    """Advance the gain random walk by one period: ``g * exp(rate * w)``."""
    return gain * math.exp(config.drift_rate * rng.standard_normal())


# Version of the random-stream layout of ``received_magnitudes``; manifests
# record it, since the same seed gives another trace under another layout.
RNG_LAYOUT = 2

# Periods of noise drawn per block by ``received_magnitudes``; buffers are this long.
BLOCK = 64


def received_magnitudes(
    pilot: np.ndarray, b: np.ndarray, config: ChannelConfig, seed: int
) -> np.ndarray:
    """Mean received magnitude for each period of the keying array ``b``.

    Stream layout 2: ``SeedSequence(seed).spawn(3)`` gives the noise, spike
    and drift streams, each drawn in bulk. The gain is ``base_gain *
    exp(cumsum(rate * w))``, exclusive, so period 0 has ``base_gain``.
    ``random(n) < spike_probability`` marks the periods whose magnitude is
    multiplied by ``spike_gain``. Noise, 288 normals a period, is drawn in
    blocks of ``BLOCK`` periods and added to ``A * p_k``, with ``A`` the gain
    times ``1 + depth * b``; with ``noise_sigma = 0`` none is drawn and the
    magnitude is ``A * mean(|p_k|)``. So a trace is a prefix of any longer
    trace from the same seed, and configs that differ in one source share
    the draws of the others. ``propagate`` and ``step`` give the model of
    one period.
    """
    n, p = b.size, pilot.size
    noise, spike, drift = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    amplitude = np.zeros(n)
    drift.standard_normal(out=amplitude[1:])
    amplitude *= config.drift_rate
    np.cumsum(amplitude, out=amplitude)
    np.exp(amplitude, out=amplitude)
    amplitude *= config.base_gain
    # ``out`` holds 1 + depth * b, then the spike uniforms, then the magnitudes.
    out = np.multiply(b, config.modulation_depth, dtype=float)
    out += 1.0
    amplitude *= out
    spiked = spike.random(out=out) < config.spike_probability
    if config.noise_sigma == 0:
        np.multiply(amplitude, np.mean(np.abs(pilot)), out=out)
    else:
        parts = np.stack([pilot.real, pilot.imag])
        z = np.empty((BLOCK, 2, p))
        clean = np.empty((BLOCK, 2, p))
        magnitude = np.empty((BLOCK, p))
        scale = config.noise_sigma / math.sqrt(2.0)
        for start in range(0, n, BLOCK):
            m = min(BLOCK, n - start)
            rx = z[:m]
            noise.standard_normal(out=rx)
            rx *= scale
            np.multiply(amplitude[start:start + m, None, None], parts, out=clean[:m])
            rx += clean[:m]
            rx *= rx
            np.add(rx[:, 0], rx[:, 1], out=magnitude[:m])
            np.sqrt(magnitude[:m], out=magnitude[:m])
            np.mean(magnitude[:m], axis=1, out=out[start:start + m])
    out[spiked] *= config.spike_gain
    return out


PRESETS: dict[str, ChannelConfig] = {
    "noiseless": ChannelConfig(base_gain=0.3, modulation_depth=0.05),
    "indoor_short": ChannelConfig(
        base_gain=0.3, modulation_depth=0.05, spike_probability=0.005
    ),
    "indoor_long": ChannelConfig(
        base_gain=0.3, modulation_depth=0.02, spike_probability=0.01
    ),
    "outdoor": ChannelConfig(
        base_gain=0.3,
        modulation_depth=0.01,
        noise_sigma=0.12,
        spike_probability=0.02,
    ),
}


def get_preset(name: str) -> ChannelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(PRESETS)}"
        ) from None
