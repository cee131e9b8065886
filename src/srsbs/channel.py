"""Synthetic propagation between the handset, the tag and the receiver.

The tag's reflective state shows up as a small multiplicative amplitude
change on the whole pilot symbol; everything else the receiver sees is
nuisance: circular complex noise per subcarrier, rare symbol-wide magnitude
spikes (front-end artifacts), and a slow random-walk gain drift. All
randomness flows through one caller-supplied generator so a run is fully
determined by its seed.

Preset parameter values are simulator calibration choices: the filter chain
colors white per-period noise badly enough that the indoor presets carry
their disturbance through spikes (removed by the amplitude validity gate)
rather than noise, keeping the tag-off stream event-free at the default
detection threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from ._config import check_fields


@dataclass(frozen=True)
class ChannelConfig:
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

    Draws a fixed amount of randomness regardless of parameter values, so two
    configs differing only in deterministic knobs see identical noise
    realizations under the same generator state.
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


# Periods simulated per block by ``received_magnitudes``; buffers are this long.
BLOCK = 64


def received_magnitudes(
    pilot: np.ndarray, b: np.ndarray, config: ChannelConfig, rng: np.random.Generator
) -> np.ndarray:
    """Mean received magnitude for each period of the keying array ``b``.

    The gain starts at ``config.base_gain``. The result, and the generator
    state afterwards, equal a loop of ``propagate``, ``step`` and
    ``average_magnitude`` over ``b`` bit for bit. Each period draws its 288
    noise normals, its spike uniform and its drift normal in that order; one
    drift normal and the next period's noise normals are drawn as one run of
    289, which the ziggurat fills with the same values. The gain walks with
    ``math.exp`` as in ``step``. Only the arithmetic on the draws runs on
    blocks of ``BLOCK`` periods, each operation elementwise as ``propagate``
    and ``average_magnitude`` do it for one period, into preallocated buffers.
    """
    n, p = b.size, pilot.size
    out = np.empty(n)
    # Row i: the drift normal of the period before, then period i's noise
    # (real parts, imaginary parts). Row 0 of the first block has no drift
    # before it; its 0.0 makes the first gain factor exp(0.0) = 1.0.
    z = np.zeros((BLOCK, 2 * p + 1))
    draws = list(z)
    first = [z[0, 1:]] + draws[1:]
    noise = np.empty((BLOCK, p), dtype=complex)
    clean = np.empty((BLOCK, p), dtype=complex)
    magnitude = np.empty((BLOCK, p))
    scale = config.noise_sigma / math.sqrt(2.0)
    gain = config.base_gain
    normal, uniform, exp = rng.standard_normal, rng.random, math.exp
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        spike = []
        for row in (draws if start else first)[:m]:
            normal(out=row)
            spike.append(uniform())
        # Each period's gain is the one before times exp(rate * drift), as in step.
        factors = map(exp, (config.drift_rate * z[:m, 0]).tolist())
        gains = list(accumulate(factors, mul, initial=gain))[1:]
        gain = gains[-1]
        rx = noise[:m]
        np.multiply(1j, z[:m, p + 1:], out=rx)
        np.add(z[:m, 1:p + 1], rx, out=rx)
        np.multiply(rx, scale, out=rx)
        amplitude = np.multiply(gains, 1.0 + config.modulation_depth * b[start:start + m])
        np.multiply(amplitude[:, None], pilot, out=clean[:m])
        np.add(clean[:m], rx, out=rx)
        rx[np.less(spike, config.spike_probability)] *= config.spike_gain
        np.mean(np.abs(rx, out=magnitude[:m]), axis=1, out=out[start:start + m])
    if n:
        normal()  # the last period's drift
    return out


def effective_modulation_to_noise(config: ChannelConfig) -> float:
    """Modulation depth relative to all disturbance sources combined.

    Spikes count by their excess gain weighted by rate; infinite for a fully
    clean channel. Used only to order presets, not as a physical quantity.
    """
    disturbance = (
        config.noise_sigma
        + config.spike_probability * (config.spike_gain - 1.0)
        + config.drift_rate
    )
    if disturbance == 0:
        return math.inf
    return config.modulation_depth / disturbance


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
