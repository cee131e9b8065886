"""The one-period channel model, for checking the block simulation.

``received_magnitudes`` draws each disturbance in bulk from its own stream.
``one_period_trace`` runs the same model one period at a time, as
``propagate``, ``step`` and ``average_magnitude`` do: 288 noise normals
(real parts, then imaginary parts) from the noise stream, one uniform from
the spike stream, then one drift normal from the drift stream that moves the
gain for the next period.
"""

import math

import numpy as np


def layout_streams(seed: int) -> list[np.random.Generator]:
    """The noise, spike and drift generators of stream layout 2."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def one_period_trace(pilot, b, config, noise, spike, drift) -> np.ndarray:
    gain = config.base_gain
    out = np.empty(len(b))
    for k in range(len(b)):
        z = noise.standard_normal((2, pilot.size))
        received = gain * (1.0 + config.modulation_depth * b[k]) * pilot
        received = received + (z[0] + 1j * z[1]) * (config.noise_sigma / math.sqrt(2.0))
        if spike.random() < config.spike_probability:
            received = received * config.spike_gain
        out[k] = np.mean(np.abs(received))
        gain = gain * math.exp(config.drift_rate * drift.standard_normal())
    return out
