"""Uplink sounding pilot generation.

The pilot is a constant-amplitude Zadoff-Chu sequence built on a prime base
length and cyclically extended to fill 144 comb subcarriers (every other
subcarrier across 24 resource blocks). Only the pilot values of one symbol
per 10 ms period are modeled; where they sit on the frequency grid never
matters downstream because the detector works on per-period magnitudes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import check_fields

SRS_LENGTH = 144
SRS_PERIOD_S = 0.010


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class ZcConfig:
    """Zadoff-Chu root sequence parameters.

    The base length must be prime so the sequence keeps its ideal cyclic
    autocorrelation; the extension to ``target_length`` is cyclic. The root
    index only rotates phases, which the magnitude-based detector never sees,
    so any valid root behaves identically downstream.
    """

    root: int = 25
    base_length: int = 139
    target_length: int = SRS_LENGTH

    def __post_init__(self):
        check_fields(self)
        # The length bounds come first: they cap the trial division below.
        if self.target_length != SRS_LENGTH:
            raise ValueError(
                f"target_length must be {SRS_LENGTH}, got {self.target_length}"
            )
        if self.target_length < self.base_length:
            raise ValueError(
                "target_length must be at least base_length "
                f"({self.target_length} < {self.base_length})"
            )
        if not is_prime(self.base_length):
            raise ValueError(f"base_length must be prime, got {self.base_length}")
        if not 1 <= self.root < self.base_length:
            raise ValueError(
                f"root must satisfy 1 <= root < base_length, got {self.root}"
            )


def generate_zc_base(config: ZcConfig) -> np.ndarray:
    """Generate the prime-length Zadoff-Chu root sequence.

    Element ``m`` is ``exp(-i pi u m (m+1) / L)`` for root ``u`` and base
    length ``L``. Every element has unit modulus and the cyclic
    autocorrelation is zero at all nonzero lags.
    """
    m = np.arange(config.base_length)
    phase = -np.pi * config.root * m * (m + 1) / config.base_length
    return np.exp(1j * phase)


def extend_to_srs(base: np.ndarray, target_length: int) -> np.ndarray:
    """Cyclically extend a root sequence to the full pilot length.

    ``out[n] = base[n mod len(base)]``; raises if the target is shorter than
    the base.
    """
    base = np.asarray(base)
    if target_length < base.size:
        raise ValueError(
            f"target_length {target_length} shorter than base length {base.size}"
        )
    idx = np.arange(target_length) % base.size
    return base[idx]


def make_srs_symbol(config: ZcConfig | None = None) -> np.ndarray:
    """The transmitted pilot: 144 unit-amplitude complex subcarrier values."""
    config = config or ZcConfig()
    return extend_to_srs(generate_zc_base(config), config.target_length)
