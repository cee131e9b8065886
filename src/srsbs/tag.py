"""Tag identity codes and their on-off keying schedule.

A tag identity is one code out of a family of 33: two degree-5 m-sequences
plus their 31 shift-XOR combinations. The family is three-valued in cyclic
cross-correlation ({-9, -1, +7} unnormalized), which is what keeps distinct
tags separable at the correlator. The transmitted pattern repeats each code
chip for ``v`` consecutive sounding periods, one antenna state per period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .srs import SRS_PERIOD_S

CODE_LENGTH = 31
REPEATS = 7

# x^5 + x^2 + 1 and x^5 + x^4 + x^3 + x^2 + 1, as exponent sets
PREFERRED_TAPS_A = (5, 2, 0)
PREFERRED_TAPS_B = (5, 4, 3, 2, 0)

_ALLOWED_CROSS = frozenset({-9, -1, 7})


@dataclass(frozen=True)
class LfsrSpec:
    """Degree-5 feedback shift register defined by polynomial exponents.

    ``taps`` lists the exponents of the feedback polynomial (must include 5
    and 0). The register runs in Fibonacci form and outputs its oldest bit;
    construction fails unless the polynomial is primitive, i.e. the state
    sequence has period exactly 31 from the given nonzero seed.
    """

    taps: tuple[int, ...] = PREFERRED_TAPS_A
    seed: tuple[int, ...] = (1, 1, 1, 1, 1)

    def __post_init__(self):
        taps = tuple(sorted(set(self.taps), reverse=True))
        object.__setattr__(self, "taps", taps)
        if not taps or taps[0] != 5 or 0 not in taps:
            raise ValueError(f"taps must describe a degree-5 polynomial with constant term, got {taps}")
        if any(t < 0 or t > 5 for t in taps):
            raise ValueError(f"tap exponents must lie in 0..5, got {taps}")
        if len(self.seed) != 5 or any(b not in (0, 1) for b in self.seed):
            raise ValueError(f"seed must be 5 bits, got {self.seed}")
        if not any(self.seed):
            raise ValueError("seed must be nonzero")
        # the state after s steps is bits[s : s + 5]; the period is the first s that restores the seed
        bits, seed = self.bits(CODE_LENGTH + 5).tolist(), list(self.seed)
        period = next((s for s in range(1, CODE_LENGTH + 1) if bits[s : s + 5] == seed), None)
        if period != CODE_LENGTH:
            raise ValueError(
                f"polynomial {taps} is not primitive (period != {CODE_LENGTH})"
            )

    def bits(self, length: int = CODE_LENGTH) -> np.ndarray:
        """Clock the register ``length`` times and collect the output bits."""
        state = list(self.seed)
        lows = [t for t in self.taps if t < 5]
        out = np.empty(length, dtype=np.int8)
        for k in range(length):
            out[k] = state[0]
            bit = 0
            for t in lows:
                bit ^= state[t]
            state = state[1:] + [bit]
        return out


def generate_m_sequence(spec: LfsrSpec) -> np.ndarray:
    """One period of the register output mapped to +/-1 (bit 0 -> +1)."""
    return (1 - 2 * spec.bits()).astype(np.int8)


@dataclass(frozen=True)
class GoldCodeSet:
    """The 33 candidate tag codes, indexed by stable ids 0..32.

    Ordering: id 0 and 1 are the two m-sequences; id 2+tau is the product of
    the first with the tau-step left rotation of the second. ``codes`` is a
    read-only copy, so one family can be shared between runs.
    """

    codes: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        codes = np.array(self.codes, dtype=np.int8)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        if codes.shape != (len(self.labels), CODE_LENGTH):
            raise ValueError(f"expected {len(self.labels)} codes of length {CODE_LENGTH}")
        if not np.all(np.abs(codes) == 1):
            raise ValueError("codes must be +/-1 valued")

    @property
    def n_codes(self) -> int:
        return len(self.labels)

    def code(self, code_id: int) -> np.ndarray:
        if not 0 <= code_id < self.n_codes:
            raise ValueError(f"code_id must be in 0..{self.n_codes - 1}, got {code_id}")
        return self.codes[code_id]


def generate_gold_set(
    poly_a: LfsrSpec | None = None, poly_b: LfsrSpec | None = None
) -> GoldCodeSet:
    """Build the full code family from a preferred polynomial pair.

    In +/-1 form the XOR of two bit sequences is the elementwise product. The
    pair is audited at construction: all 33 codes must be pairwise distinct
    and every ordered pair of distinct codes must have cyclic
    cross-correlation values inside {-9, -1, +7} at all 31 lags, the
    signature of a preferred pair.
    """
    poly_a = poly_a or LfsrSpec(taps=PREFERRED_TAPS_A)
    poly_b = poly_b or LfsrSpec(taps=PREFERRED_TAPS_B)
    m_a = generate_m_sequence(poly_a)
    m_b = generate_m_sequence(poly_b)
    rows = [m_a, m_b]
    rows.extend(m_a * np.roll(m_b, -tau) for tau in range(CODE_LENGTH))
    codes = np.array(rows, dtype=np.int8)

    if len({tuple(int(x) for x in row) for row in codes}) != len(rows):
        raise ValueError("generated code family contains duplicates")
    # cross[i, j, lag] = sum_n codes[i, n] * codes[j, (n + lag) % 31]
    wide = codes.astype(np.int64)
    lags = np.arange(CODE_LENGTH)
    rotations = wide[:, (lags[:, None] + lags[None, :]) % CODE_LENGTH]
    cross = np.einsum("in,jln->ijl", wide, rotations)
    ids = np.arange(len(rows))
    cross[ids, ids] = -1  # mask self-correlation, audited separately
    outside = ~np.isin(cross, list(_ALLOWED_CROSS))
    failing = np.flatnonzero(outside.any(axis=(1, 2)))
    if failing.size:
        bad = set(np.unique(cross[failing[0]])) - _ALLOWED_CROSS
        raise ValueError(
            f"polynomial pair is not preferred: cross-correlation values {sorted(bad)}"
        )
    return GoldCodeSet(codes=codes, labels=tuple(range(len(rows))))


def encode_repetition(code: np.ndarray, v: int) -> np.ndarray:
    """Hold each +/-1 code chip for ``v`` consecutive samples (int8)."""
    if v < 1:
        raise ValueError(f"repetition count must be >= 1, got {v}")
    return np.repeat(np.asarray(code, dtype=np.int8), v)


def ook_state(message: np.ndarray, period_index: int) -> float:
    """Reflection factor b at a period: 1.0 on +1 chips (backscatter), else 0.0.

    The message repeats indefinitely, so b is periodic in the message length.
    """
    if period_index < 0:
        raise ValueError("period_index must be non-negative")
    return 1.0 if message[period_index % message.size] > 0 else 0.0


@dataclass(frozen=True)
class OokSchedule:
    """Timing bookkeeping for the keying pattern."""

    bit_duration: float = SRS_PERIOD_S
    message_duration: float = REPEATS * CODE_LENGTH * SRS_PERIOD_S

    def __post_init__(self):
        if self.bit_duration <= 0 or self.message_duration <= 0:
            raise ValueError("durations must be positive")

    @classmethod
    def for_message(
        cls, v: int = REPEATS, n: int = CODE_LENGTH, bit_duration: float = SRS_PERIOD_S
    ) -> "OokSchedule":
        return cls(bit_duration=bit_duration, message_duration=v * n * bit_duration)
