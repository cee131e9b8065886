"""Receiver-side pipeline: magnitude averaging, three filters, correlation.

Per sounding period the receiver reduces the pilot to one scalar (mean
magnitude), pushes it through an amplitude validity gate, a median filter and
a standard-deviation outlier filter, then slides the filtered sample into a
full-message window and ranks all candidate codes by Pearson correlation.
An identity is declared when the best correlation clears the threshold.

The pipeline downstream of the validity gate is invariant to positive
rescaling of its input: medians commute with scaling, the outlier test
compares two quantities that scale together, and Pearson is affine-invariant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._config import check_fields
from .tag import CODE_LENGTH, REPEATS, GoldCodeSet, encode_repetition, generate_gold_set

SD_REPLACE_MEAN = "mean"
SD_REPLACE_PREVIOUS = "previous"


@dataclass(frozen=True)
class FilterConfig:
    """Filter-stage knobs.

    ``alpha`` is an absolute magnitude ceiling: samples above it are presumed
    front-end artifacts and replaced with the last accepted sample. The
    median and SD windows must stay shorter than the code chip repetition
    run so legitimate keying transitions survive. ``deviation_factor`` may be
    ``inf`` to disable the SD branch entirely.

    ``sd_replacement`` picks what replaces a flagged outlier: the window mean
    (default) or the previous filter output.
    """

    alpha: float = 0.55
    median_window: int = 5
    sd_window: int = 5
    deviation_factor: float = 0.2
    sd_replacement: str = SD_REPLACE_MEAN
    enable_hard: bool = True
    enable_median: bool = True
    enable_sd: bool = True

    def __post_init__(self):
        check_fields(self, allow_inf=("deviation_factor",))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.median_window < 1 or self.sd_window < 1:
            raise ValueError("filter windows must be >= 1")
        if self.deviation_factor < 0:
            raise ValueError("deviation_factor must be >= 0 (inf disables)")
        if self.sd_replacement not in (SD_REPLACE_MEAN, SD_REPLACE_PREVIOUS):
            raise ValueError(
                f"sd_replacement must be '{SD_REPLACE_MEAN}' or '{SD_REPLACE_PREVIOUS}'"
            )


@dataclass(frozen=True)
class DetectorConfig:
    theta: float = 0.4
    v: int = REPEATS
    n: int = CODE_LENGTH
    polarity_agnostic: bool = False
    code_set: GoldCodeSet | None = None

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.v < 1 or self.n < 1:
            raise ValueError("v and n must be >= 1")

    @property
    def window_length(self) -> int:
        return self.v * self.n


@dataclass(frozen=True)
class DetectionEvent:
    period_index: int
    code_id: int
    correlation: float


@dataclass
class DetectorState:
    """Streaming state for one amplitude stream; strictly sequential."""

    last_valid: float | None = None
    median_buffer: deque = field(default_factory=deque)
    sd_buffer: deque = field(default_factory=deque)
    correlation_window: np.ndarray | None = None
    window_fill: int = 0
    period_counter: int = 0
    previous_output: float | None = None


def average_magnitude(values: np.ndarray) -> float:
    """Mean magnitude over the pilot subcarriers: the detector's scalar input."""
    return float(np.abs(values).mean())


def hard_threshold(a: float, state: DetectorState, config: FilterConfig) -> float:
    """Amplitude validity gate.

    Samples above ``alpha``, and NaN, are replaced with the most recent
    sample that passed the gate (the first sample is always accepted to seed
    the state).
    """
    if state.last_valid is None:
        state.last_valid = a
        return a
    if not a <= config.alpha:
        return state.last_valid
    state.last_valid = a
    return a


def median_filter(a_prime: float, state: DetectorState, config: FilterConfig) -> float:
    """Sliding median; warm-up uses the available prefix.

    Even-sized prefixes average the two central order statistics.
    """
    buf = state.median_buffer
    buf.append(a_prime)
    if len(buf) > config.median_window:
        buf.popleft()
    ordered = sorted(buf)
    m = len(ordered)
    if m % 2:
        return ordered[m // 2]
    return 0.5 * (ordered[m // 2 - 1] + ordered[m // 2])


def sd_filter(d: float, state: DetectorState, config: FilterConfig) -> float:
    """Standard-deviation outlier filter over the last ``sd_window`` inputs.

    The incoming sample is an outlier when it deviates from the window mean
    by more than ``deviation_factor`` window standard deviations; it is then
    replaced by the window mean (or the previous output, if configured).
    """
    buf = state.sd_buffer
    buf.append(d)
    if len(buf) > config.sd_window:
        buf.popleft()
    m = len(buf)
    mean = sum(buf) / m
    var = sum((x - mean) ** 2 for x in buf) / m
    sigma = var**0.5
    if abs(d - mean) > config.deviation_factor * sigma:
        if config.sd_replacement == SD_REPLACE_MEAN:
            y = mean
        else:
            y = state.previous_output if state.previous_output is not None else d
    else:
        y = d
    state.previous_output = y
    return y


def pearson(template: np.ndarray, window: np.ndarray) -> float:
    """Pearson correlation between a code template and a sample window.

    Defined as 0 when either side has zero variance, so a flat stream can
    never produce a detection.
    """
    template = np.asarray(template, dtype=np.float64)
    window = np.asarray(window, dtype=np.float64)
    if template.shape != window.shape:
        raise ValueError("template and window must have equal length")
    tc = template - template.mean()
    wc = window - window.mean()
    denom = np.sqrt((tc @ tc) * (wc @ wc))
    if denom == 0:
        return 0.0
    return float((tc @ wc) / denom)


class Detector:
    """Streaming detector over one amplitude stream.

    ``process`` consumes one raw magnitude per sounding period and runs the
    full filter chain; ``detect_step`` consumes an already-filtered sample
    and only slides the correlation window. The window must fill (one full
    message length) before any event can be emitted.
    """

    def __init__(
        self,
        detector_config: DetectorConfig | None = None,
        filter_config: FilterConfig | None = None,
    ):
        self.config = detector_config or DetectorConfig()
        self.filter = filter_config or FilterConfig()
        if self.filter.enable_median and self.filter.median_window >= self.config.v:
            raise ValueError(
                "median window must be shorter than the chip repetition run "
                f"({self.filter.median_window} >= {self.config.v})"
            )
        if self.filter.enable_sd and self.filter.sd_window >= self.config.v:
            raise ValueError(
                "SD window must be shorter than the chip repetition run "
                f"({self.filter.sd_window} >= {self.config.v})"
            )
        code_set = self.config.code_set or generate_gold_set()
        self.code_set = code_set
        if code_set.codes.shape[1] != self.config.n:
            raise ValueError(
                f"code set length {code_set.codes.shape[1]} does not match "
                f"configured chip count {self.config.n}"
            )
        templates = np.array(
            [
                encode_repetition(code_set.code(cid), self.config.v)
                for cid in code_set.labels
            ],
            dtype=np.float64,
        )
        centered = templates - templates.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("constant code template cannot be correlated")
        self._templates_normed = centered / norms
        self.state = DetectorState(
            correlation_window=np.zeros(self.config.window_length)
        )

    def process(self, a: float) -> DetectionEvent | None:
        """Full pipeline for one period: gate, median, SD filter, correlate."""
        x = float(a)
        if self.filter.enable_hard:
            x = hard_threshold(x, self.state, self.filter)
        if self.filter.enable_median:
            x = median_filter(x, self.state, self.filter)
        if self.filter.enable_sd:
            x = sd_filter(x, self.state, self.filter)
        return self.detect_step(x)

    def detect_step(self, y: float) -> DetectionEvent | None:
        """Slide the filtered sample in; once full, rank all codes.

        Emits an event iff the best correlation exceeds theta; ties break
        toward the lowest code id. Returns None during warm-up.
        """
        state = self.state
        window = state.correlation_window
        window[:-1] = window[1:]
        window[-1] = y
        state.window_fill += 1
        period = state.period_counter
        state.period_counter += 1
        if state.window_fill < self.config.window_length:
            return None
        correlations = self.correlate()
        if correlations is None:
            return None
        ranked = np.abs(correlations) if self.config.polarity_agnostic else correlations
        best = int(np.argmax(ranked))
        if ranked[best] > self.config.theta:
            return DetectionEvent(
                period_index=period,
                code_id=int(self.code_set.labels[best]),
                correlation=float(correlations[best]),
            )
        return None

    def correlate(self) -> np.ndarray | None:
        """Pearson correlation of the current window against all templates.

        None when the window has zero variance (flat stream).
        """
        window = self.state.correlation_window
        centered = window - window.mean()
        norm = np.linalg.norm(centered)
        if norm == 0:
            return None
        return self._templates_normed @ (centered / norm)
