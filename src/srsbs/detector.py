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
from numpy.lib.stride_tricks import sliding_window_view

from ._config import check_fields
from .tag import CODE_LENGTH, REPEATS, GoldCodeSet, generate_gold_set

SD_REPLACE_MEAN = "mean"
SD_REPLACE_PREVIOUS = "previous"

# Periods the batch kernel (``Detector.process_block``) takes at a time; its
# working arrays grow with this, never with the trace length.
BLOCK = 4096
# Correlation slack the kernel's screen keeps below theta, scaled up for
# windows whose spread is small next to the block's; see ``_correlate_block``.
SCREEN_MARGIN = 1e-9
# Relative distance to the SD filter's bound within which the kernel redoes
# the deviation test with ``sd_filter``'s scalar arithmetic.
SD_RECHECK = 1e-12
# ``sum`` adds floats left to right before CPython 3.12 and compensates the
# rounding from 3.12 on; the kernel's SD stage reproduces only the former.
_LEFT_TO_RIGHT_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0


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
    mean, sigma = _window_moments(buf)
    if abs(d - mean) > config.deviation_factor * sigma:
        if config.sd_replacement == SD_REPLACE_MEAN:
            y = mean
        else:
            y = state.previous_output if state.previous_output is not None else d
    else:
        y = d
    state.previous_output = y
    return y


def _window_moments(window) -> tuple[float, float]:
    """Mean and population standard deviation of a window of floats."""
    m = len(window)
    mean = sum(window) / m
    var = sum((x - mean) ** 2 for x in window) / m
    return mean, var**0.5


def _forward_fill(prior: float, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``x`` where ``keep``, elsewhere the last kept value (``prior`` before any)."""
    source = np.where(keep, np.arange(1, x.size + 1), 0)
    np.maximum.accumulate(source, out=source)
    return np.concatenate(([prior], x))[source]


def _gate_block(x: np.ndarray, state: DetectorState, config: FilterConfig) -> np.ndarray:
    """``hard_threshold`` over a block: a forward fill of the last accepted sample."""
    accept = x <= config.alpha
    if state.last_valid is None:
        accept[0] = True
    out = _forward_fill(0.0 if state.last_valid is None else state.last_valid, x, accept)
    state.last_valid = float(out[-1])
    return out


def _middle(ordered: np.ndarray) -> np.ndarray:
    """Median of windows sorted along the last axis, as ``median_filter`` takes it."""
    m = ordered.shape[-1]
    if m % 2:
        return ordered[..., m // 2]
    return 0.5 * (ordered[..., m // 2 - 1] + ordered[..., m // 2])


def _median_block(x: np.ndarray, state: DetectorState, config: FilterConfig) -> np.ndarray:
    """``median_filter`` over a block: sorted sliding windows after the warm-up prefix."""
    w = config.median_window
    p = len(state.median_buffer)
    history = np.concatenate((np.array(state.median_buffer, dtype=np.float64), x))
    warm = min(max(w - 1 - p, 0), x.size)  # samples whose window is a shorter prefix
    out = np.empty(x.size)
    for k in range(warm):
        out[k] = _middle(np.sort(history[: p + k + 1]))
    if warm < x.size:
        windows = sliding_window_view(history, w)[p + warm + 1 - w :]
        out[warm:] = _middle(np.sort(windows, axis=1))
    state.median_buffer = deque(history[-w:].tolist())
    return out


def _moments(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of each row, summed left to right as ``sum`` does.

    The mean is the one ``_window_moments`` gives on CPython before 3.12;
    the deviation may differ from it in the last bit (``**`` against
    numpy's square and square root).
    """
    width = windows.shape[1]
    total = np.zeros(len(windows))
    for j in range(width):
        total += windows[:, j]
    mean = total / width
    squares = np.zeros(len(windows))
    for j in range(width):
        deviation = windows[:, j] - mean
        squares += deviation * deviation
    return mean, np.sqrt(squares / width)


def _sd_block(d: np.ndarray, state: DetectorState, config: FilterConfig) -> np.ndarray:
    """``sd_filter`` over a block.

    A sample whose deviation lies within ``SD_RECHECK`` of the bound is
    tested again with ``_window_moments``, so every decision is
    ``sd_filter``'s. Where ``sum`` compensates rounding, which ``_moments``
    does not reproduce, the block runs sample by sample.
    """
    if not _LEFT_TO_RIGHT_SUM:
        return np.array([sd_filter(value, state, config) for value in d.tolist()])
    s = config.sd_window
    p = len(state.sd_buffer)
    history = np.concatenate((np.array(state.sd_buffer, dtype=np.float64), d))
    warm = min(max(s - 1 - p, 0), d.size)  # samples whose window is a shorter prefix
    mean = np.empty(d.size)
    sigma = np.empty(d.size)
    for k in range(warm):
        mean[k : k + 1], sigma[k : k + 1] = _moments(history[None, : p + k + 1])
    if warm < d.size:
        mean[warm:], sigma[warm:] = _moments(sliding_window_view(history, s)[p + warm + 1 - s :])
    deviation = np.abs(d - mean)
    with np.errstate(invalid="ignore"):  # inf * 0 when the factor is inf
        bound = config.deviation_factor * sigma
    outlier = deviation > bound
    for k in np.flatnonzero(np.abs(deviation - bound) < SD_RECHECK * bound):
        window = history[max(0, p + k + 1 - s) : p + k + 1].tolist()
        mean_k, sigma_k = _window_moments(window)
        outlier[k] = abs(window[-1] - mean_k) > config.deviation_factor * sigma_k
    if config.sd_replacement == SD_REPLACE_MEAN:
        out = np.where(outlier, mean, d)
    else:
        if state.previous_output is None:
            outlier[0] = False  # sd_filter keeps the sample when nothing came before
        prior = 0.0 if state.previous_output is None else state.previous_output
        out = _forward_fill(prior, d, ~outlier)
    state.sd_buffer = deque(history[-s:].tolist())
    state.previous_output = float(out[-1])
    return out


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
        chips = np.array([code_set.code(cid) for cid in code_set.labels], dtype=np.float64)
        templates = np.repeat(chips, self.config.v, axis=1)
        centered = templates - templates.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("constant code template cannot be correlated")
        # each template is constant over a chip: one value per chip suffices
        self._chip_templates = np.ascontiguousarray((centered / norms)[:, :: self.config.v])
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

    def process_block(self, values: np.ndarray) -> list[DetectionEvent]:
        """The events ``process`` gives for ``values``, computed on arrays.

        Works through ``values`` ``BLOCK`` periods at a time with the same
        gate, median, SD filter and correlator, reading and writing the same
        state as ``process``, so the two may be interleaved on one detector.
        Events match ``process`` bit for bit on finite magnitudes; NaN sorts
        differently in the median here than in ``sorted``.
        """
        values = np.asarray(values, dtype=np.float64)
        events: list[DetectionEvent] = []
        for start in range(0, values.size, BLOCK):
            x = values[start : start + BLOCK]
            if self.filter.enable_hard:
                x = _gate_block(x, self.state, self.filter)
            if self.filter.enable_median:
                x = _median_block(x, self.state, self.filter)
            if self.filter.enable_sd:
                x = _sd_block(x, self.state, self.filter)
            events.extend(self._correlate_block(x))
        return events

    def _correlate_block(self, y: np.ndarray) -> list[DetectionEvent]:
        """``detect_step`` over a block: screen every window, decide the rest as one stack.

        The screen correlates all full windows at once from chip sums of the
        block taken about its own mean (the templates are centred, so the
        offset drops out). Its rounding error stays below a few 1e-12 *
        M**2 / norm2, where M is the block's largest offset from that mean
        and norm2 the window's screened squared norm. So a window is skipped
        only when norm2 > 0 and its screened best is at most
        ``theta - SCREEN_MARGIN * (1 + M**2 / norm2)``. The screen compares
        the unscaled product with that bound times ``sqrt(norm2)``; the
        multiply and the root move the bound by a few ulp, far inside the
        1e-9 of slack. The other windows go
        to ``_correlations`` in one stack, which gives each row the bits of
        a one-row call, so events, ties and correlations are
        ``detect_step``'s bit for bit. Windows of one repeated value share
        an outcome, so the stack holds one of them per value.
        """
        state = self.state
        length, v = self.config.window_length, self.config.v
        series = np.concatenate((state.correlation_window, y))
        first = max(0, length - 1 - state.window_fill)  # first sample with a full window
        period = state.period_counter
        state.correlation_window = series[-length:].copy()
        state.window_fill += y.size
        state.period_counter += y.size
        if first >= y.size:
            return []
        # window k is series[k + 1 : k + 1 + length]; its chip c sums series[k + 1 + v * c :][:v]
        offsets = series - series.mean()
        sums = sliding_window_view(offsets, v).sum(axis=1)[first + 1 :]
        squares = sliding_window_view(offsets * offsets, v).sum(axis=1)[first + 1 :]
        chip_sums = np.ascontiguousarray(sliding_window_view(sums, length - v + 1)[:, ::v])
        chip_squares = sliding_window_view(squares, length - v + 1)[:, ::v]
        norm2 = chip_squares.sum(axis=1) - chip_sums.sum(axis=1) ** 2 / length
        spread = np.max(np.abs(offsets)) ** 2
        raw = chip_sums @ self._chip_templates.T
        best = (np.abs(raw) if self.config.polarity_agnostic else raw).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (self.config.theta - SCREEN_MARGIN * (1 + spread / norm2)) * np.sqrt(norm2)
        quiet = (norm2 > 0) & (best <= bound)
        candidates = np.flatnonzero(~quiet) + first
        changes = np.concatenate(([0], np.cumsum(series[1:] != series[:-1])))
        flat = changes[candidates + length] == changes[candidates + 1]
        _, once, inverse = np.unique(
            series[candidates[flat] + 1], return_index=True, return_inverse=True
        )
        stacked = np.concatenate((candidates[~flat], candidates[flat][once]))
        rows = np.cumsum(~flat) - 1  # each candidate's row of the stack
        rows[flat] = stacked.size - once.size + inverse
        correlations, _ = self._correlations(sliding_window_view(series, length)[stacked + 1])
        return self._decide(correlations, period + candidates, rows)

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
        events = self._decide(correlations[None], np.array([period]), np.zeros(1, np.intp))
        return events[0] if events else None

    def _decide(self, correlations, periods, rows) -> list[DetectionEvent]:
        """Events of the windows ending at ``periods`` whose best code clears theta.

        Window ``i`` has the correlations ``correlations[rows[i]]``. The best
        code is the first maximum of a row, so ties break toward the lowest
        code id; a flat window's row is NaN and clears no theta.
        """
        ranked = np.abs(correlations) if self.config.polarity_agnostic else correlations
        best = ranked.argmax(axis=1)
        fired = np.flatnonzero((ranked[np.arange(len(ranked)), best] > self.config.theta)[rows])
        row = rows[fired]
        codes = np.asarray(self.code_set.labels)[best[row]]
        values = correlations[row, best[row]]
        return list(map(DetectionEvent, periods[fired].tolist(), codes.tolist(), values.tolist()))

    def correlate(self) -> np.ndarray | None:
        """Pearson correlation of the current window against all templates.

        None when the window has zero variance (flat stream).
        """
        correlations, norm = self._correlations(self.state.correlation_window[None])
        return None if norm[0] == 0 else correlations[0]

    def _correlations(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Correlations of a ``(k, L)`` window stack with every template, and each centred norm.

        A flat window (norm 0) gives a NaN row. Every reduction runs along a
        row in an order that does not depend on k (pairwise sums for the mean
        and the norm, ``v`` samples per chip sum, ``einsum`` without BLAS over
        the chips), so a row has the same bits in a stack of one or thousands.
        """
        k, length = windows.shape
        centred = windows - (np.add.reduce(windows, axis=1) / length)[:, None]
        norm = np.sqrt(np.add.reduce(centred * centred, axis=1))
        chips = np.add.reduce(centred.reshape(k, self.config.n, self.config.v), axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.einsum("kc,jc->kj", chips, self._chip_templates) / norm[:, None], norm
