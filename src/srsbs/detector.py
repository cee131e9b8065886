"""Receiver-side pipeline: magnitude averaging, three filters, correlation.

Per sounding period the receiver reduces the pilot to one scalar (mean
magnitude), pushes it through an amplitude validity gate, a median filter and
a standard-deviation outlier filter, then slides the filtered sample into a
full-message window and ranks all candidate codes by Pearson correlation.
An identity is declared when the best correlation clears the threshold.

The pipeline downstream of the validity gate is invariant to rescaling by a
power of two, bit for bit from 2**-500 to 2**510 (measured; beyond, float64
squares underflow or overflow): medians commute with scaling, the outlier test
compares two quantities that scale together, and Pearson is affine-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
# Twice 33 * 2**-24, the relative error bound of the screen's float32 product.
SINGLE_MARGIN = 66 * 2.0**-24
# A row of ``Detector.event_array``: the fields of ``DetectionEvent``.
EVENT_DTYPE = np.dtype([("period_index", np.int64), ("code_id", np.int64), ("correlation", float)])


@dataclass(frozen=True)
class FilterConfig:
    """Filter-stage knobs.

    ``alpha`` is an absolute magnitude ceiling: samples above it are presumed
    front-end artifacts and replaced with the last accepted sample;
    ``enable_hard`` switches that gate off. A median or SD window of 1 is
    the identity, so a window of 1 skips its stage. A longer window must
    stay shorter than the code chip repetition run so legitimate keying
    transitions survive.

    ``sd_replacement`` picks what replaces a flagged outlier: the window mean
    (default) or the previous filter output.
    """

    alpha: float = 0.55
    median_window: int = 5
    sd_window: int = 5
    deviation_factor: float = 0.2
    sd_replacement: str = SD_REPLACE_MEAN
    enable_hard: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.median_window < 1 or self.sd_window < 1:
            raise ValueError("filter windows must be >= 1")
        if self.deviation_factor < 0:
            raise ValueError("deviation_factor must be >= 0")
        if self.sd_replacement not in (SD_REPLACE_MEAN, SD_REPLACE_PREVIOUS):
            raise ValueError(
                f"sd_replacement must be '{SD_REPLACE_MEAN}' or '{SD_REPLACE_PREVIOUS}'"
            )


@dataclass(frozen=True)
class DetectorConfig:
    theta: float = 0.4
    v: int = REPEATS
    polarity_agnostic: bool = False
    code_set: GoldCodeSet | None = None

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.v < 1:
            raise ValueError("v must be >= 1")

    @property
    def window_length(self) -> int:
        return self.v * CODE_LENGTH


@dataclass(frozen=True)
class DetectionEvent:
    period_index: int
    code_id: int
    correlation: float


@dataclass
class DetectorState:
    """Streaming state for one amplitude stream; strictly sequential."""

    last_valid: float | None = None
    # the last inputs of the median and SD stages, at most one window each
    median_buffer: np.ndarray = field(default_factory=lambda: np.empty(0))
    sd_buffer: np.ndarray = field(default_factory=lambda: np.empty(0))
    correlation_window: np.ndarray | None = None
    window_fill: int = 0
    period_counter: int = 0
    previous_output: float | None = None


def average_magnitude(values: np.ndarray) -> float:
    """Mean magnitude over the pilot subcarriers: the detector's scalar input."""
    return float(np.abs(values).mean())


def hard_threshold(a: float, state: DetectorState, config: FilterConfig) -> float:
    """Amplitude validity gate for one sample (see ``_gate_block``)."""
    return float(_gate_block(np.array([a], dtype=np.float64), state, config)[0])


def median_filter(a_prime: float, state: DetectorState, config: FilterConfig) -> float:
    """Sliding median for one sample (see ``_median_block``)."""
    return float(_median_block(np.array([a_prime], dtype=np.float64), state, config)[0])


def sd_filter(d: float, state: DetectorState, config: FilterConfig) -> float:
    """Standard-deviation outlier filter for one sample (see ``_sd_block``)."""
    return float(_sd_block(np.array([d], dtype=np.float64), state, config)[0])


def _forward_fill(prior: float, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``x`` where ``keep``, elsewhere the last kept value (``prior`` before any)."""
    source = np.where(keep, np.arange(1, x.size + 1), 0)
    np.maximum.accumulate(source, out=source)
    return np.concatenate(([prior], x))[source]


def _gate_block(x: np.ndarray, state: DetectorState, config: FilterConfig) -> np.ndarray:
    """Amplitude validity gate over a block.

    Samples above ``alpha``, and NaN, are replaced with the most recent
    sample that passed the gate; the stream's first sample is always
    accepted to seed the state.
    """
    accept = x <= config.alpha
    if state.last_valid is None:
        accept[0] = True
    out = _forward_fill(0.0 if state.last_valid is None else state.last_valid, x, accept)
    state.last_valid = float(out[-1])
    return out


def _sliding(x: np.ndarray, buffer: np.ndarray, width: int, reduce):
    """``reduce`` over each sample's window of the last ``width`` inputs, and the new buffer.

    ``buffer`` holds the inputs before ``x``; until ``width`` inputs have come,
    a window is the shorter prefix. ``reduce`` maps a ``(k, m)`` stack of
    windows to an array with one value per window along its last axis.
    """
    p = buffer.size
    history = np.concatenate((buffer, x))
    warm = min(max(width - 1 - p, 0), x.size)  # samples whose window is a shorter prefix
    parts = [reduce(history[None, : p + k + 1]) for k in range(warm)]
    if warm < x.size:
        step = history.strides[0]  # as_strided: a third of sliding_window_view's per-call cost
        windows = as_strided(history[p + warm + 1 - width :], (x.size - warm, width), (step, step))
        parts.append(reduce(windows))
    return np.concatenate(parts, axis=-1), history[-width:].copy()


def _middle(ordered: np.ndarray) -> np.ndarray:
    """Median of windows sorted along the last axis; an even count averages the central two."""
    m = ordered.shape[-1]
    if m % 2:
        return ordered[..., m // 2]
    return 0.5 * (ordered[..., m // 2 - 1] + ordered[..., m // 2])


def _median_block(x: np.ndarray, state: DetectorState, config: FilterConfig) -> np.ndarray:
    """Sliding median of the last ``median_window`` inputs; ``np.sort`` puts NaN last."""
    out, state.median_buffer = _sliding(
        x, state.median_buffer, config.median_window, lambda w: _middle(np.sort(w, axis=1))
    )
    return out


def _moments(windows: np.ndarray) -> np.ndarray:
    """Mean and population standard deviation of each row, summed left to right.

    This fixed order is the SD filter's arithmetic, the same for every block
    size; the benchmark's reference detector (``perfbench/synth.py``) sums in
    the same order. ``sum`` adds the columns as arrays, one after another (its
    compensated float summation does not apply to arrays).
    """
    width = windows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or squares beyond 1e308
        mean = sum(windows.T) / width
        deviation = windows.T - mean
        return np.array((mean, np.sqrt(sum(deviation * deviation) / width)))


def _sd_block(d: np.ndarray, state: DetectorState, config: FilterConfig) -> np.ndarray:
    """Standard-deviation outlier filter over the last ``sd_window`` inputs.

    The incoming sample is an outlier when it deviates from its window's
    mean by more than ``deviation_factor`` window standard deviations. It
    is then replaced by the window mean, or by the previous output if so
    configured; the stream's first sample, with no previous output, is kept.
    """
    (mean, sigma), state.sd_buffer = _sliding(d, state.sd_buffer, config.sd_window, _moments)
    with np.errstate(invalid="ignore"):  # 0 * inf at factor 0 when a window's SD overflows
        outlier = np.abs(d - mean) > config.deviation_factor * sigma
    if config.sd_replacement == SD_REPLACE_MEAN:
        out = np.where(outlier, mean, d)
    else:
        if state.previous_output is None:
            outlier[0] = False
        prior = 0.0 if state.previous_output is None else state.previous_output
        out = _forward_fill(prior, d, ~outlier)
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
        if 1 < self.filter.median_window >= self.config.v:
            raise ValueError(
                "median window must be 1 or shorter than the chip repetition run "
                f"({self.filter.median_window} >= {self.config.v})"
            )
        if 1 < self.filter.sd_window >= self.config.v:
            raise ValueError(
                "SD window must be 1 or shorter than the chip repetition run "
                f"({self.filter.sd_window} >= {self.config.v})"
            )
        code_set = self.config.code_set or generate_gold_set()
        self.code_set = code_set
        chips = np.array([code_set.code(cid) for cid in code_set.labels], dtype=np.float64)
        templates = np.repeat(chips, self.config.v, axis=1)
        centered = templates - templates.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("constant code template cannot be correlated")
        # each template is constant over a chip: one value per chip suffices
        self._chip_templates = np.ascontiguousarray((centered / norms)[:, :: self.config.v])
        self._screen_templates = self._chip_templates.astype(np.float32)
        self.state = DetectorState(correlation_window=np.zeros(self.config.window_length))

    def process(self, a: float) -> DetectionEvent | None:
        """Full pipeline for one period: gate, median, SD filter, correlate."""
        # one-sample calls of the block kernel's stages, through the names that
        # the benchmark's tracer wraps to time each layer (ROADMAP item 1)
        x = float(a)
        if self.filter.enable_hard:
            x = hard_threshold(x, self.state, self.filter)
        if self.filter.median_window > 1:
            x = median_filter(x, self.state, self.filter)
        if self.filter.sd_window > 1:
            x = sd_filter(x, self.state, self.filter)
        return self.detect_step(x)

    def process_block(self, values: np.ndarray) -> list[DetectionEvent]:
        """The events ``process`` gives for ``values``: ``event_array``'s rows as objects."""
        return [DetectionEvent(*row) for row in self.event_array(values).tolist()]

    def event_array(self, values: np.ndarray) -> np.ndarray:
        """The events ``process`` gives for ``values``, as one ``EVENT_DTYPE`` array.

        Works through ``values`` ``BLOCK`` periods at a time with the same
        gate, median, SD filter and correlator, reading and writing the same
        state as ``process``, so the two may be interleaved on one detector
        and give the same events bit for bit.
        """
        values = np.asarray(values, dtype=np.float64)
        events = [np.empty(0, EVENT_DTYPE)]
        for start in range(0, values.size, BLOCK):
            x = values[start : start + BLOCK]
            if self.filter.enable_hard:
                x = _gate_block(x, self.state, self.filter)
            if self.filter.median_window > 1:
                x = _median_block(x, self.state, self.filter)
            if self.filter.sd_window > 1:
                x = _sd_block(x, self.state, self.filter)
            events.append(self._correlate_block(x))
        return np.concatenate(events)

    def _correlate_block(self, y: np.ndarray) -> np.ndarray:
        """``detect_step`` over a block: screen every window, decide the rest as one stack.

        The screen correlates all full windows at once from chip sums of the
        block taken about its own mean (the templates are centred, so the
        offset drops out) and scaled by the power of two that puts the
        largest offset M in [0.5, 1): ``v`` shifted slices added left to
        right, viewed as ``(n, windows)`` and reduced over axis 0, and the
        same for the squares. With norm2 and Q a window's screened squared
        norm and sum of squared offsets, the float64 steps err by less than
        2 * L * (n + v) * 2**-53 * (1 + M**2 / norm2) in correlation, within
        SCREEN_MARGIN for v up to about 360 at n = 31. The float32 product
        errs by at most 33 * 2**-24 * sum|t c| <= 33 * 2**-24 * sqrt(Q) in
        any order (|t| = 1/sqrt(v), |c|**2 <= v * Q), plus under 2**-144 for
        subnormals; SINGLE_MARGIN doubles the coefficient. So a window is
        skipped only when norm2 > 0 and its screened best is at most ``(theta
        - SCREEN_MARGIN * (1 + M**2 / norm2)) * sqrt(norm2) - SINGLE_MARGIN *
        (sqrt(Q) + 2**-120)``, give or take a few ulp, which needs norm2 >
        1e-10 * M**2. Below M = 2**-480 an exact norm might underflow, so such
        a block skips nothing, nor does one holding inf (NaN compares).
        The other windows go to ``_correlations`` in one stack, which gives
        each row the bits of a one-row call, so events, ties and correlations
        are ``detect_step``'s bit for bit. Windows of one repeated value share
        an outcome, so the stack holds one per value.
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
            return np.empty(0, EVENT_DTYPE)
        # window first + w is series[first + 1 + w :][:length]; chip c sums offsets[w + v * c :][:v]
        offsets, count = series[first + 1 :] - series.mean(), y.size - first
        mantissa, e = np.frexp(np.max(np.abs(offsets)))
        offsets, spread = np.ldexp(offsets, -e), mantissa * mantissa  # M is now the mantissa
        size, squared = offsets.size - v + 1, offsets * offsets
        sums = sum((offsets[j : j + size] for j in range(1, v)), offsets[:size])
        squares = sum((squared[j : j + size] for j in range(1, v)), squared[:size])
        chip_sums = sliding_window_view(sums, count)[::v]
        norm2 = np.add.reduce(sliding_window_view(squares, count)[::v], axis=0)
        slack = SINGLE_MARGIN * (np.sqrt(norm2) + 2.0**-120)
        norm2 -= np.add.reduce(chip_sums, axis=0) ** 2 / length
        products = self._screen_templates @ chip_sums.astype(np.float32)  # BLAS needs a copy
        best = (np.abs(products) if self.config.polarity_agnostic else products).max(axis=0)
        del products  # freed before the stack is gathered, so the heap is reused
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (self.config.theta - SCREEN_MARGIN * (1 + spread / norm2)) * np.sqrt(norm2)
        quiet = (norm2 > 0) & (best <= bound - slack) & (e > -480)  # M >= 2**-480
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
        return DetectionEvent(*events.tolist()[0]) if events.size else None

    def _decide(self, correlations, periods, rows) -> np.ndarray:
        """``EVENT_DTYPE`` rows of the windows ending at ``periods`` whose best code clears theta.

        Window ``i`` has the correlations ``correlations[rows[i]]``. The best
        code is the first maximum of a row, so ties break toward the lowest
        code id; a flat window's row is NaN and clears no theta.
        """
        ranked = np.abs(correlations) if self.config.polarity_agnostic else correlations
        best = ranked.argmax(axis=1)
        fired = np.flatnonzero((ranked[np.arange(len(ranked)), best] > self.config.theta)[rows])
        row = rows[fired]
        events = np.empty(fired.size, EVENT_DTYPE)
        events["period_index"], events["correlation"] = periods[fired], correlations[row, best[row]]
        events["code_id"] = np.asarray(self.code_set.labels)[best[row]]
        return events

    def correlate(self) -> np.ndarray | None:
        """Pearson correlation of the current window against all templates.

        None when the window has zero variance (flat stream).
        """
        correlations, norm = self._correlations(self.state.correlation_window[None].copy())
        return None if norm[0] == 0 else correlations[0]

    def _correlations(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Correlations of a ``(k, L)`` window stack with every template, and each centred norm.

        Centres, then squares, ``windows`` in place. A window of norm 0 (flat, or
        its squares underflow) gives a NaN row. Every reduction runs along a row in
        an order that does not depend on k (pairwise sums for the mean and the norm,
        ``v`` samples per chip left to right, ``einsum`` without BLAS over the
        chips), so a row has the same bits in a stack of one or thousands.
        """
        v = self.config.v
        windows -= (np.add.reduce(windows, axis=1) / windows.shape[1])[:, None]
        chips = sum((windows[:, j::v] for j in range(1, v)), windows[:, ::v].copy())
        windows *= windows
        norm = np.sqrt(np.add.reduce(windows, axis=1))
        divisor = np.where(norm > 0, norm, np.nan)[:, None]
        with np.errstate(invalid="ignore"):  # inf / inf
            return np.einsum("kc,jc->kj", chips, self._chip_templates) / divisor, norm
