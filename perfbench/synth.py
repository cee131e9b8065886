"""Seeded input synthesis and an independent reference detector.

The outdoor trace is drawn here with numpy, not with ``srsbs.channel``, so a
change to the program's random-stream layout cannot change this input. The
reference detector is an array re-implementation of the documented pipeline
(validity gate, median filter, SD filter, sliding Pearson correlator); the
benchmark compares the program's events with it event for event.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Outdoor preset statistics; the code is held for V periods per chip.
GAIN = 0.3
DEPTH = 0.01
NOISE_SIGMA = 0.12
SPIKE_PROBABILITY = 0.02
SPIKE_GAIN = 3.0
SUBCARRIERS = 144
V = 7

# Default detector and filter settings of srsbs.
ALPHA = 0.55
MEDIAN_WINDOW = 5
SD_WINDOW = 5
DEVIATION_FACTOR = 0.2
THETA = 0.4

# Correlations within this distance of THETA, or of the runner-up code, may
# legitimately round either way in another summation order.
TIE_TOLERANCE = 1e-9

_TRACE_STREAM = 0x5EED7  # keeps trace draws apart from any other use of the seed
_CHUNK = 256  # periods per noise draw; keeps the transient memory small


def code_family_digest(codes: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(codes, dtype=np.int8).tobytes()).hexdigest()


def outdoor_trace(seed: int, messages: int, chips: np.ndarray) -> np.ndarray:
    """Mean pilot magnitude per period for a tag keying ``chips`` outdoors.

    Each period averages ``|A + n_k|`` over 144 subcarriers, where
    ``A = GAIN * (1 + DEPTH * b)`` and ``n_k`` is circular complex Gaussian
    noise; the pilot's unit-modulus phases do not change that distribution.
    A spike scales the whole period by SPIKE_GAIN.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TRACE_STREAM]))
    keyed = np.tile(np.repeat(np.asarray(chips) > 0, V), messages)
    amplitude = GAIN * (1.0 + DEPTH * keyed)
    n = amplitude.size
    trace = np.empty(n)
    scale = NOISE_SIGMA / math.sqrt(2.0)
    for start in range(0, n, _CHUNK):
        stop = min(n, start + _CHUNK)
        z = rng.standard_normal((stop - start, 2, SUBCARRIERS))
        rx = amplitude[start:stop, None] + scale * (z[:, 0] + 1j * z[:, 1])
        trace[start:stop] = np.abs(rx).mean(axis=1)
    spikes = rng.random(n) < SPIKE_PROBABILITY
    trace[spikes] *= SPIKE_GAIN
    return trace


def normalized_templates(codes: np.ndarray) -> np.ndarray:
    templates = np.repeat(np.asarray(codes, dtype=np.float64), V, axis=1)
    centered = templates - templates.mean(axis=1, keepdims=True)
    return centered / np.linalg.norm(centered, axis=1, keepdims=True)


def _filtered(trace: np.ndarray) -> np.ndarray:
    """Gate, median and SD filter over the whole trace at once."""
    n = trace.size
    keep = ~(trace > ALPHA)
    keep[0] = True
    gated = trace[np.maximum.accumulate(np.where(keep, np.arange(n), 0))]

    med = np.empty(n)
    warm = min(MEDIAN_WINDOW - 1, n)
    for k in range(warm):
        med[k] = np.median(gated[: k + 1])
    if n >= MEDIAN_WINDOW:
        med[MEDIAN_WINDOW - 1 :] = np.median(sliding_window_view(gated, MEDIAN_WINDOW), axis=1)

    # window k holds the last SD_WINDOW median outputs up to k (a prefix while warming up)
    padded = np.concatenate([np.full(SD_WINDOW - 1, np.nan), med])
    windows = sliding_window_view(padded, SD_WINDOW)
    sizes = np.minimum(np.arange(n) + 1, SD_WINDOW)
    total = np.zeros(n)
    for j in range(SD_WINDOW):  # left-to-right, as the streaming filter sums
        col = windows[:, j]
        total = np.where(np.isnan(col), total, total + col)
    mean = total / sizes
    sq = np.zeros(n)
    for j in range(SD_WINDOW):
        col = windows[:, j]
        sq = np.where(np.isnan(col), sq, sq + (col - mean) ** 2)
    sigma = np.sqrt(sq / sizes)
    return np.where(np.abs(med - mean) > DEVIATION_FACTOR * sigma, mean, med)


def reference_events(trace: np.ndarray, templates: np.ndarray) -> dict:
    """Expected events per period of ``trace``.

    ``code[t]`` is the expected code at period t, or -1 for none;
    ``ambiguous[t]`` marks decisions within TIE_TOLERANCE of the threshold or
    of a tie between codes, where either outcome is accepted. All
    correlations are kept only for the ``candidates``, the periods whose best
    correlation reaches THETA - TIE_TOLERANCE, one row each in ``r``.
    """
    y = _filtered(np.asarray(trace, dtype=np.float64))
    length = templates.shape[1]
    n = y.size
    code = np.full(n, -1)
    ambiguous = np.zeros(n, dtype=bool)
    candidates, rows = [], []
    windows = sliding_window_view(y, length) if n >= length else np.empty((0, length))
    for start in range(0, windows.shape[0], 1024):
        w = windows[start : start + 1024]
        centered = w - w.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1)
        live = np.flatnonzero(norms != 0)  # flat windows never fire
        corr = (centered[live] / norms[live, None]) @ templates.T
        ordered = np.sort(corr, axis=1)
        best = ordered[:, -1]
        periods = live + start + length - 1
        fire = best > THETA
        code[periods[fire]] = np.argmax(corr[fire], axis=1)
        ambiguous[periods] = (np.abs(best - THETA) <= TIE_TOLERANCE) | (
            fire & (best - ordered[:, -2] <= TIE_TOLERANCE)
        )
        near = best >= THETA - TIE_TOLERANCE
        candidates.append(periods[near])
        rows.append(corr[near])
    return {
        "code": code,
        "ambiguous": ambiguous,
        "candidates": np.concatenate(candidates) if candidates else np.empty(0, int),
        "r": np.concatenate(rows) if rows else np.empty((0, templates.shape[0])),
    }


def compare_events(events, expected: dict) -> list[str]:
    """Differences between program events ``[(period, code, r)]`` and the reference."""
    code, ambiguous = expected["code"], expected["ambiguous"]
    candidates, r = expected["candidates"], expected["r"]
    problems: list[str] = []
    seen = set()
    for period, cid, corr in events:
        seen.add(period)
        row = np.searchsorted(candidates, period)
        if row == candidates.size or candidates[row] != period or not 0 <= cid < r.shape[1]:
            problems.append(f"period {period}: got code {cid}, expected none")
        elif not ambiguous[period] and code[period] != cid:
            problems.append(f"period {period}: got code {cid}, expected {code[period]}")
        elif not abs(corr - r[row, cid]) <= TIE_TOLERANCE:
            problems.append(f"period {period}: r {corr!r} vs reference {float(r[row, cid])!r}")
    for period in np.flatnonzero((code >= 0) & ~ambiguous):
        if int(period) not in seen:
            problems.append(f"period {int(period)}: expected code {code[period]}, got none")
    return problems


def dedup(events, length: int):
    """Keep the first of each run of consecutive-period same-code events.

    A run never spans more than ``length`` periods; longer streaks split.
    """
    out = []
    start = prev = None
    for ev in events:
        period, cid = ev[0], ev[1]
        if not (
            prev is not None
            and cid == prev[1]
            and period == prev[0] + 1
            and period - start[0] < length
        ):
            out.append(ev)
            start = ev
        prev = ev
    return out


def events_digest(events) -> str:
    """sha256 over the ``period,code`` lines of an event list."""
    text = "".join(f"{ev[0]},{ev[1]}\n" for ev in events)
    return hashlib.sha256(text.encode()).hexdigest()
