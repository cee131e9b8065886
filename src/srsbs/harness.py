"""Experiment orchestration: seeded runs, phase pairs, sweeps, metrics, files.

One experiment simulates R back-to-back message transmissions (the tag cycles
its pattern continuously while enabled) and counts outcomes per message
window: a detection when the tag's own code fires inside the window, a cross
false alarm when any other code fires while the tag is on, a false alarm when
anything fires while the tag is off. Consecutive same-code events collapse to
one before counting; raw events stay available.

Everything is deterministic given the config: child seeds are derived through
a seed sequence, never through wall-clock or hash randomization.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from ._config import check_fields, dump, keys, load
# Unused here: perfbench/tracing.py wraps propagate, step, average_magnitude, ook_state in harness.
from .channel import ChannelConfig, get_preset, propagate, received_magnitudes, step
from .detector import (
    BLOCK,
    DetectionEvent,
    Detector,
    DetectorConfig,
    FilterConfig,
    average_magnitude,
)
from .srs import SRS_PERIOD_S, ZcConfig, make_srs_symbol
from .tag import (
    GoldCodeSet,
    LfsrSpec,
    PREFERRED_TAPS_A,
    PREFERRED_TAPS_B,
    encode_repetition,
    generate_gold_set,
    ook_state,
)

RESULTS_HEADER = (
    "parameter_value",
    "detection_probability",
    "false_alarm_probability",
    "cross_false_alarm_probability",
    "n_srs",
    "seed",
)

EVENTS_HEADER = ("period_index", "code_id", "correlation")


@dataclass(frozen=True)
class CodeConfig:
    """Which polynomial pair and register seeds generate the code family."""

    poly_a: tuple[int, ...] = PREFERRED_TAPS_A
    poly_b: tuple[int, ...] = PREFERRED_TAPS_B
    seed_a: tuple[int, ...] = (1, 1, 1, 1, 1)
    seed_b: tuple[int, ...] = (1, 1, 1, 1, 1)

    def __post_init__(self):
        check_fields(self)

    @functools.cache
    def build(self) -> GoldCodeSet:
        """The audited family, built once per distinct config in a process."""
        return generate_gold_set(
            LfsrSpec(taps=self.poly_a, seed=self.seed_a),
            LfsrSpec(taps=self.poly_b, seed=self.seed_b),
        )


# Config sections of the JSON form, each the JSON object of its dataclass.
_SECTIONS = {
    "detector": DetectorConfig,
    "filter": FilterConfig,
    "codes": CodeConfig,
    "zc": ZcConfig,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment.

    ``scenario`` is either a preset name or an explicit channel config.
    ``messages`` is the number of message transmissions R; one run simulates
    exactly R * v * n sounding periods.
    """

    scenario: str | ChannelConfig = "noiseless"
    tag_code_id: int = 0
    tag_enabled: bool = True
    messages: int = 300
    seed: int = 0
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    codes: CodeConfig = field(default_factory=CodeConfig)
    zc: ZcConfig = field(default_factory=ZcConfig)

    def __post_init__(self):
        check_fields(self)
        if self.messages < 1:
            raise ValueError(f"messages must be >= 1, got {self.messages}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.scenario, str):
            get_preset(self.scenario)  # raises on unknown name
        elif not isinstance(self.scenario, ChannelConfig):
            raise ValueError("scenario must be a preset name or a ChannelConfig")

    def channel_config(self) -> ChannelConfig:
        if isinstance(self.scenario, str):
            return get_preset(self.scenario)
        return self.scenario

    def scenario_name(self) -> str:
        if isinstance(self.scenario, str):
            return self.scenario
        return "custom"

    def to_dict(self) -> dict:
        scenario = self.scenario if isinstance(self.scenario, str) else dump(self.scenario)
        sections = {name: dump(getattr(self, name)) for name in _SECTIONS}
        return {"scenario": scenario, **dump(self), **sections}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {"scenario", *keys(cls), *_SECTIONS})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        kwargs = {k: load(_SECTIONS[k], v, k) if k in _SECTIONS else v for k, v in data.items()}
        if isinstance(kwargs.get("scenario"), dict):
            kwargs["scenario"] = load(ChannelConfig, kwargs["scenario"], "scenario")
        return cls(**kwargs)


@dataclass
class Metrics:
    """Per-run outcome counts and probabilities.

    Detection and cross false alarm are measured only while the tag is on;
    false alarm only while it is off. The unused probabilities stay 0.
    Exact Clopper-Pearson 95% intervals accompany each point estimate since
    R message windows is a modest sample.
    """

    detection_probability: float
    false_alarm_probability: float
    cross_false_alarm_probability: float
    events: list[DetectionEvent]
    n_srs: int
    messages: int
    detected: int
    missed: int
    false_alarm_windows: int
    simulated_seconds: float
    detection_ci: tuple[float, float]
    false_alarm_ci: tuple[float, float]
    cross_false_alarm_ci: tuple[float, float]
    dedup: list[DetectionEvent] = field(default_factory=list)
    trace: np.ndarray | None = None


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic child seed; stable across processes and platforms."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95):
    """Exact binomial confidence interval."""
    from scipy.special import betaincinv  # the only scipy use; detect never loads it

    if trials == 0:
        return (0.0, 1.0)
    alpha = 1.0 - confidence
    k, n = successes, trials
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return (lo, hi)


def dedup_events(
    events: Sequence[DetectionEvent], message_length: int
) -> list[DetectionEvent]:
    """Collapse runs of consecutive-period same-code events into their first.

    A run never spans more than one message duration; longer streaks split.
    """
    out: list[DetectionEvent] = []
    run_start: DetectionEvent | None = None
    prev: DetectionEvent | None = None
    for ev in events:
        extends = (
            prev is not None
            and run_start is not None
            and ev.code_id == prev.code_id
            and ev.period_index == prev.period_index + 1
            and ev.period_index - run_start.period_index < message_length
        )
        if not extends:
            out.append(ev)
            run_start = ev
        prev = ev
    return out


def _count_metrics(
    events: list[DetectionEvent],
    config: ExperimentConfig,
    trace: np.ndarray | None,
) -> Metrics:
    window_len = config.detector.window_length
    r = config.messages
    deduped = dedup_events(events, window_len)
    det_windows: set[int] = set()
    cross_windows: set[int] = set()
    any_windows: set[int] = set()
    for ev in deduped:
        w = ev.period_index // window_len
        any_windows.add(w)
        if ev.code_id == config.tag_code_id:
            det_windows.add(w)
        else:
            cross_windows.add(w)
    if config.tag_enabled:
        detected = len(det_windows)
        crossed = len(cross_windows)
        false_alarms = 0
    else:
        detected = 0
        crossed = 0
        false_alarms = len(any_windows)
    return Metrics(
        detection_probability=detected / r,
        false_alarm_probability=false_alarms / r,
        cross_false_alarm_probability=crossed / r,
        events=events,
        n_srs=r * window_len,
        messages=r,
        detected=detected,
        missed=r - detected if config.tag_enabled else 0,
        false_alarm_windows=false_alarms,
        simulated_seconds=r * window_len * SRS_PERIOD_S,
        detection_ci=clopper_pearson(detected, r),
        false_alarm_ci=clopper_pearson(false_alarms, r),
        cross_false_alarm_ci=clopper_pearson(crossed, r),
        dedup=deduped,
        trace=trace,
    )


def run_experiment(config: ExperimentConfig, keep_trace: bool = False) -> Metrics:
    """Simulate R message transmissions and count per-window outcomes.

    The whole magnitude trace is simulated first, checked finite, then detected; the
    detector is built before the first period so a config it rejects fails
    fast. ``keep_trace`` attaches the trace to the returned metrics.
    """
    code_set = config.codes.build()
    if not 0 <= config.tag_code_id < code_set.n_codes:
        raise ValueError(
            f"tag_code_id must be in 0..{code_set.n_codes - 1}, got {config.tag_code_id}"
        )
    detector = Detector(
        dataclasses.replace(config.detector, code_set=code_set), config.filter
    )
    message = encode_repetition(code_set.code(config.tag_code_id), config.detector.v)
    pilot = make_srs_symbol(config.zc)
    n = config.messages * config.detector.window_length
    b = np.resize(message > 0, n) if config.tag_enabled else np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        trace = received_magnitudes(pilot, b, config.channel_config(), config.seed)
    if not np.isfinite(trace).all():
        raise ValueError(f"scenario {config.scenario_name()!r} gives a non-finite trace "
                         f"(overflow): {config.channel_config()}")
    events = detect_trace(trace, detector)
    return _count_metrics(events, config, trace if keep_trace else None)


def run_phases(
    config: ExperimentConfig, keep_trace: bool = True
) -> tuple[Metrics, Metrics]:
    """Tag-off baseline then tag-on run, sharing the scenario.

    Phase seeds derive from the config seed (index 0 off, 1 on) so the pair
    reproduces together. Raw amplitude traces are kept by default for
    off/on comparison.
    """
    off_cfg = dataclasses.replace(
        config, tag_enabled=False, seed=derive_seed(config.seed, 0)
    )
    on_cfg = dataclasses.replace(
        config, tag_enabled=True, seed=derive_seed(config.seed, 1)
    )
    off = run_experiment(off_cfg, keep_trace=keep_trace)
    on = run_experiment(on_cfg, keep_trace=keep_trace)
    return off, on


def sweep(
    config: ExperimentConfig, parameter: str, values: Iterable[float]
) -> list[tuple[float, Metrics]]:
    """One run per value, child seeds derived from the base seed in order.

    ``parameter`` names a numeric field of the channel or detector config.
    An integral value of an int field is passed as an int; any other value
    goes to the config as given, whose checks reject a wrong type. Every
    point is built before the first run, so a bad value fails fast.
    """
    sections = {"scenario": config.channel_config(), "detector": config.detector}
    numeric = {
        f.name: (owner, f.type)
        for owner, section in sections.items()
        for f in dataclasses.fields(section)
        if f.type in ("int", "float")
    }
    if parameter not in numeric:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected a numeric field of "
            "the channel or detector config"
        )
    owner, kind = numeric[parameter]
    values = list(values)
    points = []
    for i, value in enumerate(values):
        given = int(value) if kind == "int" and float(value).is_integer() else value
        section = dataclasses.replace(sections[owner], **{parameter: given})
        points.append(
            dataclasses.replace(config, seed=derive_seed(config.seed, i), **{owner: section})
        )
    return [(value, run_experiment(point)) for value, point in zip(values, points)]


# ---------------------------------------------------------------------------
# file formats


# Values formatted per write by ``write_trace``; bounds the text held at once.
TRACE_CHUNK = 1024


def write_trace(stream: TextIO, values: Sequence[float]) -> None:
    """One amplitude per line, full float precision (round-trips exactly)."""
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, values.size, TRACE_CHUNK):
        chunk = values[start:start + TRACE_CHUNK].tolist()
        stream.write("".join(f"{v!r}\n" for v in chunk))


def trace_chunks(stream: TextIO) -> Iterator[np.ndarray]:
    """The trace's magnitudes, ``BLOCK`` lines at a time, each chunk parsed in one call;
    a chunk this fails on, for a bad or a blank line, goes through ``_parse_lines``."""
    line_no = 0
    while lines := list(itertools.islice(stream, BLOCK)):
        try:
            values = np.array(list(map(float, lines)))
            valid = 0.0 <= values.min() and values.max() < math.inf
        except ValueError:
            valid = False
        yield values if valid else _parse_lines(lines, line_no)
        line_no += len(lines)


def _parse_lines(lines: list[str], line_no: int) -> np.ndarray:
    """Parse one magnitude per line after ``line_no`` earlier lines; blank lines are skipped.

    A magnitude is what ``float()`` takes from the stripped line, finite and
    non-negative; any other line is rejected with its line number.
    """
    values = []
    for line_no, line in enumerate(lines, line_no + 1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"trace line {line_no} is not a number: {text!r}") from None
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"trace line {line_no} is not a finite non-negative magnitude: {text!r}"
            )
        values.append(value)
    return np.asarray(values, dtype=np.float64)


def read_trace(stream: TextIO) -> np.ndarray:
    """The whole trace of ``trace_chunks`` as one array."""
    return np.concatenate([np.empty(0), *trace_chunks(stream)])


def detect_trace(trace: np.ndarray, detector: Detector) -> list[DetectionEvent]:
    """Run the full detector pipeline over an amplitude trace, in order."""
    return detector.process_block(trace)


def results_row(parameter_value, metrics: Metrics, seed: int) -> dict:
    return {
        "parameter_value": parameter_value,
        "detection_probability": metrics.detection_probability,
        "false_alarm_probability": metrics.false_alarm_probability,
        "cross_false_alarm_probability": metrics.cross_false_alarm_probability,
        "n_srs": metrics.n_srs,
        "seed": seed,
    }


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results_csv(stream: TextIO, rows: Iterable[dict]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for row in rows:
        writer.writerow([_format_cell(row[key]) for key in RESULTS_HEADER])


def write_events_csv(stream: TextIO, events: Iterable[DetectionEvent]) -> None:
    """The bytes ``csv.writer`` gives: no cell of an event needs quoting."""
    rows = (f"{ev.period_index},{ev.code_id},{float(ev.correlation)!r}\n" for ev in events)
    stream.write(",".join(EVENTS_HEADER) + "\n" + "".join(rows))


def read_events_csv(stream: TextIO) -> list[DetectionEvent]:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != list(EVENTS_HEADER):
        raise ValueError(f"unexpected events header: {header}")
    return [
        DetectionEvent(period_index=int(p), code_id=int(c), correlation=float(r))
        for p, c, r in reader
    ]


def metrics_summary(metrics: Metrics) -> dict:
    return {
        "detection_probability": metrics.detection_probability,
        "detection_ci95": list(metrics.detection_ci),
        "false_alarm_probability": metrics.false_alarm_probability,
        "false_alarm_ci95": list(metrics.false_alarm_ci),
        "cross_false_alarm_probability": metrics.cross_false_alarm_probability,
        "cross_false_alarm_ci95": list(metrics.cross_false_alarm_ci),
        "n_srs": metrics.n_srs,
        "messages": metrics.messages,
        "raw_events": len(metrics.events),
        "deduplicated_events": len(metrics.dedup),
        "simulated_seconds": metrics.simulated_seconds,
    }


def manifest_json(command: str, config: ExperimentConfig | dict, extra: dict | None = None) -> str:
    """Run manifest: resolved config plus tool version; no timestamps so
    identical runs produce identical bytes."""
    resolved = config.to_dict() if isinstance(config, ExperimentConfig) else config
    doc = {
        "tool": "srsbs",
        "version": __version__,
        "command": command,
        "config": resolved,
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_results(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        write_results_csv(buf, rows)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def format_events(events: list[DetectionEvent], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        write_events_csv(buf, events)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([dump(ev) for ev in events], indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
