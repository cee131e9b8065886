"""Tracing of calls into the srsbs layers, installed from outside the program.

Every instrumented function is replaced by a wrapper that adds its call count,
total and self time (total minus time spent in instrumented callees) to a
per-name accumulator. Per-call boundaries (set-up, trace I/O, metrics,
orchestration) also record a span: name, start, end, parent span and run id.
Everything stays in memory; ``Tracer.report`` returns it for writing out.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter

# Layers whose self time counts toward trace coverage: the work the program
# does per period or per run, as opposed to orchestration and CLI glue.
LAYERS = (
    "channel.propagate",
    "channel.step",
    "tag.keying",
    "detector.magnitude",
    "detector.gate",
    "detector.median",
    "detector.sd",
    "detector.correlate",
    "detector.pearson",
    "detector.process",
    "tag.code_family",
    "srs.pilot_build",
    "detector.init",
    "harness.dedup",
    "harness.clopper_pearson",
    "harness.trace_write",
    "harness.trace_read",
)


class CountingGenerator:
    """Forwards to a numpy Generator and counts the normals drawn."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def standard_normal(self, size=None, *args, **kwargs):
        self._counts["channel.normals"] += 1 if size is None else math.prod(
            (size,) if isinstance(size, int) else size
        )
        return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.acc: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, run_id]
        self.counts: Counter = Counter()
        self.run_id = 0
        self._child_ns: list[int] = []
        self._open: list[int] = []
        self._rng = None
        self._proxy = None

    def start_run(self, run_id: int) -> None:
        """Tag the spans that follow with ``run_id`` (one per workload call)."""
        self.run_id = run_id

    def timed(self, name, fn, on_result=None, span=False):
        """Wrap ``fn`` so each call adds to ``name``'s accumulator.

        ``on_result(args, result)`` runs after the clock stops; ``span`` also
        records the call as a span.
        """
        acc = self.acc.setdefault(name, [0, 0, 0])
        child_ns = self._child_ns
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if span:
                record = [name, 0, 0, open_spans[-1] if open_spans else None, self.run_id]
                open_spans.append(len(spans))
                spans.append(record)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = child_ns.pop()
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - inner
                if child_ns:
                    child_ns[-1] += elapsed
                if span:
                    record[1], record[2] = start, end
                    open_spans.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counting_rng(self, fn):
        """Call ``fn`` with its trailing generator argument counted."""

        def wrapper(*args):
            *rest, rng = args
            if rng is not self._rng:
                self._rng, self._proxy = rng, CountingGenerator(rng, self.counts)
            return fn(*rest, self._proxy)

        return wrapper

    def count(self, key, predicate):
        counts = self.counts

        def on_result(args, result):
            if predicate(args, result):
                counts[key] += 1

        return on_result

    def add(self, key, measure):
        counts = self.counts

        def on_result(args, result):
            counts[key] += measure(args, result)

        return on_result

    @contextlib.contextmanager
    def installed(self):
        """Instrument srsbs for the duration of the block, then restore it."""
        from srsbs import detector, harness

        Det = detector.Detector
        per_period = [
            (harness, "propagate", "channel.propagate", self.counting_rng, None),
            (harness, "step", "channel.step", self.counting_rng, None),
            (harness, "ook_state", "tag.keying", None, None),
            (harness, "average_magnitude", "detector.magnitude", None, None),
            (detector, "hard_threshold", "detector.gate", None,
             self.count("detector.gate_replacements", lambda a, r: r != a[0])),
            (detector, "median_filter", "detector.median", None, None),
            (detector, "sd_filter", "detector.sd", None,
             self.count("detector.sd_replacements", lambda a, r: r != a[0])),
            (Det, "process", "detector.process", None, None),
            (Det, "detect_step", "detector.correlate", None,
             self.count("detector.raw_events", lambda a, r: r is not None)),
            (Det, "correlate", "detector.pearson", None,
             self.count("detector.flat_windows", lambda a, r: r is None)),
        ]
        per_call = [
            (harness, "generate_gold_set", "tag.code_family", None),
            (harness, "make_srs_symbol", "srs.pilot_build", None),
            (Det, "__init__", "detector.init", None),
            (harness, "dedup_events", "harness.dedup",
             self.add("harness.dedup_events", lambda a, r: len(r))),
            (harness, "clopper_pearson", "harness.clopper_pearson", None),
            (harness, "write_trace", "harness.trace_write",
             self.add("harness.values_written", lambda a, r: len(a[1]))),
            (harness, "read_trace", "harness.trace_read",
             self.add("harness.values_read", lambda a, r: len(r))),
        ] + [
            (harness, fn, f"harness.{fn}", None)
            for fn in (
                "run_phases", "run_experiment", "sweep", "detect_trace",
                "results_row", "format_results", "format_events",
                "metrics_summary", "manifest_json",
            )
        ]
        saved = []
        try:
            for owner, attr, name, adapt, on_result in per_period:
                original = owner.__dict__[attr]
                fn = adapt(original) if adapt else original
                saved.append((owner, attr, original))
                setattr(owner, attr, self.timed(name, fn, on_result))
            for owner, attr, name, on_result in per_call:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.timed(name, original, on_result, span=True))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def report(self) -> dict:
        return {
            "accumulators": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.acc.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"id": i, "name": n, "start_ns": a, "end_ns": b, "parent": p, "run": r}
                for i, (n, a, b, p, r) in enumerate(self.spans)
            ],
        }
