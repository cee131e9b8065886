"""The workload process: repeated in-process ``srsbs.cli.main`` calls.

    python3 perfbench/calls.py SPEC.json RESULT.json

SPEC holds ``argv`` (one CLI call), ``outputs`` (files the call writes),
``seconds`` and ``trace``. The process imports srsbs from the checkout's
``src``, makes one untimed warm-up call, then timed calls until ``seconds``
of them have run. With ``trace`` the first half runs untraced and the second
half under ``tracing.Tracer``. Each call's exit code, wall time and output
digests go to RESULT, with the process's peak resident memory; the
benchmark judges the outputs. Only srsbs and these calls run here, so the
peak memory is the workload's own.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_TIMED_CALLS = 3
PROBE_LOOPS = 300_000
# The probe's time on the reference host (2-core Xeon VM, Python 3.11.7). A
# timing t measured next to a probe reading p is reported as t * REF / p: the
# time the same work takes on the reference host.
PROBE_REFERENCE_S = 0.020


def probe() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right now.

    On a shared host the speed of the same work drifts by up to 1.7x within
    a minute, without showing in the load average; the probe moves with it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import srsbs.harness  # noqa: F401  (first import: numpy, scipy.stats, srsbs)

    import_ms = (time.perf_counter() - start) * 1e3
    from srsbs import cli

    outputs = [Path(p) for p in spec["outputs"]]

    def call(cli_main) -> dict:
        gc.collect()
        host = probe()
        error = None
        start = time.perf_counter()
        try:
            rc = cli_main(spec["argv"])
        except SystemExit as exc:  # argparse rejecting the arguments
            rc = exc.code
        except Exception:  # a crash fails this call; the loop goes on
            rc, error = -1, traceback.format_exc()
        elapsed = time.perf_counter() - start
        digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs] if rc == 0 else None
        return {"s": elapsed, "rc": rc, "digest": digest, "error": error, "probe_s": host}

    def loop(cli_main, seconds: float, before=None) -> list[dict]:
        calls: list[dict] = []
        while sum(c["s"] for c in calls) < seconds or len(calls) < MIN_TIMED_CALLS:
            if before:
                before(len(calls))
            calls.append(call(cli_main))
        return calls

    result = {"import_ms": import_ms, "warmup": call(cli.main), "trace": None}
    if not spec["trace"]:
        result["plain"] = loop(cli.main, spec["seconds"])
        result["traced"] = []
    else:
        import tracing

        result["plain"] = loop(cli.main, spec["seconds"] / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            main = tracer.timed("cli.main", cli.main, span=True)
            result["traced"] = loop(main, spec["seconds"] / 2, tracer.start_run)
        result["trace"] = tracer.report()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
