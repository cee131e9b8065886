#!/usr/bin/env python3
"""srsbs benchmark: host time per sounding period on three workloads.

    python3 perfbench/run.py --workload baseline_indoor_long --seed 1 --seconds 30 --trace 0

Drives srsbs from outside through ``srsbs.cli.main([...])`` in one process
with no extra threads, checks every output, and prints one JSON object as the
last line of standard output. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The two
end-to-end timings are scaled to a reference host speed by a probe loop
timed next to each measurement (see ``calls.probe``); the raw wall-clock
figures are printed and kept in the detail file.
``--workload all`` runs every workload in turn and prints them together.
Details (samples, quartiles, environment, spans) go to
``.perfbench_out/<workload>-seed<n>-trace<t>.json`` under the checkout.

Exit codes: 0 when every output was correct, 1 when the correctness gate
tripped (the result is still printed), 2 when srsbs cannot be found or
imported (no result is printed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calls import PROBE_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # declares each metric's unit

TAG_CODE = 7
WINDOW = 217  # periods per message: 31 chips held 7 periods each
SETUP_RUNS = 5
# Below this share of the untraced time, the program no longer runs through
# the instrumented functions and the per-layer figures miss most of the work.
COVERAGE_FLOOR = 0.5

SWEEP_DEPTHS = (0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.01, 0.005)

# A fresh interpreter up to a ready pipeline; prints its own split on one
# line, then a host probe reading taken in the same process on a second.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import srsbs.harness as harness
t1 = time.perf_counter()
codes = harness.CodeConfig().build()
t2 = time.perf_counter()
from srsbs.detector import Detector, DetectorConfig, FilterConfig
Detector(DetectorConfig(code_set=codes), FilterConfig())
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "codes_s": t2 - t1, "detector_s": t3 - t2}), flush=True)
sys.path.insert(0, sys.argv[1])
from calls import probe
print(json.dumps({"probe_s": probe()}), flush=True)
"""


def _import_srsbs() -> None:
    """Put the checkout's src on the path and import srsbs from there."""
    if not (SRC / "srsbs" / "__init__.py").is_file():
        raise ImportError(f"no srsbs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import srsbs.harness  # noqa: F401


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _code_family():
    from srsbs.tag import generate_gold_set

    return generate_gold_set().codes


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One CLI call repeated on fixed inputs; ``check`` judges its outputs."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.argv: list[str] = []
        self.outputs: list[Path] = []
        self.periods = 0  # sounding periods the detector processes per call

    def check(self) -> list[str]:
        raise NotImplementedError


class BaselineIndoorLong(Workload):
    name = "baseline_indoor_long"

    def __init__(self, seed, workdir, messages=60, code=TAG_CODE):
        super().__init__(seed, workdir)
        self.messages = messages
        self.periods = 2 * messages * WINDOW
        out = workdir / "baseline.csv"
        trace = workdir / "trace"
        self.argv = [
            "baseline", "--scenario", "indoor_long", "--code", str(code),
            "--messages", str(messages), "--seed", str(seed),
            "--export-trace", str(trace), "--out", str(out),
        ]
        self.results = out
        self.manifest = out.with_name(out.name + ".manifest.json")
        self.traces = {p: trace.with_name(f"trace.{p}.txt") for p in ("off", "on")}
        self.outputs = [out, self.manifest, *self.traces.values()]

    def check(self) -> list[str]:
        import numpy as np

        import synth

        problems = []
        r, n = self.messages, self.messages * WINDOW
        rows = {row["parameter_value"]: row for row in _read_rows(self.results)}
        if sorted(rows) != ["off", "on"]:
            return [f"results rows {sorted(rows)}, expected off and on"]
        for phase, row in rows.items():
            if int(row["n_srs"]) != n or int(row["seed"]) != self.seed:
                problems.append(f"{phase}: n_srs {row['n_srs']} seed {row['seed']}")
        detection = float(rows["on"]["detection_probability"])
        cross = float(rows["on"]["cross_false_alarm_probability"])
        false_alarm = float(rows["off"]["false_alarm_probability"])
        if not detection >= 0.9:
            problems.append(f"detection {detection} < 0.9")
        if not cross <= 0.01:
            problems.append(f"cross false alarm {cross} > 0.01")
        if false_alarm != 0.0:
            problems.append(f"tag-off false alarm {false_alarm} != 0")

        manifest = json.loads(self.manifest.read_text())
        templates = synth.normalized_templates(_code_family())
        for phase, path in self.traces.items():
            trace = np.array([float(x) for x in path.read_text().split()])
            if trace.size != n or not np.all(np.isfinite(trace)) or not np.all(trace > 0):
                problems.append(f"{phase} trace: {trace.size} values, expected {n} positive")
                continue
            code = synth.reference_events(trace, templates)["code"]
            periods = np.flatnonzero(code >= 0)
            raw = manifest[f"metrics_{phase}"]["raw_events"]
            if raw != periods.size:
                problems.append(f"{phase}: {raw} raw events, reference {periods.size}")
            if phase == "on":
                events = [(int(p), int(code[p])) for p in periods]
                own = {p // WINDOW for p, c in synth.dedup(events, WINDOW) if c == TAG_CODE}
                detected = len(own)
                missed = sum(1 for w in range(r) if w not in own)
                if detected + missed != r:
                    problems.append(f"detected {detected} + missed {missed} != R {r}")
                if detected != detection * r:
                    problems.append(f"detection {detection} * R != reference {detected}")
        return problems


class DetectOutdoorTrace(Workload):
    name = "detect_outdoor_trace"

    def __init__(self, seed, workdir, messages=300):
        super().__init__(seed, workdir)
        import synth

        codes = _code_family()
        self.family = synth.code_family_digest(codes)
        self.messages = messages
        self.clean = synth.outdoor_trace(seed, messages, codes[TAG_CODE])
        self.periods = self.clean.size
        self.expected = synth.reference_events(self.clean, synth.normalized_templates(codes))
        self.trace = workdir / "outdoor.txt"
        self.trace.write_text("".join(f"{v!r}\n" for v in self.clean.tolist()))
        out = workdir / "events.csv"
        self.argv = ["detect", "--trace", str(self.trace), "--out", str(out)]
        self.events = out
        self.outputs = [out]

    def check(self) -> list[str]:
        import synth

        events = [
            (int(row["period_index"]), int(row["code_id"]), float(row["correlation"]))
            for row in _read_rows(self.events)
        ]
        problems = synth.compare_events(events, self.expected)
        reference = _reference()
        if self.family != reference["code_family_sha256"]:
            problems.append("the code family differs from the pinned one, so the input did too")
        pinned = reference["detect_outdoor_trace"]
        recorded = pinned["events_sha256"].get(str(self.seed))
        if self.messages == pinned["messages"] and recorded is not None:
            if synth.events_digest(events) != recorded:
                problems.append("events differ from the digest recorded for this seed")
        return problems


class SweepDepthShort(Workload):
    name = "sweep_depth_short"

    def __init__(self, seed, workdir, messages=5, depths=SWEEP_DEPTHS):
        super().__init__(seed, workdir)
        self.messages = messages
        self.depths = depths
        self.periods = len(depths) * messages * WINDOW
        config = workdir / "sweep.json"
        config.write_text(json.dumps({
            "scenario": {"base_gain": 0.3, "modulation_depth": depths[0], "noise_sigma": 0.02},
            "tag_code_id": TAG_CODE,
        }))
        out = workdir / "sweep.csv"
        self.argv = [
            "sweep", "--config", str(config), "--param", "modulation_depth",
            "--values", ",".join(map(str, depths)), "--messages", str(messages),
            "--seed", str(seed), "--out", str(out),
        ]
        self.results = out
        self.outputs = [out, out.with_name(out.name + ".manifest.json")]

    def check(self) -> list[str]:
        from srsbs.harness import derive_seed

        rows = _read_rows(self.results)
        if [float(row["parameter_value"]) for row in rows] != list(self.depths):
            return [f"{len(rows)} rows, expected one per depth {self.depths}"]
        problems = []
        keys = ("detection_probability", "false_alarm_probability", "cross_false_alarm_probability")
        for i, row in enumerate(rows):
            probs = [float(row[k]) for k in keys]
            if not all(0.0 <= p <= 1.0 for p in probs):
                problems.append(f"row {i}: probabilities {probs} outside [0, 1]")
            if probs[1] != 0.0:
                problems.append(f"row {i}: false alarm {probs[1]} with the tag on")
            if int(row["n_srs"]) != self.messages * WINDOW:
                problems.append(f"row {i}: n_srs {row['n_srs']}")
            if int(row["seed"]) != derive_seed(self.seed, i):
                problems.append(f"row {i}: seed {row['seed']}")
        deepest = rows[self.depths.index(max(self.depths))]
        if float(deepest["detection_probability"]) != 1.0:
            problems.append(f"detection {deepest['detection_probability']} at the deepest point")
        return problems


WORKLOADS = {w.name: w for w in (BaselineIndoorLong, DetectOutdoorTrace, SweepDepthShort)}


def _reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------------------
# measurement


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(runs: int) -> tuple[list[float], list[dict]]:
    """Wall time from spawning a fresh interpreter to a ready pipeline.

    Each split also carries the host probe the child took right after.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, splits = [], []
    for _ in range(runs):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(HERE)], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            host = proc.stdout.read()
        if proc.returncode != 0 or not line or not host:
            raise RuntimeError("set-up child failed")
        times.append(ready - start)
        splits.append({**json.loads(line), **json.loads(host)})
    return times, splits


def run_calls(workload: Workload, seconds: float, trace: bool) -> dict:
    """Run the workload's CLI call in its own process (calls.py) and load the result."""
    spec = workload.workdir / "spec.json"
    result = workload.workdir / "calls.json"
    spec.write_text(json.dumps({
        "argv": workload.argv, "outputs": [str(p) for p in workload.outputs],
        "seconds": seconds, "trace": trace,
    }))
    subprocess.run(
        [sys.executable, str(HERE / "calls.py"), str(spec), str(result)],
        cwd=ROOT, check=True, timeout=2 * seconds + 60,
    )
    return json.loads(result.read_text())


def verdict(workload: Workload, calls: list[dict]) -> tuple[int, list[str]]:
    """Failed calls and the problems found.

    The outputs on disk are the last call's; they are checked in full, and
    every call must have exited 0 and written the same bytes.
    """
    problems = workload.check() if calls[-1]["rc"] == 0 else []
    outputs_ok = calls[-1]["rc"] == 0 and not problems
    failed = 0
    for i, call in enumerate(calls):
        if call["rc"] != 0:
            error = (call["error"] or "").strip().splitlines()[-1:]
            problems.append(f"call {i}: exit code {call['rc']} {' '.join(error)}")
        elif call["digest"] != calls[-1]["digest"]:
            problems.append(f"call {i}: outputs differ from the last call")
        elif outputs_ok:
            continue
        failed += 1
    return failed, problems


def end_to_end(workload: Workload, seconds: float) -> tuple[dict, dict]:
    setup, splits = measure_setup(SETUP_RUNS)
    result = run_calls(workload, seconds, trace=False)
    samples = [c["s"] for c in result["plain"]]
    per_period = [
        c["s"] * PROBE_REFERENCE_S / c["probe_s"] / workload.periods * 1e6 for c in result["plain"]
    ]
    stats = {
        "us_per_period": quartiles(per_period),
        "setup_s": quartiles([t * PROBE_REFERENCE_S / s["probe_s"] for t, s in zip(setup, splits)]),
        "raw_us_per_period": quartiles([s / workload.periods * 1e6 for s in samples]),
        "raw_setup_s": quartiles(setup),
        "setup_split": splits,
        "call_s": samples,
        "probe_s": [c["probe_s"] for c in result["plain"]],
        "warmup_s": result["warmup"]["s"],
    }
    metrics = {
        "us_per_period": stats["us_per_period"]["median"],
        "setup_s": stats["setup_s"]["median"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return metrics, {"stats": stats, "calls": [result["warmup"], *result["plain"]]}


def per_layer(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Untraced calls for half the time, then traced calls for the other half."""
    import tracing

    result = run_calls(workload, seconds, trace=True)
    report = result["trace"]
    acc, counts = report["accumulators"], report["counts"]
    plain = [c["s"] for c in result["plain"]]
    traced = [c["s"] for c in result["traced"]]
    n = len(traced)
    periods = workload.periods * n
    problems = []

    def total(name):
        return acc.get(name, {}).get("total_ns", 0)

    def per_period(name):
        return total(name) / periods

    def per_value(name, values):
        return total(name) / counts[values] if counts.get(values) else 0.0

    def span_ms(name):
        durations = [s["end_ns"] - s["start_ns"] for s in report["spans"] if s["name"] == name]
        return statistics.median(durations) / 1e6 if durations else 0.0

    def per_call(key):
        if counts.get(key, 0) % n:
            problems.append(f"count {key} differs between identical calls")
        return counts.get(key, 0) // n

    dedup_calls = acc.get("harness.dedup", {}).get("calls", 0)
    raw, deduped = per_call("detector.raw_events"), per_call("harness.dedup_events")
    untraced_s = statistics.median(plain)
    # Share of the traced calls' time spent in the layers' own code. Over the
    # traced rather than the untraced time, so tracing overhead sits on both sides.
    layer_self = sum(acc.get(name, {}).get("self_ns", 0) for name in tracing.LAYERS)
    coverage = layer_self / total("cli.main")
    metrics = {
        "channel.propagate_ns": per_period("channel.propagate"),
        "channel.step_ns": per_period("channel.step"),
        "channel.normals_per_period": counts.get("channel.normals", 0) / periods,
        "tag.keying_ns": per_period("tag.keying"),
        "detector.magnitude_ns": per_period("detector.magnitude"),
        "detector.gate_ns": per_period("detector.gate"),
        "detector.median_ns": per_period("detector.median"),
        "detector.sd_ns": per_period("detector.sd"),
        "detector.correlate_ns": per_period("detector.correlate"),
        "detector.process_ns": per_period("detector.process"),
        "tag.code_family_ms": span_ms("tag.code_family"),
        "srs.pilot_build_ms": span_ms("srs.pilot_build"),
        "detector.init_ms": span_ms("detector.init"),
        "harness.metrics_ms": (total("harness.dedup") + total("harness.clopper_pearson"))
        / dedup_calls / 1e6 if dedup_calls else 0.0,
        "harness.import_ms": result["import_ms"],
        "harness.trace_write_ns": per_value("harness.trace_write", "harness.values_written"),
        "harness.trace_read_ns": per_value("harness.trace_read", "harness.values_read"),
        "cli.overhead_ms": acc["cli.main"]["self_ns"] / n / 1e6,
        "detector.gate_replacements": per_call("detector.gate_replacements"),
        "detector.sd_replacements": per_call("detector.sd_replacements"),
        "detector.flat_windows": per_call("detector.flat_windows"),
        "detector.raw_events": raw,
        "harness.dedup_events": deduped,
        "harness.dedup_ratio": deduped / raw if raw and dedup_calls else 0.0,
        "trace.coverage": coverage,
        "trace.overhead_ratio": statistics.median(traced) / untraced_s,
    }
    if coverage < COVERAGE_FLOOR:
        print(
            f"WARNING: trace.coverage {coverage:.2f} < {COVERAGE_FLOOR}: most of the time is "
            "spent outside the traced functions; the per-layer figures no longer explain "
            "the end-to-end time and the program needs tracing of its own",
            file=sys.stderr,
        )
    detail = {
        "probe_s": [c["probe_s"] for c in result["plain"] + result["traced"]],
        "untraced_s": plain,
        "traced_s": traced,
        "periods_per_call": workload.periods,
        "peak_rss_mb": result["peak_rss_mb"],
        "count_problems": problems,
        "trace": report,
    }
    calls = [result["warmup"], *result["plain"], *result["traced"]]
    return metrics, {"stats": detail, "calls": calls}


# ---------------------------------------------------------------------------
# environment and reporting


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in threads},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_start = time.perf_counter()
        workload = WORKLOADS[name](seed, workdir)
        prepare_s = time.perf_counter() - setup_start
        if trace:
            metrics, detail = per_layer(workload, seconds)
        else:
            metrics, detail = end_to_end(workload, seconds)
        calls = detail.pop("calls")
        failed, problems = verdict(workload, calls)
        problems += detail["stats"].pop("count_problems", [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        metrics["pass_ratio"] = 1.0 - failed / len(calls)
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}
    env = environment()
    env["loadavg_start"], env["loadavg_end"] = load_start, os.getloadavg()
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "input_prepare_s": prepare_s, "problems": problems[:50],
        "environment": env, "result": result, **detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {"result": result, "record": record, "path": path}


def print_table(name: str, outcome: dict) -> None:
    result, record = outcome["result"], outcome["record"]
    print(f"{name} seed={record['seed']} trace={int(record['trace'])}")
    stats = record["stats"]
    for metric, entry in result["metrics"].items():
        line = f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}"
        spread = stats.get(metric)
        if isinstance(spread, dict):
            line += f"  (q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n={spread['n']})"
        print(line)
    for raw in ("raw_us_per_period", "raw_setup_s"):
        if raw in stats:
            q = stats[raw]
            print(
                f"  {raw:28s} {q['median']:14.6g} wall clock, unscaled  "
                f"(q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})"
            )
    if not record["trace"]:
        ratio = result["failed"] / result["attempted"]
        print(f"  {'fail_ratio':28s} {ratio:14.6g} ratio  ({result['failed']}/{result['attempted']} calls)")
    for problem in record["problems"][:10]:
        print(f"  FAIL: {problem}")
    env = record["environment"]
    host = quartiles(stats["probe_s"])
    print(
        f"  host probe: {host['median'] * 1e3:.1f} ms (q1 {host['q1'] * 1e3:.1f}, "
        f"q3 {host['q3'] * 1e3:.1f}) for a fixed Python loop before each call"
    )
    print(
        f"  env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas'].get('name')} "
        f"{env['blas'].get('version')}, load {env['loadavg_start'][0]:.2f} -> "
        f"{env['loadavg_end'][0]:.2f}; details in {outcome['path'].relative_to(ROOT)}"
    )


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def record_reference(seeds: list[int]) -> None:
    """Pin the detect workload's events, as srsbs gives them now, per seed."""
    import synth
    from srsbs import cli

    reference = _reference()
    pinned = reference["detect_outdoor_trace"]
    reference["code_family_sha256"] = synth.code_family_digest(_code_family())
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    workdir = WORK_DIR / f"record-{os.getpid()}"
    try:
        for seed in seeds:
            workdir.mkdir(parents=True, exist_ok=True)
            workload = DetectOutdoorTrace(seed, workdir, pinned["messages"])
            problems = workload.check() if cli.main(workload.argv) == 0 else ["exit code"]
            if problems:
                raise SystemExit(f"seed {seed}: {problems[:3]}")
            events = [(int(r["period_index"]), int(r["code_id"])) for r in _read_rows(workload.events)]
            pinned["events_sha256"][str(seed)] = synth.events_digest(events)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", type=int, nargs="+", metavar="SEED",
        help="write the detect workload's event digests for these seeds to reference.json",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        _import_srsbs()
    except ImportError as exc:
        print(f"error: cannot import srsbs from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(args.record_reference)
        return 0
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, outcome)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
