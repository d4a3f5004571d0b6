"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig5-neat --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ``src/``.

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond a timer around each placement decision: set-up is timed in fresh
interpreters, then units of work on seeds derived from ``--seed`` run
until ``--seconds`` have passed.  A fixed calibration loop runs between
units, and each unit's host times are scaled to a reference host on
which the loop takes ``REFERENCE_CALIBRATION_S`` (see ``calibrate``).
``--trace 1`` runs unit 0 once plain
and twice traced, checks the three agree byte for byte, and reports the
per-layer metrics of the last traced run.  Both modes check every unit's
outputs and exit 1 when a check fails.  The metric names and units come
from ``BENCHMARK.json``; ``README.md`` defines each of them.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Units every run completes however short ``--seconds`` is.  The exact
#: simulated metrics and counters are taken over these units only, so
#: they do not depend on how fast the host is.
EXACT_UNITS = 4
#: Stop starting units after this long, well inside the 180 s budget.
HARD_STOP_S = 120.0
#: Counts that depend on host speed: the default decision-latency SLO
#: reads wall-clock time, so its alerts and the bundles they trigger do.
WALL_CLOCK_COUNTS = ("telemetry.slo.alerts_fired", "telemetry.recorder.bundles")


#: Time of ``calibrate`` on the reference host that end-to-end times are
#: scaled to.
REFERENCE_CALIBRATION_S = 0.05


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop (dict, heap, integer and
    float work, none of it from the package under test).

    Host speed on a shared machine drifts by tens of percent within
    minutes, and it moves this loop and the simulator largely alike
    (``README.md`` gives the measurements).
    """
    start = time.perf_counter()
    table: Dict[int, float] = {}
    heap: List[tuple] = []
    x = 12345
    for i in range(40000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        if len(heap) > 256:
            heapq.heappop(heap)
        table[x % 509] = table.get(x % 509, 0.0) + x / 2147483648.0
    sorted(table.values())
    return time.perf_counter() - start


def unit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def measure_setup(workload, seed: int) -> Dict[str, float]:
    readies: List[float] = []
    stages: Dict[str, List[float]] = {}
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             str(unit_seed(seed, 0))],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            readies.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe exited {proc.returncode}")
        for stage, seconds in json.loads(line).items():
            stages.setdefault(stage, []).append(seconds)
    return {
        "setup_s": statistics.median(readies),
        "setup.import_s": statistics.median(stages["import_s"]),
        "topology.build_s": statistics.median(stages["topology_s"]),
        "workloads.trace_build_s": statistics.median(stages["trace_s"]),
    }


def timed_units(workload, seed: int, seconds: float, tmp: Path):
    """Units until ``seconds`` have passed, with a calibration before each
    unit and after the last.  Returns the units and each unit's host
    scale: the mean of its two calibrations over the reference time."""
    units = []
    calibrations = [calibrate()]
    start = time.perf_counter()
    while len(units) < EXACT_UNITS or (
        time.perf_counter() - start < min(seconds, HARD_STOP_S)
    ):
        units.append(workload.run_unit(unit_seed(seed, len(units)), tmp))
        calibrations.append(calibrate())
    scales = [
        (before + after) / 2 / REFERENCE_CALIBRATION_S
        for before, after in zip(calibrations, calibrations[1:])
    ]
    return units, scales


def exact_counters(units) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for unit in units[:EXACT_UNITS]:
        for name, value in unit.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def end_to_end(units, scales, setup_s: float) -> Dict[str, float]:
    """End-to-end metrics, each unit's host times divided by its scale."""
    from bench_scenarios import percentile
    from repro.telemetry.timeseries import merge_sketches

    wall = sum(unit.wall_s / scale for unit, scale in zip(units, scales))
    if units[0].sketch is not None:
        # Session histograms hold host times: apply the run's mean scale.
        sketch = merge_sketches(unit.sketch for unit in units)
        factor = wall / sum(unit.wall_s for unit in units)
        p50 = sketch.quantile(0.50) * factor
        p95 = sketch.quantile(0.95) * factor
    else:
        decisions = [
            seconds / scale
            for unit, scale in zip(units, scales)
            for seconds in unit.decision_s
        ]
        p50, p95 = percentile(decisions, 0.50), percentile(decisions, 0.95)
    exact = units[:EXACT_UNITS]
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "tasks_per_s": sum(unit.tasks for unit in units) / wall,
        "cells_per_s": sum(unit.cells for unit in units) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": own_rss_mb + max(unit.workers_rss_mb for unit in units),
        "decision_ms_p50": p50 * 1e3,
        "decision_ms_p95": p95 * 1e3,
        "fct_slowdown_mean": sum(unit.slowdown_sum for unit in exact)
        / sum(unit.slowdown_n for unit in exact),
    }


def layer_metrics(names, unit, tracer, jobs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced unit; a layer the workload
    bypasses reads 0."""
    from bench_scenarios import percentile

    totals = tracer.totals()

    def calls(label: str) -> float:
        return totals.get(label, {}).get("calls", 0)

    def inclusive(label: str) -> float:
        return totals.get(label, {}).get("inclusive_seconds", 0.0)

    def exclusive(label: str) -> float:
        return totals.get(label, {}).get("exclusive_seconds", 0.0)

    sizes = tracer.component_flows
    metrics = dict.fromkeys(names, 0.0)
    metrics.update({
        "sim.dispatch_self_s": exclusive("sim.run"),
        "network.submit.calls": calls("network.submit"),
        "network.submit_self_s": exclusive("network.submit"),
        "network.allocate.calls": calls("network.allocate"),
        "network.allocate_s": exclusive("network.allocate"),
        "network.component_flows_mean": sum(sizes) / max(len(sizes), 1),
        "network.component_flows_p95": percentile(sizes, 0.95),
        "network.expand_s": exclusive("network.expand"),
        "network.splice_s": exclusive("network.splice"),
        "network.host_queries.calls": calls("network.host_queries"),
        "network.host_queries_s": exclusive("network.host_queries"),
        "placement.place.calls": calls("placement.place"),
        "placement.place_s": inclusive("placement.place"),
        "placement.place_self_s": exclusive("placement.place"),
        "placement.candidates_mean": sum(tracer.candidates)
        / max(len(tracer.candidates), 1),
        "daemons.bus.calls": calls("daemons.bus"),
        "daemons.bus_self_s": exclusive("daemons.bus"),
        "daemons.handle_s": exclusive("daemons.handle"),
        "daemons.place_batch.calls": calls("daemons.place_batch"),
        "daemons.place_batch_s": inclusive("daemons.place_batch"),
        "predictor.fct.calls": calls("predictor.fct"),
        "predictor.fct_s": exclusive("predictor.fct"),
        "service.admission_s": exclusive("service.admission"),
        "telemetry.slo.evaluate_s": exclusive("telemetry.slo.evaluate"),
        "telemetry.rollup.sample_s": exclusive("telemetry.rollup.sample"),
    })
    spans_self = sum(value["exclusive_seconds"] for value in totals.values())
    busy = unit.wall_s
    metrics.update(unit.counters)
    metrics.update(unit.facts)
    if "bench.spans_self_s" in metrics:
        # Campaign cells run in the workers: their span snapshots cover
        # up to `jobs` busy processes for the campaign's wall time.
        spans_self = metrics.pop("bench.spans_self_s")
        busy = jobs * unit.wall_s
    metrics["daemons.msgs_per_task"] = metrics["daemons.msgs"] / unit.tasks
    metrics["bench.tasks"] = unit.tasks
    metrics["bench.closure"] = spans_self / busy
    return metrics


def traced_run(workload, seed: int, tmp: Path, names) -> tuple:
    from bench_tracing import LayerTracer

    s = unit_seed(seed, 0)
    plain = workload.run_unit(s, tmp)
    traced = []
    for _ in range(2):
        tracer = LayerTracer()
        if workload.in_process:
            with tracer:
                unit = workload.run_unit(s, tmp, tracer)
        else:
            unit = workload.run_unit(s, tmp, tracer)
        traced.append(
            (unit, layer_metrics(names, unit, tracer, getattr(workload, "jobs", 1)))
        )
    problems = list(plain.problems)
    for unit, metrics in traced:
        problems.extend(unit.problems)
        if unit.digest != plain.digest:
            problems.append("traced outputs differ from the untraced run's")
        if unit.counters != plain.counters:
            problems.append(
                f"work counters differ: {unit.counters} != {plain.counters}"
            )
    counted = [
        name for name, unit_of_measure in names.items()
        if unit_of_measure == "count" and name not in WALL_CLOCK_COUNTS
    ]
    first, last = traced[0][1], traced[1][1]
    for name in counted:
        if first[name] != last[name]:
            problems.append(f"{name} differs between repeated traced runs: "
                            f"{first[name]} != {last[name]}")
    metrics = dict(last)
    # Read from the untraced session: tracing slows the host down.
    for name in WALL_CLOCK_COUNTS:
        if name in plain.facts:
            metrics[name] = plain.facts[name]
    traced_wall = statistics.median(unit.wall_s for unit, _ in traced)
    metrics["bench.untraced_wall_s"] = plain.wall_s
    metrics["bench.traced_wall_s"] = traced_wall
    metrics["bench.trace_overhead_ratio"] = traced_wall / plain.wall_s
    return [plain] + [unit for unit, _ in traced], metrics, problems


def provenance(workload, args) -> Dict[str, object]:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            git_sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            git_sha = ref
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": sha.hexdigest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "alloc_backend": workload.backend,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The backend is part of each workload's definition, never the caller's
    # environment.
    os.environ.pop("REPRO_ALLOC_BACKEND", None)
    spec = json.loads(SPEC_PATH.read_text())
    from bench_scenarios import SCRATCH, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    section = spec["per_layer" if args.trace else "end_to_end"]
    names = {metric["name"]: metric["unit"] for metric in section}
    tmp = SCRATCH / str(os.getpid())
    try:
        calibrations = [calibrate() for _ in range(3)]
        setup = measure_setup(workload, args.seed)
        calibrations.append(calibrate())
        setup_scale = statistics.median(calibrations) / REFERENCE_CALIBRATION_S
        workload.warm_up(tmp)
        if args.trace:
            units, metrics, problems = traced_run(workload, args.seed, tmp, names)
            metrics.update({k: v for k, v in setup.items() if k in names})
            metrics["bench.calibration_ms"] = statistics.median(calibrations) * 1e3
            host = {}
        else:
            units, scales = timed_units(workload, args.seed, args.seconds, tmp)
            metrics = end_to_end(units, scales, setup["setup_s"] / setup_scale)
            host = end_to_end(units, [1.0] * len(units), setup["setup_s"])
            host["median_scale"] = statistics.median(scales)
            problems = [p for unit in units for p in unit.problems]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if set(metrics) != set(names):
        raise BenchError(
            f"metrics {sorted(set(metrics) ^ set(names))} do not match "
            "BENCHMARK.json"
        )
    for name, unit_of_measure in names.items():
        print(f"{name:34s} {metrics[name]:>14.6g} {unit_of_measure}")
    print("provenance " + json.dumps(provenance(workload, args), sort_keys=True))
    if host:
        print("unscaled host-time metrics " + json.dumps(host, sort_keys=True))
        print("exact counters (first units) "
              + json.dumps(exact_counters(units), sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of_measure}
            for name, unit_of_measure in names.items()
        },
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
