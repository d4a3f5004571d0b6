"""The benchmark's four workloads.

Each workload builds its inputs from a seed, runs one *unit* of work (one
replay, one serving session, or one campaign) and checks the unit's
outputs.  ``run.py`` decides how many units a run measures.

Program modules are imported inside the functions that need them, so a
set-up probe (``setup_probe.py``) times exactly the imports its workload
makes.  ``README.md`` next to this file says why each workload exists.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: The paper's 160-host three-tier Clos (§6.1): 4 pods x 4 racks x 10.
CLOS_160 = {"pods": 4, "racks_per_pod": 4, "hosts_per_rack": 10}
#: Scratch space inside the checkout (listed in .gitignore).
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench-tmp"


@dataclass
class Unit:
    """What one unit of work produced."""

    #: placement decisions made (all cells of a campaign together).
    tasks: int = 0
    #: scenario runs finished; for the campaign, cells.
    cells: int = 0
    #: operations offered: tasks, or cells for the campaign.
    attempted: int = 0
    #: offered operations that did not complete.
    failed: int = 0
    #: host seconds of the unit, input build excluded.
    wall_s: float = 0.0
    #: host seconds of each placement decision (serve: see ``sketch``).
    decision_s: List[float] = field(default_factory=list)
    #: serve only: the session's decision-latency histogram sketch.
    sketch: object = None
    #: sum and count of FCT / optimal FCT over completed flows.
    slowdown_sum: float = 0.0
    slowdown_n: int = 0
    #: exact work counters, equal on every run of one seed.
    counters: Dict[str, float] = field(default_factory=dict)
    #: per-layer values read from the program's own outputs.
    facts: Dict[str, float] = field(default_factory=dict)
    #: sha256 over the unit's deterministic outputs.
    digest: str = ""
    #: failed output checks, one line each.
    problems: List[str] = field(default_factory=list)
    #: campaign only: peak RSS summed over the worker processes.
    workers_rss_mb: float = 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank (higher) ``q``-quantile of a sample; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def _record_line(record) -> str:
    return json.dumps(
        [
            record.flow_id,
            record.src,
            record.dst,
            record.size,
            record.arrival_time,
            record.completion_time,
            record.optimal_fct,
            record.tag,
            record.coflow_id,
        ],
        default=str,
    )


def check_records(records, expected_tags, label: str, problems: List[str]):
    """Every task completed exactly once and no flow beat its optimum.

    With ``expected_tags=None`` only the tags' uniqueness is checked.

    FCT is the difference of two absolute simulated timestamps, each
    rounded to its own float spacing, so "beat its optimum" means by more
    than those two roundings.

    Returns ``(slowdown_sum, slowdown_n, records_text)``.
    """
    tags = sorted(record.tag for record in records)
    if expected_tags is None:
        if len(set(tags)) != len(tags):
            problems.append(f"{label}: a task has two flow records")
    elif tags != sorted(expected_tags):
        problems.append(
            f"{label}: {len(records)} flow records for "
            f"{len(expected_tags)} tasks, or tags differ"
        )
    slowdown_sum = 0.0
    slowdown_n = 0
    below = []
    for record in records:
        rounding = math.ulp(record.completion_time) + math.ulp(record.arrival_time)
        if record.fct < record.optimal_fct - rounding:
            below.append(record.flow_id)
        if record.optimal_fct > 0:
            slowdown_sum += record.fct / record.optimal_fct
            slowdown_n += 1
    if below:
        problems.append(
            f"{label}: {len(below)} flows finished faster than their "
            f"optimal FCT (first: flow {below[0]})"
        )
    text = "\n".join(_record_line(record) for record in records)
    return slowdown_sum, slowdown_n, text


def _digest(*parts: str) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# fig5-neat and las-random: one flow-trace replay per unit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayWorkload:
    """A trace replay on the 160-host Clos (``repro fig5``'s inner loop)."""

    name: str
    workload: str
    network_policy: str
    placement: str
    backend: str
    arrivals: int
    in_process = True
    modules = (
        "repro.experiments.config",
        "repro.experiments.runner",
        "repro.network.kernels",
    )

    def config(self, seed: int, arrivals: Optional[int] = None):
        from repro.experiments.config import MacroConfig

        return MacroConfig(
            **CLOS_160,
            workload=self.workload,
            load=0.7,
            num_arrivals=arrivals or self.arrivals,
            seed=seed,
            alloc_backend=self.backend,
        )

    def build_inputs(self, seed: int) -> Dict[str, float]:
        """Set-up up to the first simulated event; returns its timings."""
        start = time.perf_counter()
        cfg = self.config(seed)
        topology = cfg.build_topology()
        built = time.perf_counter()
        cfg.build_trace(topology)
        return {
            "topology_s": built - start,
            "trace_s": time.perf_counter() - built,
        }

    def warm_up(self, tmp: Path) -> None:
        self.run_unit(0, tmp, arrivals=50)

    def run_unit(self, seed: int, tmp: Path, tracer=None, arrivals=None) -> Unit:
        from bench_tracing import UnitProbe
        from repro.experiments.runner import replay_flow_trace
        from repro.service.server import decisions_as_jsonl
        from repro.telemetry import Telemetry

        cfg = self.config(seed, arrivals)
        topology = cfg.build_topology()
        trace = cfg.build_trace(topology)
        telemetry = Telemetry(profiler=tracer.profiler) if tracer else None
        with UnitProbe(tracer) as probe:
            start = time.perf_counter()
            result = replay_flow_trace(
                trace,
                topology,
                network_policy=self.network_policy,
                placement=self.placement,
                predictor="fair",
                seed=seed,
                alloc_backend=self.backend,
                telemetry=telemetry,
            )
            wall = time.perf_counter() - start
        unit = Unit(
            tasks=len(trace.arrivals),
            cells=1,
            attempted=len(trace.arrivals),
            wall_s=wall,
            decision_s=probe.decision_s,
        )
        unit.slowdown_sum, unit.slowdown_n, records = check_records(
            result.records,
            [arrival.tag for arrival in trace.arrivals],
            f"{self.name} seed {seed}",
            unit.problems,
        )
        unit.failed = max(unit.attempted - len(result.records), 0)
        daemon = getattr(probe.policies[0], "daemon", None)
        decisions = decisions_as_jsonl(daemon) if daemon is not None else ""
        unit.digest = _digest(records, decisions)
        engine = probe.fabrics[0].engine
        unit.counters = {
            "sim.events": result.events_processed,
            "daemons.msgs": result.control_messages,
        }
        unit.facts = {"sim.heap_high_water": engine.heap_high_water}
        return unit


# ----------------------------------------------------------------------
# serve-live: one PlacementServer session per unit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload:
    """An open-loop ``repro serve`` session with the live layer armed."""

    name: str
    duration: float
    load: float = 0.15
    backend = "python"
    in_process = True
    modules = (
        "repro.service",
        "repro.service.server",
        "repro.telemetry",
        "repro.telemetry.slo",
    )

    def scenario(self, seed: int, duration: Optional[float] = None):
        from repro.service import ServiceScenario

        return ServiceScenario(
            **CLOS_160,
            duration=duration or self.duration,
            seed=seed,
            arrivals={"kind": "poisson", "load": self.load},
            name=self.name,
        )

    def build_inputs(self, seed: int) -> Dict[str, float]:
        start = time.perf_counter()
        scenario = self.scenario(seed)
        topology = scenario.build_topology()
        built = time.perf_counter()
        next(iter(scenario.build_source(topology)))
        return {
            "topology_s": built - start,
            "trace_s": time.perf_counter() - built,
        }

    def warm_up(self, tmp: Path) -> None:
        self.run_unit(0, tmp, duration=0.05)

    def run_unit(self, seed: int, tmp: Path, tracer=None, duration=None) -> Unit:
        from bench_tracing import UnitProbe
        from repro.service import PlacementServer
        from repro.service.server import decisions_as_jsonl
        from repro.telemetry import FlightRecorder, create_telemetry
        from repro.telemetry.slo import load_slo_specs

        scenario = self.scenario(seed, duration)
        out = _fresh_dir(tmp / f"serve-{seed}")
        # `repro serve --slo default --recorder DIR --rollups-out PATH`.
        telemetry = create_telemetry(causal=True)
        if tracer is not None:
            telemetry.profiler = tracer.profiler
        recorder = FlightRecorder(
            str(out / "recorder"), registry=telemetry.registry
        )
        server = PlacementServer(
            scenario,
            telemetry=telemetry,
            slo_specs=load_slo_specs("default"),
            recorder=recorder,
            rollups_out=str(out / "rollups.json"),
        )
        with UnitProbe(tracer) as probe:
            start = time.perf_counter()
            report = server.run()
            wall = time.perf_counter() - start
        label = f"{self.name} seed {seed}"
        unit = Unit(
            tasks=report.decisions,
            cells=1,
            attempted=report.offered,
            failed=report.rejected + report.dropped,
            wall_s=wall,
        )
        if report.offered != report.admitted + report.rejected:
            unit.problems.append(f"{label}: offered != admitted + rejected")
        if report.admitted != report.decisions + report.dropped:
            unit.problems.append(f"{label}: admitted != decided + dropped")
        daemon = server.last_daemon
        unit.slowdown_sum, unit.slowdown_n, records = check_records(
            probe.fabrics[0].records,
            [decision.tag for decision in daemon.decisions],
            label,
            unit.problems,
        )
        unit.failed += report.decisions - len(probe.fabrics[0].records)
        unit.sketch = telemetry.registry.histogram(
            "service.decision_latency_seconds"
        ).sketch.copy()
        unit.digest = _digest(
            json.dumps(report.to_dict(), sort_keys=True),
            decisions_as_jsonl(daemon),
            records,
        )
        unit.counters = {
            "sim.events": report.events_processed,
            "daemons.msgs": report.control_messages,
            "service.batches": report.batches,
        }
        unit.facts = {
            "sim.heap_high_water": probe.fabrics[0].engine.heap_high_water,
            "service.offered": report.offered,
            "service.rejected": report.rejected,
            "service.dropped": report.dropped,
            "service.batch_size_mean": report.batch_size["mean"],
            "service.queue_wait_p50_sim_s": report.queue_wait["p50"],
            "service.queue_wait_p99_sim_s": report.queue_wait["p99"],
            "telemetry.causal.events": len(telemetry.causal.events),
            "telemetry.slo.alerts_fired": server.last_slo_engine.alerts_fired,
            "telemetry.recorder.bundles": len(recorder.dumps),
        }
        shutil.rmtree(out, ignore_errors=True)
        return unit


# ----------------------------------------------------------------------
# campaign-sweep: one cold-cache `repro run --jobs 2` grid per unit
# ----------------------------------------------------------------------
def campaign_cell(side_dir: str, spec):
    """The campaign's cell function: ``execute_cell`` plus a side file.

    Runs in a pool worker.  The payload is returned untouched, so cache
    entries and the aggregate are exactly what ``repro run`` produces;
    decision times and the record checks go to ``side_dir``.
    """
    from bench_tracing import UnitProbe
    from repro.campaign import execute_cell

    with UnitProbe() as probe:
        payload = execute_cell(spec)
    problems: List[str] = []
    slowdown_sum = 0.0
    slowdown_n = 0
    # The record count per placement is checked from the payload.
    for fabric in probe.fabrics:
        part_sum, part_n, _ = check_records(
            fabric.records, None, spec.describe(), problems
        )
        slowdown_sum += part_sum
        slowdown_n += part_n
    facts = {
        "spec": spec.describe(),
        "pid": os.getpid(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "decision_s": probe.decision_s,
        "slowdown_sum": slowdown_sum,
        "slowdown_n": slowdown_n,
        "problems": problems,
    }
    name = hashlib.sha256(spec.describe().encode()).hexdigest()[:20]
    with open(os.path.join(side_dir, f"{name}.json"), "w") as fh:
        json.dump(facts, fh)
    return payload


@dataclass(frozen=True)
class CampaignWorkload:
    """``repro run`` over seeds x {fair, las} x loads, placements
    {neat, minload}, on a 20-host Clos with two local workers."""

    name: str
    arrivals: int
    jobs: int = 2
    backend = "python"
    #: Cells run in pool workers; per-layer values come from --status.
    in_process = False
    modules = (
        "repro.campaign",
        "repro.campaign.executor",
        "repro.experiments.config",
    )

    def campaign(self, seed: int):
        from repro.campaign import flow_grid
        from repro.experiments.config import MacroConfig

        base = MacroConfig(
            pods=2,
            racks_per_pod=2,
            hosts_per_rack=5,
            workload="websearch",
            num_arrivals=self.arrivals,
            seed=seed,
        )
        return flow_grid(
            name=self.name,
            base_config=base,
            repetitions=4,
            network_policies=("fair", "las"),
            loads=(0.55, 0.7),
            placements=("neat", "minload"),
        )

    def build_inputs(self, seed: int) -> Dict[str, float]:
        """Grid build and the cold cache's lookups: what precedes the
        first cell dispatch."""
        from repro.campaign import ResultCache, spec_key

        start = time.perf_counter()
        campaign = self.campaign(seed)
        cache = ResultCache(SCRATCH / f"probe-{os.getpid()}")
        for spec in campaign.cells:
            cache.lookup(spec_key(spec))
        return {"topology_s": 0.0, "trace_s": time.perf_counter() - start}

    def warm_up(self, tmp: Path) -> None:
        """Nothing: every `repro run` pays its pool start-up, so the
        benchmark measures it too."""

    def run_unit(self, seed: int, tmp: Path, tracer=None) -> Unit:
        from repro.campaign import ResultCache, canonical_json, run_campaign
        from repro.telemetry.timeseries import QuantileSketch, merge_sketches

        campaign = self.campaign(seed)
        out = _fresh_dir(tmp / f"campaign-{seed}")
        side = _fresh_dir(out / "cells")
        status_path = out / "status.jsonl" if tracer is not None else None
        cache = ResultCache(out / "cache")
        start = time.perf_counter()
        report = run_campaign(
            campaign,
            jobs=self.jobs,
            cache=cache,
            cell_fn=functools.partial(campaign_cell, str(side)),
            retries=1,
            status_path=status_path,
        )
        wall = time.perf_counter() - start
        label = f"{self.name} seed {seed}"
        cells = len(campaign.cells)
        unit = Unit(
            cells=len(report.completed),
            attempted=cells,
            failed=len(report.quarantined),
            wall_s=wall,
        )
        for outcome in report.quarantined:
            unit.problems.append(f"{label}: cell {outcome.index} {outcome.error}")
        events = msgs = 0
        for outcome in report.completed:
            for name, entry in outcome.payload["per_placement"].items():
                if entry["num_records"] != self.arrivals or entry["tasks_dropped"]:
                    unit.problems.append(
                        f"{label}: cell {outcome.index} {name} completed "
                        f"{entry['num_records']} of {self.arrivals} tasks"
                    )
                unit.tasks += entry["num_records"]
                events += entry["events_processed"]
                msgs += entry["control_messages"]
        stats = report.cache_stats
        if (stats.hits, stats.misses, stats.writes) != (0, cells, cells):
            unit.problems.append(f"{label}: cold cache gave {stats}")
        facts = sorted(
            (json.loads(path.read_text()) for path in side.glob("*.json")),
            key=lambda cell: cell["spec"],
        )
        if sorted(cell["spec"] for cell in facts) != sorted(
            spec.describe() for spec in campaign.cells
        ):
            unit.problems.append(f"{label}: cell side files missing")
        worker_rss: Dict[int, int] = {}
        for cell in facts:
            unit.problems.extend(cell["problems"])
            unit.decision_s.extend(cell["decision_s"])
            unit.slowdown_sum += cell["slowdown_sum"]
            unit.slowdown_n += cell["slowdown_n"]
            worker_rss[cell["pid"]] = max(
                worker_rss.get(cell["pid"], 0), cell["maxrss_kb"]
            )
        unit.workers_rss_mb = sum(worker_rss.values()) / 1024.0
        unit.digest = _digest(canonical_json(report.aggregate_payload()))
        unit.counters = {
            "sim.events": events,
            "daemons.msgs": msgs,
            "campaign.cache.misses": stats.misses,
            "campaign.cache.writes": stats.writes,
        }
        sizes = merge_sketches(
            QuantileSketch.from_dict(
                outcome.payload["metrics"]["histograms"][
                    "fabric.recompute.component_flows"
                ]["sketch"]
            )
            for outcome in report.completed
        )
        unit.facts = {
            "network.component_flows_mean": sizes.total / max(sizes.count, 1),
            "network.component_flows_p95": sizes.quantile(0.95),
            "campaign.cells": cells,
            "campaign.attempts": sum(o.attempts for o in report.outcomes),
            "campaign.quarantined": len(report.quarantined),
        }
        if status_path is not None:
            unit.facts.update(
                campaign_status_facts(status_path, report, self.jobs)
            )
        shutil.rmtree(out, ignore_errors=True)
        return unit


def campaign_status_facts(status_path: Path, report, jobs: int) -> Dict[str, float]:
    """Per-layer values of a campaign, read from its ``--status`` stream:
    worker ``running``/``finished`` wall stamps and per-cell span
    snapshots of the program's own profiler."""
    from repro.campaign import read_status

    started = None
    running: Dict[int, float] = {}
    finished: Dict[int, float] = {}
    labels: Dict[str, Dict[str, float]] = {}
    for record in read_status(status_path):
        if record["record"] == "campaign_start":
            started = record["wall"]
        elif record["record"] == "cell" and record.get("state") == "running":
            running[record["cell"]] = record["wall"]
        elif record["record"] == "cell" and record.get("state") == "finished":
            finished[record["cell"]] = record["wall"]
            spans = record.get("spans") or {}
            for label, totals in spans.get("labels", {}).items():
                into = labels.setdefault(
                    label,
                    {"calls": 0, "inclusive_seconds": 0.0,
                     "exclusive_seconds": 0.0},
                )
                for key in into:
                    into[key] += totals[key]
    cell_s = [finished[c] - running[c] for c in sorted(finished) if c in running]
    waits = [running[c] - started for c in sorted(running)]

    def total(prefix: str, key: str) -> float:
        return sum(
            value[key] for label, value in labels.items()
            if label.startswith(prefix)
        )

    cells = max(len(report.outcomes), 1)
    facts = {
        "campaign.cell_s_mean": sum(cell_s) / max(len(cell_s), 1),
        "campaign.cell_s_p95": percentile(cell_s, 0.95),
        "campaign.dispatch_wait_s_mean": sum(waits) / max(len(waits), 1),
        "campaign.overhead_s_per_cell": (
            jobs * report.wall_seconds - sum(cell_s)
        ) / cells,
        # Recompute self time rides inside engine events in the flame.
        "sim.dispatch_self_s": total("engine.event.", "exclusive_seconds")
        + total("fabric.recompute.", "exclusive_seconds"),
        "network.allocate.calls": total("alloc.", "calls"),
        "network.allocate_s": total("alloc.", "inclusive_seconds"),
        "network.expand_s": total("fabric.expand_component", "exclusive_seconds"),
        "network.splice_s": total("fabric.splice", "exclusive_seconds"),
        "placement.place.calls": total("placement.place", "calls"),
        "placement.place_s": total("placement.place", "inclusive_seconds"),
        "placement.place_self_s": total("placement.place", "exclusive_seconds"),
        "predictor.fct.calls": total("predictor.fct", "calls"),
        "predictor.fct_s": total("predictor.fct", "inclusive_seconds"),
        "bench.spans_self_s": total("", "exclusive_seconds"),
    }
    return facts


WORKLOADS = {
    workload.name: workload
    for workload in (
        ReplayWorkload(
            name="fig5-neat",
            workload="hadoop",
            network_policy="fair",
            placement="neat",
            backend="numpy",
            arrivals=600,
        ),
        ReplayWorkload(
            name="las-random",
            workload="websearch",
            network_policy="las",
            placement="random",
            backend="python",
            arrivals=400,
        ),
        ServeWorkload(name="serve-live", duration=0.5),
        CampaignWorkload(name="campaign-sweep", arrivals=200),
    )
}
