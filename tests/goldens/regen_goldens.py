"""Regenerate the golden-trace regression corpus.

Each policy gets two committed files under ``tests/goldens/``:

* ``<policy>.records.jsonl`` — one JSON object per completion record
  (shortest-round-trip float formatting, so equality is bit-equality);
* ``<policy>.trace.jsonl`` — the telemetry JSONL trace of the same run
  (arrivals, placement decisions, rate recomputes, completions).

Those legs place with ``minload`` and never run a predictor.  Three more
legs pin NEAT's predictor-driven placement:

* ``neat.*`` — the same scenario placed by NEAT (fair predictor over
  every other host): completion records, the decision log in
  ``repro serve --decisions-out`` format, and the control-plane counters;
* ``neat-faults.*`` — the same under a fault plan with one prediction
  loss window and one host failure, which locks the order of the loss
  coin flips;
* ``serve.*`` — a short :class:`~repro.service.PlacementServer` session
  (batched placement): its decision log and control-plane counters.

``tests/test_goldens.py`` byte-compares the current simulator output —
under *both* allocator backends — against these files, so any change to
allocation arithmetic, predictor arithmetic, event ordering, or trace
payloads shows up as a corpus diff that must be regenerated (and
reviewed) deliberately:

    PYTHONPATH=src python tests/goldens/regen_goldens.py
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

POLICIES = ("fair", "fcfs", "las", "srpt")

#: The pinned scenario.  Small enough to keep the corpus a few tens of
#: kilobytes, contended enough (20-host Clos, load 0.7) that every
#: policy produces multi-round water-fills with real rate churn.
SCENARIO = dict(
    pods=2,
    racks_per_pod=2,
    hosts_per_rack=5,
    workload="websearch",
    load=0.7,
    num_arrivals=40,
    seed=13,
    placement="minload",
)


def generate(policy: str, backend: str = "python"):
    """Run the pinned scenario; returns (records_text, trace_text)."""
    from repro.experiments.runner import replay_flow_trace
    from repro.telemetry import JsonlTraceSink, Telemetry
    from repro.topology.fabrics import three_tier_clos
    from repro.workloads import generate_flow_trace, make_distribution

    topo = three_tier_clos(
        pods=SCENARIO["pods"],
        racks_per_pod=SCENARIO["racks_per_pod"],
        hosts_per_rack=SCENARIO["hosts_per_rack"],
    )
    trace = generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution(SCENARIO["workload"]),
        load=SCENARIO["load"],
        edge_capacity=1e9,
        num_arrivals=SCENARIO["num_arrivals"],
        seed=SCENARIO["seed"],
    )
    buf = io.StringIO()
    telemetry = Telemetry(trace=JsonlTraceSink(buf))
    run = replay_flow_trace(
        trace,
        topo,
        network_policy=policy,
        placement=SCENARIO["placement"],
        seed=SCENARIO["seed"],
        alloc_backend=backend,
        telemetry=telemetry,
    )
    telemetry.close()
    records_text = "".join(
        json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n"
        for record in run.records
    )
    return records_text, buf.getvalue()


NEAT_LEGS = ("neat", "neat-faults")

#: The faulted NEAT leg's plan: a prediction loss window spanning the
#: middle third of the arrivals, and one host failing inside it.
FAULT_PLAN = dict(
    seed=5,
    events=[
        {"kind": "message_loss", "start": 0.005, "until": 0.015, "p": 0.25,
         "kinds": ["prediction"]},
        {"kind": "host_down", "time": 0.01, "host": "h007"},
    ],
)

#: The pinned serving session: a tenth of a simulated second on the same
#: 20-host Clos with eight sampled candidates per request, enough for a
#: handful of full micro-batches.
SERVE_SCENARIO = dict(
    pods=2,
    racks_per_pod=2,
    hosts_per_rack=5,
    workload="websearch",
    duration=0.1,
    seed=13,
    arrivals={"kind": "poisson", "load": 0.5},
    max_candidates=8,
)


def _bus_counters(bus) -> str:
    return json.dumps(
        {
            "messages_sent": bus.messages_sent,
            "calls": bus.calls,
            "messages_dropped": bus.messages_dropped,
            "estimated_control_latency": bus.estimated_control_latency,
        },
        sort_keys=True,
    ) + "\n"


def generate_neat(leg: str, backend: str = "python"):
    """Run the pinned scenario under NEAT; returns
    (records_text, decisions_text, bus_text)."""
    from repro.experiments import runner
    from repro.faults import FaultPlan
    from repro.service.server import decisions_as_jsonl
    from repro.topology.fabrics import three_tier_clos
    from repro.workloads import generate_flow_trace, make_distribution

    topo = three_tier_clos(
        pods=SCENARIO["pods"],
        racks_per_pod=SCENARIO["racks_per_pod"],
        hosts_per_rack=SCENARIO["hosts_per_rack"],
    )
    trace = generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution(SCENARIO["workload"]),
        load=SCENARIO["load"],
        edge_capacity=1e9,
        num_arrivals=SCENARIO["num_arrivals"],
        seed=SCENARIO["seed"],
    )
    faults = FaultPlan.from_dict(FAULT_PLAN) if leg == "neat-faults" else None
    # The replay builds its policy internally; capture it for the daemon's
    # decision list and the bus counters.
    policies = []
    make_policy = runner.make_placement_policy

    def capture(*args, **kwargs):
        policy = make_policy(*args, **kwargs)
        policies.append(policy)
        return policy

    runner.make_placement_policy = capture
    try:
        run = runner.replay_flow_trace(
            trace,
            topo,
            network_policy="fair",
            placement="neat",
            seed=SCENARIO["seed"],
            alloc_backend=backend,
            faults=faults,
        )
    finally:
        runner.make_placement_policy = make_policy
    (policy,) = policies
    records_text = "".join(
        json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n"
        for record in run.records
    )
    return (
        records_text,
        decisions_as_jsonl(policy.daemon),
        _bus_counters(policy.bus),
    )


def generate_serve():
    """Run the pinned serving session; returns (decisions_text, bus_text)."""
    from repro.service import PlacementServer, ServiceScenario
    from repro.service.server import decisions_as_jsonl

    server = PlacementServer(ServiceScenario(**SERVE_SCENARIO))
    server.run()
    daemon = server.last_daemon
    return decisions_as_jsonl(daemon), _bus_counters(daemon._bus)


def _write(name: str, text: str) -> None:
    (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
    print(f"wrote {name}")


def regenerate() -> None:
    for policy in POLICIES:
        records_text, trace_text = generate(policy)
        _write(f"{policy}.records.jsonl", records_text)
        _write(f"{policy}.trace.jsonl", trace_text)
    for leg in NEAT_LEGS:
        records_text, decisions_text, bus_text = generate_neat(leg)
        _write(f"{leg}.records.jsonl", records_text)
        _write(f"{leg}.decisions.jsonl", decisions_text)
        _write(f"{leg}.bus.json", bus_text)
    decisions_text, bus_text = generate_serve()
    _write("serve.decisions.jsonl", decisions_text)
    _write("serve.bus.json", bus_text)


if __name__ == "__main__":
    regenerate()
