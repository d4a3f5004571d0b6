"""Instrumentation for the benchmark: decision timing and per-layer spans.

Everything here wraps the program's public entry points from outside;
nothing under ``src/`` is edited.  Two levels exist:

* :class:`UnitProbe` is armed on every run, traced or not.  It records
  every fabric and placement policy built (for output checks) and, in
  untraced runs, the host time of each decision: from the start of
  ``PlacementPolicy.place`` to the return of the ``NetworkFabric.submit``
  that follows it.  That is what ``decision_ms_*`` reports for the
  replay workloads, and it matches what the serving loop's own
  ``service.decision_latency_seconds`` covers (placement plus submit).
  It adds two Python calls per task and nothing per simulated event.
* :class:`LayerTracer` is armed only for the traced run.  It wraps one
  public entry point per layer in a span of a :class:`LayerProfiler` and
  passes that profiler to the program as its telemetry profiler, so the
  two private fabric stages the program already spans
  (``fabric.expand_component`` and ``fabric.splice``) land in the same
  tree.  Self time is a span's time minus its child spans.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import repro.experiments.runner as runner_module
from repro.daemons.bus import MessageBus
from repro.daemons.network_daemon import NetworkDaemon
from repro.daemons.placement_daemon import TaskPlacementDaemon
from repro.network.fabric import NetworkFabric
from repro.predictor import flow_fct
from repro.service.admission import AdmissionQueue
from repro.sim.engine import Engine
from repro.telemetry.profiler import NULL_PROFILER, SpanProfiler
from repro.telemetry.slo import SLOEngine
from repro.telemetry.timeseries import TimeseriesStore

_MISSING = object()


class Patches:
    """Attribute replacements undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, previous))

    def undo(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


class UnitProbe:
    """Collects the fabrics and policies one unit of work builds, and the
    host time of every placement decision."""

    def __init__(self, tracer: Optional["LayerTracer"] = None) -> None:
        self.tracer = tracer
        self.fabrics: List[NetworkFabric] = []
        self.policies: list = []
        self.decision_s: List[float] = []
        self._placed_at: Optional[float] = None
        self._patches = Patches()

    def __enter__(self) -> "UnitProbe":
        probe = self

        def wrap_init(original):
            def __init__(fabric, *args, **kwargs):
                original(fabric, *args, **kwargs)
                probe.fabrics.append(fabric)
                if probe.tracer is not None:
                    probe.tracer.wrap_allocator(fabric.allocator)

            return __init__

        def wrap_factory(original):
            def make_placement_policy(*args, **kwargs):
                policy = original(*args, **kwargs)
                probe.policies.append(policy)
                policy.place = probe._timed_place(policy.place)
                return policy

            return make_placement_policy

        def wrap_submit(original):
            clock = time.perf_counter

            def submit(fabric, *args, **kwargs):
                flow = original(fabric, *args, **kwargs)
                if probe._placed_at is not None:
                    probe.decision_s.append(clock() - probe._placed_at)
                    probe._placed_at = None
                return flow

            return submit

        self._patches.wrap(NetworkFabric, "__init__", wrap_init)
        self._patches.wrap(runner_module, "make_placement_policy", wrap_factory)
        if self.tracer is None:
            self._patches.wrap(NetworkFabric, "submit", wrap_submit)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _timed_place(self, place):
        tracer = self.tracer
        if tracer is not None:
            return tracer.traced_place(place)
        probe = self
        clock = time.perf_counter

        def timed(request):
            probe._placed_at = clock()
            return place(request)

        return timed


class LayerProfiler(SpanProfiler):
    """A span profiler fed by the benchmark's wrappers.

    Handed to the program as ``Telemetry.profiler``; of the program's own
    spans it keeps only the two private fabric stages, renamed into the
    benchmark's layer vocabulary, and drops the rest (engine events,
    recompute, allocator, predictor, placement), which the wrappers time
    at the public boundaries instead.
    """

    STAGES = {
        "fabric.expand_component": "network.expand",
        "fabric.splice": "network.splice",
    }

    def span(self, label: str):
        stage = self.STAGES.get(label)
        if stage is None:
            return NULL_PROFILER.span(label)
        return super().span(stage)

    def layer(self, name: str):
        """A span opened by a benchmark wrapper."""
        return super().span(name)


class LayerTracer:
    """Wraps one public entry point per layer in a :class:`LayerProfiler`
    span and counts the work passing through it."""

    def __init__(self) -> None:
        self.profiler = LayerProfiler()
        self.component_flows: List[int] = []
        self.candidates: List[int] = []
        self._patches = Patches()

    def _spanned(self, name: str, note: Optional[Callable] = None):
        layer = self.profiler.layer

        def make(original):
            if note is None:
                def wrapper(*args, **kwargs):
                    with layer(name):
                        return original(*args, **kwargs)
            else:
                def wrapper(*args, **kwargs):
                    note(*args, **kwargs)
                    with layer(name):
                        return original(*args, **kwargs)
            return wrapper

        return make

    def __enter__(self) -> "LayerTracer":
        wrap = self._patches.wrap
        wrap(Engine, "run", self._spanned("sim.run"))
        wrap(NetworkFabric, "submit", self._spanned("network.submit"))
        wrap(NetworkFabric, "flows_at_host", self._spanned("network.host_queries"))
        wrap(MessageBus, "call", self._spanned("daemons.bus"))
        wrap(NetworkDaemon, "handle", self._spanned("daemons.handle"))
        wrap(TaskPlacementDaemon, "place_batch", self._spanned("daemons.place_batch"))
        for cls in vars(flow_fct).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, flow_fct.FlowFCTPredictor)
                and "fct" in vars(cls)
            ):
                wrap(cls, "fct", self._spanned("predictor.fct"))
        wrap(AdmissionQueue, "offer", self._spanned("service.admission"))
        wrap(AdmissionQueue, "take", self._spanned("service.admission"))
        wrap(SLOEngine, "evaluate", self._spanned("telemetry.slo.evaluate"))
        wrap(TimeseriesStore, "sample", self._spanned("telemetry.rollup.sample"))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def wrap_allocator(self, allocator) -> None:
        """Span one fabric's allocator; ``len(flows)`` is the size of the
        sharing component (or of the full active set) it is asked to fill."""
        sizes = self.component_flows
        make = self._spanned(
            "network.allocate", lambda flows, *_: sizes.append(len(flows))
        )
        allocator.allocate = make(allocator.allocate)

    def traced_place(self, place):
        counts = self.candidates
        make = self._spanned(
            "placement.place",
            lambda request: counts.append(len(request.candidates)),
        )
        return make(place)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls``, ``inclusive_seconds``, ``exclusive_seconds``."""
        return self.profiler.label_totals()
