"""NEAT's global task placement daemon (§3, §5, Algorithm 1).

Places each task in two steps:

1. **Preferred hosts** — using *cached* node states (smallest residual flow
   size per node), keep only candidates that are idle or whose flows are
   all no smaller than the new task's flow; fall back to every candidate
   when the filter empties (Algorithm 1 lines 10-12).  An optional
   locality filter additionally restricts to hosts near the input data
   (§5.2 "Reduced Communication Overhead").
2. **Best host** — query the network daemons of the surviving candidates
   for the predicted completion time on their edge link and pick the
   minimum (the single-switch abstraction: only edge links bottleneck).

Every reply refreshes the node-state cache; placements update it
optimistically so back-to-back decisions see their own effects.

Flow placement (:meth:`TaskPlacementDaemon.place_flow` and the batched
:meth:`TaskPlacementDaemon.place_batch`) runs through one scoring core,
:meth:`TaskPlacementDaemon.score_candidates`: one bus accounting call for
all queried hosts, one read per reached daemon, and one predictor call
that scores every candidate.  Control messages are modelled as counts;
no request or reply object is built per candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.daemons.bus import MessageBus

if TYPE_CHECKING:  # pragma: no cover - avoids a daemons<->telemetry cycle
    from repro.telemetry import Telemetry
from repro.daemons.messages import (
    CoflowPredictionRequest,
    FlowPredictionRequest,
    LinkStateRequest,
    NodeStateUpdate,
    PredictionReply,
)
from repro.errors import DaemonUnreachable, MessageDropped, PlacementError
from repro.placement.base import PlacementRequest, pick_min
from repro.predictor.compressed import CompressedLinkState
from repro.predictor.flow_fct import FlowFCTPredictor, LinkView
from repro.topology.base import NodeId, Topology

#: One scored host's edge as the scoring core takes it: a score its daemon
#: already computed (compressed state, eq. 18), or the exact link view and
#: the FCT model to score it with.
Edge = Union[float, Tuple[FlowFCTPredictor, LinkView]]


@dataclass
class PlacementDecision:
    """Outcome of one placement, with the evidence used to make it.

    ``candidate_scores`` pairs each scored host with its predicted
    completion time (the data behind ``host`` / ``predicted_time``);
    ``kind`` distinguishes flow, coflow-constituent, and reducer
    decisions; ``tag`` carries the task label for joining realized
    completion times in the telemetry layer.
    """

    host: NodeId
    predicted_time: float
    preferred_hosts: Tuple[NodeId, ...]
    queried_hosts: Tuple[NodeId, ...]
    used_fallback: bool
    kind: str = "flow"
    tag: str = ""
    size: float = 0.0
    candidate_scores: Tuple[Tuple[NodeId, float], ...] = field(default=())
    #: True when the daemon skipped predictions entirely and placed by
    #: least-loaded cached state (stale snapshots or unreachable daemons).
    used_stale_fallback: bool = False


class TaskPlacementDaemon:
    """The global controller of Figure 4."""

    def __init__(
        self,
        topology: Topology,
        bus: MessageBus,
        *,
        rng: Optional[random.Random] = None,
        use_node_state: bool = True,
        locality_hops: Optional[int] = None,
        include_source_link: bool = False,
        state_ttl: Optional[float] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        """Args:
            topology: for locality distances.
            bus: control-plane transport to the network daemons.
            rng: tie-break randomness (host-id order if omitted).
            use_node_state: disable to get the minFCT strawman of Fig. 9.
            locality_hops: when set, only consider candidates within this
                hop distance of the input data if any exist (§5.2).
            state_ttl: maximum tolerated node-state snapshot age in
                seconds.  When the cached state of *every* known candidate
                is older than this, the daemon stops trusting predictions
                and falls back to least-loaded placement over its cache —
                the paper's graceful degradation under stale periodic
                updates.  ``None`` (the default) disables age tracking
                entirely.
            include_source_link: also query the data node's daemon for its
                uplink and fold it into the score.  Off by default — the
                paper's daemons predict on the candidate's edge link only,
                and the single-link serial model overestimates badly on a
                shared source uplink (flows there are usually bottlenecked
                at their own destinations and the newcomer backfills).
            telemetry: mirrors every decision (with its full candidate
                evidence) into the placement-decision log when enabled.
        """
        self._topology = topology
        self._bus = bus
        self._rng = rng
        self._use_node_state = use_node_state
        self._locality_hops = locality_hops
        self._include_source_link = include_source_link
        self._node_state_cache: Dict[NodeId, float] = {}
        self._decisions: List[PlacementDecision] = []
        self._state_ttl = state_ttl
        # Timestamp of the last *authoritative* state observation per host
        # (prediction replies and pushed updates; optimistic `_note_placed`
        # writes deliberately do not refresh it, or a fallback placement
        # would launder its own guess into "fresh" state).
        self._state_seen_at: Dict[NodeId, float] = {}
        self._fault_model = None
        self._stale_fallbacks = 0
        self._query_failures = 0
        if telemetry is None:
            from repro.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self._decision_log = telemetry.decisions
        # Causal tracer (None when disabled): joins decisions to the open
        # task trace so `repro explain` can flag stale-state placements.
        self._causal = telemetry.causal if telemetry.causal.active else None
        reg = telemetry.registry  # hands out no-op twins when disabled
        self._ctr_stale = reg.counter("placement.stale_fallbacks")
        self._ctr_query_fail = reg.counter("placement.query_failures")
        self._timer_predict = reg.timer("predictor")
        self._prof = telemetry.profiler
        self._engine = bus.engine

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> Sequence[PlacementDecision]:
        return tuple(self._decisions)

    def cached_node_state(self, host: NodeId) -> float:
        """Last known node state (inf when never reported = assumed idle)."""
        return self._node_state_cache.get(host, float("inf"))

    @property
    def stale_fallbacks(self) -> int:
        """Placements decided by the stale-state (least-loaded) fallback."""
        return self._stale_fallbacks

    @property
    def query_failures(self) -> int:
        """Prediction queries lost to down hosts or loss windows."""
        return self._query_failures

    def set_fault_model(self, model) -> None:
        """Install a staleness bias source (the fault injector)."""
        self._fault_model = model

    def state_age(self, host: NodeId) -> float:
        """Age of the host's cached snapshot, inf when never observed.

        A :class:`~repro.faults.plan.StateStaleness` window adds its lag on
        top, modelling dissemination that is running but behind.
        """
        seen = self._state_seen_at.get(host)
        if seen is None:
            return float("inf")
        age = self._engine.now - seen
        if self._fault_model is not None:
            age += self._fault_model.staleness_lag()
        return age

    # ------------------------------------------------------------------
    # Degraded operation (fault injection)
    # ------------------------------------------------------------------
    def _state_is_fresh(self, host: NodeId) -> bool:
        return self.state_age(host) <= self._state_ttl

    def _stale_candidates(self, candidates: Sequence[NodeId]) -> bool:
        """True when the TTL policy says predictions can't be trusted:
        we *have* state for some candidates but none of it is fresh.

        A cold cache (no candidate ever observed) takes the normal path —
        the daemon has nothing stale to distrust and the first queries
        seed the cache.
        """
        if self._state_ttl is None:
            return False
        known = [h for h in candidates if h in self._state_seen_at]
        if not known:
            return False
        return not any(self._state_is_fresh(h) for h in known)

    def _degraded_place(
        self,
        size: float,
        candidates: Sequence[NodeId],
        *,
        kind: str,
        tag: str,
        data_node: NodeId,
        all_candidates: Sequence[NodeId],
    ) -> NodeId:
        """Least-loaded placement over cached state, no daemon queries.

        The cached node state is the smallest residual size on the host
        (inf = believed idle), so maximising it picks the least-loaded
        host; ``pick_min`` over the negated state keeps the shared
        deterministic tie-break.
        """
        hosts = list(candidates)
        scores = [-self.cached_node_state(h) for h in hosts]
        host = pick_min(hosts, scores, self._rng)
        self._stale_fallbacks += 1
        self._ctr_stale.inc()
        self._note_placed(host, size)
        self._record_decision(
            PlacementDecision(
                host=host,
                predicted_time=-1.0,  # sentinel: no prediction was made
                preferred_hosts=tuple(hosts),
                queried_hosts=(),
                used_fallback=True,
                kind=kind,
                tag=tag,
                size=size,
                candidate_scores=tuple(zip(hosts, scores)),
                used_stale_fallback=True,
            ),
            data_node=data_node,
            candidates=all_candidates,
        )
        return host

    def _note_query_failures(self, count: int) -> None:
        self._query_failures += count
        self._ctr_query_fail.inc(count)

    def _try_call(self, host: NodeId, request):
        """A bus call that degrades instead of propagating control-plane
        faults: returns None when the host is down or the message lost."""
        try:
            return self._bus.call(host, request)
        except (DaemonUnreachable, MessageDropped):
            self._note_query_failures(1)
            return None

    def _reach(self, hosts: Sequence[NodeId], request_type: type) -> list:
        """Account one ``request_type`` exchange per host on the bus;
        returns the reached daemons (None where the query failed)."""
        daemons = self._bus.call_many(hosts, request_type)
        lost = daemons.count(None)
        if lost:
            self._note_query_failures(lost)
        return daemons

    # ------------------------------------------------------------------
    # Candidate filtering (Algorithm 1, lines 3-12)
    # ------------------------------------------------------------------
    def _locality_filter(
        self, data_node: NodeId, candidates: Sequence[NodeId]
    ) -> List[NodeId]:
        if self._locality_hops is None:
            return list(candidates)
        near = [
            host
            for host in candidates
            if self._topology.hop_distance(data_node, host)
            <= self._locality_hops
        ]
        return near if near else list(candidates)

    def _preferred_hosts(
        self,
        size: float,
        candidates: Sequence[NodeId],
        live_state: Optional[Mapping[NodeId, float]] = None,
    ) -> Tuple[List[NodeId], bool]:
        """Apply the node-state filter; returns (hosts, used_fallback).

        ``live_state`` (place_batch's in-batch view) overrides the cached
        node state of the hosts it covers.
        """
        if not self._use_node_state:
            return list(candidates), False
        cache = self._node_state_cache
        inf = float("inf")
        if live_state is None:
            preferred = [h for h in candidates if cache.get(h, inf) >= size]
        else:
            preferred = [
                h
                for h in candidates
                if live_state.get(h, cache.get(h, inf)) >= size
            ]
        if preferred:
            return preferred, False
        return list(candidates), True

    # ------------------------------------------------------------------
    # Flow placement (Algorithm 1)
    # ------------------------------------------------------------------
    def place_flow(self, request: PlacementRequest) -> NodeId:
        """Choose the host minimising the predicted FCT of the task's flow."""
        size, data_node = request.size, request.data_node
        return self._place(
            size,
            data_node,
            request.candidates,
            lambda preferred: self._query_edges(size, data_node, preferred),
            tag=request.tag,
        )[0]

    def _query_edges(
        self, size: float, data_node: NodeId, preferred: Sequence[NodeId]
    ) -> Tuple[Dict[NodeId, Edge], Optional[Edge]]:
        """Query the preferred hosts' daemons, and the data node's for its
        uplink when ``include_source_link`` is set: one bus accounting
        call, then one read per reached daemon.  Returns
        ``(edges, source)``."""
        targets = [h for h in preferred if h != data_node]
        with_source = self._include_source_link and bool(targets)
        daemons = self._reach(
            [data_node, *targets] if with_source else targets,
            FlowPredictionRequest,
        )
        source = None
        if with_source:
            source = self._read_edges((data_node,), daemons[:1], "out", size)
            source = source.get(data_node)
            daemons = daemons[1:]
        return self._read_edges(targets, daemons, "in", size), source

    def _read_edges(
        self,
        hosts: Sequence[NodeId],
        daemons: Sequence,
        direction: str,
        size: Optional[float] = None,
        snapshot_predictor: Optional[FlowFCTPredictor] = None,
    ) -> Dict[NodeId, Edge]:
        """The reached daemons' answers to a flow prediction request for
        ``size`` bits, unscored unless a daemon keeps compressed state
        (§5.2); every answer refreshes the node-state cache.  With
        ``snapshot_predictor`` (place_batch) the answers are exact link
        snapshots, sorted ascending, to be scored by that predictor."""
        cache = self._node_state_cache
        seen = self._state_seen_at if self._state_ttl is not None else None
        now = self._engine.now
        exact = snapshot_predictor is not None
        edges: Dict[NodeId, Edge] = {}
        for host, daemon in zip(hosts, daemons):
            if daemon is None:
                continue
            edge, node_state = daemon.read_edge(direction, exact=exact)
            cache[host] = node_state
            if seen is not None:
                seen[host] = now
            if exact:
                edge[1].sort()
                edges[host] = (snapshot_predictor, edge)
            elif isinstance(edge, CompressedLinkState):
                edges[host] = edge.fair_fct(size)
            else:
                edges[host] = (daemon.flow_predictor, edge)
        return edges

    def _place(
        self,
        size: float,
        data_node: NodeId,
        candidates: Sequence[NodeId],
        fetch: Callable,
        *,
        tag: str,
        kind: str = "flow",
        recorded_size: Optional[float] = None,
        live_state: Optional[Mapping[NodeId, float]] = None,
    ) -> Tuple[NodeId, bool]:
        """Algorithm 1 for one task: filter, score, pick, record.

        ``fetch(preferred)`` supplies the ``(edges, source)`` to score
        against (see :meth:`score_candidates`).  ``size`` drives the
        node-state filter and the cache; the decision records
        ``recorded_size`` when given (a coflow's constituent flow).
        Returns the chosen host and whether it was scored (False when the
        degraded least-loaded fallback placed it).
        """

        def degrade(hosts: Sequence[NodeId]) -> Tuple[NodeId, bool]:
            return self._degraded_place(
                size,
                hosts,
                kind=kind,
                tag=tag,
                data_node=data_node,
                all_candidates=candidates,
            ), False

        filtered = self._locality_filter(data_node, candidates)
        if self._stale_candidates(filtered):
            return degrade(filtered)
        preferred, fallback = self._preferred_hosts(size, filtered, live_state)
        edges, source = fetch(preferred)
        scores, queried = self.score_candidates(
            size, data_node, preferred, edges, source
        )
        predicted = min(scores)
        if predicted == float("inf"):
            # Every prediction was lost: place by cached load instead.
            return degrade(preferred)
        host = pick_min(preferred, scores, self._rng)
        self._note_placed(host, size)
        self._record_decision(
            PlacementDecision(
                host=host,
                predicted_time=predicted,
                preferred_hosts=tuple(preferred),
                queried_hosts=tuple(queried),
                used_fallback=fallback,
                kind=kind,
                tag=tag,
                size=size if recorded_size is None else recorded_size,
                candidate_scores=tuple(zip(preferred, scores)),
            ),
            data_node=data_node,
            candidates=candidates,
        )
        return host, True

    def score_candidates(
        self,
        size: float,
        data_node: NodeId,
        hosts: Sequence[NodeId],
        edges: Mapping[NodeId, Edge],
        source: Optional[Edge] = None,
    ) -> Tuple[List[float], List[NodeId]]:
        """Predicted completion time of a ``size``-bit flow from
        ``data_node`` on each of ``hosts`` (Algorithm 1, lines 13-16).

        ``edges`` maps every reached host to its daemon's answer (see
        :data:`Edge`); a host missing from it was unreachable and scores
        inf, and the data node itself scores 0 (full locality, no
        transfer).  ``source`` is the data node's uplink in the same form;
        when given, every queried host scores the slower of the two links.
        All exact edges are scored in one predictor call per FCT model
        (one in practice: the network daemons share theirs).

        Returns ``(scores, queried hosts)``.
        """
        inf = float("inf")
        scores: list = []
        queried: List[NodeId] = []
        slots: List[int] = []  # where each queried host's score sits
        exact: List[int] = []  # the slots still holding a link view
        for host in hosts:
            if host == data_node:
                scores.append(0.0)  # full locality: no transfer at all
                continue
            edge = edges.get(host)
            if edge is None:
                scores.append(inf)  # the query was lost
                continue
            queried.append(host)
            slots.append(len(scores))
            if isinstance(edge, tuple):
                exact.append(len(scores))
            scores.append(edge)
        fold = source is not None and bool(queried)
        if fold:
            # Scored along with the candidates, then folded in below.
            if isinstance(source, tuple):
                exact.append(len(scores))
            scores.append(source)
        if exact:
            # One predictor.fct span and one predictor timer record.
            with self._prof.span("predictor.fct"), self._timer_predict.time():
                predicted = _fct_batches(size, [scores[i] for i in exact])
            for i, value in zip(exact, predicted):
                scores[i] = value
        if fold:
            uplink = scores.pop()
            for i in slots:
                scores[i] = max(scores[i], uplink)
        return scores, queried

    # ------------------------------------------------------------------
    # Batched flow placement (streaming service)
    # ------------------------------------------------------------------
    def place_batch(
        self,
        requests: Sequence[PlacementRequest],
        predictor: FlowFCTPredictor,
    ) -> List[NodeId]:
        """Place a micro-batch of flows off one fabric-state read per host.

        Instead of one size-specific prediction query per (request,
        candidate) pair — ``place_flow``'s cost — this fetches each
        distinct candidate's raw edge-link state *once* (a
        :class:`LinkStateRequest` exchange) and scores every request in
        the batch locally with ``predictor`` (the same FCT model the
        network daemons run), through the same core as ``place_flow``.
        Within the batch, snapshots are updated optimistically after each
        decision so later requests see earlier placements.  Bus traffic
        is O(distinct hosts) per batch instead of O(requests x
        candidates).  With ``include_source_link`` the data nodes'
        uplinks are fetched and folded in the same way.

        Returns the chosen host per request, in order.
        """
        # One state read per distinct candidate host, in sorted order so
        # the query sequence (and any fault-plan coin flips it consumes)
        # is independent of request ordering quirks.
        wanted: set = set()
        origins: set = set()
        for request in requests:
            for host in self._locality_filter(
                request.data_node, request.candidates
            ):
                if host != request.data_node:
                    wanted.add(host)
                    origins.add(request.data_node)

        def snapshot(hosts, direction):
            hosts = sorted(hosts)
            daemons = self._reach(hosts, LinkStateRequest)
            return self._read_edges(
                hosts, daemons, direction, snapshot_predictor=predictor
            )

        edges = snapshot(wanted, "in")
        live_state = {host: self._node_state_cache[host] for host in edges}
        sources = snapshot(origins, "out") if self._include_source_link else {}

        placements: List[NodeId] = []
        for request in requests:
            source = sources.get(request.data_node)
            host, scored = self._place(
                request.size,
                request.data_node,
                request.candidates,
                lambda preferred: (edges, source),
                tag=request.tag,
                live_state=live_state,
            )
            if scored:
                # Optimistic within-batch update: the chosen host's
                # snapshot now carries this flow, so the rest of the
                # batch doesn't dog-pile onto one idle host.
                if host in edges:
                    _, (_, sizes) = edges[host]
                    sizes.append(request.size)
                    live_state[host] = min(live_state[host], request.size)
                if request.data_node in sources and host != request.data_node:
                    _, (_, sizes) = sources[request.data_node]
                    sizes.append(request.size)
            placements.append(host)
        return placements

    # ------------------------------------------------------------------
    # Coflow placement (§5.1.2)
    # ------------------------------------------------------------------
    def place_coflow_flow(
        self,
        flow_size: float,
        coflow_total: float,
        data_node: NodeId,
        candidates: Sequence[NodeId],
        *,
        tag: str = "",
    ) -> NodeId:
        """Place one constituent flow of a coflow (sequential heuristic).

        Like :meth:`place_flow` but scored with the *CCT* predictor: the
        candidate link's completion time for a coflow of ``coflow_total``
        bytes placing ``flow_size`` of them on that link.  This is the
        paper's "prediction models corresponding to each evaluated coflow
        scheduling scheme" (§6.1).
        """
        if not candidates:
            raise PlacementError("place_coflow_flow needs candidates")

        def query(preferred):
            edges: Dict[NodeId, float] = {}
            for host in preferred:
                if host == data_node:
                    continue
                reply = self._try_call(
                    host,
                    CoflowPredictionRequest(
                        total_size=coflow_total,
                        size_on_link=flow_size,
                        direction="in",
                    ),
                )
                if reply is not None:
                    self._remember(reply)
                    edges[host] = reply.predicted_time
            return edges, None

        # Node state is at coflow granularity here: a host is preferred
        # when every coflow it carries is at least as large as this one.
        return self._place(
            coflow_total,
            data_node,
            candidates,
            query,
            tag=tag,
            kind="coflow",
            recorded_size=flow_size,
        )[0]

    def place_reducer(
        self,
        sources: Sequence[Tuple[NodeId, float]],
        candidates: Sequence[NodeId],
        *,
        tag: str = "",
    ) -> NodeId:
        """Choose one destination for a many-to-one coflow (shuffle).

        The candidate's downlink would carry every byte not already local
        to it; each source uplink carries its own share.  The predicted CCT
        is the bottleneck over those links; we pick the candidate with the
        smallest value.
        """
        if not sources:
            raise PlacementError("place_reducer needs at least one source")
        if not candidates:
            raise PlacementError("place_reducer needs at least one candidate")
        total = sum(size for _node, size in sources)

        # Source uplink contributions are candidate-independent except for
        # the bytes that become local; query once per distinct source.
        uplink_times: Dict[NodeId, float] = {}
        for node, size in sources:
            if node not in uplink_times:
                reply = self._try_call(
                    node,
                    CoflowPredictionRequest(
                        total_size=total,
                        size_on_link=sum(
                            s for n, s in sources if n == node
                        ),
                        direction="out",
                    ),
                )
                if reply is None:
                    continue  # unreachable source: score without its uplink
                self._remember(reply)
                uplink_times[node] = reply.predicted_time

        scores: List[float] = []
        for host in candidates:
            incoming = sum(size for node, size in sources if node != host)
            if incoming <= 0:
                scores.append(0.0)
                continue
            reply = self._try_call(
                host,
                CoflowPredictionRequest(
                    total_size=total, size_on_link=incoming, direction="in"
                ),
            )
            if reply is None:
                scores.append(float("inf"))
                continue
            self._remember(reply)
            bottleneck = max(
                (
                    t
                    for node, t in uplink_times.items()
                    if node != host
                ),
                default=0.0,
            )
            scores.append(max(reply.predicted_time, bottleneck))
        if not any(score < float("inf") for score in scores):
            return self._degraded_place(
                total,
                list(candidates),
                kind="reducer",
                tag=tag,
                data_node=max(sources, key=lambda s: s[1])[0],
                all_candidates=candidates,
            )
        host = pick_min(list(candidates), scores, self._rng)
        self._note_placed(host, total)
        self._record_decision(
            PlacementDecision(
                host=host,
                predicted_time=min(scores),
                preferred_hosts=tuple(candidates),
                queried_hosts=tuple(candidates),
                used_fallback=False,
                kind="reducer",
                tag=tag,
                size=total,
                candidate_scores=tuple(zip(candidates, scores)),
            ),
            data_node=max(sources, key=lambda s: s[1])[0],
            candidates=candidates,
        )
        return host

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_decision(
        self,
        decision: PlacementDecision,
        *,
        data_node: NodeId,
        candidates: Sequence[NodeId],
    ) -> None:
        """Keep the decision and mirror it into the telemetry log."""
        self._decisions.append(decision)
        if self._causal is not None:
            self._causal.on_decision(
                self._engine.now,
                chosen=decision.host,
                predicted=decision.predicted_time,
                fallback=decision.used_fallback,
                stale=decision.used_stale_fallback,
            )
        if self._decision_log.active:
            self._decision_log.record(
                time=self._engine.now,
                kind=decision.kind,
                tag=decision.tag,
                size=decision.size,
                data_node=data_node,
                candidates=candidates,
                preferred=decision.preferred_hosts,
                used_fallback=decision.used_fallback,
                scores=decision.candidate_scores,
                score_kind="predicted_time",
                chosen=decision.host,
                predicted_time=decision.predicted_time,
            )

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _remember(self, reply: PredictionReply) -> None:
        self._node_state_cache[reply.host] = reply.node_state
        if self._state_ttl is not None:
            self._state_seen_at[reply.host] = self._engine.now

    def _note_placed(self, host: NodeId, size: float) -> None:
        """Optimistic cache update: the node now carries a flow of ``size``."""
        current = self._node_state_cache.get(host, float("inf"))
        self._node_state_cache[host] = min(current, size)

    def note_task_finished(self, host: NodeId) -> None:
        """Invalidate the cached state when a task on ``host`` completes
        (the next reply from the daemon refreshes it)."""
        self._node_state_cache.pop(host, None)
        self._state_seen_at.pop(host, None)

    def handle_node_state_update(self, update: "NodeStateUpdate") -> None:
        """Accept a push-style node-state refresh from a network daemon.

        The pull path (prediction replies) keeps the cache fresh for hosts
        the daemon talks to; daemons may additionally push updates when
        their state changes materially (e.g. the last flow finished),
        which this endpoint applies.
        """
        self._node_state_cache[update.host] = update.node_state
        if self._state_ttl is not None:
            self._state_seen_at[update.host] = self._engine.now


def _fct_batches(
    size: float, pending: Sequence[Tuple[FlowFCTPredictor, LinkView]]
) -> List[float]:
    """``fct_batch`` over (predictor, link view) pairs, one call per
    distinct predictor, results in input order."""
    first = pending[0][0]
    if all(predictor is first for predictor, _ in pending):
        return first.fct_batch(size, [view for _, view in pending])
    out = [0.0] * len(pending)
    for predictor in {id(p): p for p, _ in pending}.values():
        members = [i for i, (p, _) in enumerate(pending) if p is predictor]
        views = [pending[i][1] for i in members]
        for i, value in zip(members, predictor.fct_batch(size, views)):
            out[i] = value
    return out
