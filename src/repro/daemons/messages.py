"""Control-plane message types exchanged between NEAT daemons (§3, Fig 4).

The task placement daemon sends prediction requests to per-node network
daemons; replies carry the predicted completion time *and* the node's
current state (smallest residual flow size), which the placement daemon
caches for future preferred-host filtering.

Flow placement sends its requests in bulk: :meth:`MessageBus.call_many`
accounts one exchange per queried host (counts, faults, trace events)
without building the request and reply objects, and the placement daemon
reads the reached daemons directly.  The request classes still name
those messages, and :meth:`NetworkDaemon.handle` still answers
prediction requests sent one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.base import NodeId


@dataclass(frozen=True)
class FlowPredictionRequest:
    """Ask a node daemon: what FCT would a new flow of ``size`` see?

    ``direction`` is ``"in"`` for a flow terminating at the node (the
    normal task placement case — the task reads its input) or ``"out"``
    for a flow sourced at the node (used to account for the data node's
    uplink).
    """

    size: float
    direction: str = "in"


@dataclass(frozen=True)
class CoflowPredictionRequest:
    """Ask a node daemon: what CCT would a new coflow see on this node?

    Attributes:
        total_size: s_{c0} — the coflow's total bits.
        size_on_link: s_{c0,l} — the bits that would cross this node's
            edge link (``direction`` selects uplink/downlink).
    """

    total_size: float
    size_on_link: float
    direction: str = "in"


@dataclass(frozen=True)
class PredictionReply:
    """A network daemon's answer.

    Attributes:
        host: the replying node.
        predicted_time: predicted FCT (or CCT) in seconds on the node's
            edge link.
        node_state: smallest residual flow size on the node, ``inf`` when
            idle (§5.1.1's node state).
    """

    host: NodeId
    predicted_time: float
    node_state: float


@dataclass(frozen=True)
class NodeStateUpdate:
    """Push-style node-state refresh (placement daemon cache maintenance)."""

    host: NodeId
    node_state: float


@dataclass(frozen=True)
class LinkStateRequest:
    """Ask a node daemon for its raw edge-link state.

    Unlike :class:`FlowPredictionRequest` the answer is *size-independent*:
    one reply lets the controller score any number of hypothetical flows
    locally.  The streaming placement service sends one per distinct
    candidate host per micro-batch (§5.2's state shipping, batched).  The
    exchange is accounted by :meth:`MessageBus.call_many` and the reply
    read straight from the daemon (:meth:`NetworkDaemon.read_edge`).
    """

    direction: str = "in"


def message_kind(payload) -> str:
    """Classify a bus payload for fault-plan loss targeting.

    ``"node_state"`` covers push-style state refreshes; everything else on
    the bus is part of a prediction exchange.
    """
    if isinstance(payload, NodeStateUpdate):
        return "node_state"
    return "prediction"
