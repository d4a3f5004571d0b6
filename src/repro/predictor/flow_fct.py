"""FCT predictors for flow-level scheduling (§4.1 of the paper).

Each predictor answers, for a hypothetical new flow of size ``s0`` placed on
a link with state ``F_l``:

* ``fct(s0, link)`` — FCT(f0, l), equations (3), (4), (7);
* ``delta(s0, s_f, link)`` — ΔFCT(f, l), the increase the new flow causes
  to an existing flow of residual size ``s_f``, equations (5), (8);
* ``delta_sum(s0, link)`` — Σ_{f∈F_l} ΔFCT(f, l);
* ``link_objective(s0, link)`` — FCT + ΣΔ, the per-link term of the
  alternative objective (2).

Path-level helpers take the bottleneck (max) across links, as the paper
does.  All predictors assume work-conserving scheduling and, per §4, ignore
future arrivals.

``fct_batch(s0, links)`` scores one new flow against many links in one
call; it is what the placement scoring core runs once per decision, and
for the built-in predictors ``fct`` is a batch of one.  Every reduction
is an explicit left-to-right ``acc += x`` loop in list order: float
``sum()`` is compensated on CPython >= 3.12, so it would make scores
depend on the interpreter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from repro.predictor.state import LinkState

#: One link as the batch scorer sees it: (capacity B_l, residual sizes F_l).
LinkView = Tuple[float, Sequence[float]]


class FlowFCTPredictor(ABC):
    """Completion-time model of one network scheduling policy."""

    #: Policy name this predictor models, e.g. ``"fair"``.
    name: str = "abstract"

    @abstractmethod
    def fct(self, new_size: float, link: LinkState) -> float:
        """Predicted FCT of a new flow of ``new_size`` bits on ``link``."""

    def fct_batch(
        self, new_size: float, links: Sequence[LinkView]
    ) -> List[float]:
        """:meth:`fct` of one new flow on each of ``links``, in order.

        The default asks :meth:`fct` once per link, so a custom predictor
        that only implements :meth:`fct` still works in the batch path.
        """
        return [
            self.fct(new_size, LinkState("", capacity, tuple(sizes)))
            for capacity, sizes in links
        ]

    @abstractmethod
    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        """Predicted FCT increase of one existing flow due to the new one."""

    def delta_sum(self, new_size: float, link: LinkState) -> float:
        """Σ over existing flows of :meth:`delta`."""
        acc = 0.0
        for s in link.flow_sizes:
            acc += self.delta(new_size, s, link)
        return acc

    def link_objective(self, new_size: float, link: LinkState) -> float:
        """The per-link term of objective (2): FCT(f0,l) + Σ ΔFCT(f,l)."""
        return self.fct(new_size, link) + self.delta_sum(new_size, link)

    # ------------------------------------------------------------------
    # Path (bottleneck) aggregation
    # ------------------------------------------------------------------
    def predict_path(self, new_size: float, links: Sequence[LinkState]) -> float:
        """max_l FCT(f0, l) — the new flow's own predicted completion."""
        if not links:
            return 0.0  # host-local transfer
        return max(self.fct(new_size, link) for link in links)

    def objective(self, new_size: float, links: Sequence[LinkState]) -> float:
        """Objective (2) for a candidate path: max_l (FCT + ΣΔ)."""
        if not links:
            return 0.0
        return max(self.link_objective(new_size, link) for link in links)


class _ServedBitsPredictor(FlowFCTPredictor):
    """Equations (3), (4) and (7) share one shape: the new flow finishes
    once it and the bits the link serves before it are through,
    FCT = (s0 + served) / B_l.  Subclasses give the served bits."""

    def fct(self, new_size: float, link: LinkState) -> float:
        return self.fct_batch(new_size, ((link.capacity, link.flow_sizes),))[0]

    def fct_batch(
        self, new_size: float, links: Sequence[LinkView]
    ) -> List[float]:
        served = self.served_bits
        return [
            (new_size + served(new_size, sizes)) / capacity
            for capacity, sizes in links
        ]

    @abstractmethod
    def served_bits(self, new_size: float, sizes: Sequence[float]) -> float:
        """Bits of the cross-flows ``sizes`` served before the new flow
        of ``new_size`` bits completes, summed left to right."""


class FCFSPredictor(_ServedBitsPredictor):
    """Equation (3): the new flow waits for every queued byte."""

    name = "fcfs"

    def served_bits(self, new_size: float, sizes: Sequence[float]) -> float:
        served = 0.0
        for s in sizes:
            served += s
        return served

    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        # The new flow is served last; existing flows are unaffected.
        return 0.0


class FairPredictor(_ServedBitsPredictor):
    """Equations (4)-(5): fair sharing (also exact for LAS, §4.1.2 remark).

    By the time f0 finishes, each existing flow has transmitted
    ``min(s_f, s0)`` bits; smaller flows finish inside f0's lifetime and
    larger ones progress alongside it.
    """

    name = "fair"

    def served_bits(self, new_size: float, sizes: Sequence[float]) -> float:
        served = 0.0
        for s in sizes:
            served += s if s < new_size else new_size  # min(s_f, s0)
        return served

    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        return min(existing_size, new_size) / link.capacity


class LASPredictor(FairPredictor):
    """LAS with preemption is equivalent to fair sharing (§4.1.2 remark)."""

    name = "las"


class SRPTPredictor(_ServedBitsPredictor):
    """Equations (7)-(8): only smaller-or-equal flows are served first."""

    name = "srpt"

    def served_bits(self, new_size: float, sizes: Sequence[float]) -> float:
        served = 0.0
        for s in sizes:
            if s <= new_size:
                served += s
        return served

    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        if existing_size > new_size:
            return new_size / link.capacity
        return 0.0
