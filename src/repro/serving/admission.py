"""Adaptive admission control: AIMD on the gateway's queue depth.

PR 4's gateway admits with *static* fail-closed thresholds — a queue
high-water mark tuned by hand for one operating point.  Set it for the
provider's good days and a slow provider lets the queue fill with
requests that will only time out; set it for the bad days and capacity
is wasted on the good ones.  This module closes the loop the way TCP
does: an **AIMD controller** owns a dynamic queue-depth limit, walks it
up by a constant while the provider looks healthy (additive increase),
and cuts it multiplicatively the moment congestion shows (multiplicative
decrease).  Congestion is read from the two signals the gateway already
has: the **EWMA of provider round RTTs** crossing its target, and the
**circuit breaker** leaving ``closed``.

The safety contract is the whole point and is enforced *by
construction*, not by tuning:

    **adaptive admission ⊆ static fail-closed admission** — the
    effective limit is ``min(static.queue_high_water, adaptive limit)``,
    so the controller can only ever *refuse more* than the static
    policy; every request it admits, the static policy would have
    admitted too.

The controller is deliberately synchronous, allocation-free plain
arithmetic, stepped from the gateway's provider-round wrapper.  Capacity
sweeps run that same gateway on a
:class:`~repro.robustness.aio.VirtualTimeLoop` to tune the knobs
offline, so what was simulated is what ships.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError

__all__ = ["AdmissionConfig", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the AIMD admission controller."""

    #: provider round RTT (seconds, EWMA-smoothed) above which the
    #: provider counts as congested.
    rtt_target: float = 0.25
    #: EWMA smoothing factor for observed round RTTs (0 < α ≤ 1).
    ewma_alpha: float = 0.3
    #: queue-depth slots added per healthy provider round.
    additive_increase: float = 1.0
    #: factor the limit is multiplied by on a congestion signal.
    multiplicative_decrease: float = 0.5
    #: floor of the dynamic limit — admission never shuts entirely;
    #: below this, shedding is the breaker's job.
    min_limit: int = 1

    def validate(self) -> None:
        if self.rtt_target <= 0:
            raise ReproError("rtt_target must be > 0")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ReproError("ewma_alpha must be in (0, 1]")
        if self.additive_increase <= 0:
            raise ReproError("additive_increase must be > 0")
        if not 0.0 < self.multiplicative_decrease < 1.0:
            raise ReproError("multiplicative_decrease must be in (0, 1)")
        if self.min_limit < 1:
            raise ReproError("min_limit must be ≥ 1")


class AdmissionController:
    """AIMD queue-depth limit, never looser than the static policy.

    ``static_high_water`` is the gateway's fail-closed
    ``queue_high_water``; the dynamic limit starts there and lives in
    ``[min_limit, static_high_water]`` forever after.  Feed it one
    :meth:`observe_round` per completed provider round (the gateway
    does this from its round wrapper, on wall-clock or virtual time),
    then gate submissions on :meth:`admit`.
    """

    def __init__(
        self,
        static_high_water: int,
        config: Optional[AdmissionConfig] = None,
    ) -> None:
        if static_high_water < 1:
            raise ReproError("static_high_water must be ≥ 1")
        self.config = config or AdmissionConfig()
        self.config.validate()
        self.static_high_water = int(static_high_water)
        #: the dynamic limit (float so additive steps accumulate).
        self.limit: float = float(static_high_water)
        #: smoothed provider round RTT; ``None`` until the first round.
        self.rtt_ewma: Optional[float] = None
        #: lifetime counters, surfaced by benches and the SLO report.
        self.rounds_observed = 0
        self.decreases = 0
        self.increases = 0
        #: (round index, limit) trace for offline tuning plots.
        self.trace: List[Tuple[int, float]] = []

    # -- signals --------------------------------------------------------------

    def observe_round(
        self,
        rtt: float,
        *,
        failed: bool = False,
        breaker_open: bool = False,
    ) -> None:
        """Account one completed provider round.

        ``rtt`` is the round's wall duration (virtual or real seconds);
        ``failed`` marks a round that exhausted its retry budget;
        ``breaker_open`` reports the breaker state observed *after* the
        round.  Any congestion signal → multiplicative decrease; a
        clean, on-target round → additive increase.
        """
        rtt = max(0.0, float(rtt))
        alpha = self.config.ewma_alpha
        if self.rtt_ewma is None:
            self.rtt_ewma = rtt
        else:
            self.rtt_ewma = alpha * rtt + (1.0 - alpha) * self.rtt_ewma
        congested = (
            failed or breaker_open or self.rtt_ewma > self.config.rtt_target
        )
        if congested:
            self.limit = max(
                float(self.config.min_limit),
                self.limit * self.config.multiplicative_decrease,
            )
            self.decreases += 1
        else:
            self.limit = min(
                float(self.static_high_water),
                self.limit + self.config.additive_increase,
            )
            self.increases += 1
        self.rounds_observed += 1
        self.trace.append((self.rounds_observed, self.limit))

    # -- decisions ------------------------------------------------------------

    @property
    def high_water(self) -> int:
        """The effective queue-depth limit.

        ``min(static, dynamic)`` *is* the containment proof: whatever
        the controller has learned, the effective limit never exceeds
        the static fail-closed mark, so the set of admitted requests is
        a subset of the static policy's at every instant.
        """
        return min(self.static_high_water, max(1, int(self.limit)))

    def admit(self, pending: int) -> bool:
        """Would a submission with ``pending`` queued requests pass?"""
        return pending < self.high_water

    def snapshot(self) -> Dict[str, object]:
        """Controller state for reports (JSON-friendly)."""
        return {
            "limit": self.limit,
            "high_water": self.high_water,
            "static_high_water": self.static_high_water,
            "rtt_ewma": self.rtt_ewma,
            "rounds_observed": self.rounds_observed,
            "increases": self.increases,
            "decreases": self.decreases,
        }
