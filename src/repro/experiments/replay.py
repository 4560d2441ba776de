"""Replay a trajectory schedule through the real CSP and gateway on
virtual time — the §VII operating point run on production code.

The paper argues that, per snapshot, a sub-second repair is enough and
that "individual queries can be served in milliseconds" (~2 ms
Casper-style candidate query).  :func:`replay_schedule` checks that
claim without a model of the serving stack: it drives a
:class:`~repro.lbs.mobility.TrajectorySchedule` through
:class:`~repro.serving.gateway.AsyncGateway` over a real
:class:`~repro.lbs.pipeline.CSP` on a
:class:`~repro.robustness.aio.VirtualTimeLoop`:

* each arrival is submitted at its schedule time;
* at each boundary the repair takes a virtual ``repair_seconds``, then
  ``csp.advance_snapshot(moves[i])`` installs the next epoch; a boundary
  (and, with ``repair_seconds=0``, its install) lands before any arrival
  with the same timestamp;
* each provider round costs :data:`PROVIDER_RTT` (2 ms), behind the
  gateway's default admission, batching and pool settings.

Two repair modes:

``"swap"``
    the production double-buffered epoch swap: arrivals during a repair
    are served from the prior epoch.
``"blackout"``
    the retired stop-the-world design, kept as the baseline the churn
    report measures the swap against: arrivals during a repair wait on
    an event the driver owns (the replay twin of the live report's world
    lock) and are served by the new epoch.

Virtual time charges no CPU, so every latency here is a *modelled wait*
(repair, batching window, provider RTT, retry backoff) and reruns are
identical.  Faults use the stack's own sites: the manager's ``"repair"``
site, the gateway's provider client under ``csp.retry_policy``, and the
MPC's ``"stale"`` reads.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from ..core.errors import ServiceUnavailableError, WorkloadError
from ..core.policy import CloakingPolicy
from ..lbs.mobility import TrajectorySchedule
from ..lbs.pipeline import CSP, ServedRequest
from ..robustness.aio import VirtualTimeLoop
from ..serving.gateway import AsyncGateway, GatewayConfig, GatewayStats
from ..streaming.epoch import Epoch, EpochManager, SwapReport

__all__ = [
    "PROVIDER_RTT",
    "REPAIR_MODES",
    "ReplayRun",
    "Replayed",
    "oracle_mismatches",
    "replay_schedule",
]

REPAIR_MODES = ("blackout", "swap")
#: the paper's per-query candidate round at the LBS (seconds).
PROVIDER_RTT = 0.002

# Event kinds at one timestamp: boundary, then install, then arrivals.
_BOUNDARY, _INSTALL, _ARRIVAL = 0, 1, 2


@dataclass(frozen=True)
class Replayed:
    """One request of a replay, in arrival order."""

    arrival: float
    #: loop seconds from arrival to answer or rejection (modelled wait).
    latency: float
    #: the served request, or the typed error that rejected it.
    outcome: Union[ServedRequest, ServiceUnavailableError]
    #: the epoch active when the request entered the gateway, which
    #: pins it in that same step.
    epoch: Epoch
    #: arrived while a repair was in flight.
    repairing: bool
    #: waited for the repair (blackout mode only).
    waited: bool

    @property
    def served(self) -> bool:
        return isinstance(self.outcome, ServedRequest)


@dataclass(frozen=True)
class ReplayRun:
    """Everything one replay produced."""

    requests: List[Replayed]
    swaps: List[SwapReport]
    stats: GatewayStats

    @property
    def served(self) -> List[ServedRequest]:
        return [r.outcome for r in self.requests if r.served]  # type: ignore[misc]

    @property
    def rejected(self) -> int:
        return sum(not r.served for r in self.requests)

    @property
    def availability(self) -> float:
        return len(self.served) / len(self.requests) if self.requests else 1.0

    @property
    def mean_latency(self) -> float:
        """Mean modelled latency of the served requests (s)."""
        latencies = [r.latency for r in self.requests if r.served]
        return float(np.mean(latencies)) if latencies else 0.0

    def latency_percentile(self, q: float) -> float:
        """Percentile of the served requests' modelled latency (s)."""
        latencies = [r.latency for r in self.requests if r.served]
        return float(np.percentile(latencies, q)) if latencies else 0.0

    @property
    def repair_waits(self) -> int:
        return sum(r.waited for r in self.requests)

    @property
    def served_while_repairing(self) -> int:
        return sum(
            r.repairing and not r.waited and r.served for r in self.requests
        )

    @property
    def served_by_rung(self) -> Dict[str, int]:
        rungs: Dict[str, int] = {}
        for served in self.served:
            rungs[served.degradation] = rungs.get(served.degradation, 0) + 1
        return rungs

    def summary(self) -> str:
        """One line: volume, modelled latency, snapshots, provider load."""
        return (
            f"{len(self.served)} served / {self.rejected} rejected, "
            f"mean {1e3 * self.mean_latency:.2f} ms, "
            f"p99 {1e3 * self.latency_percentile(99):.2f} ms "
            f"(modelled waits), {len(self.swaps)} snapshot refreshes, "
            f"{self.stats.provider_queries} provider queries"
        )


def replay_schedule(
    csp: CSP,
    schedule: TrajectorySchedule,
    *,
    mode: str = "swap",
    repair_seconds: float = 0.5,
) -> ReplayRun:
    """Serve ``schedule`` through ``csp`` behind a fresh gateway on
    virtual time; see the module docstring for the timeline."""
    if mode not in REPAIR_MODES:
        raise WorkloadError(
            f"mode must be one of {REPAIR_MODES}, got {mode!r}"
        )
    if not 0.0 <= repair_seconds < schedule.snapshot_period:
        raise WorkloadError("repair_seconds must be in [0, snapshot_period)")
    gateway = AsyncGateway(csp, GatewayConfig(rtt=PROVIDER_RTT))
    events = [
        (t, _ARRIVAL, j) for j, (t, __, ___) in enumerate(schedule.arrivals)
    ]
    for i in range(len(schedule.moves)):
        boundary = (i + 1) * schedule.snapshot_period
        events.append((boundary, _BOUNDARY, i))
        events.append((boundary + repair_seconds, _INSTALL, i))
    events.sort()

    async def drive() -> ReplayRun:
        loop = asyncio.get_running_loop()
        start = loop.time()
        ready = asyncio.Event()
        ready.set()
        swaps: List[SwapReport] = []

        async def one(
            arrival: float, user: str, category: str, repairing: bool
        ) -> Replayed:
            waited = not ready.is_set()
            if waited:
                await ready.wait()
            epoch = csp.manager.active
            try:
                outcome = await gateway.submit(user, [("poi", category)])
            except ServiceUnavailableError as exc:
                outcome = exc
            latency = loop.time() - start - arrival
            return Replayed(
                arrival, latency, outcome, epoch, repairing, waited
            )

        tasks = []
        repairing = False
        for t, kind, index in events:
            await asyncio.sleep(max(0.0, start + t - loop.time()))
            if kind == _BOUNDARY:
                repairing = True
                if mode == "blackout":
                    ready.clear()
            elif kind == _INSTALL:
                swaps.append(csp.advance_snapshot(schedule.moves[index]))
                repairing = False
                ready.set()
            else:
                __, user, category = schedule.arrivals[index]
                tasks.append(
                    asyncio.ensure_future(one(t, user, category, repairing))
                )
        requests = await asyncio.gather(*tasks)
        await gateway.close()
        return ReplayRun(list(requests), swaps, gateway.stats)

    return VirtualTimeLoop().run(drive())


def oracle_mismatches(manager: EpochManager, run: ReplayRun) -> int:
    """Served cloaks that differ from a from-scratch solve of the epoch
    that served them (:meth:`EpochManager.oracle_policy`).  Only
    meaningful without trajectory widening or MPC coarsening."""
    oracles: Dict[int, CloakingPolicy] = {}
    mismatches = 0
    for replayed in run.requests:
        if not replayed.served:
            continue
        served: ServedRequest = replayed.outcome  # type: ignore[assignment]
        serial = replayed.epoch.serial
        if serial not in oracles:
            oracles[serial] = manager.oracle_policy(replayed.epoch)
        user = served.request.user_id
        mismatches += (
            served.anonymized.cloak != oracles[serial].cloak_for(user)
        )
    return mismatches
