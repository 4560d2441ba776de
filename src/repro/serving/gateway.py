"""The asyncio serving gateway in front of the CSP.

One synchronous CSP worker blocks for a full provider round-trip per
request; this gateway lets a single event loop keep hundreds of
requests in flight while preserving the privacy contract bit for bit —
anonymization itself stays the synchronous
:meth:`~repro.lbs.pipeline.CSP.prepare` (sub-millisecond, and the
**same code path as the sync oracle**, so every cloak the gateway emits
is identical to what ``CSP.request`` would have emitted).

Request lifecycle::

    submit ──► admission control ──► prepare (sync cloak lookup)
                 │                        │
                 │ shed / throttle        ▼
                 ▼          coalescing batcher, keyed (cloak, payload):
          ServiceUnavailableError   hit ─► stored answer
                                    pending ─► join the key's future
                                    new ─► open window
                                          │ window flush
                                          ▼
                          retry/breaker (async) ► pooled client ► LBS
                                          │
                                          ▼
                   store + fan-out ► client filter ► ServedRequest

Admission control is fail-closed and layered:

* a **high-water mark** on queued-but-unfinished requests: beyond it,
  submissions are shed *immediately* with
  :class:`~repro.core.errors.ServiceUnavailableError` (``reason="shed"``)
  — an overloaded anonymizer must reject, never queue unboundedly and
  never serve a weaker cloak faster;
* a **per-user token bucket** (``burst_per_user`` capacity refilled at
  ``rate_per_user``/s): one chatty user cannot starve the pool — their
  excess is rejected with ``reason="throttle"``;
* a **bounded in-flight semaphore** (``max_inflight``): the concurrency
  actually admitted to the provider path.

Provider failures surface exactly like the sync pipeline's: retries and
breaker budgets are the CSP's own (:mod:`repro.robustness.aio` ports),
and an exhausted round raises ``reason="provider"`` — the *same
exception instance* for every waiter coalesced onto that round.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServiceUnavailableError,
)
from ..robustness.aio import AsyncClock, LoopClock, retry_call_async
from ..robustness.degrade import DegradationEvent
from ..robustness.faults import FaultInjectingAsyncClient
from ..robustness.retry import RetryPolicy
from .admission import AdmissionController
from .aio_provider import AsyncProviderClient
from .batcher import CoalescingBatcher

__all__ = [
    "AsyncGateway",
    "GatewayConfig",
    "GatewayStats",
    "run_gateway",
    "run_gateway_scheduled",
    "serve_scheduled",
]


@dataclass(frozen=True)
class GatewayConfig:
    """Admission-control and batching knobs of one gateway."""

    #: concurrent requests allowed past admission (the semaphore).
    max_inflight: int = 64
    #: queued-but-unfinished requests beyond which submissions shed.
    queue_high_water: int = 1024
    #: per-user token refill rate (tokens/second); ``inf`` disables.
    rate_per_user: float = float("inf")
    #: per-user bucket capacity (burst tolerance).
    burst_per_user: float = 32.0
    #: distinct cloaks per provider round (batch window size cap).
    max_batch: int = 16
    #: seconds a window stays open after its first key (0 = next tick).
    max_wait: float = 0.001
    #: persistent provider connections.
    pool_size: int = 8
    #: simulated wire RTT per provider round (seconds).
    rtt: float = 0.0
    #: per-round deadline at the connection (seconds; None = no bound).
    round_deadline: Optional[float] = None

    def validate(self) -> None:
        if self.max_inflight < 1:
            raise ReproError("max_inflight must be ≥ 1")
        if self.queue_high_water < 1:
            raise ReproError("queue_high_water must be ≥ 1")
        if self.rate_per_user < 0:
            raise ReproError("rate_per_user must be ≥ 0")
        if self.burst_per_user < 1:
            raise ReproError("burst_per_user must be ≥ 1")


@dataclass
class GatewayStats:
    """Serving outcome counters (admission + amortization)."""

    submitted: int = 0
    served: int = 0
    #: shed before any work was queued (fail-closed), all causes.
    shed: int = 0
    #: ... at the static queue high-water mark.
    shed_high_water: int = 0
    #: ... at the adaptive controller's (tighter) limit.
    shed_adaptive: int = 0
    #: ... because the circuit breaker was open at submission.
    shed_breaker: int = 0
    #: rejected by a per-user token bucket.
    throttled: int = 0
    #: failed with a typed error past admission (provider, stale, ...).
    errors: int = 0
    cancelled: int = 0
    #: answers shared from the batcher's store (previous rounds).
    cache_hits: int = 0
    #: requests that joined a pending key's future.
    coalesced: int = 0
    #: provider queries actually issued (distinct cloaks flushed).
    provider_queries: int = 0
    #: provider rounds (batched exchanges, one RTT each).
    provider_rounds: int = 0
    #: high-water mark of queued-but-unfinished requests (the admission
    #: gauge the static/adaptive limits act on).
    queue_depth_high_water: int = 0
    #: high-water mark of requests concurrently past the in-flight
    #: semaphore (how much of ``max_inflight`` was actually used).
    inflight_high_water: int = 0
    #: loop-clock seconds from arrival to answer of each served request,
    #: in completion order (recorded by :func:`serve_scheduled`).
    latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def queries_per_request(self) -> float:
        """Provider queries per served request — < 1 means coalescing
        and caching amortize the cloak-to-provider hop."""
        return self.provider_queries / self.served if self.served else 0.0

    @property
    def availability(self) -> float:
        done = self.served + self.shed + self.throttled + self.errors
        return self.served / done if done else 1.0

    @property
    def shed_by_cause(self) -> Dict[str, int]:
        """Attributable admission decisions: which gate refused."""
        return {
            "high_water": self.shed_high_water,
            "adaptive": self.shed_adaptive,
            "breaker": self.shed_breaker,
            "throttle": self.throttled,
        }


class _TokenBucket:
    __slots__ = ("tokens", "stamp")

    def __init__(self, tokens: float, stamp: float):
        self.tokens = tokens
        self.stamp = stamp


class AsyncGateway:
    """Admission-controlled async frontend over one CSP.

    The gateway owns the async half of serving (the batcher's answer
    store and windows, pooled provider I/O, retry/breaker) and delegates
    the privacy half (cloak computation, degradation ladder, client
    filter) to the CSP's synchronous methods — the sync path remains
    the oracle.
    """

    def __init__(
        self,
        csp: Any,
        config: Optional[GatewayConfig] = None,
        *,
        client: Optional[AsyncProviderClient] = None,
        clock: Optional[AsyncClock] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.csp = csp
        self.config = config or GatewayConfig()
        self.config.validate()
        #: optional AIMD controller — when present it tightens (never
        #: loosens) admission below the static high-water mark, fed by
        #: the RTT of every provider round (see ``_provider_round``).
        self.admission = admission
        if admission is not None and (
            admission.static_high_water != self.config.queue_high_water
        ):
            raise ReproError(
                "admission controller was built for static high-water "
                f"{admission.static_high_water}, gateway uses "
                f"{self.config.queue_high_water} — the containment "
                "invariant needs them identical"
            )
        self.clock = clock or LoopClock()
        if client is None:
            client = AsyncProviderClient(
                csp.base_provider,
                pool_size=self.config.pool_size,
                rtt=self.config.rtt,
                deadline=self.config.round_deadline,
                clock=self.clock,
            )
        if csp.injector is not None:
            client = FaultInjectingAsyncClient(client, csp.injector)
        self.client = client
        self.batcher = CoalescingBatcher(
            self._provider_round,
            max_batch=self.config.max_batch,
            max_wait=self.config.max_wait,
            cache=csp.cache is not None,
        )
        self.stats = GatewayStats()
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._pending = 0
        self._inflight = 0
        self._buckets: Dict[str, _TokenBucket] = {}

    # -- admission -----------------------------------------------------------

    def _admit(self, user_id: str) -> None:
        """Fail-closed admission: raise before any work is queued.

        Gate order is static-first so the adaptive gates can only ever
        refuse a *subset* of what static admission refuses plus more —
        never admit past the static mark.
        """
        if self._pending >= self.config.queue_high_water:
            self.stats.shed += 1
            self.stats.shed_high_water += 1
            raise ServiceUnavailableError(
                f"gateway over its high-water mark "
                f"({self._pending} pending ≥ {self.config.queue_high_water}); "
                "shedding fail-closed",
                reason="shed",
            )
        if self.admission is not None:
            breaker = self.csp.breaker
            if breaker is not None and breaker.state == "open":
                self.stats.shed += 1
                self.stats.shed_breaker += 1
                raise ServiceUnavailableError(
                    "circuit breaker is open; shedding at admission "
                    "instead of queueing a request that can only fail",
                    reason="shed",
                )
            if not self.admission.admit(self._pending):
                self.stats.shed += 1
                self.stats.shed_adaptive += 1
                raise ServiceUnavailableError(
                    f"adaptive admission limit reached ({self._pending} "
                    f"pending ≥ {self.admission.high_water} adaptive "
                    f"≤ {self.config.queue_high_water} static); "
                    "shedding fail-closed",
                    reason="shed",
                )
        if self.config.rate_per_user != float("inf"):
            now = self.clock.monotonic()
            bucket = self._buckets.get(user_id)
            if bucket is None:
                bucket = _TokenBucket(self.config.burst_per_user, now)
                self._buckets[user_id] = bucket
            else:
                refill = (now - bucket.stamp) * self.config.rate_per_user
                bucket.tokens = min(
                    self.config.burst_per_user, bucket.tokens + refill
                )
                bucket.stamp = now
            if bucket.tokens < 1.0:
                self.stats.throttled += 1
                raise ServiceUnavailableError(
                    f"user {user_id!r} exceeded their request budget "
                    f"({self.config.burst_per_user:g} burst at "
                    f"{self.config.rate_per_user:g}/s); throttling",
                    reason="throttle",
                )
            bucket.tokens -= 1.0

    def _sem(self) -> asyncio.Semaphore:
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        return self._semaphore

    # -- provider path -------------------------------------------------------

    async def _provider_round(self, requests):
        """One batched provider exchange under the CSP's budgets.

        Runs below the batcher, so however many waiters coalesced onto
        the round, the breaker sees **one** failure per failed attempt
        and the retry schedule runs once.
        """
        csp = self.csp
        from ..lbs.pipeline import TRANSIENT_PROVIDER_ERRORS

        # Timed from connection acquire (restarted by every retry), so
        # queueing for a pooled connection never counts as provider RTT.
        start = [self.clock.monotonic()]

        def acquired() -> None:
            start[0] = self.clock.monotonic()

        async def fetch():
            return await self.client.serve_round(requests, acquired)

        try:
            if csp.retry_policy is None and csp.breaker is None:
                result = await fetch()
            else:
                result = await retry_call_async(
                    fetch,
                    policy=csp.retry_policy or RetryPolicy(max_attempts=1),
                    clock=self.clock,
                    deadline=csp.provider_deadline,
                    retryable=TRANSIENT_PROVIDER_ERRORS
                    + (DeadlineExceededError,),
                    breaker=csp.breaker,
                )
            self._observe_round(start[0], failed=False)
            return result
        except asyncio.CancelledError:
            raise
        except (
            CircuitOpenError,
            DeadlineExceededError,
        ) + TRANSIENT_PROVIDER_ERRORS as exc:
            self._observe_round(start[0], failed=True)
            csp.events.append(
                DegradationEvent(
                    level="rejected",
                    reason="provider",
                    detail=f"async round of {len(requests)}: {exc}",
                )
            )
            raise ServiceUnavailableError(
                f"LBS provider unavailable for a round of "
                f"{len(requests)} coalesced cloak(s): {exc}",
                reason="provider",
            ) from exc

    def _observe_round(self, start: float, *, failed: bool) -> None:
        """Feed one completed provider round to the AIMD controller."""
        if self.admission is None:
            return
        breaker = self.csp.breaker
        self.admission.observe_round(
            self.clock.monotonic() - start,
            failed=failed,
            breaker_open=breaker is not None and breaker.state != "closed",
        )

    # -- serving -------------------------------------------------------------

    async def submit(
        self, user_id: str, payload: Iterable[Tuple[str, str]]
    ) -> "ServedRequest":
        """Serve one request end to end through the async path.

        Raises :class:`ServiceUnavailableError` (``reason`` one of
        ``"shed"``, ``"throttle"``, ``"provider"``, ``"stale"``, ...)
        instead of ever emitting a weaker cloak.
        """
        self.stats.submitted += 1
        self._admit(str(user_id))
        self._pending += 1
        if self._pending > self.stats.queue_depth_high_water:
            self.stats.queue_depth_high_water = self._pending
        try:
            async with self._sem():
                self._inflight += 1
                if self._inflight > self.stats.inflight_high_water:
                    self.stats.inflight_high_water = self._inflight
                try:
                    return await self._process(user_id, payload)
                finally:
                    self._inflight -= 1
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            raise
        except ServiceUnavailableError:
            self.stats.errors += 1
            raise
        finally:
            self._pending -= 1

    async def _process(
        self, user_id: str, payload: Iterable[Tuple[str, str]]
    ) -> "ServedRequest":
        prepared = self.csp.prepare(user_id, payload)
        answer, cache_hit = await self.batcher.fetch(prepared.anonymized)
        served = self.csp.complete(
            prepared,
            answer,
            cache_hit=cache_hit,
            attempts=0 if cache_hit else 1,
        )
        self.stats.served += 1
        return served

    # -- lifecycle -----------------------------------------------------------

    def _roll_up(self) -> None:
        """Copy the batcher's counters into the gateway stats."""
        counts = self.batcher.stats
        self.stats.cache_hits = counts.hits
        self.stats.coalesced = counts.coalesced
        self.stats.provider_queries = counts.keys_flushed
        self.stats.provider_rounds = counts.rounds

    async def close(self) -> None:
        """Drain in-flight rounds and release resources.

        The duplicates the batcher withheld from the LBS move into the
        CSP cache's ``deferred_billing``, so one ``csp.cache.flush()``
        settles the sync and async paths together.
        """
        await self.batcher.drain()
        await self.batcher.close()
        settled = self.batcher.flush()
        if self.csp.cache is not None:
            billing = self.csp.cache.deferred_billing
            for category, count in settled.items():
                billing[category] = billing.get(category, 0) + count
        self._roll_up()


async def serve_all(
    gateway: AsyncGateway,
    workload: Sequence[Tuple[str, object]],
) -> List[object]:
    """Submit a whole workload concurrently; results align with input.

    Each result is a :class:`~repro.lbs.pipeline.ServedRequest` or the
    exception that rejected it (shed/throttle/provider/...), so callers
    can audit both sides of the admission decision.
    """
    tasks = [
        asyncio.ensure_future(gateway.submit(user_id, payload))
        for user_id, payload in workload
    ]
    results = await asyncio.gather(*tasks, return_exceptions=True)
    await gateway.close()
    return list(results)


async def serve_scheduled(
    gateway: AsyncGateway,
    schedule: Sequence[Tuple[float, str, object]],
) -> List[object]:
    """Submit a timed workload: each ``(arrival, user_id, payload)`` is
    submitted at its arrival offset (seconds from the first submission).

    Each served request's latency, read on the loop clock, is appended
    to ``gateway.stats.latencies``.  On a
    :class:`~repro.robustness.aio.VirtualTimeLoop` this is the capacity
    model: the production gateway replays the schedule on virtual time,
    and the same schedule on the wall-clock loop measures it.
    """
    loop = asyncio.get_running_loop()
    latencies = gateway.stats.latencies

    async def timed(user_id: str, payload: Any) -> "ServedRequest":
        arrived = loop.time()
        served = await gateway.submit(user_id, payload)
        latencies.append(loop.time() - arrived)
        return served

    start = loop.time()
    tasks: List[asyncio.Future] = []
    for arrival, user_id, payload in schedule:
        delay = start + arrival - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(timed(user_id, payload)))
    results = await asyncio.gather(*tasks, return_exceptions=True)
    await gateway.close()
    return list(results)


def run_gateway_scheduled(
    csp: Any,
    schedule: Sequence[Tuple[float, str, object]],
    config: Optional[GatewayConfig] = None,
    *,
    admission: Optional[AdmissionController] = None,
) -> Tuple[List[object], GatewayStats]:
    """Sync façade over :func:`serve_scheduled` (fresh gateway, own loop)."""
    gateway = AsyncGateway(csp, config, admission=admission)

    async def drive():
        return await serve_scheduled(gateway, schedule)

    results = asyncio.run(drive())
    return results, gateway.stats


def run_gateway(
    csp: Any,
    workload: Sequence[Tuple[str, object]],
    config: Optional[GatewayConfig] = None,
    *,
    admission: Optional[AdmissionController] = None,
) -> Tuple[List[object], GatewayStats]:
    """Sync façade: run a workload through a fresh gateway to completion.

    Builds the gateway, drives the event loop, and returns
    ``(results, stats)`` — the entry point for benches and any caller
    that is not already inside an event loop
    (:meth:`repro.lbs.pipeline.CSP.serve_async` delegates here).
    """
    gateway = AsyncGateway(csp, config, admission=admission)

    async def drive():
        return await serve_all(gateway, workload)

    results = asyncio.run(drive())
    return results, gateway.stats
