"""Pooled, non-blocking LBS provider client.

The sync pipeline charges one blocking round-trip per provider call; at
a 10 ms RTT one CSP worker tops out at ~100 queries/s no matter how fast
the DP core is.  :class:`AsyncProviderClient` models the standard
remedy: a fixed pool of persistent provider *connections*, each able to
carry one batched exchange (a **round**) at a time, driven from a
single event loop so every connection's RTT overlaps all the others.

The provider itself stays the library's synchronous
:class:`~repro.lbs.provider.LBSProvider` (~0.03 ms a query over 64 × 40 POIs
on a 2-vCPU host — the latency lives on the wire); the client owns the asynchrony:

* ``pool_size`` persistent connections (an asyncio LIFO free-list —
  LIFO keeps hot connections hot, like real connection pools);
* ``rtt`` seconds of awaited wire latency per round, paid **once per
  round** regardless of how many coalesced cloaks ride in it — this is
  the amortization the batcher exists to exploit;
* ``deadline`` seconds per round, enforced with ``asyncio.wait_for`` —
  an overrun raises :class:`~repro.core.errors.DeadlineExceededError`
  and the connection is torn down (its response stream is now
  undefined) and replaced with a fresh one;
* cancellation propagates to the pooled connection: a caller cancelled
  mid-round closes that connection (never returns a half-read socket to
  the free-list) and replaces it, keeping the pool at full strength —
  ``tests/test_gateway.py`` pins this invariant.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.errors import DeadlineExceededError, ReproError
from ..core.requests import AnonymizedRequest
from ..lbs.provider import QueryAnswer
from ..robustness.aio import AsyncClock, LoopClock

__all__ = ["ClientStats", "PooledConnection", "AsyncProviderClient"]


@dataclass
class PooledConnection:
    """One persistent provider connection (model of a keep-alive socket)."""

    conn_id: int
    rounds: int = 0
    closed: bool = False


@dataclass
class ClientStats:
    """Lifetime counters of one pooled client."""

    rounds: int = 0
    #: individual anonymized requests carried across all rounds.
    queries: int = 0
    #: rounds that were cancelled mid-flight (connection torn down).
    cancelled: int = 0
    #: rounds that overran the per-round deadline.
    deadline_hits: int = 0
    #: connections closed and replaced (cancel/deadline casualties).
    replaced: int = 0
    per_connection_rounds: List[int] = field(default_factory=list)

    @property
    def batching(self) -> float:
        """Mean queries per round — >1 means coalescing is paying off."""
        return self.queries / self.rounds if self.rounds else 0.0


class AsyncProviderClient:
    """A connection-pooled async façade over a synchronous provider.

    ``provider`` needs ``serve_many`` (batched) or ``serve`` (per
    request) — :class:`~repro.lbs.provider.LBSProvider` has both.  The
    pool is created lazily inside the running loop, so the client can be
    constructed anywhere (including before ``asyncio.run``).
    """

    def __init__(
        self,
        provider: Any,
        *,
        pool_size: int = 8,
        rtt: float = 0.0,
        deadline: Optional[float] = None,
        clock: Optional[AsyncClock] = None,
    ) -> None:
        if pool_size < 1:
            raise ReproError("pool_size must be ≥ 1")
        if rtt < 0:
            raise ReproError("rtt must be ≥ 0")
        if deadline is not None and deadline <= 0:
            raise ReproError("deadline must be > 0")
        self.provider = provider
        self.pool_size = pool_size
        self.rtt = rtt
        self.deadline = deadline
        self.clock = clock or LoopClock()
        self.stats = ClientStats()
        self._idle: Optional[asyncio.LifoQueue] = None
        self._next_conn_id = 0

    # -- pool ----------------------------------------------------------------

    def _new_connection(self) -> PooledConnection:
        conn = PooledConnection(conn_id=self._next_conn_id)
        self._next_conn_id += 1
        return conn

    def _ensure_pool(self) -> asyncio.LifoQueue:
        if self._idle is None:
            self._idle = asyncio.LifoQueue()
            for __ in range(self.pool_size):
                self._idle.put_nowait(self._new_connection())
        return self._idle

    async def _acquire(self) -> PooledConnection:
        return await self._ensure_pool().get()

    def _release(self, conn: PooledConnection) -> None:
        self._ensure_pool().put_nowait(conn)

    def _discard(self, conn: PooledConnection) -> None:
        """Close a poisoned connection and restore pool strength."""
        conn.closed = True
        self.stats.replaced += 1
        self.stats.per_connection_rounds.append(conn.rounds)
        self._ensure_pool().put_nowait(self._new_connection())

    @property
    def idle_connections(self) -> int:
        return self._ensure_pool().qsize()

    # -- the exchange --------------------------------------------------------

    async def _exchange(
        self, conn: PooledConnection, requests: Sequence[AnonymizedRequest]
    ) -> Tuple[QueryAnswer, ...]:
        await self.clock.sleep(self.rtt)
        serve_many = getattr(self.provider, "serve_many", None)
        if serve_many is not None:
            answers = tuple(serve_many(tuple(requests)))
        else:
            answers = tuple(self.provider.serve(r) for r in requests)
        conn.rounds += 1
        return answers

    async def serve_round(
        self,
        requests: Sequence[AnonymizedRequest],
        on_acquire: Optional[Callable[[], None]] = None,
    ) -> Tuple[QueryAnswer, ...]:
        """One batched exchange: many distinct cloaks, one round-trip.

        Answers come back in request order.  On cancellation or deadline
        overrun the in-flight connection is closed and replaced; on any
        provider error the connection is returned intact (the wire
        worked, the payload failed) so retries do not drain the pool.
        ``on_acquire`` is called once a pooled connection is in hand, so
        a caller can time the round without the wait for the pool.
        """
        requests = list(requests)
        if not requests:
            return ()
        conn = await self._acquire()
        if on_acquire is not None:
            on_acquire()
        try:
            if self.deadline is not None:
                answers = await asyncio.wait_for(
                    self._exchange(conn, requests), self.deadline
                )
            else:
                answers = await self._exchange(conn, requests)
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            self._discard(conn)
            raise
        except asyncio.TimeoutError:
            self.stats.deadline_hits += 1
            self._discard(conn)
            raise DeadlineExceededError(
                f"provider round of {len(requests)} request(s) overran its "
                f"{self.deadline:g}s deadline"
            ) from None
        except BaseException:
            self._release(conn)
            raise
        self._release(conn)
        self.stats.rounds += 1
        self.stats.queries += len(requests)
        return answers

    async def serve(self, request: AnonymizedRequest) -> QueryAnswer:
        """Single-request convenience: a round of one."""
        (answer,) = await self.serve_round([request])
        return answer
