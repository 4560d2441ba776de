"""The async gateway's one keyed layer: answer store, single-flight and
time/size-windowed provider rounds.

Everything between :meth:`~repro.lbs.pipeline.CSP.prepare` and the
provider keys on what the LBS would see — ``(cloak, payload)`` — and
three amortizations stack on that key, mirroring the paper's
observation that sharing is what makes anonymization cheap at scale:

1. **Answer store** (§VII "Beyond k-anonymity", when ``cache=True``) —
   a key answered before returns at once, re-stamped with the new
   request's id, so the LBS never sees the duplicate.  Withheld
   duplicates are tallied per category in ``deferred_billing`` so the
   CSP can settle billing at flush time without revealing per-request
   timing; the sync twin is :class:`~repro.lbs.cache.AnswerCache`.
2. **Single-flight coalescing** — concurrent requests with an identical
   key share one future and one provider query.  The cloak *is* the
   natural key: k-anonymity guarantees every member of a group shares
   it, so a burst of k users from one group costs the LBS a single
   query whose answer fans out to every waiter.  With the store on, a
   key stays joinable until its round settles; without it, until its
   window flushes.  Joiners count as ``coalesced``, never as misses or
   hits.
3. **Batching** — the distinct keys that accumulate within a short
   window (``max_wait`` seconds, capped at ``max_batch`` keys) ride one
   provider *round* (one RTT) via
   :meth:`~repro.serving.aio_provider.AsyncProviderClient.serve_round`.

Failure fan-out is all-or-nothing per round: the shared exception
instance reaches every waiter of every key in the round, the store and
the miss count stay untouched (a retried fetch is indistinguishable
from a first attempt), and the retry/breaker layer above counts the
round **once** — a thousand coalesced waiters cannot trip a breaker a
thousand times.  Each waiter awaits its key's future through one
``asyncio.shield``, so a cancelled waiter never cancels the round.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..core.requests import AnonymizedRequest
from ..lbs.provider import QueryAnswer

__all__ = ["BatcherStats", "CoalescingBatcher"]

#: Coalescing key: what the LBS would see (cloak + payload).
BatchKey = Tuple[object, tuple]


@dataclass
class BatcherStats:
    """Lifetime counters of one batcher."""

    #: distinct keys answered by the provider (== provider queries
    #: issued == answer-store misses).
    keys_flushed: int = 0
    #: provider rounds flushed (each ≤ max_batch distinct keys).
    rounds: int = 0
    #: submissions answered from the store without a provider query.
    hits: int = 0
    #: submissions that joined an already-pending key.
    coalesced: int = 0
    #: rounds that failed and fanned the error out to their waiters.
    failed_rounds: int = 0


class _PendingKey:
    __slots__ = ("key", "request", "future")

    def __init__(self, key, request: AnonymizedRequest, future):
        self.key = key
        self.request = request
        self.future = future


class CoalescingBatcher:
    """Resolves anonymized requests from the answer store, a pending
    key's future, or the next provider round — in that order.

    ``round_fn`` is the downstream exchange — typically the pooled async
    client's ``serve_round`` wrapped in retry/breaker by the gateway.
    It receives the window's requests (one per distinct key) and must
    return answers in the same order.

    A window flushes when it reaches ``max_batch`` distinct keys, or
    ``max_wait`` seconds after its first key arrived, whichever comes
    first.  ``max_wait=0`` degenerates to per-submission flushing (still
    coalescing identical in-flight keys).  ``cache=True`` keeps every
    answered key in the store until :meth:`flush`.
    """

    def __init__(
        self,
        round_fn: Callable[
            [Sequence[AnonymizedRequest]], Awaitable[Sequence[QueryAnswer]]
        ],
        *,
        max_batch: int = 16,
        max_wait: float = 0.001,
        cache: bool = False,
    ):
        if max_batch < 1:
            raise ReproError("max_batch must be ≥ 1")
        if max_wait < 0:
            raise ReproError("max_wait must be ≥ 0")
        self._round_fn = round_fn
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.stats = BatcherStats()
        #: duplicates withheld from the LBS, per category (for billing).
        self.deferred_billing: Dict[str, int] = {}
        self._answers: Optional[Dict[BatchKey, QueryAnswer]] = (
            {} if cache else None
        )
        #: joinable keys (open window, plus in-flight rounds when caching).
        self._pending: Dict[BatchKey, _PendingKey] = {}
        self._window: List[_PendingKey] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._rounds: Dict[asyncio.Task, List[_PendingKey]] = {}

    # -- submission ----------------------------------------------------------

    def _record_duplicate(self, request: AnonymizedRequest) -> None:
        category = dict(request.payload).get("poi", "?")
        self.deferred_billing[category] = (
            self.deferred_billing.get(category, 0) + 1
        )

    async def fetch(
        self, request: AnonymizedRequest
    ) -> Tuple[QueryAnswer, bool]:
        """Resolve ``request`` → ``(answer, cache_hit)``.

        The answer is re-stamped with this request's id; the provider
        is queried at most once per key per round, however many
        fetches race on the key.
        """
        key = (request.cloak, request.payload)
        if self._answers is not None:
            cached = self._answers.get(key)
            if cached is not None:
                self.stats.hits += 1
                self._record_duplicate(request)
                return QueryAnswer(request.request_id, cached.candidates), True
        pending = self._pending.get(key)
        if pending is not None:
            self.stats.coalesced += 1
            self._record_duplicate(request)
        else:
            loop = asyncio.get_event_loop()
            future = loop.create_future()
            # Pre-consume so a round whose waiters were all cancelled does
            # not warn under asyncio debug mode (waiters still re-raise).
            future.add_done_callback(
                lambda f: None if f.cancelled() else f.exception()
            )
            pending = _PendingKey(key, request, future)
            self._pending[key] = pending
            self._window.append(pending)
            if len(self._window) >= self.max_batch:
                self._flush()
            elif self._timer is None:
                if self.max_wait == 0:
                    # Flush on the next loop tick, once the synchronous
                    # burst that is currently submitting has drained.
                    self._timer = loop.call_soon(self._flush)
                else:
                    self._timer = loop.call_later(self.max_wait, self._flush)
        answer = await asyncio.shield(pending.future)
        return QueryAnswer(request.request_id, answer.candidates), False

    # -- flushing ------------------------------------------------------------

    def _flush(self) -> None:
        """Close the current window and launch its provider round."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._window:
            return
        window, self._window = self._window, []
        if self._answers is None:
            for pending in window:
                del self._pending[pending.key]
        task = asyncio.get_event_loop().create_task(self._run_round(window))
        self._rounds[task] = window
        task.add_done_callback(self._rounds.pop)

    async def _run_round(self, window: List[_PendingKey]) -> None:
        try:
            answers = await self._round_fn([p.request for p in window])
        except asyncio.CancelledError:
            for pending in window:
                if not pending.future.done():
                    pending.future.cancel()
            raise
        except BaseException as exc:  # noqa: BLE001 — shared fan-out
            self.stats.failed_rounds += 1
            for pending in window:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        else:
            self.stats.rounds += 1
            self.stats.keys_flushed += len(window)
            for pending, answer in zip(window, answers):
                if self._answers is not None:
                    self._answers[pending.key] = answer
                if not pending.future.done():
                    pending.future.set_result(answer)
        finally:
            for pending in window:
                if self._pending.get(pending.key) is pending:
                    del self._pending[pending.key]

    async def drain(self) -> None:
        """Flush the open window and await every in-flight round."""
        self._flush()
        while self._rounds:
            await asyncio.gather(*list(self._rounds), return_exceptions=True)

    async def close(self) -> None:
        """Cancel the open window and in-flight rounds (gateway shutdown).

        Only the cancellation requested here is swallowed; any other
        exception a round task surfaces is a bug (``_run_round`` fans
        round failures into the waiters' futures and never re-raises),
        so it propagates instead of being silently dropped.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        rounds = list(self._rounds.items())
        for task, __ in rounds:
            task.cancel()
        for task, __ in rounds:
            try:
                await task
            except asyncio.CancelledError:  # noqa: PERF203
                pass
        # A round cancelled before its first step never runs its
        # handler, so its futures would stay pending forever; cancel
        # every survivor so each waiter observes the shutdown.
        for window in [self._window] + [window for __, window in rounds]:
            for pending in window:
                if not pending.future.done():
                    pending.future.cancel()
        self._window = []
        self._pending.clear()

    def flush(self) -> Dict[str, int]:
        """Empty the answer store and hand back deferred billing totals."""
        settled = dict(self.deferred_billing)
        if self._answers is not None:
            self._answers.clear()
        self.deferred_billing.clear()
        return settled
