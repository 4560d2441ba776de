"""Async ports of the retry/backoff and circuit-breaker primitives.

The sync stack (:mod:`repro.robustness.retry`) blocks a whole worker on
every backoff sleep; one CSP thread therefore serves one in-flight LBS
query at a time.  This module re-expresses the exact same semantics as
awaitables so a single event loop overlaps many provider round-trips
under the same budgets:

* :class:`AsyncClock` — the awaitable twin of
  :class:`~repro.robustness.retry.Clock`: a monotonic reading plus an
  ``await``-able sleep.  :class:`LoopClock` reads the running event
  loop's clock; :class:`VirtualClock` advances simulated time instantly
  (tests and benches stay wall-clock free, exactly like
  :class:`~repro.robustness.retry.ManualClock`).
* :class:`VirtualTimeLoop` — a whole event loop on virtual time: every
  ``asyncio.sleep``/``call_later`` in unmodified production code
  (provider RTTs, batch windows, token buckets) fires in order, but an
  idle loop jumps straight to its next timer instead of waiting.
  Capacity sweeps run the real gateway on it.
* :func:`retry_call_async` — :func:`~repro.robustness.retry.retry_call`
  for coroutines.  It reuses the *same* :class:`RetryPolicy` (delays are
  bit-identical, deterministic jitter included) and the *same*
  :class:`CircuitBreaker` instance — sync and async callers can share
  one breaker, because its state transitions are synchronous and the
  event loop never preempts between ``allow()`` and
  ``record_failure()``.

Design note: the breaker deliberately is **not** duplicated into an
"AsyncCircuitBreaker".  Its API is non-blocking; only the *clock* needs
adapting (:func:`breaker_clock`), so one failure budget can protect the
provider across both serving paths at once — retry storms from the sync
oracle and the async gateway count against the same threshold.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Awaitable, Callable, Optional, Tuple, Type, TypeVar

from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
)
from .retry import CircuitBreaker, Clock, RetryPolicy

__all__ = [
    "AsyncClock",
    "LoopClock",
    "VirtualClock",
    "VirtualTimeLoop",
    "breaker_clock",
    "retry_call_async",
]


class AsyncClock:
    """Minimal awaitable clock: a monotonic reading and an async sleep."""

    def monotonic(self) -> float:
        raise NotImplementedError

    async def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class LoopClock(AsyncClock):
    """The running event loop's clock (production default)."""

    def monotonic(self) -> float:
        return asyncio.get_event_loop().time()

    async def sleep(self, seconds: float) -> None:
        if seconds > 0:
            await asyncio.sleep(seconds)


class VirtualClock(AsyncClock):
    """A virtual async clock: sleeping advances simulated time instantly.

    ``slept`` accumulates total backoff, mirroring
    :class:`~repro.robustness.retry.ManualClock`; every sleep still
    yields to the event loop once, so coalescing/cancellation interleave
    realistically without real waiting.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self.slept = 0.0

    def monotonic(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ReproError("cannot sleep a negative duration")
        self.now += seconds
        self.slept += seconds
        await asyncio.sleep(0)

    def advance(self, seconds: float) -> None:
        """Move time forward without counting it as backoff."""
        self.now += seconds


_T = TypeVar("_T")


class _VirtualSelector(selectors.DefaultSelector):
    """The OS selector, polled without blocking; an idle wait becomes a
    jump of the virtual clock ``now`` by the loop's own timeout (the
    distance to its next timer)."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0

    def select(self, timeout: Optional[float] = None) -> Any:
        ready = super().select(0)
        if ready or timeout == 0:
            return ready
        if timeout is None:
            raise ReproError(
                "virtual-time loop is idle with no timer pending: every "
                "task waits on something only another thread could do"
            )
        self.now += timeout
        return ready


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An asyncio event loop whose clock is virtual seconds.

    ``time()`` starts at 0 and moves only while the loop is idle:
    ready callbacks and I/O run first, then time jumps to the next timer.
    So code that waits with ``asyncio.sleep``/``call_later`` and reads
    the loop clock (:class:`LoopClock`) runs unchanged, in schedule
    order, with no wall-clock waiting — and reruns are identical.  An
    idle loop with no timers can never wake, so it raises
    :class:`~repro.core.errors.ReproError` instead of spinning.  Work
    handed to other threads (executors) does not advance the clock.
    """

    def __init__(self) -> None:
        self._virtual = _VirtualSelector()
        super().__init__(self._virtual)

    def time(self) -> float:
        return self._virtual.now

    def run(self, main: Awaitable[_T]) -> _T:
        """Run ``main`` to completion and close the loop — ``asyncio.run``
        for this loop (``asyncio.Runner``'s ``loop_factory`` is 3.11+)."""
        try:
            return self.run_until_complete(main)
        finally:
            try:
                self.run_until_complete(self.shutdown_asyncgens())
            finally:
                self.close()


class _BreakerClock(Clock):
    """Adapt an :class:`AsyncClock` to the breaker's sync interface.

    The breaker only ever *reads* the clock (``monotonic``); it never
    sleeps, so the adapter's ``sleep`` is intentionally unreachable.
    """

    def __init__(self, clock: AsyncClock):
        self._clock = clock

    def monotonic(self) -> float:
        return self._clock.monotonic()

    def sleep(self, seconds: float) -> None:  # pragma: no cover
        raise ReproError("breaker clocks never sleep")


def breaker_clock(clock: AsyncClock) -> Clock:
    """A sync :class:`Clock` view of ``clock`` for ``CircuitBreaker``."""
    return _BreakerClock(clock)


async def retry_call_async(
    fn: Callable[[], "asyncio.Future"],
    *,
    policy: RetryPolicy,
    clock: Optional[AsyncClock] = None,
    deadline: Optional[float] = None,
    retryable: Tuple[Type[BaseException], ...] = (Exception,),
    breaker: Optional[CircuitBreaker] = None,
    on_attempt: Optional[Callable[[int, Optional[BaseException]], None]] = None,
):
    """Await ``fn()`` under ``policy`` — the async twin of ``retry_call``.

    Semantics match :func:`repro.robustness.retry.retry_call` clause for
    clause: only ``retryable`` exceptions retry; ``deadline`` bounds the
    total budget (work + backoff) measured on ``clock``; ``breaker`` is
    consulted before and informed after every attempt; ``on_attempt``
    observes each outcome.  ``asyncio.CancelledError`` always
    propagates immediately — cancellation is a caller decision, never a
    provider failure, so it neither trips the breaker nor burns an
    attempt.
    """
    clock = clock or LoopClock()
    start = clock.monotonic()
    for attempt in range(policy.max_attempts):
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit open after {breaker.opened_times} trip(s); "
                "call rejected without attempting"
            )
        try:
            value = await fn()
        except asyncio.CancelledError:
            raise
        except retryable as exc:
            if breaker is not None:
                breaker.record_failure()
            if on_attempt is not None:
                on_attempt(attempt, exc)
            if attempt + 1 >= policy.max_attempts:
                raise
            delay = policy.delay_for(attempt)
            if (
                deadline is not None
                and clock.monotonic() + delay - start > deadline
            ):
                raise DeadlineExceededError(
                    f"deadline of {deadline:g}s exhausted after "
                    f"{attempt + 1} attempt(s)"
                ) from exc
            await clock.sleep(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            if on_attempt is not None:
                on_attempt(attempt, None)
            return value
    raise ReproError("unreachable: retry loop exited without outcome")
