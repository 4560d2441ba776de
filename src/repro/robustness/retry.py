"""Generic retry with exponential backoff, deadlines, and a breaker.

Everything here is deterministic and clock-injectable:

* :class:`RetryPolicy` computes backoff delays with *deterministic*
  jitter (a pure hash of ``(seed, attempt)``), so two runs of the same
  chaos schedule wait exactly as long — latency percentiles under
  faults are reproducible numbers, not noise;
* :class:`ManualClock` lets tests and benches account for backoff
  time without real sleeping;
* :class:`CircuitBreaker` protects a dependency (the LBS provider) from
  retry storms: after ``failure_threshold`` consecutive failures it
  fails fast with :class:`~repro.core.errors.CircuitOpenError` until a
  ``reset_timeout``-spaced half-open probe succeeds.

:func:`retry_call` ties the three together and enforces an optional
per-call deadline budget: a backoff that would overrun the deadline
raises :class:`~repro.core.errors.DeadlineExceededError` immediately
instead of sleeping toward a guaranteed failure.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from ..core.errors import CircuitOpenError, DeadlineExceededError, ReproError

__all__ = [
    "Clock",
    "SystemClock",
    "ManualClock",
    "RetryPolicy",
    "CircuitBreaker",
    "retry_call",
]


class Clock:
    """Minimal clock interface: a monotonic reading and a sleep."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """The real wall clock (production default)."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """A virtual clock: sleeping advances simulated time instantly.

    ``slept`` accumulates total backoff time, which callers charge to
    request latency.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self.slept = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ReproError("cannot sleep a negative duration")
        self.now += seconds
        self.slept += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without counting it as backoff."""
        self.now += seconds


def _jitter_draw(seed: int, attempt: int) -> float:
    token = f"retry|{seed}|{attempt}".encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule with deterministic jitter.

    ``delay_for(attempt)`` is the wait *after* a failed attempt
    (0-indexed): ``base_delay · multiplier^attempt``, capped at
    ``max_delay``, scaled by a jitter factor in ``[1-jitter, 1+jitter]``
    drawn purely from ``(seed, attempt)``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be ≥ 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ReproError("delays must be ≥ 0")
        if self.multiplier < 1.0:
            raise ReproError("multiplier must be ≥ 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ReproError("jitter must be within [0, 1)")

    def delay_for(self, attempt: int) -> float:
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        factor = 1.0 + self.jitter * (2.0 * _jitter_draw(self.seed, attempt) - 1.0)
        return raw * factor

    def total_backoff(self) -> float:
        """Worst-case time spent sleeping if every attempt fails."""
        return sum(self.delay_for(i) for i in range(self.max_attempts - 1))


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    States: ``closed`` (calls flow), ``open`` (calls rejected fast),
    ``half_open`` (one probe allowed after ``reset_timeout``).  The
    breaker is clock-injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Optional[Clock] = None,
    ):
        if failure_threshold < 1:
            raise ReproError("failure_threshold must be ≥ 1")
        if reset_timeout < 0:
            raise ReproError("reset_timeout must be ≥ 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock or SystemClock()
        #: a gateway thread records outcomes while another calls
        #: :meth:`allow`; the transition logic must see both fields
        #: move together.
        self._lock = threading.Lock()
        self._consecutive_failures = 0  # guarded-by: self._lock
        self._opened_at: Optional[float] = None  # guarded-by: self._lock
        self._probing = False  # guarded-by: self._lock
        #: lifetime counters, surfaced by benches.
        self.rejected = 0
        self.opened_times = 0

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half_open"
        if self.clock.monotonic() - self._opened_at >= self.reset_timeout:
            return "half_open"
        return "open"

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """May a call proceed right now?  (Counts rejections.)"""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half_open":
                self._probing = True
                return True
            self.rejected += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            threshold_hit = (
                self._consecutive_failures >= self.failure_threshold
            )
            if self._probing or threshold_hit:
                # A failed half-open probe re-opens immediately.
                if self._opened_at is None or self._probing:
                    self.opened_times += 1
                self._opened_at = self.clock.monotonic()
                self._probing = False


def retry_call(
    fn: Callable[[], object],
    *,
    policy: RetryPolicy,
    clock: Optional[Clock] = None,
    deadline: Optional[float] = None,
    retryable: Tuple[Type[BaseException], ...] = (Exception,),
    breaker: Optional[CircuitBreaker] = None,
    on_attempt: Optional[Callable[[int, Optional[BaseException]], None]] = None,
):
    """Call ``fn`` under ``policy``, returning its value.

    * only ``retryable`` exceptions trigger a retry; anything else
      propagates immediately (a malformed request will not get better);
    * ``deadline`` bounds the *total* budget (work + backoff) measured
      on ``clock`` from the first attempt;
    * ``breaker`` is consulted before every attempt and informed of the
      outcome;
    * ``on_attempt(attempt, exc_or_None)`` observes every attempt —
      callers use it to count attempts and errors.
    """
    clock = clock or SystemClock()
    start = clock.monotonic()
    for attempt in range(policy.max_attempts):
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit open after {breaker.opened_times} trip(s); "
                "call rejected without attempting"
            )
        try:
            value = fn()
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
            clock.sleep(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            if on_attempt is not None:
                on_attempt(attempt, None)
            return value
    raise ReproError("unreachable: retry loop exited without outcome")
