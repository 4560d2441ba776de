"""CSP-side answer cache (§VII "Beyond k-anonymity").

The paper observes that frequency-counting attacks in the spirit of
l-diversity / t-closeness — e.g. seeing as many identical requests from
a cloak as the cloak holds users — are precluded if the anonymizer
caches LBS answers keyed by the anonymized request: the LBS then never
sees (and so can never log, leak, or be subpoenaed for) duplicate
requests within the cache's lifetime.  For stationary POIs the cache
can live long, flushed at infrequent intervals; billing is preserved by
keeping aggregate counts and submitting them at flush time.

Fault tolerance: a provider exception mid-``fetch`` leaves the cache
untouched and the hit/miss statistics consistent — failed calls are
tallied separately in ``stats.errors`` and never counted as misses, so
``hits + misses`` always equals the number of successfully answered
fetches.  An optional :class:`~repro.robustness.retry.RetryPolicy`
(plus circuit breaker and deadline) retries the provider call itself.

This is the synchronous cache of the ``CSP.request`` oracle.  The async
gateway's answer store, with single-flight coalescing of in-flight
duplicates, is :class:`~repro.serving.batcher.CoalescingBatcher`; the
gateway folds its deferred billing into this cache's at close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.requests import AnonymizedRequest
from ..robustness.retry import CircuitBreaker, Clock, RetryPolicy, retry_call
from .provider import QueryAnswer

__all__ = ["CacheStats", "AnswerCache"]

#: Cache key: the information the LBS would have seen.
CacheKey = Tuple[object, tuple]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    #: provider call attempts that raised (each retry counts once).
    errors: int = 0
    #: extra provider attempts beyond the first, across all fetches.
    retries: int = 0

    @property
    def total(self) -> int:
        """Successfully answered fetches."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class AnswerCache:
    """Answer cache keyed by ``(cloak, payload)``.

    ``fetch`` consults the cache before the LBS.  Per-category counts of
    *suppressed* duplicates accumulate so the CSP can settle billing
    with the LBS at flush time without revealing per-request timing.

    ``retry_policy`` (with optional ``breaker``, ``clock`` and
    ``deadline``) makes the provider call itself fault tolerant; leave
    unset when an outer layer (the CSP) owns the retry loop.
    """

    def __init__(
        self,
        provider,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Optional[Clock] = None,
        deadline: Optional[float] = None,
        retryable: Tuple[type, ...] = (Exception,),
    ):
        self.provider = provider
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.clock = clock
        self.deadline = deadline
        self.retryable = retryable
        self._answers: Dict[CacheKey, QueryAnswer] = {}
        self.stats = CacheStats()
        #: duplicates withheld from the LBS, per category (for billing).
        self.deferred_billing: Dict[str, int] = {}

    @staticmethod
    def _key(request: AnonymizedRequest) -> CacheKey:
        return (request.cloak, request.payload)

    def _call_provider(self, request: AnonymizedRequest) -> QueryAnswer:
        if self.retry_policy is None and self.breaker is None:
            try:
                return self.provider.serve(request)
            except Exception:
                self.stats.errors += 1
                raise

        def observe(attempt: int, exc) -> None:
            if exc is not None:
                self.stats.errors += 1
                if attempt + 1 < self.retry_policy.max_attempts:
                    self.stats.retries += 1

        return retry_call(
            lambda: self.provider.serve(request),
            policy=self.retry_policy or RetryPolicy(max_attempts=1),
            clock=self.clock,
            deadline=self.deadline,
            retryable=self.retryable,
            breaker=self.breaker,
            on_attempt=observe,
        )

    def fetch(self, request: AnonymizedRequest) -> QueryAnswer:
        key = self._key(request)
        cached = self._answers.get(key)
        if cached is not None:
            self.stats.hits += 1
            category = dict(request.payload).get("poi", "?")
            self.deferred_billing[category] = (
                self.deferred_billing.get(category, 0) + 1
            )
            # Re-stamp with this request's id; the payload is identical.
            return QueryAnswer(request.request_id, cached.candidates)
        # The provider call happens *before* the miss is recorded: a
        # failure leaves stats and cache exactly as they were, so a
        # retried fetch is indistinguishable from a first attempt.
        answer = self._call_provider(request)
        self.stats.misses += 1
        self._answers[key] = answer
        return answer

    def flush(self) -> Dict[str, int]:
        """Empty the cache (e.g. daily, per §VII) and hand back the
        deferred billing totals for settlement with the LBS."""
        settled = dict(self.deferred_billing)
        self._answers.clear()
        self.deferred_billing.clear()
        return settled

    def __len__(self) -> int:
        return len(self._answers)

