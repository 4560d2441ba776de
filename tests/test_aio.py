"""Async robustness primitives: retry/backoff port, clocks, the
virtual-time event loop, and the batcher's single-flight answer store.

The async ports must be semantically identical to their sync twins —
same policies, same delays (deterministic jitter included), shareable
breaker instances — so the sync path can stay the privacy oracle while
the gateway overlaps I/O.
"""

import asyncio
import time

import pytest

from repro.core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
)
from repro.core.requests import AnonymizedRequest, normalize_payload
from repro.lbs.provider import QueryAnswer
from repro.robustness import (
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    VirtualClock,
    VirtualTimeLoop,
    breaker_clock,
    retry_call,
    retry_call_async,
)
from repro.serving import CoalescingBatcher


def run(coro):
    return asyncio.run(coro)


class Flaky:
    """Fails ``failures`` times, then succeeds with ``value``."""

    def __init__(self, failures, value="ok", exc=TimeoutError):
        self.failures = failures
        self.value = value
        self.exc = exc
        self.calls = 0

    async def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"boom {self.calls}")
        return self.value


class TestVirtualClock:
    def test_sleep_accumulates_and_yields(self):
        clock = VirtualClock()

        async def use():
            await clock.sleep(1.5)
            await clock.sleep(0.5)
            return clock.monotonic()

        assert run(use()) == 2.0
        assert clock.slept == 2.0

    def test_negative_sleep_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ReproError):
            run(clock.sleep(-1))

    def test_advance_is_not_backoff(self):
        clock = VirtualClock(start=10.0)
        clock.advance(5.0)
        assert clock.monotonic() == 15.0
        assert clock.slept == 0.0

    def test_breaker_clock_reads_through(self):
        clock = VirtualClock(start=3.0)
        sync_view = breaker_clock(clock)
        assert sync_view.monotonic() == 3.0
        with pytest.raises(ReproError):
            sync_view.sleep(1.0)


class TestVirtualTimeLoop:
    def test_an_hour_of_sleep_takes_no_wall_time(self):
        async def nap():
            await asyncio.sleep(3600)
            return asyncio.get_running_loop().time()

        started = time.perf_counter()
        assert VirtualTimeLoop().run(nap()) == 3600
        assert time.perf_counter() - started < 1.0

    def test_time_advances_only_while_idle(self):
        seen = []

        async def busy():
            loop = asyncio.get_running_loop()
            loop.call_later(5.0, lambda: seen.append(("timer", loop.time())))
            for __ in range(50):
                seen.append(("busy", loop.time()))
                await asyncio.sleep(0)  # ready again: no idle gap
            await asyncio.sleep(10.0)
            return loop.time()

        assert VirtualTimeLoop().run(busy()) == 10.0
        assert seen[:50] == [("busy", 0.0)] * 50
        assert seen[50:] == [("timer", 5.0)]

    def test_idle_loop_without_timers_raises(self):
        async def forever():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(ReproError, match="idle"):
            VirtualTimeLoop().run(forever())


class TestGatewayOnVirtualTime:
    """The production gateway on a virtual-time loop is the capacity
    model: reruns agree exactly and every cloak is the policy's."""

    def _csp(self):
        from repro import Rect
        from repro.data import uniform_users
        from repro.lbs import CSP, LBSProvider, generate_pois

        region = Rect(0, 0, 4096, 4096)
        provider = LBSProvider(
            generate_pois(region, {"rest": 40, "groc": 30}, seed=3)
        )
        return CSP(region, 8, uniform_users(150, region, seed=5), provider)

    def _run(self, schedule):
        from repro.serving.gateway import (
            AsyncGateway,
            GatewayConfig,
            serve_scheduled,
        )

        csp = self._csp()
        config = GatewayConfig(
            queue_high_water=8, rtt=0.05, max_wait=0.008,
            max_batch=8, pool_size=2,
        )
        gateway = AsyncGateway(csp, config)
        results = VirtualTimeLoop().run(serve_scheduled(gateway, schedule))
        return csp, results, gateway.stats

    def _schedule(self):
        from repro.lbs import poisson_schedule

        users = self._csp().mpc.db.user_ids()
        return [
            (t, user, [("poi", category)])
            for t, user, category in poisson_schedule(
                users, 8.0, 0.5, categories=("rest", "groc"), seed=7
            )
        ]

    @staticmethod
    def _outcome(result):
        if isinstance(result, BaseException):
            return (type(result).__name__, getattr(result, "reason", None))
        return result

    def test_reruns_agree_exactly(self):
        schedule = self._schedule()
        __, first, first_stats = self._run(schedule)
        __, second, second_stats = self._run(schedule)
        assert first_stats == second_stats
        assert first_stats.shed > 0 and first_stats.served > 0
        assert [self._outcome(r) for r in first] == [
            self._outcome(r) for r in second
        ]

    def test_served_cloaks_are_the_policys(self):
        schedule = self._schedule()
        csp, results, stats = self._run(schedule)
        served = [r for r in results if not isinstance(r, BaseException)]
        assert len(served) == stats.served > 0
        for result in served:
            user = result.request.user_id
            assert result.anonymized.cloak == csp.policy.cloak_for(user)

    def test_pool_wait_is_not_provider_rtt(self):
        """Two concurrent rounds share one pooled connection: the second
        queues for it for a whole RTT, yet the admission controller must
        observe 0.05 s for both — the round is timed from acquire."""
        from repro.serving.admission import AdmissionController
        from repro.serving.gateway import (
            AsyncGateway,
            GatewayConfig,
            serve_scheduled,
        )

        csp = self._csp()
        controller = AdmissionController(64)
        observed = []
        observe = controller.observe_round

        def record(rtt, **flags):
            observed.append(rtt)
            observe(rtt, **flags)

        controller.observe_round = record
        config = GatewayConfig(
            queue_high_water=64, rtt=0.05, max_batch=1, pool_size=1
        )
        gateway = AsyncGateway(csp, config, admission=controller)
        a, b = [
            next(u for u in csp.mpc.db.user_ids()
                 if csp.policy.cloak_for(u) == cloak)
            for cloak in list(csp.policy.groups())[:2]
        ]
        schedule = [(0.0, a, [("poi", "rest")]), (0.0, b, [("poi", "rest")])]
        results = VirtualTimeLoop().run(serve_scheduled(gateway, schedule))
        assert not any(isinstance(r, BaseException) for r in results)
        assert gateway.stats.provider_rounds == 2
        assert observed == [pytest.approx(0.05), pytest.approx(0.05)]


class TestRetryCallAsync:
    def test_succeeds_after_transient_failures(self):
        fn = Flaky(2)
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, seed=4)
        assert run(retry_call_async(fn, policy=policy, clock=clock)) == "ok"
        assert fn.calls == 3

    def test_backoff_identical_to_sync_twin(self):
        """The async port reuses RetryPolicy verbatim: total backoff must
        equal the sync retry_call's to the last jittered microsecond."""
        policy = RetryPolicy(max_attempts=4, base_delay=0.07, seed=9)

        sync_clock = ManualClock()
        with pytest.raises(TimeoutError):
            retry_call(
                _always_fail_sync, policy=policy, clock=sync_clock
            )

        async_clock = VirtualClock()
        with pytest.raises(TimeoutError):
            run(
                retry_call_async(
                    _always_fail_async, policy=policy, clock=async_clock
                )
            )
        assert async_clock.slept == sync_clock.slept > 0.0

    def test_exhaustion_reraises_last_error(self):
        fn = Flaky(5)
        with pytest.raises(TimeoutError, match="boom 2"):
            run(
                retry_call_async(
                    fn,
                    policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                    clock=VirtualClock(),
                )
            )

    def test_non_retryable_propagates_immediately(self):
        fn = Flaky(1, exc=ValueError)
        with pytest.raises(ValueError):
            run(
                retry_call_async(
                    fn,
                    policy=RetryPolicy(max_attempts=5, base_delay=0.0),
                    clock=VirtualClock(),
                    retryable=(TimeoutError,),
                )
            )
        assert fn.calls == 1

    def test_deadline_refuses_doomed_backoff(self):
        fn = Flaky(10)
        clock = VirtualClock()
        with pytest.raises(DeadlineExceededError):
            run(
                retry_call_async(
                    fn,
                    policy=RetryPolicy(
                        max_attempts=10, base_delay=1.0, jitter=0.0
                    ),
                    clock=clock,
                    deadline=2.5,
                )
            )
        # The overrunning backoff is refused, never slept toward.
        assert clock.slept <= 2.5

    def test_breaker_shared_with_sync_path(self):
        """One breaker instance guards both serving paths: async failures
        push it open, and the sync path then fails fast too."""
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=2,
            reset_timeout=60.0,
            clock=breaker_clock(clock),
        )
        with pytest.raises(TimeoutError):
            run(
                retry_call_async(
                    Flaky(9),
                    policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                    clock=clock,
                    breaker=breaker,
                )
            )
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            retry_call(
                _always_fail_sync,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                clock=ManualClock(),
                breaker=breaker,
            )

    def test_cancellation_neither_retries_nor_trips_breaker(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            clock=breaker_clock(clock),
        )
        started = 0

        async def hang():
            nonlocal started
            started += 1
            await asyncio.sleep(3600)

        async def drive():
            task = asyncio.ensure_future(
                retry_call_async(
                    hang,
                    policy=RetryPolicy(max_attempts=3, base_delay=0.0),
                    clock=clock,
                    breaker=breaker,
                )
            )
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        run(drive())
        assert started == 1  # cancellation burned no retry attempt
        assert breaker.state == "closed"  # and is not a provider failure


def _always_fail_sync():
    raise TimeoutError("down")


async def _always_fail_async():
    raise TimeoutError("down")


def _request(request_id, cloak="cloak-a", category="rest"):
    return AnonymizedRequest(
        request_id=request_id,
        cloak=cloak,
        payload=normalize_payload([("poi", category)]),
    )


class CountingLoader:
    def __init__(self, delay=0.0, exc=None):
        self.calls = 0
        self.delay = delay
        self.exc = exc

    async def __call__(self, request):
        self.calls += 1
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.exc is not None:
            raise self.exc
        return QueryAnswer(request.request_id, ())


def _batcher(loader, **kwargs):
    """The gateway's keyed layer with its answer store on, over a
    ``round_fn`` that asks ``loader`` once per distinct key."""

    async def round_fn(requests):
        return [await loader(request) for request in requests]

    return CoalescingBatcher(round_fn, cache=True, **kwargs)


class TestAsyncAnswerCache:
    """The single-flight answer store, now inside ``CoalescingBatcher``."""

    def test_single_flight_fill(self):
        loader = CountingLoader(delay=0.01)
        batcher = _batcher(loader)

        async def drive():
            return await asyncio.gather(
                *(batcher.fetch(_request(i)) for i in range(8))
            )

        results = run(drive())
        assert loader.calls == 1  # one provider call for 8 racers
        assert batcher.stats.keys_flushed == 1
        assert batcher.stats.coalesced == 7
        assert batcher.stats.hits == 0
        # Everyone got the answer, re-stamped with their own id.
        assert [a.request_id for a, __ in results] == list(range(8))
        hit_flags = [hit for __, hit in results]
        assert hit_flags.count(True) == 0

    def test_hit_after_fill(self):
        loader = CountingLoader()
        batcher = _batcher(loader)

        async def drive():
            await batcher.fetch(_request(1))
            return await batcher.fetch(_request(2))

        answer, hit = run(drive())
        assert hit and batcher.stats.coalesced == 0
        assert loader.calls == 1
        assert batcher.stats.hits == 1
        assert batcher.deferred_billing == {"rest": 1}
        assert answer.request_id == 2

    def test_distinct_keys_do_not_share(self):
        loader = CountingLoader()
        batcher = _batcher(loader)

        async def drive():
            await asyncio.gather(
                batcher.fetch(_request(1, cloak="a")),
                batcher.fetch(_request(2, cloak="b")),
            )

        run(drive())
        assert loader.calls == 2
        assert batcher.stats.keys_flushed == 2

    def test_failed_fill_fans_same_exception_and_leaves_no_trace(self):
        boom = ConnectionError("wire down")
        loader = CountingLoader(delay=0.01, exc=boom)
        batcher = _batcher(loader)

        async def drive():
            return await asyncio.gather(
                *(batcher.fetch(_request(i)) for i in range(5)),
                return_exceptions=True,
            )

        results = run(drive())
        assert all(exc is boom for exc in results)  # the same instance
        assert batcher._answers == {}
        assert batcher.stats.keys_flushed == 0  # failures are not misses
        assert batcher.stats.hits == 0
        # A later fetch retries from scratch and can succeed.
        loader.exc = None
        coalesced = batcher.stats.coalesced
        answer, hit = run(batcher.fetch(_request(9)))
        assert not hit and batcher.stats.coalesced == coalesced
        assert loader.calls == 2  # the failed round's call, then this one

    def test_cancelled_waiter_does_not_kill_shared_fill(self):
        loader = CountingLoader(delay=0.02)
        batcher = _batcher(loader)

        async def drive():
            first = asyncio.ensure_future(batcher.fetch(_request(1)))
            await asyncio.sleep(0.001)
            second = asyncio.ensure_future(batcher.fetch(_request(2)))
            await asyncio.sleep(0.001)
            second.cancel()
            with pytest.raises(asyncio.CancelledError):
                await second
            return await first

        answer, hit = run(drive())
        assert answer.request_id == 1
        assert loader.calls == 1
        assert batcher.stats.keys_flushed == 1

    def test_flush_returns_billing(self):
        loader = CountingLoader()
        batcher = _batcher(loader)

        async def drive():
            await batcher.fetch(_request(1))
            await batcher.fetch(_request(2))
            await batcher.fetch(_request(3))

        run(drive())
        assert batcher.flush() == {"rest": 2}
        assert batcher._answers == {}
        assert batcher.deferred_billing == {}


class TestAsyncCacheCloseDiscipline:
    """Regression for the fail-closed linter fix: ``close()`` swallows
    only the cancellation it requested; anything else propagates."""

    def test_close_cancels_inflight_fills_quietly(self):
        loader = CountingLoader(delay=60.0)
        # max_batch=1 launches the round at once, so close() meets a
        # round task that has not taken its first step yet.
        batcher = _batcher(loader, max_batch=1)

        async def drive():
            waiter = asyncio.ensure_future(batcher.fetch(_request(1)))
            await asyncio.sleep(0)
            await batcher.close()
            with pytest.raises(asyncio.CancelledError):
                await waiter

        run(drive())
        assert len(batcher._rounds) == 0 and len(batcher._pending) == 0

    def test_close_propagates_unexpected_task_failure(self):
        batcher = _batcher(CountingLoader())

        async def explode():
            raise ValueError("boom — not a cancellation")

        async def drive():
            task = asyncio.get_event_loop().create_task(explode())
            await asyncio.sleep(0)
            batcher._rounds[task] = []
            with pytest.raises(ValueError, match="boom"):
                await batcher.close()

        run(drive())

    def test_loader_failure_reaches_waiters_not_close(self):
        loader = CountingLoader(exc=TimeoutError("wire down"))
        batcher = _batcher(loader)

        async def drive():
            with pytest.raises(TimeoutError):
                await batcher.fetch(_request(1))
            await batcher.close()  # nothing left to swallow or raise

        run(drive())
        assert batcher.stats.keys_flushed == 0 and batcher._answers == {}
