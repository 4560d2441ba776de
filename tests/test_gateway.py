"""The asyncio serving gateway: oracle identity, admission control,
coalesced failure fan-out, and pooled-connection lifecycle.

The privacy acceptance bar is absolute: every cloak the async gateway
emits must be identical to what the synchronous ``CSP.request`` oracle
emits for the same user — concurrency buys throughput, never a
different anonymity decision.
"""

import asyncio
import copy

import pytest

from repro import Rect, ReproError, ServiceUnavailableError
from repro.core.requests import AnonymizedRequest, normalize_payload
from repro.data import uniform_users
from repro.lbs import CSP, LBSProvider, generate_pois
from repro.lbs.pipeline import ServedRequest
from repro.robustness import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.serving import (
    AsyncGateway,
    AsyncProviderClient,
    CoalescingBatcher,
    GatewayConfig,
    run_gateway,
)
from repro.serving.gateway import serve_all

K = 8
REGION = Rect(0, 0, 4096, 4096)


@pytest.fixture
def db():
    return uniform_users(160, REGION, seed=71)


@pytest.fixture
def provider():
    pois = generate_pois(REGION, {"rest": 80, "groc": 40}, seed=72)
    return LBSProvider(pois)


def make_csp(db, provider, **kwargs):
    return CSP(REGION, K, db, provider, **kwargs)


def workload_for(db, n, categories=("rest", "groc")):
    users = db.user_ids()
    return [
        (users[i % len(users)], [("poi", categories[i % len(categories)])])
        for i in range(n)
    ]


class TestConfig:
    def test_knobs_validated(self):
        for bad in (
            dict(max_inflight=0),
            dict(queue_high_water=0),
            dict(rate_per_user=-1.0),
            dict(burst_per_user=0.5),
        ):
            with pytest.raises(ReproError):
                GatewayConfig(**bad).validate()

    def test_batcher_knobs_validated(self):
        async def round_fn(requests):
            return ()

        with pytest.raises(ReproError):
            CoalescingBatcher(round_fn, max_batch=0)
        with pytest.raises(ReproError):
            CoalescingBatcher(round_fn, max_wait=-1)

    def test_client_knobs_validated(self, provider):
        with pytest.raises(ReproError):
            AsyncProviderClient(provider, pool_size=0)
        with pytest.raises(ReproError):
            AsyncProviderClient(provider, rtt=-1)
        with pytest.raises(ReproError):
            AsyncProviderClient(provider, deadline=0)


class TestOracleIdentity:
    def test_async_cloaks_identical_to_sync_oracle(self, db, provider):
        """The acceptance invariant: zero anonymity violations — every
        served cloak equals the sync oracle's for that user."""
        workload = workload_for(db, 120)
        oracle = make_csp(db, provider)
        expected = [oracle.request(uid, payload) for uid, payload in workload]

        csp = make_csp(db, provider)
        results, stats = csp.serve_async(
            workload, GatewayConfig(rtt=0.002, max_batch=32)
        )
        assert stats.served == len(workload)
        assert stats.errors == stats.shed == stats.throttled == 0
        mismatches = 0
        for (uid, __), served, want in zip(workload, results, expected):
            assert isinstance(served, ServedRequest)
            assert served.request.user_id == uid
            if served.anonymized.cloak != want.anonymized.cloak:
                mismatches += 1
            assert served.result == want.result
            assert served.degradation == want.degradation == "fresh"
        assert mismatches == 0

    def test_coalescing_amortizes_provider_traffic(self, db, provider):
        workload = workload_for(db, 150)
        csp = make_csp(db, provider)
        results, stats = csp.serve_async(
            workload, GatewayConfig(rtt=0.001, max_batch=32)
        )
        assert stats.served == len(workload)
        # k-anonymity makes cloaks shared, so distinct provider queries
        # must undercut one-per-request, and rounds undercut queries.
        assert stats.provider_queries < stats.served
        assert stats.queries_per_request < 1.0
        assert stats.provider_rounds <= stats.provider_queries
        assert stats.cache_hits + stats.coalesced > 0
        assert csp.base_provider.served == stats.provider_queries

    def test_sync_path_unchanged_after_async_run(self, db, provider):
        """Running the gateway must not perturb the sync oracle."""
        workload = workload_for(db, 40)
        csp = make_csp(db, provider)
        csp.serve_async(workload, GatewayConfig())
        oracle = make_csp(db, provider)
        for uid, payload in workload[:10]:
            a = csp.request(uid, payload)
            b = oracle.request(uid, payload)
            assert a.anonymized.cloak == b.anonymized.cloak


class TestAdmissionControl:
    def test_shed_under_burst_is_deterministic(self, db, provider):
        """Past the high-water mark submissions shed fail-closed, and the
        same seeded burst sheds the same requests on every run."""
        workload = workload_for(db, 30)
        config = GatewayConfig(
            max_inflight=1, queue_high_water=4, rtt=0.002
        )

        def burst():
            csp = make_csp(db, provider)
            results, stats = csp.serve_async(workload, config)
            shed_idx = [
                i
                for i, r in enumerate(results)
                if isinstance(r, ServiceUnavailableError)
                and r.reason == "shed"
            ]
            return shed_idx, stats

        first_idx, first_stats = burst()
        second_idx, second_stats = burst()
        assert first_stats.shed == len(first_idx) == 30 - 4
        assert first_idx == second_idx
        assert first_stats.served == second_stats.served == 4
        assert 0.0 < first_stats.availability < 1.0

    def test_token_bucket_throttles_chatty_user(self, db, provider):
        user = db.user_ids()[0]
        workload = [(user, [("poi", "rest")])] * 6
        csp = make_csp(db, provider)
        results, stats = csp.serve_async(
            workload,
            GatewayConfig(rate_per_user=0.0001, burst_per_user=2.0),
        )
        assert stats.throttled == 4
        throttled = [
            r for r in results if isinstance(r, ServiceUnavailableError)
        ]
        assert len(throttled) == 4
        assert all(r.reason == "throttle" for r in throttled)
        assert stats.served == 2

    def test_quiet_users_unaffected_by_rate_limit(self, db, provider):
        workload = workload_for(db, 20)  # distinct users
        csp = make_csp(db, provider)
        __, stats = csp.serve_async(
            workload, GatewayConfig(rate_per_user=0.0001, burst_per_user=2.0)
        )
        assert stats.throttled == 0
        assert stats.served == 20


class TestCoalescedFailure:
    def test_shared_round_failure_fans_one_typed_error(self, db, provider):
        """Every waiter coalesced onto a failed round gets the *same*
        ServiceUnavailableError instance, and the breaker counts the
        round's attempts once — not once per waiter."""
        plan = FaultPlan(
            rules=(FaultRule(site="provider", kind="error"),), seed=3
        )
        breaker = CircuitBreaker(failure_threshold=100)
        csp = make_csp(
            db,
            provider,
            injector=FaultInjector(plan),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            circuit_breaker=breaker,
        )
        workload = workload_for(db, 24)
        results, stats = csp.serve_async(
            workload, GatewayConfig(max_batch=64, max_wait=0.005)
        )
        failures = [
            r for r in results if isinstance(r, ServiceUnavailableError)
        ]
        assert len(failures) == len(workload)
        assert all(f.reason == "provider" for f in failures)
        assert stats.errors == len(workload)
        assert stats.served == 0
        # One window → one round → exactly max_attempts breaker counts,
        # no matter how many waiters shared the round.
        assert breaker._consecutive_failures == 2
        assert any(e.level == "rejected" for e in csp.events)

    def test_transient_round_failure_retries_to_success(self, db, provider):
        plan = FaultPlan(
            rules=(
                FaultRule(site="provider", kind="error", max_attempt=1),
            ),
            seed=3,
        )
        csp = make_csp(
            db,
            provider,
            injector=FaultInjector(plan),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        workload = workload_for(db, 30)
        results, stats = csp.serve_async(
            workload, GatewayConfig(max_batch=64, max_wait=0.005)
        )
        assert stats.served == len(workload)
        assert stats.errors == 0
        assert all(isinstance(r, ServedRequest) for r in results)
        # The injector struck at least the first attempt of each round.
        assert csp.injector.fired.get(("provider", "error"), 0) >= 1


def _anon(request_id, offset=0):
    return AnonymizedRequest(
        request_id=request_id,
        cloak=Rect(offset * 8, 0, offset * 8 + 64, 64),
        payload=normalize_payload([("poi", "rest")]),
    )


class TestPooledClient:
    def test_cancellation_reaches_the_pooled_connection(self, provider):
        """A caller cancelled mid-round must tear down the in-flight
        connection (never return a half-read one) and the pool must come
        back to full strength with a fresh replacement."""
        client = AsyncProviderClient(provider, pool_size=2, rtt=0.05)

        async def drive():
            task = asyncio.ensure_future(client.serve_round([_anon(1)]))
            await asyncio.sleep(0.005)  # mid-RTT
            assert client.idle_connections == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(drive())
        assert client.stats.cancelled == 1
        assert client.stats.replaced == 1

        async def after():
            # Full strength, and the replacement is a *new* connection.
            assert client.idle_connections == 2
            conns = [await client._acquire(), await client._acquire()]
            ids = {c.conn_id for c in conns}
            assert any(i >= 2 for i in ids)
            assert all(not c.closed for c in conns)
            for c in conns:
                client._release(c)

        asyncio.run(after())

    def test_deadline_overrun_replaces_connection(self, provider):
        client = AsyncProviderClient(
            provider, pool_size=1, rtt=0.05, deadline=0.01
        )
        from repro.core.errors import DeadlineExceededError

        async def drive():
            with pytest.raises(DeadlineExceededError):
                await client.serve_round([_anon(1)])

        asyncio.run(drive())
        assert client.stats.deadline_hits == 1
        assert client.stats.replaced == 1

        async def after():
            assert client.idle_connections == 1

        asyncio.run(after())

    def test_provider_error_returns_connection_intact(self):
        class Broken:
            def serve_many(self, requests):
                raise ConnectionError("5xx")

        client = AsyncProviderClient(Broken(), pool_size=1)

        async def drive():
            with pytest.raises(ConnectionError):
                await client.serve_round([_anon(1)])
            assert client.idle_connections == 1

        asyncio.run(drive())
        assert client.stats.replaced == 0

    def test_round_pays_one_rtt_for_many_queries(self, provider):
        from repro.robustness import VirtualClock

        clock = VirtualClock()
        client = AsyncProviderClient(provider, pool_size=4, rtt=0.01, clock=clock)

        async def drive():
            return await client.serve_round(
                [_anon(i, offset=i) for i in range(10)]
            )

        asyncio.run(drive())
        assert clock.slept == pytest.approx(0.01)  # one RTT, ten queries
        assert client.stats.rounds == 1
        assert client.stats.queries == 10
        assert client.stats.batching == 10.0


class TestGatewayCancellation:
    def test_cancelled_submit_counts_and_leaves_gateway_serving(
        self, db, provider
    ):
        csp = make_csp(db, provider)
        gateway = AsyncGateway(csp, GatewayConfig(rtt=0.03, max_wait=0.001))
        users = db.user_ids()

        async def drive():
            victim = asyncio.ensure_future(
                gateway.submit(users[0], [("poi", "rest")])
            )
            await asyncio.sleep(0.005)
            victim.cancel()
            with pytest.raises(asyncio.CancelledError):
                await victim
            # The gateway keeps serving after the cancellation.
            served = await gateway.submit(users[1], [("poi", "rest")])
            await gateway.close()
            return served

        served = asyncio.run(drive())
        assert isinstance(served, ServedRequest)
        assert gateway.stats.cancelled == 1
        assert gateway.stats.served == 1


class TestFacade:
    def test_run_gateway_matches_serve_async(self, db, provider):
        workload = workload_for(db, 20)
        a_results, a_stats = run_gateway(
            make_csp(db, provider), workload, GatewayConfig()
        )
        b_results, b_stats = make_csp(db, provider).serve_async(
            workload, GatewayConfig()
        )
        assert a_stats.served == b_stats.served == 20
        for x, y in zip(a_results, b_results):
            assert x.anonymized.cloak == y.anonymized.cloak

    def test_serve_all_preserves_workload_order(self, db, provider):
        csp = make_csp(db, provider)
        gateway = AsyncGateway(csp, GatewayConfig())
        workload = workload_for(db, 12)
        results = asyncio.run(serve_all(gateway, workload))
        assert [r.request.user_id for r in results] == [
            uid for uid, __ in workload
        ]


class TestGauges:
    def test_queue_and_inflight_high_water_tracked(self, db, provider):
        config = GatewayConfig(max_inflight=4, rtt=0.005)
        __, stats = run_gateway(
            make_csp(db, provider), workload_for(db, 40), config
        )
        assert stats.queue_depth_high_water >= 1
        assert 1 <= stats.inflight_high_water <= config.max_inflight
        # A 40-deep burst against 4 inflight slots must actually queue.
        assert stats.queue_depth_high_water > config.max_inflight

    def test_gauges_zero_on_idle_gateway(self, db, provider):
        __, stats = run_gateway(
            make_csp(db, provider), [], GatewayConfig()
        )
        assert stats.queue_depth_high_water == 0
        assert stats.inflight_high_water == 0


class TestOneDedupLayer:
    """The batcher is the gateway's only keyed layer: its counters,
    billing and fan-out must add up under both cache settings."""

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_counters_partition_served_requests(self, db, provider, use_cache):
        workload = workload_for(db, 200)
        oracle = make_csp(db, LBSProvider(provider.pois), use_cache=use_cache)
        expected = [oracle.request(uid, payload) for uid, payload in workload]

        csp = make_csp(db, provider, use_cache=use_cache)
        results, stats = csp.serve_async(
            workload, GatewayConfig(rtt=0.002, max_batch=8)
        )
        assert stats.served == len(workload)
        assert stats.coalesced > 0  # duplicates really fanned out
        if not use_cache:
            assert stats.cache_hits == 0
        assert (
            stats.cache_hits + stats.coalesced + stats.provider_queries
            == stats.served
        )
        assert stats.provider_queries == csp.base_provider.served
        for served, want in zip(results, expected):
            assert served.anonymized.cloak == want.anonymized.cloak
            assert served.result == want.result

    def test_close_settles_async_billing_into_csp_cache(self, db, provider):
        csp = make_csp(db, provider)
        results, stats = csp.serve_async(
            workload_for(db, 120), GatewayConfig(rtt=0.002, max_batch=32)
        )
        withheld = stats.cache_hits + stats.coalesced
        assert withheld > 0
        assert sum(csp.cache.flush().values()) == withheld

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_second_close_leaves_stats_unchanged(self, db, provider, use_cache):
        csp = make_csp(db, provider, use_cache=use_cache)
        gateway = AsyncGateway(csp, GatewayConfig(rtt=0.002, max_batch=32))

        async def drive():
            await serve_all(gateway, workload_for(db, 120))
            first = copy.deepcopy(gateway.stats)
            billing = dict(csp.cache.deferred_billing) if use_cache else None
            await gateway.close()
            if use_cache:
                assert csp.cache.deferred_billing == billing
            return first

        first = asyncio.run(drive())
        assert first.coalesced > 0
        assert gateway.stats == first
