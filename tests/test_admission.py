"""Adaptive (AIMD) admission: containment invariant, controller
dynamics, and the gateway integrations on virtual time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect
from repro.core.errors import ReproError, ServiceUnavailableError
from repro.data import uniform_users
from repro.lbs.pipeline import CSP
from repro.lbs.poi import generate_pois
from repro.lbs.provider import LBSProvider
from repro.lbs.mobility import poisson_schedule
from repro.robustness import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    LoopClock,
    VirtualTimeLoop,
    breaker_clock,
)
from repro.robustness.retry import CircuitBreaker, ManualClock
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.gateway import (
    AsyncGateway,
    GatewayConfig,
    run_gateway,
    serve_scheduled,
)

REGION = Rect(0, 0, 4096, 4096)
K = 8


def make_csp(n_users=120, seed=5, **kwargs):
    db = uniform_users(n_users, REGION, seed=seed)
    provider = LBSProvider(
        generate_pois(REGION, {"rest": 40, "groc": 30}, seed=3)
    )
    return CSP(REGION, K, db, provider, **kwargs)


def run_virtual(csp, config, schedule, admission=None):
    """Replay ``(time, user, category)`` arrivals through the real
    gateway on virtual time; returns its stats."""
    gateway = AsyncGateway(csp, config, admission=admission)
    requests = [(t, user, [("poi", cat)]) for t, user, cat in schedule]
    VirtualTimeLoop().run(serve_scheduled(gateway, requests))
    return gateway.stats


# One observation of one provider round, as hypothesis generates them.
observations = st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.booleans(),
    st.booleans(),
)


class TestControllerInvariant:
    @given(
        static=st.integers(min_value=1, max_value=4096),
        rounds=st.lists(observations, max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_adaptive_never_looser_than_static(self, static, rounds):
        """The acceptance property: after ANY sequence of RTT/failure/
        breaker observations, every request adaptive admission admits
        would also have been admitted by the static fail-closed policy
        (pending < static high-water)."""
        controller = AdmissionController(static)
        for rtt, failed, breaker_open in rounds:
            controller.observe_round(
                rtt, failed=failed, breaker_open=breaker_open
            )
            assert 1 <= controller.high_water <= static
            # Pointwise containment at every queue depth.
            for pending in (0, controller.high_water - 1,
                            controller.high_water, static, static + 1):
                if controller.admit(pending):
                    assert pending < static

    @given(rounds=st.lists(observations, min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_limit_floor_holds(self, rounds):
        controller = AdmissionController(
            64, AdmissionConfig(min_limit=3)
        )
        for rtt, failed, breaker_open in rounds:
            controller.observe_round(
                rtt, failed=failed, breaker_open=breaker_open
            )
        assert controller.limit >= 3


class TestControllerDynamics:
    def test_decreases_on_congestion_increases_when_healthy(self):
        config = AdmissionConfig(rtt_target=0.1, ewma_alpha=1.0)
        controller = AdmissionController(100, config)
        controller.observe_round(0.5)  # over target → MD
        assert controller.limit == pytest.approx(50.0)
        assert controller.decreases == 1
        controller.observe_round(0.01)  # healthy → AI
        assert controller.limit == pytest.approx(51.0)
        assert controller.increases == 1

    def test_failed_round_is_congestion_regardless_of_rtt(self):
        controller = AdmissionController(
            100, AdmissionConfig(rtt_target=10.0)
        )
        controller.observe_round(0.001, failed=True)
        assert controller.decreases == 1

    def test_breaker_open_is_congestion(self):
        controller = AdmissionController(
            100, AdmissionConfig(rtt_target=10.0)
        )
        controller.observe_round(0.001, breaker_open=True)
        assert controller.decreases == 1

    def test_recovers_to_static_after_congestion_clears(self):
        config = AdmissionConfig(rtt_target=0.1, ewma_alpha=1.0)
        controller = AdmissionController(10, config)
        for __ in range(5):
            controller.observe_round(1.0)
        assert controller.high_water < 10
        for __ in range(20):
            controller.observe_round(0.01)
        assert controller.high_water == 10  # capped at static, not above

    def test_ewma_smooths_single_spikes(self):
        config = AdmissionConfig(rtt_target=0.2, ewma_alpha=0.1)
        controller = AdmissionController(100, config)
        for __ in range(10):
            controller.observe_round(0.05)
        # One spike against a calm EWMA is not congestion.
        controller.observe_round(1.0)
        assert controller.decreases == 0

    def test_config_validation(self):
        with pytest.raises(ReproError):
            AdmissionConfig(ewma_alpha=0.0).validate()
        with pytest.raises(ReproError):
            AdmissionConfig(multiplicative_decrease=1.0).validate()
        with pytest.raises(ReproError):
            AdmissionController(0)

    def test_snapshot_is_json_friendly(self):
        import json

        controller = AdmissionController(32)
        controller.observe_round(0.01)
        assert json.loads(json.dumps(controller.snapshot()))


class TestGatewayIntegration:
    def test_mismatched_static_high_water_rejected(self):
        csp = make_csp()
        with pytest.raises(ReproError):
            AsyncGateway(
                csp,
                GatewayConfig(queue_high_water=8),
                admission=AdmissionController(16),
            )

    def test_adaptive_shed_attributed(self):
        """Force the dynamic limit to 1: overload sheds with the
        "adaptive" cause while staying under the static mark."""
        csp = make_csp()
        config = GatewayConfig(
            queue_high_water=64, rtt=0.02, max_wait=0.001
        )
        controller = AdmissionController(
            64, AdmissionConfig(rtt_target=0.001, ewma_alpha=1.0)
        )
        controller.limit = 1.0  # as if congestion already collapsed it
        users = csp.mpc.db.user_ids()
        workload = [(u, [("poi", "rest")]) for u in users[:40]]
        results, stats = run_gateway(
            csp, workload, config, admission=controller
        )
        assert stats.shed_adaptive > 0
        assert stats.shed_high_water == 0
        assert stats.shed == stats.shed_adaptive
        assert stats.shed_by_cause["adaptive"] == stats.shed_adaptive
        # Controller observed the real rounds' RTTs.
        assert controller.rounds_observed > 0
        assert controller.rtt_ewma is not None
        assert controller.rtt_ewma >= 0.02 * 0.9

    def test_breaker_open_sheds_at_admission(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=1000.0, clock=clock
        )
        breaker.record_failure()  # force open
        assert breaker.state == "open"
        csp = make_csp(circuit_breaker=breaker)
        config = GatewayConfig(queue_high_water=64)
        controller = AdmissionController(64)
        users = csp.mpc.db.user_ids()
        workload = [(u, [("poi", "rest")]) for u in users[:10]]
        results, stats = run_gateway(
            csp, workload, config, admission=controller
        )
        assert stats.served == 0
        assert stats.shed_breaker == 10
        assert all(
            isinstance(r, ServiceUnavailableError) and r.reason == "shed"
            for r in results
        )

    def test_without_controller_stats_unchanged(self):
        """Static-only gateways keep the old counters: total shed is
        all high-water, adaptive/breaker causes stay zero."""
        csp = make_csp()
        config = GatewayConfig(queue_high_water=2, rtt=0.01)
        users = csp.mpc.db.user_ids()
        workload = [(u, [("poi", "rest")]) for u in users[:30]]
        results, stats = run_gateway(csp, workload, config)
        assert stats.shed == stats.shed_high_water > 0
        assert stats.shed_adaptive == 0
        assert stats.shed_breaker == 0


class TestControllerInDES:
    def test_des_adaptive_contained_in_static(self):
        """Replay one schedule twice through the gateway on virtual
        time — static-only and controller-mode — and check the
        controller only ever refuses MORE: every adaptive-admitted
        arrival count stays within the static run's, and adaptive sheds
        are attributed."""
        users = make_csp(n_users=200).mpc.db.user_ids()
        schedule = poisson_schedule(
            users, rate_per_user=8.0, duration=1.0, seed=3
        )
        config = GatewayConfig(
            queue_high_water=8,
            max_inflight=64,
            rtt=0.05,
            max_wait=0.005,
            max_batch=8,
            pool_size=2,
        )
        static = run_virtual(make_csp(n_users=200), config, schedule)
        controller = AdmissionController(
            8, AdmissionConfig(rtt_target=0.04, ewma_alpha=0.5)
        )
        adaptive = run_virtual(
            make_csp(n_users=200), config, schedule, controller
        )
        assert adaptive.submitted == static.submitted
        assert adaptive.served <= static.served
        assert adaptive.shed + adaptive.throttled >= (
            static.shed + static.throttled
        )
        assert adaptive.shed_adaptive > 0
        assert controller.rounds_observed == adaptive.provider_rounds
        assert controller.high_water <= 8

    def test_des_breaker_sheds_with_cause(self):
        users = make_csp(n_users=200).mpc.db.user_ids()
        schedule = poisson_schedule(
            users, rate_per_user=8.0, duration=1.0, seed=4
        )
        config = GatewayConfig(
            queue_high_water=32,
            max_inflight=64,
            rtt=0.02,
            max_wait=0.005,
            max_batch=8,
            pool_size=2,
        )
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout=30.0,
            clock=breaker_clock(LoopClock()),
        )
        # The first round carries request 1, so it fails → breaker opens.
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule("provider", "error", match="1"),))
        )
        csp = make_csp(
            n_users=200, circuit_breaker=breaker, injector=injector
        )
        report = run_virtual(
            csp, config, schedule, AdmissionController(32)
        )
        assert report.errors > 0  # the failed round's waiters
        assert report.shed_breaker > 0  # arrivals during the open window
        assert report.shed_by_cause["breaker"] == report.shed_breaker
