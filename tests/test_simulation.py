"""Tests for the discrete-event LBS simulation (§VII operating point)."""

import pytest

from repro import Rect, WorkloadError
from repro.data import uniform_users
from repro.lbs import LBSSimulation, ServiceTimes


@pytest.fixture
def region():
    return Rect(0, 0, 8192, 8192)


@pytest.fixture
def db(region):
    return uniform_users(400, region, seed=241)


def make_sim(region, db, **kwargs):
    defaults = dict(
        k=10,
        request_rate_per_user=0.05,
        snapshot_period=20.0,
        move_fraction=0.05,
        seed=7,
    )
    defaults.update(kwargs)
    return LBSSimulation(region, db, **defaults)


class TestValidation:
    def test_rate_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_sim(region, db, request_rate_per_user=0.0)

    def test_period_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_sim(region, db, snapshot_period=-1)

    def test_duration_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_sim(region, db).run(0)

    def test_service_times_validated(self):
        with pytest.raises(WorkloadError):
            ServiceTimes(cloak_lookup=-1).validate()


class TestRun:
    def test_request_volume_matches_poisson_rate(self, region, db):
        sim = make_sim(region, db)
        report = sim.run(60.0)
        expected = len(db) * 0.05 * 60.0  # n · λ · T
        assert 0.6 * expected < report.served < 1.4 * expected

    def test_snapshot_count(self, region, db):
        report = make_sim(region, db, snapshot_period=15.0).run(60.0)
        assert report.snapshots == 3  # ticks at 15, 30, 45

    def test_latency_fields_consistent(self, region, db):
        report = make_sim(region, db).run(30.0)
        assert len(report.latencies) == report.served
        assert report.mean_latency > 0
        assert report.latency_percentile(99) >= report.latency_percentile(50)

    def test_deterministic_given_seed(self, region, db):
        a = make_sim(region, db, seed=3).run(30.0)
        b = make_sim(region, db, seed=3).run(30.0)
        assert a.served == b.served
        assert a.latencies == b.latencies
        assert a.cache_hits == b.cache_hits

    def test_cache_reduces_lbs_load(self, region, db):
        cached = make_sim(region, db, use_cache=True).run(40.0)
        uncached = make_sim(region, db, use_cache=False).run(40.0)
        assert cached.lbs_queries < uncached.lbs_queries
        assert uncached.cache_hits == 0
        assert cached.cache_hit_rate > 0

    def test_milliseconds_per_query(self, region, db):
        """The §VII headline: requests cost milliseconds, not seconds."""
        report = make_sim(region, db, snapshot_period=1000.0).run(60.0)
        assert report.mean_latency < 0.01  # < 10 ms

    def test_requests_wait_for_reanonymization(self, region, db):
        slow = ServiceTimes(reanonymization=5.0)
        report = make_sim(
            region, db, snapshot_period=10.0, times=slow
        ).run(40.0)
        # Some requests arrive during the 5-second repair window and
        # queue behind it.
        assert max(report.queue_delays) > 0
        assert report.latency_percentile(99) > 0.01

    def test_more_servers_shrink_the_blackout(self, region, db):
        """Parallel anonymization (§V) cuts the post-snapshot serving
        blackout ~n×, so tail latency improves with the server count."""
        slow = ServiceTimes(reanonymization=4.0)
        one = make_sim(
            region, db, snapshot_period=10.0, times=slow, n_servers=1
        ).run(40.0)
        sixteen = make_sim(
            region, db, snapshot_period=10.0, times=slow, n_servers=16
        ).run(40.0)
        assert max(sixteen.queue_delays) < max(one.queue_delays)
        assert sixteen.latency_percentile(99) < one.latency_percentile(99)

    def test_server_count_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_sim(region, db, n_servers=0)

    def test_zero_repair_time_means_no_queueing(self, region, db):
        fast = ServiceTimes(reanonymization=0.0)
        report = make_sim(region, db, times=fast).run(30.0)
        assert max(report.queue_delays, default=0.0) == 0.0

    def test_summary_renders(self, region, db):
        report = make_sim(region, db).run(10.0)
        text = report.summary()
        assert "req/s" in text and "ms" in text

    def test_privacy_preserved_throughout(self, region, db):
        sim = make_sim(region, db)
        sim.run(60.0)
        # After all the snapshot churn the live policy still honours k.
        assert sim.anonymizer.policy.min_group_size() >= 10


class TestPerRungSLOs:
    def test_all_served_on_fresh_without_faults(self, region, db):
        report = make_sim(region, db).run(30.0)
        assert set(report.latencies_by_rung) == {"fresh"}
        assert report.served_by_rung["fresh"] == report.served

    def test_rungs_partition_served_requests(self, region, db):
        from repro.robustness.faults import FaultInjector, FaultPlan, FaultRule

        plan = FaultPlan(
            rules=(
                FaultRule(site="repair", kind="error", match="2"),
                FaultRule(site="coarsen", kind="error", probability=0.1),
            ),
            seed=5,
        )
        sim = make_sim(
            region, db, injector=FaultInjector(plan), max_stale_snapshots=2
        )
        report = sim.run(120.0)
        assert sum(report.served_by_rung.values()) == report.served
        assert report.served == len(report.latencies)
        assert report.served_by_rung.get("stale", 0) == report.stale_served
        # Snapshot 2's repair fails, so its window is stale and the next
        # successful repair opens a recovered window.
        assert report.served_by_rung.get("stale", 0) > 0
        assert report.served_by_rung.get("recovered", 0) > 0
        assert report.served_by_rung.get("coarsened", 0) > 0

    def test_rung_percentiles_and_summary(self, region, db):
        report = make_sim(region, db).run(30.0)
        p50 = report.rung_latency_percentile("fresh", 50)
        p99 = report.rung_latency_percentile("fresh", 99)
        assert 0.0 < p50 <= p99
        assert report.rung_mean_latency("fresh") > 0.0
        # Absent rungs report zero, not an error.
        assert report.rung_latency_percentile("stale", 99) == 0.0
        assert "fresh:" in report.slo_summary()


class TestProcessRestart:
    def test_restart_params_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_sim(region, db, restart_blackout=-1.0)
        with pytest.raises(WorkloadError):
            make_sim(region, db, restart_at=(0.0,))

    def test_restart_blacks_out_and_recovers(self, region, db):
        blackout = 0.8
        sim = make_sim(
            region, db, restart_at=(10.0,), restart_blackout=blackout
        )
        report = sim.run(20.0)
        assert report.restarts == 1
        assert report.restart_seconds == pytest.approx(blackout)
        # Arrivals inside the blackout queue for it: the worst queueing
        # delay approaches the full restore latency.
        assert max(report.queue_delays) > blackout * 0.5
        # The post-restore window serves on the recovered rung until the
        # next snapshot repair — never silently relabelled "fresh".
        assert report.served_by_rung.get("recovered", 0) > 0
        assert "restarts: 1" in report.slo_summary()

    def test_restart_is_deterministic(self, region, db):
        kwargs = dict(restart_at=(5.0, 12.0), restart_blackout=0.3, seed=3)
        a = make_sim(region, db, **kwargs).run(30.0)
        b = make_sim(region, db, **kwargs).run(30.0)
        assert a.restarts == b.restarts == 2
        assert a.latencies == b.latencies
        assert a.served_by_rung == b.served_by_rung

    def test_restart_loses_the_cache(self, region, db):
        calm = make_sim(region, db, snapshot_period=100.0).run(30.0)
        restarted = make_sim(
            region,
            db,
            snapshot_period=100.0,
            restart_at=(10.0, 20.0),
            restart_blackout=0.0,
        ).run(30.0)
        # Same workload, but the restart dropped the warm answer cache
        # twice — the provider absorbs the re-fills.
        assert restarted.lbs_queries > calm.lbs_queries

    def test_snapshot_repair_closes_recovered_window(self, region, db):
        sim = make_sim(
            region,
            db,
            snapshot_period=10.0,
            restart_at=(11.0,),
            restart_blackout=0.2,
        )
        report = sim.run(40.0)
        # Only the restart's own window (t∈[11, 20)) is recovered; the
        # repairs at 20/30 restore fresh serving.
        assert report.served_by_rung.get("recovered", 0) > 0
        assert report.served_by_rung.get("fresh", 0) > 0


class TestGatewaySimulation:
    """The real async gateway replaying a schedule on virtual time."""

    REGION = Rect(0, 0, 4096, 4096)
    K = 8

    def make(self, n_users=200, seed=5):
        from repro.lbs.pipeline import CSP
        from repro.lbs.poi import generate_pois
        from repro.lbs.provider import LBSProvider

        db = uniform_users(n_users, self.REGION, seed=seed)
        provider = LBSProvider(
            generate_pois(
                self.REGION,
                {"rest": 40, "groc": 30, "cinema": 10},
                seed=3,
            )
        )
        return CSP(self.REGION, self.K, db, provider)

    @staticmethod
    def requests(schedule):
        return [(t, user, [("poi", cat)]) for t, user, cat in schedule]

    def run_virtual(self, config, schedule):
        """A fresh CSP behind the real gateway, on virtual time."""
        from repro.robustness import VirtualTimeLoop
        from repro.serving.gateway import AsyncGateway, serve_scheduled

        gateway = AsyncGateway(self.make(), config)
        VirtualTimeLoop().run(
            serve_scheduled(gateway, self.requests(schedule))
        )
        return gateway.stats

    def test_schedule_is_deterministic(self):
        from repro.lbs import poisson_schedule

        users = ["u%d" % i for i in range(20)]
        a = poisson_schedule(users, 2.0, 5.0, seed=9)
        b = poisson_schedule(users, 2.0, 5.0, seed=9)
        assert a == b
        assert all(t < 5.0 for t, __, ___ in a)
        with pytest.raises(WorkloadError):
            poisson_schedule([], 2.0, 5.0)
        with pytest.raises(WorkloadError):
            poisson_schedule(users, 0.0, 5.0)

    def test_run_is_deterministic(self):
        from repro.lbs import poisson_schedule
        from repro.serving.gateway import GatewayConfig

        csp = self.make()
        schedule = poisson_schedule(
            csp.mpc.db.user_ids(), 6.0, 1.0, seed=11
        )
        config = GatewayConfig(
            queue_high_water=8, rtt=0.03, max_wait=0.005,
            max_batch=8, pool_size=2,
        )
        first = self.run_virtual(config, schedule)
        second = self.run_virtual(config, schedule)
        assert first.served == second.served
        assert first.shed_by_cause == second.shed_by_cause
        assert first.latencies == second.latencies

    def test_accounting_balances(self):
        from repro.lbs import poisson_schedule
        from repro.serving.gateway import GatewayConfig

        csp = self.make()
        schedule = poisson_schedule(
            csp.mpc.db.user_ids(), 6.0, 1.0, seed=12
        )
        config = GatewayConfig(
            queue_high_water=8, rtt=0.03, max_wait=0.005,
            max_batch=8, pool_size=2,
        )
        report = self.run_virtual(config, schedule)
        assert report.submitted == len(schedule)
        assert (
            report.submitted
            == report.served
            + report.shed
            + report.throttled
            + report.errors
        )
        assert report.shed == (
            report.shed_high_water
            + report.shed_adaptive
            + report.shed_breaker
        )
        # Coalescing/caching amortize: fewer provider queries than serves.
        assert 0 < report.provider_queries < report.served
        assert report.provider_rounds <= report.provider_queries
        assert len(report.latencies) == report.served
        assert report.queue_depth_high_water >= 1

    def test_token_bucket_throttles_chatty_user(self):
        from repro.serving.gateway import GatewayConfig

        csp = self.make()
        user = csp.mpc.db.user_ids()[0]
        # One user fires 40 requests in 40 ms against a 4-token bucket.
        schedule = [(0.001 * i, user, "rest") for i in range(40)]
        config = GatewayConfig(
            queue_high_water=1024,
            max_inflight=1024,
            rate_per_user=1.0,
            burst_per_user=4.0,
            rtt=0.01,
            max_wait=0.001,
        )
        report = self.run_virtual(config, schedule)
        assert report.throttled >= 30
        assert report.shed_by_cause["throttle"] == report.throttled

    def test_des_within_15pct_of_live_gateway(self):
        """The acceptance cross-validation: replay one Poisson schedule
        through the gateway on virtual time and on the wall-clock event
        loop at three operating points; the virtual shed rate must land
        within 15% of the measured rate on at least two of them (one
        point may be lost to wall-clock jitter on a loaded host)."""
        from repro.lbs import poisson_schedule
        from repro.serving.gateway import (
            GatewayConfig,
            run_gateway_scheduled,
        )

        csp = self.make()
        users = csp.mpc.db.user_ids()
        schedule = poisson_schedule(users, 8.0, 2.0, seed=7)
        points = [
            GatewayConfig(
                queue_high_water=8, max_inflight=64, rtt=rtt,
                max_wait=max_wait, max_batch=8, pool_size=2,
            )
            for rtt, max_wait in ((0.03, 0.005), (0.05, 0.008), (0.06, 0.01))
        ]
        within = 0
        observed = []
        for config in points:
            virtual = self.run_virtual(config, schedule)
            predicted = (virtual.shed + virtual.throttled) / virtual.submitted
            __, stats = run_gateway_scheduled(
                self.make(), self.requests(schedule), config
            )
            measured = (stats.shed + stats.throttled) / stats.submitted
            assert measured > 0.0, "operating point must actually shed"
            error = abs(predicted - measured) / measured
            observed.append((config.rtt, predicted, measured, error))
            if error <= 0.15:
                within += 1
        assert within >= 2, f"virtual run disagreed with the live gateway: {observed}"
