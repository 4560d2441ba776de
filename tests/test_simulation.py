"""The §VII serving simulation, run on production code.

:func:`repro.experiments.replay.replay_schedule` replays a seeded
trajectory schedule (Poisson arrivals plus per-boundary move sets)
through the real CSP and async gateway on virtual time; the gateway's
capacity model replays bare arrival schedules the same way.
"""

import pytest

from repro import Rect, ServiceUnavailableError, WorkloadError
from repro.attacks.audit import audit_policy
from repro.data import uniform_users
from repro.experiments.replay import oracle_mismatches, replay_schedule
from repro.lbs import (
    CSP,
    LBSProvider,
    TrajectorySchedule,
    generate_pois,
    trajectory_schedule,
)
from repro.lbs.mobility import random_moves
from repro.robustness import FaultInjector, FaultPlan, FaultRule
from repro.robustness.recovery import PolicyJournal

K = 10


@pytest.fixture
def region():
    return Rect(0, 0, 8192, 8192)


@pytest.fixture
def db(region):
    return uniform_users(400, region, seed=241)


def make_schedule(region, db, **kwargs):
    params = dict(
        rate_per_user=0.05,
        duration=60.0,
        snapshot_period=20.0,
        seed=7,
    )
    params.update(kwargs)
    fraction = params.pop("move_fraction", 0.05)
    return trajectory_schedule(db, fraction, region, **params)


def make_csp(region, db, **kwargs):
    provider = LBSProvider(
        generate_pois(region, {"rest": 40, "groc": 30, "cinema": 10}, seed=3)
    )
    return CSP(region, K, db, provider, **kwargs)


def replay(region, db, schedule=None, csp_kwargs=None, **kwargs):
    """A fresh CSP over ``db`` replaying ``schedule`` (default workload)."""
    csp = make_csp(region, db, **(csp_kwargs or {}))
    schedule = schedule or make_schedule(region, db)
    return csp, replay_schedule(csp, schedule, **kwargs)


def outcomes(run):
    """What a rerun must reproduce: per request, arrival, latency, rung
    or rejection reason, and cloak."""
    rows = []
    for r in run.requests:
        if r.served:
            rows.append((r.arrival, r.latency, r.outcome.degradation,
                         r.outcome.anonymized.cloak))
        else:
            rows.append((r.arrival, r.latency, r.outcome.reason, None))
    return rows


class TestValidation:
    def test_rate_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_schedule(region, db, rate_per_user=0.0)

    def test_period_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_schedule(region, db, snapshot_period=-1)

    def test_duration_validated(self, region, db):
        with pytest.raises(WorkloadError):
            make_schedule(region, db, duration=0)

    def test_service_times_validated(self, region, db):
        """The modelled repair must fit inside one snapshot window, and
        the repair mode must be one the driver knows."""
        for kwargs in (
            dict(repair_seconds=-1.0),
            dict(repair_seconds=20.0),
            dict(mode="pause"),
        ):
            with pytest.raises(WorkloadError):
                replay(region, db, **kwargs)


class TestRun:
    def test_request_volume_matches_poisson_rate(self, region, db):
        __, run = replay(region, db)
        expected = len(db) * 0.05 * 60.0  # n · λ · T
        assert 0.6 * expected < len(run.served) < 1.4 * expected

    def test_snapshot_count(self, region, db):
        schedule = make_schedule(region, db, snapshot_period=15.0)
        __, run = replay(region, db, schedule)
        assert len(run.swaps) == 3  # ticks at 15, 30, 45
        assert all(swap.promoted for swap in run.swaps)

    def test_latency_fields_consistent(self, region, db):
        __, run = replay(region, db)
        assert len(run.requests) == len(run.served) + run.rejected
        assert run.mean_latency > 0
        assert run.latency_percentile(99) >= run.latency_percentile(50)
        arrivals = [r.arrival for r in run.requests]
        assert arrivals == sorted(arrivals)

    def test_deterministic_given_seed(self, region, db):
        __, a = replay(region, db, make_schedule(region, db, seed=3))
        __, b = replay(region, db, make_schedule(region, db, seed=3))
        assert outcomes(a) == outcomes(b)
        assert a.stats.cache_hits == b.stats.cache_hits
        assert a.stats.provider_rounds == b.stats.provider_rounds

    def test_cache_reduces_lbs_load(self, region, db):
        __, cached = replay(region, db, csp_kwargs={"use_cache": True})
        __, uncached = replay(region, db, csp_kwargs={"use_cache": False})
        assert cached.stats.provider_queries < uncached.stats.provider_queries
        assert uncached.stats.cache_hits == 0
        assert cached.stats.cache_hits > 0

    def test_milliseconds_per_query(self, region, db):
        """The §VII headline: requests cost milliseconds, not seconds."""
        __, run = replay(region, db, mode="blackout")
        assert run.mean_latency < 0.01  # < 10 ms

    def test_requests_wait_for_reanonymization(self, region, db):
        schedule = make_schedule(region, db, snapshot_period=10.0, duration=40.0)
        __, run = replay(
            region, db, schedule, mode="blackout", repair_seconds=5.0
        )
        # Some requests arrive during the 5-second repair window and
        # queue behind it.
        assert run.repair_waits > 0
        assert max(r.latency for r in run.requests) > 1.0
        assert run.latency_percentile(99) > 0.01

    def test_more_servers_shrink_the_blackout(self, region, db):
        """Parallel anonymization (§V) splits a repair across n
        share-nothing servers (the Figure 4(a) model): replaying each
        server's share as the repair time cuts the blackout tail."""
        schedule = make_schedule(region, db, snapshot_period=10.0, duration=40.0)
        runs = {
            servers: replay(
                region, db, schedule, mode="blackout",
                repair_seconds=4.0 / servers,
            )[1]
            for servers in (1, 16)
        }
        worst = {n: max(r.latency for r in run.requests)
                 for n, run in runs.items()}
        assert worst[16] < worst[1]
        assert runs[16].latency_percentile(99) < runs[1].latency_percentile(99)

    def test_zero_repair_time_means_no_queueing(self, region, db):
        __, run = replay(region, db, mode="blackout", repair_seconds=0.0)
        assert run.repair_waits == 0
        assert max(r.latency for r in run.requests) < 0.01

    def test_summary_renders(self, region, db):
        __, run = replay(region, db, make_schedule(region, db, duration=10.0))
        text = run.summary()
        assert "served" in text and "ms" in text
        assert "modelled" in text

    def test_privacy_preserved_throughout(self, region, db):
        csp, run = replay(region, db)
        assert all(swap.promoted for swap in run.swaps)
        # After all the snapshot churn the live policy still honours k.
        assert csp.policy.min_group_size() >= K
        assert audit_policy(csp.effective_policy, K).safe_policy_aware


class TestPerRungSLOs:
    def test_all_served_on_fresh_without_faults(self, region, db):
        __, run = replay(region, db)
        assert run.served_by_rung == {"fresh": len(run.served)}

    def test_rungs_partition_served_requests(self, region, db):
        plan = FaultPlan(
            rules=(
                FaultRule(site="repair", kind="error", match="2"),
                FaultRule(site="mpc", kind="stale", probability=0.5),
            ),
            seed=5,
        )
        schedule = make_schedule(
            region, db, duration=120.0, move_fraction=0.3
        )
        __, run = replay(
            region,
            db,
            schedule,
            csp_kwargs={
                "injector": FaultInjector(plan),
                "max_stale_snapshots": 2,
            },
        )
        rungs = run.served_by_rung
        assert sum(rungs.values()) == len(run.served)
        assert run.rejected == 0
        # Snapshot 2's repair fails, so its window serves stale; stale
        # MPC reads off the fine cloak coarsen.
        assert not run.swaps[1].promoted and run.swaps[2].promoted
        assert rungs.get("stale", 0) > 0
        assert rungs.get("coarsened", 0) > 0
        assert rungs.get("fresh", 0) > 0


def _restored_csp(region, db, directory, **kwargs):
    """A CSP journalled in ``directory``, churned twice, killed, and
    restored."""
    journal = PolicyJournal(str(directory))
    csp = make_csp(region, db, journal=journal)
    for seed in (100, 101):
        csp.advance_snapshot(random_moves(csp.mpc.db, 0.1, region, seed=seed))
    provider = csp.base_provider
    del csp
    return CSP.restore(provider, journal, **kwargs)


class TestProcessRestart:
    def test_restart_is_deterministic(self, region, db, tmp_path):
        schedule = make_schedule(region, db, duration=30.0)
        runs = []
        for name in ("a", "b"):
            restored = _restored_csp(region, db, tmp_path / name)
            runs.append(replay_schedule(restored, schedule))
        assert outcomes(runs[0]) == outcomes(runs[1])
        assert runs[0].served_by_rung == runs[1].served_by_rung

    def test_snapshot_repair_closes_recovered_window(self, region, db, tmp_path):
        """A restored policy serves "recovered"; a crashed first repair
        ages it to "stale"; only a promoted repair serves "fresh"."""
        plan = FaultPlan(
            rules=(FaultRule(site="repair", kind="crash", match="3"),),
            seed=1,
        )
        restored = _restored_csp(
            region, db, tmp_path / "journal", injector=FaultInjector(plan)
        )
        schedule = make_schedule(region, db, duration=60.0)
        run = replay_schedule(restored, schedule, repair_seconds=0.0)
        assert [swap.promoted for swap in run.swaps] == [False, True]
        windows = {"recovered": (0.0, 20.0), "stale": (20.0, 40.0),
                   "fresh": (40.0, 60.0)}
        for r in run.requests:
            low, high = windows[r.outcome.degradation]
            assert low <= r.arrival < high


class TestReplayDriver:
    def test_two_runs_identical_under_chaos(self, region, db):
        plan = FaultPlan(
            rules=(
                FaultRule("provider", "timeout", probability=0.2),
                FaultRule("repair", "crash", probability=0.5),
            ),
            seed=9,
        )
        runs = []
        for __ in range(2):
            __, run = replay(
                region, db, mode="blackout",
                csp_kwargs={"injector": FaultInjector(plan)},
            )
            runs.append(run)
        assert outcomes(runs[0]) == outcomes(runs[1])
        assert [s.promoted for s in runs[0].swaps] == [
            s.promoted for s in runs[1].swaps
        ]

    def test_boundary_arrival_sees_new_snapshot(self, region, db):
        """Moves land before an arrival with the same timestamp."""
        user = db.user_ids()[0]
        old = db.location_of(user)
        far = type(old)(region.x2 - old.x, region.y2 - old.y)
        schedule = TrajectorySchedule(
            region=region,
            duration=20.0,
            snapshot_period=10.0,
            arrivals=((10.0, user, "rest"),),
            moves=({user: far},),
        )
        csp, run = replay(region, db, schedule, repair_seconds=0.0)
        (request,) = run.requests
        assert request.epoch is csp.manager.active
        cloak = request.outcome.anonymized.cloak
        assert cloak == csp.policy.cloak_for(user)
        assert cloak.contains(far) and not cloak.contains(old)

    def test_blackout_waits_and_swap_does_not(self, region, db):
        __, blackout = replay(region, db, mode="blackout")
        __, swap = replay(region, db, mode="swap")
        assert blackout.repair_waits > 0
        assert blackout.served_while_repairing == 0
        assert swap.repair_waits == 0
        assert swap.served_while_repairing == blackout.repair_waits
        assert swap.latency_percentile(99) <= blackout.latency_percentile(99)

    @pytest.mark.parametrize("mode", ["blackout", "swap"])
    def test_zero_oracle_mismatches(self, region, db, mode):
        csp, run = replay(region, db, mode=mode)
        assert len({r.epoch.serial for r in run.requests}) == 3
        assert oracle_mismatches(csp.manager, run) == 0

    def test_typed_rejections_counted_never_dropped(self, region, db):
        plan = FaultPlan(
            rules=(
                FaultRule("provider", "error", probability=0.3),
                FaultRule("repair", "crash", match="2"),
            ),
            seed=4,
        )
        schedule = make_schedule(region, db)
        __, run = replay(
            region, db, schedule,
            csp_kwargs={"injector": FaultInjector(plan),
                        "max_stale_snapshots": 0},
        )
        assert len(run.requests) == len(schedule.arrivals)
        rejected = [r.outcome for r in run.requests if not r.served]
        assert run.rejected == len(rejected) == run.stats.errors > 0
        assert all(isinstance(e, ServiceUnavailableError) for e in rejected)
        reasons = {e.reason for e in rejected}
        # No retry policy: every provider fault rejects its round; the
        # crashed repair at tick 2 leaves the policy one swap stale,
        # past the bound of 0.
        assert reasons == {"provider", "stale"}


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
