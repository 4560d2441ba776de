"""Error paths and degradation ladder of the CSP pipeline under faults."""

import pytest

from repro import Point, Rect, ServiceUnavailableError, UnknownUserError
from repro.attacks.audit import audit_policy
from repro.data import uniform_users
from repro.lbs import CSP, LBSProvider, generate_pois, random_moves
from repro.lbs.cache import AnswerCache
from repro.lbs.provider import QueryAnswer
from repro.robustness import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ManualClock,
    QuorumJournal,
    RetryPolicy,
)

K = 10


@pytest.fixture
def region():
    return Rect(0, 0, 4096, 4096)


@pytest.fixture
def db(region):
    return uniform_users(300, region, seed=131)


@pytest.fixture
def provider(region):
    pois = generate_pois(region, {"rest": 100, "groc": 50}, seed=132)
    return LBSProvider(pois)


def make_csp(region, db, provider, **kwargs):
    return CSP(region, K, db, provider, **kwargs)


class TestErrorPaths:
    def test_unknown_user_raises_specific_error(self, region, db, provider):
        csp = make_csp(region, db, provider)
        with pytest.raises(UnknownUserError, match="no location"):
            csp.request("ghost", [("poi", "rest")])

    def test_unknown_user_in_policy_lookup(self, region, db, provider):
        csp = make_csp(region, db, provider)
        with pytest.raises(UnknownUserError, match="no cloak"):
            csp.policy.cloak_for("ghost")

    def test_empty_candidate_set_yields_none(self, region, db, provider):
        csp = make_csp(region, db, provider)
        served = csp.request(db.user_ids()[0], [("poi", "nonexistent")])
        assert served.result is None
        assert served.answer.candidates == ()

    def test_provider_failure_leaves_cache_stats_consistent(
        self, region, db, provider
    ):
        plan = FaultPlan(rules=(FaultRule("provider", "error"),), seed=1)
        csp = make_csp(
            region, db, provider, injector=FaultInjector(plan)
        )
        with pytest.raises(ServiceUnavailableError) as excinfo:
            csp.request(db.user_ids()[0], [("poi", "rest")])
        assert excinfo.value.reason == "provider"
        # The failed fetch was never recorded as a hit or a miss, and
        # nothing was cached.
        assert csp.cache.stats.hits == 0
        assert csp.cache.stats.misses == 0
        assert len(csp.cache) == 0

    def test_flaky_provider_keeps_answer_cache_consistent(self):
        class FlakyProvider:
            def __init__(self):
                self.calls = 0

            def serve(self, request):
                self.calls += 1
                if self.calls == 1:
                    raise TimeoutError("first call drops")
                return QueryAnswer(request.request_id, ())

        class Req:
            request_id = 1
            cloak = Rect(0, 0, 10, 10)
            payload = (("poi", "rest"),)

        cache = AnswerCache(FlakyProvider())
        with pytest.raises(TimeoutError):
            cache.fetch(Req())
        assert cache.stats.errors == 1
        assert cache.stats.total == 0
        assert len(cache) == 0
        # The retried fetch is indistinguishable from a first attempt.
        cache.fetch(Req())
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert len(cache) == 1


class TestRetryAndBreaker:
    def test_transient_provider_fault_retried_to_success(
        self, region, db, provider
    ):
        plan = FaultPlan(
            rules=(FaultRule("provider", "timeout", max_attempt=2),),
            seed=2,
        )
        clock = ManualClock()
        csp = make_csp(
            region,
            db,
            provider,
            injector=FaultInjector(plan),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
            clock=clock,
        )
        served = csp.request(db.user_ids()[0], [("poi", "rest")])
        assert served.provider_attempts == 3
        assert served.degradation == "fresh"  # retries are invisible
        assert clock.slept > 0  # backoff charged to the virtual clock

    def test_deadline_bounds_the_retry_budget(self, region, db, provider):
        plan = FaultPlan(rules=(FaultRule("provider", "timeout"),), seed=3)
        csp = make_csp(
            region,
            db,
            provider,
            injector=FaultInjector(plan),
            retry_policy=RetryPolicy(
                max_attempts=10, base_delay=1.0, jitter=0.0
            ),
            provider_deadline=2.5,
            clock=ManualClock(),
        )
        with pytest.raises(ServiceUnavailableError) as excinfo:
            csp.request(db.user_ids()[0], [("poi", "rest")])
        assert excinfo.value.reason == "provider"

    def test_breaker_fails_fast_after_trip(self, region, db, provider):
        plan = FaultPlan(rules=(FaultRule("provider", "error"),), seed=4)
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=60.0, clock=clock
        )
        csp = make_csp(
            region,
            db,
            provider,
            injector=FaultInjector(plan),
            circuit_breaker=breaker,
            clock=clock,
        )
        with pytest.raises(ServiceUnavailableError):
            csp.request(db.user_ids()[0], [("poi", "rest")])
        assert breaker.state == "open"
        with pytest.raises(ServiceUnavailableError):
            csp.request(db.user_ids()[1], [("poi", "rest")])
        assert breaker.rejected >= 1


class TestCoarseningRung:
    @pytest.fixture
    def stale_csp(self, region, db, provider):
        plan = FaultPlan(rules=(FaultRule("mpc", "stale"),), seed=7)
        csp = make_csp(
            region, db, provider, injector=FaultInjector(plan)
        )
        moves = random_moves(
            db, 0.5, region, max_distance=3000, seed=5
        )
        csp.advance_snapshot(moves)
        return csp, moves

    def test_stale_mpc_coarsens_and_stays_k_anonymous(self, stale_csp):
        csp, moves = stale_csp
        coarsened = 0
        for uid in list(moves)[:30]:
            served = csp.request(uid, [("poi", "rest")])
            # The served cloak always covers the (stale) reported
            # location and matches the auditable effective policy.
            assert served.anonymized.cloak.contains(served.request.location)
            assert served.anonymized.cloak == csp.effective_policy.cloak_for(
                uid
            )
            if served.degradation == "coarsened":
                coarsened += 1
            report = audit_policy(csp.effective_policy, K)
            assert report.safe_policy_aware, report.summary()
        assert coarsened > 0

    def test_coarsened_set_is_an_antichain(self, stale_csp):
        csp, moves = stale_csp
        for uid in list(moves)[:30]:
            csp.request(uid, [("poi", "rest")])
        rects = list(csp.manager.active.overrides)
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert not a.contains_rect(b) and not b.contains_rect(a)

    def test_fresh_snapshot_clears_coarsening(
        self, stale_csp, region
    ):
        csp, moves = stale_csp
        for uid in list(moves)[:10]:
            csp.request(uid, [("poi", "rest")])
        assert csp.manager.active.overrides
        next_moves = random_moves(
            csp.mpc.db,
            0.1,
            region,
            max_distance=50,
            seed=6,
        )
        csp.advance_snapshot(next_moves)
        assert not csp.manager.active.overrides


class TestStaleAndRejectRungs:
    @pytest.fixture
    def repair_faulty_csp(self, region, db, provider):
        plan = FaultPlan(rules=(FaultRule("repair", "crash"),), seed=9)
        return make_csp(
            region,
            db,
            provider,
            injector=FaultInjector(plan),
            max_stale_snapshots=1,
        )

    def test_failed_repair_serves_stale_within_bound(
        self, repair_faulty_csp, region, db
    ):
        csp = repair_faulty_csp
        moves = random_moves(db, 0.1, region, max_distance=50, seed=11)
        report = csp.advance_snapshot(moves)
        assert report.promoted is False
        assert csp.policy_age == 1
        served = csp.request(db.user_ids()[0], [("poi", "rest")])
        assert served.degradation == "stale"
        assert served.policy_age == 1

    def test_aged_out_policy_rejects_fail_closed(
        self, repair_faulty_csp, region, db
    ):
        csp = repair_faulty_csp
        for seed in (11, 12):
            moves = random_moves(
                db, 0.1, region, max_distance=50, seed=seed
            )
            csp.advance_snapshot(moves)
        assert csp.policy_age == 2
        with pytest.raises(ServiceUnavailableError) as excinfo:
            csp.request(db.user_ids()[0], [("poi", "rest")])
        assert excinfo.value.reason == "stale"

    def test_happy_path_metadata_is_fresh(self, region, db, provider):
        csp = make_csp(region, db, provider)
        served = csp.request(db.user_ids()[0], [("poi", "rest")])
        assert served.degradation == "fresh"
        assert not served.degraded
        assert served.provider_attempts == 1
        assert served.policy_age == 0
        repeat = csp.request(db.user_ids()[0], [("poi", "rest")])
        assert repeat.cache_hit
        assert repeat.provider_attempts == 0


class TestLifecycleFaults:
    """A faulted tick is the manager's: moves are kept, voids are void."""

    def test_quorum_loss_voids_the_swap_and_serves_stale(
        self, region, db, provider, tmp_path
    ):
        journal = QuorumJournal([str(tmp_path / f"r{i}") for i in range(3)])
        csp = make_csp(region, db, provider, journal=journal)
        uid = db.user_ids()[0]
        before = csp.policy.cloak_for(uid)

        def lost(*args, **kwargs):
            raise OSError("replica media gone")

        journal.replicas[0].commit = lost
        journal.replicas[1].commit = lost
        report = csp.advance_snapshot(
            random_moves(db, 0.3, region, max_distance=2000, seed=3)
        )
        assert report.promoted is False
        assert report.reason == "journal-quorum"
        served = csp.request(uid, [("poi", "rest")])
        assert served.degradation == "stale"
        assert served.anonymized.cloak == before
        assert csp.policy.cloak_for(uid) == before

    def test_crashed_repair_keeps_its_moves(self, region, db, provider):
        plan = FaultPlan(rules=(FaultRule("repair", "crash", match="1"),))
        csp = make_csp(region, db, provider, injector=FaultInjector(plan))
        uid = db.user_ids()[0]
        target = Point(11.0, 13.0)
        csp.advance_snapshot({uid: target})  # crashes: serial 1
        csp.advance_snapshot({})
        assert csp.mpc.locate(uid) == target
        assert csp.policy_age == 0
