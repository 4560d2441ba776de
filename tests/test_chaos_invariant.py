"""The chaos invariant: no fault schedule ever weakens anonymity.

Under every seeded :class:`FaultPlan` in the matrix, every response the
CSP serves uses exactly the cloak of the auditable *effective* policy,
and that policy is policy-aware k-anonymous (zero breached users) at all
times.  Degraded responses are coarser or rejected — never sub-k.
"""

import pytest

from repro import Rect, ServiceUnavailableError
from repro.attacks.audit import audit_policy
from repro.data import uniform_users
from repro.lbs import CSP, LBSProvider, generate_pois, random_moves
from repro.parallel import parallel_bulk_anonymize
from repro.robustness import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    ManualClock,
    RetryPolicy,
)

K = 10

PLANS = [
    FaultPlan(
        rules=(FaultRule("provider", "timeout", probability=0.4),),
        seed=11,
        name="provider-timeouts",
    ),
    FaultPlan(
        rules=(FaultRule("repair", "crash", probability=0.5),),
        seed=12,
        name="repair-crashes",
    ),
    FaultPlan(
        rules=(FaultRule("mpc", "stale", probability=0.7),),
        seed=13,
        name="mpc-stale",
    ),
    FaultPlan(
        rules=(
            FaultRule("provider", "timeout", probability=0.2),
            FaultRule("provider", "error", probability=0.1),
            FaultRule("repair", "crash", probability=0.3),
            FaultRule("mpc", "stale", probability=0.5),
        ),
        seed=14,
        name="kitchen-sink",
    ),
]


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.name)
def test_no_fault_plan_ever_breaches_anonymity(plan):
    region = Rect(0, 0, 4096, 4096)
    db = uniform_users(300, region, seed=201)
    pois = generate_pois(region, {"rest": 80, "groc": 40}, seed=202)
    csp = CSP(
        region,
        K,
        db,
        LBSProvider(pois),
        injector=FaultInjector(plan),
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
        clock=ManualClock(),
        max_stale_snapshots=1,
    )
    users = db.user_ids()
    served = rejected = 0
    for period in range(4):
        for i in range(25):
            uid = users[(period * 25 + i * 7) % len(users)]
            category = ("rest", "groc")[i % 2]
            try:
                response = csp.request(uid, [("poi", category)])
            except ServiceUnavailableError:
                rejected += 1
                continue
            served += 1
            # The served cloak is exactly what the auditable effective
            # policy says — no side-channel cloak can leak.
            assert response.anonymized.cloak == (
                csp.effective_policy.cloak_for(uid)
            )
            assert response.degradation in (
                "fresh",
                "coarsened",
                "stale",
            )
        # After every serving period: zero breaches, full stop.
        report = audit_policy(csp.effective_policy, K)
        assert report.safe_policy_aware, (
            f"plan {plan.name!r}, period {period}: {report.summary()}"
        )
        assert report.breached_users == ()
        assert report.identified_users == ()
        moves = random_moves(
            csp.mpc.db,
            0.3,
            region,
            max_distance=2000,
            seed=300 + period,
        )
        csp.advance_snapshot(moves)
    # The workload must actually have been served under chaos (the
    # invariant is vacuous on an all-rejected run).
    assert served > 0
    if plan.name != "provider-timeouts":
        # All plans except pure provider chaos leave the policy intact
        # often enough that most requests are served.
        assert served > rejected


def test_simulation_under_chaos_reports_degradation():
    from repro.experiments.replay import replay_schedule
    from repro.lbs.mobility import trajectory_schedule

    region = Rect(0, 0, 4096, 4096)
    db = uniform_users(300, region, seed=201)
    plan = FaultPlan(
        rules=(
            FaultRule("provider", "timeout", probability=0.3),
            FaultRule("repair", "crash", probability=0.5),
        ),
        seed=31,
        name="des-chaos",
    )
    schedule = trajectory_schedule(
        db,
        0.02,
        region,
        rate_per_user=0.05,
        duration=300.0,
        snapshot_period=30.0,
        seed=41,
    )

    def replay(injector=None, retry_policy=None):
        csp = CSP(
            region,
            K,
            db,
            LBSProvider(generate_pois(region, {"rest": 30}, seed=5)),
            injector=injector,
            retry_policy=retry_policy,
            max_stale_snapshots=1,
        )
        advance = csp.advance_snapshot
        audits = []

        def audited_advance(moves):
            # After every tick, promoted or not: zero breaches.
            report = advance(moves)
            audits.append(audit_policy(csp.effective_policy, K))
            return report

        csp.advance_snapshot = audited_advance
        run = replay_schedule(csp, schedule)
        assert len(audits) == len(schedule.moves)
        assert all(a.safe_policy_aware for a in audits), [
            a.summary() for a in audits if not a.safe_policy_aware
        ]
        return run

    injector = FaultInjector(plan)
    run = replay(injector, RetryPolicy(max_attempts=3, base_delay=0.01))
    assert 0.0 < run.availability <= 1.0
    failed_repairs = sum(not swap.promoted for swap in run.swaps)
    assert failed_repairs > 0
    # Provider faults were retried: more failed attempts than rounds
    # that ran out of attempts.
    provider_rejections = sum(
        not r.served and r.outcome.reason == "provider" for r in run.requests
    )
    assert injector.fired[("provider", "timeout")] > provider_rejections
    assert len(run.served) + run.rejected > 0
    # Degradation is visible: stale serving and typed rejections.
    assert run.served_by_rung.get("stale", 0) > 0
    assert run.rejected > 0

    baseline = replay()
    assert baseline.availability == 1.0
    assert run.availability <= baseline.availability


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_parallel_degrade_never_breaches_anonymity(seed):
    region = Rect(0, 0, 1024, 1024)
    db = uniform_users(400, region, seed=101)
    plan = FaultPlan(
        rules=(FaultRule("solve", "crash", probability=0.5),),
        seed=seed,
        name=f"solve-crashes-{seed}",
    )
    result = parallel_bulk_anonymize(
        region,
        db,
        K,
        8,
        injector=FaultInjector(plan),
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.01),
        on_failure="degrade",
    )
    # Whatever crashed, the merged serving policy keeps every user and
    # every group at or above k.
    assert len(result.master.merged) == len(db)
    report = audit_policy(result.master.merged, K)
    assert report.safe_policy_aware, report.summary()
    assert report.breached_users == ()
