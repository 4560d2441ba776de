"""Chaos benchmark: availability, latency, and MTTR under faults.

Runs the §VII serving replay (the real CSP and async gateway on virtual
time) and the §V parallel engine twice each — once clean, once under a
seeded chaos schedule — and reports
availability, p50/p99 latency, and the degradation counters.  A third
parallel scenario SIGKILLs a real worker process mid-solve and reports
**MTTR** (mean time to recovery: pool rebuild + re-solve of the lost
jurisdictions, per recovery event).  A fourth destroys one replica of a
quorum journal mid-commit and times the majority-vote restore+repair.
The hard gate is the fail-closed invariant: no schedule may ever
produce a policy-aware breach, so degraded operation trades *utility
and availability* for faults, never anonymity.
"""

import os
import tempfile
import time

import numpy as np

from repro.attacks.audit import audit_policy
from repro.core.geometry import Rect
from repro.data import uniform_users
from repro.experiments import Table
from repro.experiments.churn import (
    CHURN_SCALES,
    MOVE_FRACTION,
    replay_churn_run,
)
from repro.experiments.replay import replay_schedule
from repro.lbs.mobility import trajectory_schedule
from repro.lbs.pipeline import CSP
from repro.lbs.poi import generate_pois
from repro.lbs.provider import LBSProvider
from repro.parallel import parallel_bulk_anonymize
from repro.robustness import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    QuorumJournal,
    ReplicaKillPlan,
    RetryPolicy,
)
from repro.robustness.chaos import KillPlan

from conftest import run_once

K = 25

CHAOS_PLAN = FaultPlan(
    rules=(
        FaultRule("provider", "timeout", probability=0.15),
        FaultRule("provider", "error", probability=0.05),
        FaultRule("repair", "crash", probability=0.3),
    ),
    seed=17,
    name="serving-chaos",
)

SOLVE_PLAN = FaultPlan(
    rules=(FaultRule("solve", "crash", probability=0.4),),
    seed=18,
    name="solve-chaos",
)


def _replay_row(scale, injector, retry_policy):
    """One §VII serving replay; returns the run and its CSP's final
    effective-policy audit."""
    region = Rect(0, 0, 65_536, 65_536)
    db = uniform_users(min(scale.db_fixed, 2_000), region, seed=29)
    schedule = trajectory_schedule(
        db,
        0.02,
        region,
        rate_per_user=0.05,
        duration=120.0,
        snapshot_period=30.0,
        seed=5,
    )
    provider = LBSProvider(
        generate_pois(region, {"rest": 60, "groc": 40, "cinema": 30}, seed=6)
    )
    csp = CSP(
        region,
        K,
        db,
        provider,
        injector=injector,
        retry_policy=retry_policy,
        max_stale_snapshots=1,
    )
    run = replay_schedule(csp, schedule)
    return run, csp, audit_policy(csp.effective_policy, K)


def _run_chaos(scale):
    table = Table(
        "Fault-tolerant serving — availability and latency, "
        "clean vs chaos schedule",
        [
            "scenario",
            "availability",
            "p50_ms",
            "p99_ms",
            "rejected",
            "stale",
            "retries",
            "recoveries",
            "mttr_ms",
            "breaches",
        ],
    )

    # -- serving replay (real CSP + gateway, virtual time) ---------------------
    for label, injector, retry in (
        ("replay/clean", None, None),
        (
            "replay/chaos",
            FaultInjector(CHAOS_PLAN),
            RetryPolicy(max_attempts=3, base_delay=0.01),
        ),
    ):
        run, csp, audit = _replay_row(scale, injector, retry)
        # Failed provider attempts, less the last one of each round
        # that ran out of attempts (those are the rejections).
        failed_attempts = sum(
            n for (site, __), n in (injector.fired if injector else {}).items()
            if site == "provider"
        )
        failed_rounds = sum(
            e.level == "rejected" and e.reason == "provider" for e in csp.events
        )
        table.add(
            scenario=label,
            availability=run.availability,
            p50_ms=1e3 * run.latency_percentile(50),
            p99_ms=1e3 * run.latency_percentile(99),
            rejected=run.rejected,
            stale=run.served_by_rung.get("stale", 0),
            retries=failed_attempts - failed_rounds,
            recoveries=0,
            mttr_ms=0.0,
            breaches=len(audit.breached_users),
        )

    # -- parallel bulk engine -------------------------------------------------
    region = Rect(0, 0, 1024, 1024)
    db = uniform_users(1_000, region, seed=101)
    for label, injector, retry in (
        ("bulk/clean", None, None),
        (
            "bulk/chaos",
            FaultInjector(SOLVE_PLAN),
            RetryPolicy(max_attempts=2, base_delay=0.01),
        ),
    ):
        result = parallel_bulk_anonymize(
            region,
            db,
            K,
            8,
            injector=injector,
            retry_policy=retry,
            on_failure="degrade",
        )
        per_server = np.array(result.server_seconds)
        audit = audit_policy(result.master.merged, K)
        table.add(
            scenario=label,
            availability=result.availability,
            p50_ms=1e3 * float(np.percentile(per_server, 50)),
            p99_ms=1e3 * float(np.percentile(per_server, 99)),
            rejected=0,
            stale=0,
            retries=result.total_attempts - result.n_servers,
            recoveries=result.recoveries,
            mttr_ms=1e3 * result.mttr,
            breaches=len(audit.breached_users),
        )

    # -- real process-kill recovery -------------------------------------------
    kill_db = uniform_users(240, region, seed=102)
    clean = parallel_bulk_anonymize(region, kill_db, K, 4, mode="simulated")
    victim = max(clean.jurisdictions, key=lambda j: j.count).node_id
    result = parallel_bulk_anonymize(
        region,
        kill_db,
        K,
        4,
        mode="process",
        kill_plan=KillPlan.first_attempt(victim),
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
    )
    per_server = np.array(result.server_seconds)
    audit = audit_policy(result.master.merged, K)
    table.add(
        scenario="bulk/kill",
        availability=result.availability,
        p50_ms=1e3 * float(np.percentile(per_server, 50)),
        p99_ms=1e3 * float(np.percentile(per_server, 99)),
        rejected=0,
        stale=0,
        retries=result.total_attempts - result.n_servers,
        recoveries=result.recoveries,
        mttr_ms=1e3 * result.mttr,
        breaches=len(audit.breached_users),
    )

    # -- quorum journal: replica destroyed mid-commit --------------------------
    with tempfile.TemporaryDirectory(prefix="bench-quorum-") as base:
        roots = [os.path.join(base, f"replica-{i}") for i in range(3)]
        provider = LBSProvider(generate_pois(region, {"rest": 20}, seed=3))
        journal_db = uniform_users(240, region, seed=103)
        csp = CSP(
            region,
            K,
            journal_db,
            provider,
            journal=QuorumJournal(
                roots, kill_plan=ReplicaKillPlan.single(0, 0, "snapshot")
            ),
        )
        expected = {uid: cloak for uid, cloak in csp.policy.items()}
        start = time.perf_counter()
        restored = CSP.restore(provider, QuorumJournal(roots))
        restore_seconds = time.perf_counter() - start
        recovery = restored.manager.journal.last_recovery
        audit = audit_policy(restored.policy, K)
        served_identical = sum(
            restored.policy.cloak_for(uid) == cloak
            for uid, cloak in expected.items()
        )
        table.add(
            scenario="journal/replica-kill",
            availability=served_identical / len(expected),
            p50_ms=1e3 * restore_seconds,
            p99_ms=1e3 * restore_seconds,
            rejected=0,
            stale=0,
            retries=0,
            recoveries=len(recovery.repaired) if recovery else 0,
            mttr_ms=1e3 * (recovery.repair_seconds if recovery else 0.0),
            breaches=len(audit.breached_users),
        )
    return table


def test_chaos_availability_and_latency(benchmark, record_table, profile):
    table = run_once(benchmark, _run_chaos, profile)
    record_table("chaos", table)
    rows = {r["scenario"]: r for r in table.rows}
    # The invariant: chaos costs availability, never anonymity.
    assert all(r["breaches"] == 0 for r in table.rows)
    assert rows["replay/clean"]["availability"] == 1.0
    assert rows["bulk/clean"]["availability"] == 1.0
    assert (
        rows["replay/chaos"]["availability"]
        <= rows["replay/clean"]["availability"]
    )
    assert (
        rows["bulk/chaos"]["availability"]
        <= rows["bulk/clean"]["availability"]
    )
    # The chaos schedule actually bit (rejections or degradations).
    assert (
        rows["replay/chaos"]["rejected"]
        + rows["replay/chaos"]["stale"]
        + rows["replay/chaos"]["retries"]
        > 0
    )
    # The SIGKILL'd run recovered (pool rebuilt) and lost no users.
    assert rows["bulk/kill"]["availability"] == 1.0
    assert rows["bulk/kill"]["recoveries"] >= 1
    assert rows["bulk/kill"]["mttr_ms"] > 0.0
    # The replica destroyed mid-commit was rebuilt from the majority and
    # the restored policy serves bit-identical cloaks.
    assert rows["journal/replica-kill"]["availability"] == 1.0
    assert rows["journal/replica-kill"]["recoveries"] == 1
    assert rows["journal/replica-kill"]["mttr_ms"] > 0.0


# ---------------------------------------------------------------------------
# Policy churn: stop-the-world repair vs double-buffered swap (DESIGN §12)
# ---------------------------------------------------------------------------


def _run_churn(scale):
    params = CHURN_SCALES.get(scale.name, CHURN_SCALES["default"])
    table = Table(
        "Policy churn (virtual time) — blackout repair vs epoch swap at "
        f"{100 * MOVE_FRACTION:g}% movement per snapshot",
        [
            "scenario",
            "served",
            "rejected",
            "p50_ms",
            "p99_ms",
            "repair_waits",
            "served_while_repairing",
            "oracle_mismatches",
        ],
    )
    for mode in ("blackout", "swap"):
        row = replay_churn_run(mode, params, seed=7)
        table.add(
            scenario=f"churn/{row['mode']}",
            served=row["served"],
            rejected=row["rejected"],
            p50_ms=round(row["p50_ms"], 2),
            p99_ms=round(row["p99_ms"], 2),
            repair_waits=row["repair_waits"],
            served_while_repairing=row["served_while_repairing"],
            oracle_mismatches=row["oracle_mismatches"],
        )
    return table


def test_churn_swap_never_exceeds_blackout(benchmark, record_table, profile):
    table = run_once(benchmark, _run_churn, profile)
    record_table("chaos_churn", table)
    rows = {r["scenario"]: r for r in table.rows}
    blackout, swap = rows["churn/blackout"], rows["churn/swap"]
    # Anonymity is absolute under churn too: every served cloak is
    # bit-identical to a from-scratch solve of its epoch.
    assert all(r["oracle_mismatches"] == 0 for r in table.rows)
    # The baseline actually blacked out, and the swap retired it: no
    # request ever waits on a repair again.
    assert blackout["repair_waits"] > 0
    assert swap["repair_waits"] == 0
    assert swap["served_while_repairing"] > 0
    # The tail gate of the PR: the swap path never exceeds the blackout
    # path's p99.
    assert swap["p99_ms"] <= blackout["p99_ms"]
