"""Fleet epochs served from the dispatcher's EpochManager.

Every ``advance_epoch`` is an incremental repair, not a rebuild, so the
risk is drift across repeated repairs: after several epochs of churn,
every cloak a worker serves must still equal a from-scratch bulk solve
of that epoch's snapshot.  The epoch broadcast itself must be a fixed
size — the users, coordinates and cloaks travel in the shared segment,
never through the pipe — and no ``psm_`` segment may outlive the fleet.
"""

import pathlib
import pickle
from multiprocessing.connection import Connection

import pytest

from repro import Rect, ReproError, ServiceUnavailableError
from repro.core.anonymizer import PolicyAwareAnonymizer
from repro.core.geometry import Point
from repro.data import uniform_users
from repro.lbs import LBSProvider, generate_pois
from repro.lbs.mobility import random_moves
from repro.lbs.pipeline import ServedRequest
from repro.robustness.faults import FaultInjector, FaultPlan, FaultRule
from repro.serving import FleetConfig, FleetDispatcher
from repro.trajectory import ContinuityConstraint

K = 8
REGION = Rect(0, 0, 4096, 4096)
DEV_SHM = pathlib.Path("/dev/shm")
EPOCHS = 5
CHURN = 0.02


def shm_segments():
    if not DEV_SHM.is_dir():
        return set()
    return {p.name for p in DEV_SHM.iterdir() if p.name.startswith("psm_")}


@pytest.fixture
def provider():
    return LBSProvider(generate_pois(REGION, {"rest": 60, "groc": 30}, seed=72))


def every_user(db):
    return [(uid, [("poi", "rest")]) for uid in db.user_ids()]


def assert_serves_oracle(fleet, db):
    oracle = PolicyAwareAnonymizer(REGION, K).fit(db).policy
    for result in fleet.serve(every_user(db)):
        assert isinstance(result, ServedRequest), result
        uid = result.request.user_id
        assert result.anonymized.cloak == oracle.cloak_for(uid)


@pytest.mark.parametrize("trajectory", [False, True], ids=["plain", "trajectory"])
@pytest.mark.parametrize("mode", ["simulated", "process"])
def test_incremental_epochs_stay_oracle_identical(mode, trajectory, provider):
    """Five 2%-churn epochs: each served cloak equals the from-scratch
    oracle of its epoch's db.  With the defense on, the oracle is the
    same continuity rule replayed over the oracle policies — each user
    is served once per epoch, so replay order does not matter."""
    before = shm_segments()
    db = uniform_users(160, REGION, seed=71)
    config = FleetConfig(
        n_workers=2, mode=mode, trajectory=trajectory, worker_timeout=30.0
    )
    replay = ContinuityConstraint(K) if trajectory else None
    current = db
    with FleetDispatcher(REGION, K, db, provider, config) as fleet:
        for epoch in range(EPOCHS + 1):
            if epoch:
                moves = random_moves(
                    current, CHURN, REGION, max_distance=400.0, seed=epoch
                )
                assert moves
                assert fleet.advance_epoch(moves) == epoch
                current = current.with_moves(moves)
            oracle = PolicyAwareAnonymizer(REGION, K).fit(current).policy
            workload = every_user(current)
            results = fleet.serve(workload)
            for (uid, __), result in zip(workload, results):
                assert isinstance(result, ServedRequest), result
                expected = oracle.cloak_for(uid)
                if replay is not None:
                    expected = replay.enforce(
                        oracle, uid, region=REGION, serial=epoch
                    ).cloak
                assert result.anonymized.cloak == expected, (epoch, uid)
    stats = fleet.close()
    assert stats.epochs == EPOCHS and stats.lost_workers == 0
    assert shm_segments() - before == set()


def test_epoch_broadcast_does_not_grow_with_users(provider, monkeypatch):
    """The pickled ``epoch`` message a worker receives is the same size
    at 160 and 1,600 users (integer widths in the handle's block table
    aside): nothing per user crosses the pipe."""
    sent = []
    real_send = Connection.send

    def recording_send(conn, obj):
        if isinstance(obj, tuple) and obj and obj[0] == "epoch":
            sent.append(len(pickle.dumps(obj)))
        real_send(conn, obj)

    monkeypatch.setattr(Connection, "send", recording_send)
    sizes = {}
    for n in (160, 1600):
        db = uniform_users(n, REGION, seed=71)
        config = FleetConfig(n_workers=1, worker_timeout=30.0)
        with FleetDispatcher(REGION, K, db, provider, config) as fleet:
            del sent[:]
            fleet.advance_epoch(
                random_moves(db, CHURN, REGION, max_distance=400.0, seed=1)
            )
            assert len(sent) == 1
            sizes[n] = sent[0]
    assert sizes[1600] - sizes[160] < 64, sizes


def test_refused_swaps_leave_workers_on_the_prior_epoch(provider):
    """Moves the repair cannot apply are refused before the manager sees
    them; a swap the manager does not promote raises with every worker
    still serving the prior epoch, and the next advance lands the
    re-queued batch."""
    before = shm_segments()
    db = uniform_users(160, REGION, seed=71)
    config = FleetConfig(n_workers=2, worker_timeout=30.0)
    moves = random_moves(db, CHURN, REGION, max_distance=400.0, seed=3)
    with FleetDispatcher(REGION, K, db, provider, config) as fleet:
        with pytest.raises(ReproError):
            fleet.advance_epoch({"nobody": Point(10.0, 10.0)})
        with pytest.raises(ReproError):
            fleet.advance_epoch({db.user_ids()[0]: Point(-5.0, 10.0)})
        fleet._manager.injector = FaultInjector(
            FaultPlan(rules=(FaultRule(site="repair", kind="error"),))
        )
        with pytest.raises(ServiceUnavailableError) as err:
            fleet.advance_epoch(moves)
        assert err.value.reason == "swap"
        assert_serves_oracle(fleet, db)
        fleet._manager.injector = None
        assert fleet.advance_epoch({}) == 2
        assert_serves_oracle(fleet, db.with_moves(moves))
    assert fleet.close().epochs == 1
    assert shm_segments() - before == set()
