"""Crash-consistent snapshot store and CSP kill-and-restart recovery."""

import io
import json
import os
import shutil
import zipfile

import numpy as np
import pytest
from conftest import same_ledger_state

from repro import Rect
from repro.attacks.audit import audit_policy
from repro.core.binary_dp import solve
from repro.core.errors import RecoveryError, ReproError
from repro.core.flat_dp import solve_flat
from repro.core.geometry import Circle, Point
from repro.core.locationdb import LocationDatabase
from repro.core.policy import CloakingPolicy
from repro.core.serialization import (
    canonical_dumps,
    decode_ids,
    encode_ids,
)
from repro.data import uniform_users
from repro.lbs.mobility import random_moves
from repro.lbs.pipeline import CSP
from repro.lbs.poi import generate_pois
from repro.lbs.provider import LBSProvider
import repro.robustness.recovery as recovery
from repro.robustness.chaos import ReplicaKillPlan, destroy_replica
from repro.robustness.recovery import (
    SOLVER_FINGERPRINT as SOLVER,
    PolicyJournal,
    QuorumJournal,
    flat_structure_digest,
)
from repro.trajectory.ledger import TrajectoryLedger
from repro.trees import BinaryTree

REGION = Rect(0, 0, 1024, 1024)
K = 5
FINGERPRINT = {"engine": "object", "k": K}


@pytest.fixture
def provider():
    return LBSProvider(generate_pois(REGION, {"rest": 25}, seed=3))


@pytest.fixture
def journal(tmp_path):
    return PolicyJournal(str(tmp_path / "journal"))


def build_policy(seed=42, n=60):
    db = uniform_users(n, REGION, seed=seed)
    return solve(BinaryTree.build(REGION, db, K), K).policy()


def churn(csp, rounds=2, fraction=0.15, seed=100):
    """Advance the CSP through ``rounds`` snapshots of real movement."""
    for index in range(rounds):
        moves = random_moves(
            csp.mpc.db,
            fraction,
            REGION,
            max_distance=120.0,
            seed=seed + index,
        )
        csp.advance_snapshot(moves)


def assert_bit_identical(a, b):
    assert len(a) == len(b)
    for uid, cloak in a.items():
        assert b.cloak_for(uid) == cloak


class TestPolicyJournal:
    def test_commit_recover_round_trip(self, journal):
        policy = build_policy()
        journal.commit(policy, 0, FINGERPRINT)
        snapshot = journal.recover()
        assert snapshot.serial == 0
        assert snapshot.fingerprint == FINGERPRINT
        assert not snapshot.torn_tail
        assert_bit_identical(policy, snapshot.policy)

    def test_latest_committed_serial_wins(self, journal):
        journal.commit(build_policy(seed=1), 0, FINGERPRINT)
        journal.commit(build_policy(seed=2), 1, FINGERPRINT)
        assert journal.committed_serials() == [0, 1]
        assert journal.latest_serial() == 1
        assert journal.recover().serial == 1

    def test_no_journal_is_empty(self, journal):
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "empty"

    def test_fingerprint_mismatch_fails_closed(self, journal):
        journal.commit(build_policy(), 0, FINGERPRINT)
        with pytest.raises(RecoveryError) as err:
            journal.recover(fingerprint={"engine": "object", "k": K + 1})
        assert err.value.reason == "fingerprint"

    def test_stale_db_serial_fails_closed(self, journal):
        journal.commit(build_policy(), 3, FINGERPRINT)
        with pytest.raises(RecoveryError) as err:
            journal.recover(current_serial=6, max_stale_snapshots=1)
        assert err.value.reason == "stale"
        # Within the bound the same snapshot is admissible.
        assert journal.recover(
            current_serial=4, max_stale_snapshots=1
        ).serial == 3

    def test_torn_tail_recovers_previous_commit(self, journal):
        journal.commit(build_policy(seed=1), 0, FINGERPRINT)
        journal.commit(build_policy(seed=2), 1, FINGERPRINT)
        # Crash mid-append: an intent with no commit, then a torn line.
        journal._append({"op": "intent", "serial": 2, "file": "x", "checksum": "y"})
        with open(journal._journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "comm')  # no newline — torn
        snapshot = journal.recover()
        assert snapshot.serial == 1
        assert snapshot.torn_tail

    def test_commit_after_torn_tail_drops_the_torn_record(self, journal):
        """The next append starts a line of its own: a torn record left
        in place would join it into a corrupt line mid-history."""
        journal.commit(build_policy(seed=1), 0, FINGERPRINT)
        with open(journal._journal_path, "a") as handle:
            handle.write('{"op": "intent", "serial": 1, "fi')
        assert journal.recover().torn_tail
        policy = build_policy(seed=2)
        journal.commit(policy, 1, FINGERPRINT)
        snapshot = journal.recover()
        assert (snapshot.serial, snapshot.torn_tail) == (1, False)
        assert_bit_identical(policy, snapshot.policy)

    def test_mid_history_corruption_fails_closed(self, journal):
        journal.commit(build_policy(seed=1), 0, FINGERPRINT)
        journal.commit(build_policy(seed=2), 1, FINGERPRINT)
        with open(journal._journal_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # truncated mid-history
        with open(journal._journal_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    def test_commit_without_intent_fails_closed(self, journal):
        journal.commit(build_policy(), 0, FINGERPRINT)
        journal._append({"op": "commit", "serial": 99})
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    def test_bit_flipped_snapshot_fails_closed(self, journal):
        journal.commit(build_policy(), 0, FINGERPRINT)
        path = os.path.join(journal.root, journal._checkpoint_file(0))
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    def test_truncated_snapshot_fails_closed(self, journal):
        journal.commit(build_policy(), 0, FINGERPRINT)
        path = os.path.join(journal.root, journal._checkpoint_file(0))
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    def test_missing_snapshot_file_fails_closed(self, journal):
        journal.commit(build_policy(), 0, FINGERPRINT)
        os.remove(os.path.join(journal.root, journal._checkpoint_file(0)))
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"


class TestJournalRetention:
    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(RecoveryError) as err:
            PolicyJournal(str(tmp_path / "j"), keep_last=0)
        assert err.value.reason == "corrupt"

    def test_commit_prunes_to_newest_serials(self, tmp_path):
        journal = PolicyJournal(str(tmp_path / "j"), keep_last=2)
        policies = {s: build_policy(seed=s) for s in range(5)}
        for serial, policy in policies.items():
            journal.commit(policy, serial, FINGERPRINT)
        assert journal.committed_serials() == [3, 4]
        for serial in range(3):
            path = os.path.join(journal.root, journal._checkpoint_file(serial))
            assert not os.path.exists(path)
        snapshot = journal.recover()
        assert snapshot.serial == 4
        assert_bit_identical(policies[4], snapshot.policy)

    def test_compaction_bounds_log_length(self, tmp_path):
        journal = PolicyJournal(str(tmp_path / "j"), keep_last=1)
        for serial in range(6):
            journal.commit(build_policy(seed=serial), serial, FINGERPRINT)
        with open(journal._journal_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        # One intent + one commit for the single surviving serial, plus
        # the just-appended pair before the post-commit prune rewrote it.
        assert len(lines) == 2
        assert journal.recover().serial == 5

    def test_explicit_prune_reports_dropped(self, journal):
        for serial in range(4):
            journal.commit(build_policy(seed=serial), serial, FINGERPRINT)
        assert journal.prune(2) == (0, 1)
        assert journal.prune(2) == ()  # idempotent
        assert journal.committed_serials() == [2, 3]

    def test_restore_after_prune_succeeds(self, provider, tmp_path):
        journal = PolicyJournal(str(tmp_path / "j"), keep_last=1)
        db = uniform_users(90, REGION, seed=11)
        csp = CSP(REGION, K, db, provider, journal=journal)
        churn(csp, rounds=3)
        expected = {uid: cloak for uid, cloak in csp.policy.items()}
        del csp

        assert len(journal.committed_serials()) == 1
        restored = CSP.restore(provider, journal)
        assert restored.restored
        for uid, cloak in expected.items():
            assert restored.policy.cloak_for(uid) == cloak

    def test_over_pruned_restore_fails_closed(self, tmp_path):
        journal = PolicyJournal(str(tmp_path / "j"), keep_last=1)
        for serial in range(3):
            journal.commit(build_policy(seed=serial), serial, FINGERPRINT)
        # Simulate an over-aggressive prune that also removed the one
        # snapshot the compacted log still references.
        os.remove(os.path.join(journal.root, journal._checkpoint_file(2)))
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    def test_prune_removes_dp_sidecars(self, provider, tmp_path):
        journal = PolicyJournal(str(tmp_path / "j"), keep_last=1)
        db = uniform_users(90, REGION, seed=11)
        csp = CSP(REGION, K, db, provider, journal=journal)
        churn(csp, rounds=3)
        kept = journal.committed_serials()
        assert len(kept) == 1
        npz = [f for f in os.listdir(journal.root) if f.endswith(".npz")]
        assert npz == [journal._checkpoint_file(kept[0])]
        # The surviving checkpoint's DP members still enable a warm restore.
        del csp
        assert CSP.restore(provider, journal).manager._shadow.solution is not None

    def test_stale_bound_still_enforced_after_prune(self, tmp_path):
        journal = PolicyJournal(str(tmp_path / "j"), keep_last=1)
        journal.commit(build_policy(seed=0), 0, FINGERPRINT)
        journal.commit(build_policy(seed=1), 1, FINGERPRINT)
        with pytest.raises(RecoveryError) as err:
            journal.recover(current_serial=4, max_stale_snapshots=1)
        assert err.value.reason == "stale"


class TestCSPRestart:
    def make_csp(self, provider, journal, n_users=90, seed=11):
        db = uniform_users(n_users, REGION, seed=seed)
        return CSP(REGION, K, db, provider, journal=journal)

    def test_kill_and_restart_bit_identical(self, provider, journal):
        csp = self.make_csp(provider, journal)
        churn(csp, rounds=2)
        expected = {uid: cloak for uid, cloak in csp.policy.items()}
        user = sorted(expected)[0]
        del csp  # the "kill": only the journal survives

        restored = CSP.restore(provider, journal)
        assert restored.restored
        assert len(restored.policy) == len(expected)
        for uid, cloak in expected.items():
            assert restored.policy.cloak_for(uid) == cloak
        served = restored.request(user, [("poi", "rest")])
        assert served.degradation == "recovered"
        assert served.anonymized.cloak == expected[user]

    @pytest.mark.parametrize(
        "solver", [{"engine": "object"}, {"prune": False}, {"engine": None}]
    )
    def test_foreign_solver_fingerprint_fails_closed(
        self, provider, tmp_path, solver
    ):
        """CSP and EpochManager run one solver; a journal naming another
        engine or prune setting (or none) is not state they can adopt."""
        from repro.streaming import EpochManager

        fingerprint = {
            "engine": "flat",
            "k": K,
            "max_depth": 40,
            "prune": True,
            "region": list(REGION.as_tuple()),
        }
        fingerprint.update(solver)
        journal = PolicyJournal(str(tmp_path / "j"))
        journal.commit(build_policy(), 0, fingerprint)
        for restore in (
            lambda: CSP.restore(provider, journal),
            lambda: EpochManager.restore(journal),
        ):
            with pytest.raises(RecoveryError) as err:
                restore()
            assert err.value.reason == "fingerprint"

    def test_restart_is_warm_and_repairs_forward(self, provider, journal):
        csp = self.make_csp(provider, journal)
        churn(csp, rounds=2)
        del csp

        restored = CSP.restore(provider, journal)
        # The DP members validated: repairs go through resolve_dirty
        # instead of a bulk re-solve.
        assert restored.manager._shadow.solution is not None
        moves = random_moves(
            restored.mpc.db,
            0.05,
            REGION,
            max_distance=80.0,
            seed=7,
        )
        report = restored.advance_snapshot(moves)
        assert report.promoted
        assert 0 < report.recomputed_nodes < report.total_nodes
        assert not restored.restored
        user = restored.mpc.db.user_ids()[0]
        assert restored.request(user, [("poi", "rest")]).degradation == "fresh"
        audit = audit_policy(restored.effective_policy, K)
        assert audit.policy_aware_level >= K

    def test_cold_restore_still_serves(self, provider, journal):
        csp = self.make_csp(provider, journal)
        churn(csp, rounds=1)
        expected = {uid: cloak for uid, cloak in csp.policy.items()}
        serial = csp.manager.world_serial
        del csp
        # A DP layout that does not fit the rebuilt tree, its checksum
        # redone: the relabelling rejects it and the restore goes cold.
        _forge(
            journal.root, serial,
            members=lambda a: a["dp/left"].__setitem__(0, -1),
        )

        restored = CSP.restore(provider, journal)
        assert restored.manager._shadow.solution is None  # cold
        for uid, cloak in expected.items():
            assert restored.policy.cloak_for(uid) == cloak
        moves = random_moves(
            restored.mpc.db,
            0.05,
            REGION,
            max_distance=80.0,
            seed=9,
        )
        assert restored.advance_snapshot(moves).promoted
        assert audit_policy(
            restored.effective_policy, K
        ).policy_aware_level >= K

    def test_checkpoint_without_dp_restores_cold(self, journal):
        """A checkpoint of a policy alone has no ``dp/`` members: the
        restore serves that policy and its first repair is a bulk solve."""
        from repro.streaming import EpochManager

        db = uniform_users(90, REGION, seed=11)
        policy = solve_flat(BinaryTree.build(REGION, db, K), K).policy()
        fingerprint = {
            **SOLVER, "k": K, "max_depth": 40, "region": list(REGION.as_tuple())
        }
        journal.commit(policy, 0, fingerprint)
        path = os.path.join(journal.root, journal._checkpoint_file(0))
        with np.load(path, allow_pickle=False) as archive:
            assert not [key for key in archive.files if key.startswith("dp/")]
        restored = EpochManager.restore(journal)
        assert restored._shadow.solution is None  # cold
        assert_bit_identical(policy, restored.active.policy)
        swap = restored.advance(
            random_moves(restored.active.db, 0.05, REGION, max_distance=80.0, seed=3)
        )
        assert swap.promoted
        assert restored._shadow.solution is not None

    def test_restore_too_stale_rejected(self, provider, journal):
        csp = self.make_csp(provider, journal)
        churn(csp, rounds=1)
        serial = csp.manager.world_serial
        del csp
        with pytest.raises(RecoveryError) as err:
            CSP.restore(
                provider,
                journal,
                current_serial=serial + 3,
                max_stale_snapshots=1,
            )
        assert err.value.reason == "stale"

    def test_restore_within_stale_bound_serves_stale(self, provider, journal):
        csp = self.make_csp(provider, journal)
        churn(csp, rounds=1)
        serial = csp.manager.world_serial
        user = csp.mpc.db.user_ids()[0]
        del csp
        restored = CSP.restore(
            provider,
            journal,
            current_serial=serial + 1,
            max_stale_snapshots=1,
        )
        assert restored.policy_age == 1
        assert restored.request(user, [("poi", "rest")]).degradation == "stale"

    def test_measured_restore_latency_replays_in_des(self, provider, journal):
        """Close the loop: time a real journal restore, then replay a
        schedule through the restored CSP and gateway on virtual time.
        The restored policy serves on the "recovered" rung until the
        first promoted advance, and "fresh" after it."""
        import time as _time

        from repro.experiments.replay import replay_schedule
        from repro.lbs.mobility import trajectory_schedule

        csp = self.make_csp(provider, journal)
        churn(csp, rounds=1)
        db = csp.mpc.db
        del csp
        start = _time.perf_counter()
        restored = CSP.restore(provider, journal)
        measured = _time.perf_counter() - start
        assert restored.restored and measured > 0.0

        schedule = trajectory_schedule(
            db,
            0.1,
            REGION,
            rate_per_user=0.5,
            duration=15.0,
            snapshot_period=7.0,
            max_distance=120.0,
            seed=13,
        )
        run = replay_schedule(restored, schedule, repair_seconds=measured)
        assert run.rejected == 0
        assert [swap.promoted for swap in run.swaps] == [True, True]
        installed = 7.0 + measured
        rungs = {"recovered": 0, "fresh": 0}
        for replayed in run.requests:
            rung = replayed.outcome.degradation
            rungs[rung] += 1
            assert rung == (
                "recovered" if replayed.arrival < installed else "fresh"
            )
        assert rungs["recovered"] > 0 and rungs["fresh"] > 0
        assert not restored.restored


class TestQuorumJournal:
    """Media loss: the journal mirrored across three directories."""

    FP = FINGERPRINT

    @pytest.fixture
    def roots(self, tmp_path):
        return [str(tmp_path / f"replica-{i}") for i in range(3)]

    def test_round_trip_and_quorum_views(self, roots):
        q = QuorumJournal(roots)
        checksum = q.commit(build_policy(seed=1), 0, self.FP)
        q.commit(build_policy(seed=2), 1, self.FP)
        assert q.quorum == 2
        assert q.committed_serials() == [0, 1]
        assert q.latest_serial() == 1
        snapshot = q.recover(fingerprint=self.FP)
        assert snapshot.serial == 1
        assert snapshot.checksum is not None and snapshot.checksum != checksum
        assert q.last_recovery.repaired == ()

    def test_replicas_must_be_distinct(self, tmp_path):
        same = str(tmp_path / "only")
        with pytest.raises(RecoveryError):
            QuorumJournal([same, same, str(tmp_path / "other")])

    @pytest.mark.parametrize("phase", ["before", "intent", "snapshot", "after"])
    def test_single_loss_mid_commit_recovers_bit_identical(self, roots, phase):
        """Destroy any one replica at any phase of a commit: the commit
        still acks a quorum and recovery returns bit-identical state,
        repairing the destroyed replica with a measured MTTR."""
        policy = build_policy(seed=3)
        q = QuorumJournal(
            roots, kill_plan=ReplicaKillPlan.single(1, 1, phase)
        )
        q.commit(policy, 0, self.FP)
        q.commit(build_policy(seed=4), 1, self.FP)
        snapshot = q.recover(fingerprint=self.FP)
        assert snapshot.serial == 1
        report = q.last_recovery
        if phase == "after":
            # The replica acked before dying: the commit saw 3/3, but
            # recovery still finds the dead replica and repairs it.
            assert q.last_commit_failures == ()
        else:
            assert q.last_commit_failures == (1,)
        assert report.repaired == (1,)
        assert report.repair_seconds > 0.0
        # The repaired replica now recovers the same state on its own.
        repaired = PolicyJournal(roots[1]).recover(fingerprint=self.FP)
        assert repaired.serial == snapshot.serial
        assert repaired.checksum == snapshot.checksum
        assert_bit_identical(snapshot.policy, repaired.policy)

    def test_two_of_three_with_torn_tail_replica(self, roots):
        q = QuorumJournal(roots)
        q.commit(build_policy(seed=5), 0, self.FP)
        expected = q.recover(fingerprint=self.FP)
        # Replica 0 crashed mid-append (torn tail), replica 2's media
        # is gone entirely: only replica 1 is pristine, but the torn
        # replica still votes for its last *committed* state, so the
        # read quorum of 2 holds.
        with open(os.path.join(roots[0], "journal.log"), "a") as handle:
            handle.write('{"op": "intent", "serial": 1, "fi')
        destroy_replica(roots[2])
        snapshot = q.recover(fingerprint=self.FP)
        assert snapshot.serial == expected.serial
        assert snapshot.checksum == expected.checksum
        report = q.last_recovery
        assert set(report.voters) == {0, 1}
        # Both the torn and the destroyed replica get rewritten.
        assert set(report.repaired) == {0, 2}
        assert report.replica_states == ("torn", "ok", "empty")
        assert_bit_identical(expected.policy, snapshot.policy)

    def test_double_loss_fails_closed_never_serves(self, roots):
        q = QuorumJournal(
            roots, kill_plan=ReplicaKillPlan.double(1, 0, 2, "snapshot")
        )
        q.commit(build_policy(seed=6), 0, self.FP)
        with pytest.raises(RecoveryError) as err:
            q.commit(build_policy(seed=7), 1, self.FP)
        assert err.value.reason == "quorum"
        # Recovery on the lone survivor must also fail closed — a
        # minority must never resurrect (or coarsen) state on its own.
        with pytest.raises(RecoveryError) as err:
            q.recover(fingerprint=self.FP)
        assert err.value.reason == "quorum"

    def test_permissions_failure_mid_commit(self, roots, monkeypatch):
        """A replica whose directory stops being writable mid-commit
        (PermissionError ⊂ OSError) simply fails to ack; a second such
        replica breaks the quorum."""
        q = QuorumJournal(roots)
        q.commit(build_policy(seed=8), 0, self.FP)

        def denied(record):
            raise PermissionError("journal directory is read-only")

        monkeypatch.setattr(q.replicas[1], "_append", denied)
        q.commit(build_policy(seed=9), 1, self.FP)
        assert q.last_commit_failures == (1,)
        monkeypatch.setattr(q.replicas[2], "_append", denied)
        with pytest.raises(RecoveryError) as err:
            q.commit(build_policy(seed=10), 2, self.FP)
        assert err.value.reason == "quorum"

    def test_prune_is_quorum_coordinated(self, roots):
        q = QuorumJournal(roots)
        for serial in range(4):
            q.commit(build_policy(seed=serial), serial, self.FP)
        destroy_replica(roots[0])
        destroy_replica(roots[1])
        with pytest.raises(RecoveryError) as err:
            q.prune(keep_last=1)
        assert err.value.reason == "quorum"
        # The surviving replica was not touched: fail-closed means
        # nothing pruned anywhere, not "pruned where possible".
        assert q.replicas[2].committed_serials() == [0, 1, 2, 3]

    def test_prune_then_restore_cannot_resurrect_stale_serials(self, roots):
        """Regression for the prune/replication interaction: a replica
        that missed a quorum-coordinated prune keeps serials the
        majority dropped, and a later restore where that replica is the
        only survivor must fail closed rather than resurrect them."""
        q = QuorumJournal(roots)
        for serial in range(4):
            q.commit(build_policy(seed=20 + serial), serial, self.FP)
        # Replica 2's media goes away for the prune...
        saved = roots[2] + ".offline"
        os.rename(roots[2], saved)
        assert q.prune(keep_last=1) == (0, 1, 2)
        # ...and comes back afterwards, still holding serials 0-3.
        os.rename(saved, roots[2])
        stale = QuorumJournal(roots)
        assert PolicyJournal(roots[2]).committed_serials() == [0, 1, 2, 3]
        # Quorum views never expose the minority's stale serials.
        assert stale.committed_serials() == [3]
        # Majority intact: recovery adopts the pruned majority's newest
        # serial and repairs the lagging replica, dropping its stale tail.
        snapshot = stale.recover(fingerprint=self.FP)
        assert snapshot.serial == 3
        assert PolicyJournal(roots[2]).committed_serials() == [3]
        # Majority lost: the stale minority alone must never win.
        destroy_replica(roots[0])
        destroy_replica(roots[1])
        with pytest.raises(RecoveryError) as err:
            QuorumJournal(roots).recover(fingerprint=self.FP)
        assert err.value.reason == "quorum"


class TestQuorumCSPRestore:
    """The full loop: CSP commits through a quorum journal, a replica
    dies mid-commit, restore recovers bit-identical with measured MTTR."""

    @pytest.fixture
    def roots(self, tmp_path):
        return [str(tmp_path / f"replica-{i}") for i in range(3)]

    def make_csp(self, provider, quorum, n_users=90, seed=11):
        db = uniform_users(n_users, REGION, seed=seed)
        return CSP(REGION, K, db, provider, journal=quorum)

    def test_restore_after_replica_destruction_bit_identical(
        self, provider, roots
    ):
        quorum = QuorumJournal(
            roots, kill_plan=ReplicaKillPlan.single(2, 0, "snapshot")
        )
        csp = self.make_csp(provider, quorum)
        churn(csp, rounds=2)  # serial 2's commit destroys replica 0
        expected = {uid: cloak for uid, cloak in csp.policy.items()}
        user = sorted(expected)[0]
        del csp

        restored = CSP.restore(provider, QuorumJournal(roots))
        assert restored.restored
        for uid, cloak in expected.items():
            assert restored.policy.cloak_for(uid) == cloak
        served = restored.request(user, [("poi", "rest")])
        assert served.degradation == "recovered"
        assert served.anonymized.cloak == expected[user]
        # The repair is on the degradation timeline with its MTTR.
        repairs = [
            event for event in restored.events
            if event.reason == "replica-repaired"
        ]
        assert len(repairs) == 1
        assert "replicas [0]" in repairs[0].detail

    def test_quorum_loss_fails_closed_never_serves_coarse(
        self, provider, roots
    ):
        quorum = QuorumJournal(roots)
        csp = self.make_csp(provider, quorum)
        churn(csp, rounds=1)
        del csp
        destroy_replica(roots[0])
        destroy_replica(roots[1])
        with pytest.raises(RecoveryError) as err:
            CSP.restore(provider, QuorumJournal(roots))
        assert err.value.reason == "quorum"


class TestStalenessStateBlock:
    """PR-8 regression: ``policy_age`` and the serving rung ride the
    commit record, so a crash-restart can never silently reset
    staleness to zero and serve over-age cloaks as fresh."""

    FP = FINGERPRINT

    def test_state_survives_commit_recover_round_trip(self, journal):
        journal.commit(
            build_policy(), 3, self.FP,
            state={"policy_age": 1, "rung": "stale"},
        )
        snapshot = journal.recover(max_stale_snapshots=2)
        assert snapshot.serial == 3
        assert snapshot.policy_age == 1
        assert snapshot.rung == "stale"

    def test_stateless_commit_defaults_to_fresh(self, journal):
        journal.commit(build_policy(), 0, self.FP)
        snapshot = journal.recover()
        assert snapshot.policy_age == 0
        assert snapshot.rung == "fresh"

    def test_recommit_of_same_serial_updates_age(self, journal):
        """The failed-repair path re-commits the unchanged policy at
        its own serial with the grown age — newest commit wins."""
        policy = build_policy()
        journal.commit(policy, 2, self.FP)
        journal.commit(
            policy, 2, self.FP,
            state={"policy_age": 2, "rung": "coarsened"},
        )
        snapshot = journal.recover(max_stale_snapshots=2)
        assert snapshot.serial == 2
        assert snapshot.policy_age == 2
        assert snapshot.rung == "coarsened"

    def test_persisted_age_enforces_the_stale_bound(self, journal):
        """Even with no ``current_serial`` hint, a journalled age past
        the bound fails closed: the age is the journal's own testimony
        that the policy trails the world."""
        journal.commit(
            build_policy(), 5, self.FP,
            state={"policy_age": 2, "rung": "coarsened"},
        )
        snapshot = journal.recover(max_stale_snapshots=2)
        assert snapshot.policy_age == 2
        with pytest.raises(RecoveryError) as err:
            journal.recover(max_stale_snapshots=1)
        assert err.value.reason == "stale"

    def test_age_and_serial_gap_combine(self, journal):
        """``current_serial`` measures the gap since the commit; the
        persisted age measures the gap *at* the commit.  The larger of
        the two is the real staleness."""
        journal.commit(
            build_policy(), 5, self.FP,
            state={"policy_age": 1, "rung": "stale"},
        )
        assert journal.recover(
            current_serial=5, max_stale_snapshots=1
        ).policy_age == 1
        with pytest.raises(RecoveryError) as err:
            journal.recover(current_serial=7, max_stale_snapshots=1)
        assert err.value.reason == "stale"

    def test_quorum_round_trip_carries_state(self, tmp_path):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(roots)
        quorum.commit(
            build_policy(), 1, self.FP,
            state={"policy_age": 1, "rung": "stale"},
        )
        destroy_replica(roots[2])
        snapshot = quorum.recover(max_stale_snapshots=2)
        assert snapshot.serial == 1
        assert snapshot.policy_age == 1
        assert snapshot.rung == "stale"

    def test_csp_journals_its_age_after_failed_repair(
        self, provider, journal
    ):
        """End to end: a CSP whose repair fails re-commits its grown
        age, and the restored CSP resumes on the stale rung instead of
        believing itself fresh."""
        from repro.robustness.faults import (
            FaultInjector,
            FaultPlan,
            FaultRule,
        )

        db = uniform_users(60, REGION, seed=12)
        injector = FaultInjector(
            FaultPlan(
                rules=(FaultRule(site="repair", kind="error", match="1"),),
                seed=0,
            )
        )
        csp = CSP(REGION, K, db, provider, journal=journal,
                  max_stale_snapshots=2, injector=injector)
        moves = random_moves(
            csp.mpc.db, 0.1, REGION,
            max_distance=120.0, seed=5,
        )
        csp.advance_snapshot(moves)
        assert csp.policy_age == 1
        del csp

        snapshot = journal.recover(max_stale_snapshots=2)
        assert snapshot.policy_age == 1
        assert snapshot.rung == "stale"
        restored = CSP.restore(provider, journal, max_stale_snapshots=2)
        assert restored.policy_age == 1
        served = restored.request(db.user_ids()[0], [("poi", "rest")])
        assert served.degradation == "stale"
        assert served.policy_age == 1


class TestTrajectoryStateBlock:
    """The trajectory-continuity ledger rides the commit record: a
    crash-restart must resume the served-history intersections, or the
    restored CSP would re-serve fine cloaks whose linked anonymity the
    pre-crash history already eroded."""

    FP = FINGERPRINT

    def _constraint(self):
        from repro.trajectory import ContinuityConstraint

        return ContinuityConstraint(K)

    def test_ledger_survives_commit_recover_round_trip(self, journal):
        constraint = self._constraint()
        constraint.ledger.record(
            "u1", Rect(0, 0, 64, 64), ["u1", "u2", "u3"], serial=2
        )
        state = constraint.ledger.to_state()
        journal.commit(
            build_policy(), 2, self.FP, state={"trajectory": state}
        )
        snapshot = journal.recover()
        assert same_ledger_state(snapshot.trajectory, state)

    def test_stateless_commit_has_no_trajectory(self, journal):
        journal.commit(build_policy(), 0, self.FP)
        assert journal.recover().trajectory is None

    def test_killed_csp_restores_ledger_and_cloaks_bit_identical(
        self, provider, journal
    ):
        """SIGKILL mid-trajectory (modelled by ``del`` — only the
        journal survives): the restored CSP's next cloaks are
        bit-identical to what the survivor would have served, and the
        served stream still passes the linking audit."""
        from repro.trajectory import ServedTrajectories

        db = uniform_users(120, REGION, seed=31)
        csp = CSP(
            REGION, K, db, provider,
            journal=journal, trajectory=self._constraint(),
        )
        users = db.user_ids()[:30]
        stream = ServedTrajectories()
        for uid in users:
            served = csp.request(uid, [("poi", "rest")])
            stream.observe(
                uid,
                served.anonymized.cloak,
                csp.policy,
                widened=served.anonymized.cloak != csp.policy.cloak_for(uid),
            )
        churn(csp, rounds=2, fraction=0.4, seed=200)
        for uid in users:
            served = csp.request(uid, [("poi", "rest")])
            stream.observe(
                uid,
                served.anonymized.cloak,
                csp.policy,
                widened=served.anonymized.cloak != csp.policy.cloak_for(uid),
            )
        # One more churn round: its commit carries the ledger state the
        # requests above folded in, so the kill loses nothing.
        churn(csp, rounds=1, fraction=0.4, seed=300)
        expected_state = csp.trajectory.ledger.to_state()
        # A surviving twin tells us what the next serves *would* be.
        twin_state = csp.trajectory.ledger.to_state()
        del csp  # the kill: only the journal survives

        successor = self._constraint()
        restored = CSP.restore(provider, journal, trajectory=successor)
        assert restored.restored
        assert same_ledger_state(successor.ledger.to_state(), expected_state)

        twin = self._constraint()
        twin.ledger.adopt_state(twin_state)
        for uid in users:
            served = restored.request(uid, [("poi", "rest")])
            expected = twin.enforce(
                restored.policy, uid, region=REGION,
                orientation=restored.manager.orientation,
            )
            assert served.anonymized.cloak == expected.cloak
            stream.observe(
                uid,
                served.anonymized.cloak,
                restored.policy,
                widened=served.anonymized.cloak
                != restored.policy.cloak_for(uid),
            )
        audit = stream.audit(K)
        assert audit.audited == len(users)
        assert audit.all_hold
        assert audit.min_surviving >= K

    def test_restore_without_constraint_drops_nothing_silently(
        self, provider, journal
    ):
        """Restoring with the defense off is allowed (the state block
        is just carried); restoring with it on adopts the state."""
        db = uniform_users(100, REGION, seed=32)
        csp = CSP(
            REGION, K, db, provider,
            journal=journal, trajectory=self._constraint(),
        )
        csp.request(db.user_ids()[0], [("poi", "rest")])
        churn(csp, rounds=1, fraction=0.2, seed=400)
        del csp
        plain = CSP.restore(provider, journal)
        assert plain.trajectory is None  # defense off: no ledger
        successor = self._constraint()
        CSP.restore(provider, journal, trajectory=successor)
        assert successor.ledger.surviving(db.user_ids()[0]) is not None


#: forgeries of a committed ledger's arrays that keep every checksum
#: intact, with the refusal each must name.
LEDGER_FORGERIES = {
    "state-version": (
        lambda a: a["trajectory/meta"].__setitem__(0, 2),
        "unknown trajectory ledger state version 2",
    ),
    "surviving-ptr": (
        lambda a: a["trajectory/surviving_ptr"].__setitem__(
            -1, a["trajectory/surviving_ptr"][-1] + 1
        ),
        "trajectory ledger state arrays are inconsistent",
    ),
    "nested-ids": (
        lambda a: a.__setitem__(
            "trajectory/ids", np.frombuffer(b"[" * 5000 + b"]" * 5000, np.uint8)
        ),
        "trajectory ledger intern table is not UTF-8 JSON",
    ),
}


class TestLedgerFile:
    """The checkpoint holding the ledger is privacy state: recovery
    fails closed without it, quorum repair and retention carry it, and
    it is never unpickled."""

    FP = FINGERPRINT
    ARRAYS = "snapshot-000000.npz"

    def _commit(self, journal, serial=0):
        ledger = TrajectoryLedger(window=2)
        ledger.record(
            "u1", Rect(0, 0, 64, 64), ["u1", "u2", "u3"], serial=serial
        )
        state = ledger.to_state()
        journal.commit(
            build_policy(), serial, self.FP, state={"trajectory": state}
        )
        return state

    @staticmethod
    def _damage(path, how):
        if how == "missing":
            os.remove(path)
            return
        raw = bytearray(open(path, "rb").read())
        if how == "truncated":
            raw = raw[: len(raw) // 2]
        else:
            raw[len(raw) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(raw)

    @pytest.mark.parametrize("how", ["missing", "truncated", "bit-flipped"])
    def test_single_journal_fails_closed(self, journal, how):
        self._commit(journal)
        self._damage(os.path.join(journal.root, self.ARRAYS), how)
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    @pytest.mark.parametrize("how", ["missing", "truncated", "bit-flipped"])
    def test_quorum_majority_damage_fails_closed(self, tmp_path, how):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(roots)
        self._commit(quorum)
        for root in roots[:2]:
            self._damage(os.path.join(root, self.ARRAYS), how)
        with pytest.raises(RecoveryError) as err:
            quorum.recover()
        assert err.value.reason == "quorum"

    @pytest.mark.parametrize("how", ["missing", "truncated", "bit-flipped"])
    def test_quorum_minority_damage_is_repaired(self, tmp_path, how):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(roots)
        state = self._commit(quorum)
        self._damage(os.path.join(roots[0], self.ARRAYS), how)
        snapshot = quorum.recover()
        assert same_ledger_state(snapshot.trajectory, state)
        assert quorum.last_recovery.repaired == (0,)
        assert _journal_files(roots[0]) == _journal_files(roots[1])
        assert same_ledger_state(
            PolicyJournal(roots[0]).recover().trajectory, state
        )

    def test_a_valid_ledger_of_another_commit_is_refused(self, journal):
        """The intent pins the file's bytes, not just its format: an
        intact checkpoint from another commit does not restore."""
        self._commit(journal, serial=0)
        older = open(os.path.join(journal.root, self.ARRAYS), "rb").read()
        self._commit(journal, serial=1)
        with open(
            os.path.join(journal.root, "snapshot-000001.npz"), "wb"
        ) as handle:
            handle.write(older)
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert "checksum" in str(err.value)

    @pytest.mark.parametrize("forgery", sorted(LEDGER_FORGERIES))
    def test_forged_ledger_fails_closed(self, journal, forgery):
        """A ledger of another state version or with inconsistent arrays,
        its checksums redone, is refused by adopting it into a scratch
        ledger on load."""
        mutate, why = LEDGER_FORGERIES[forgery]
        self._commit(journal)
        _forge(journal.root, 0, members=mutate)
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"
        assert why in str(err.value)

    @pytest.mark.parametrize("forgery", sorted(LEDGER_FORGERIES))
    def test_forged_ledger_replica_is_outvoted(self, tmp_path, forgery):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(roots)
        state = self._commit(quorum)
        _forge(roots[0], 0, members=LEDGER_FORGERIES[forgery][0])
        snapshot = quorum.recover()
        assert same_ledger_state(snapshot.trajectory, state)
        assert quorum.last_recovery.repaired == (0,)
        assert quorum.last_recovery.replica_states == ("corrupt", "ok", "ok")
        assert _journal_files(roots[0]) == _journal_files(roots[1])

    def test_retention_prunes_the_ledger_file(self, tmp_path):
        journal = PolicyJournal(str(tmp_path / "journal"), keep_last=1)
        self._commit(journal, serial=0)
        state = self._commit(journal, serial=1)
        assert sorted(os.listdir(journal.root)) == [
            "journal.log", "snapshot-000001.npz"
        ]
        assert journal.files_for_serial(1) == ["snapshot-000001.npz"]
        assert same_ledger_state(journal.recover().trajectory, state)

    def test_ledger_file_is_never_unpickled(self, journal):
        """An object array in the file (its checksum intact) is refused,
        not unpickled."""
        ledger = TrajectoryLedger()
        ledger.record("u1", Rect(0, 0, 64, 64), ["u1", "u2"])
        state = ledger.to_state()
        state["ids"] = state["ids"].astype(object)
        journal.commit(
            build_policy(), 0, self.FP, state={"trajectory": state}
        )
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"


def _random_policy(seed, n=40):
    """A policy over ``n`` users whose points sit on cloak corners,
    edges and inside, with some cloaks shared by several users and some
    equal to another cloak but a distinct object."""
    rng = np.random.default_rng(seed)
    rects = []
    for __ in range(6):
        x1, y1 = rng.uniform(0, 900, size=2)
        w, h = rng.uniform(0, 100, size=2)
        rects.append(Rect(x1, y1, x1 + w, y1 + h))
    rects += [Rect(r.x1, r.y1, r.x2, r.y2) for r in rects[:3]]
    rows, cloaks = [], {}
    for index in range(n):
        rect = rects[int(rng.integers(len(rects)))]
        x, y = rng.uniform(rect.x1, rect.x2), rng.uniform(rect.y1, rect.y2)
        where = int(rng.integers(4))
        if where in (1, 3):  # on a vertical edge, or a corner
            x = (rect.x1, rect.x2)[int(rng.integers(2))]
        if where in (2, 3):  # on a horizontal edge, or a corner
            y = (rect.y1, rect.y2)[int(rng.integers(2))]
        uid = f"user-{int(rng.integers(10**6))}-{index}"
        rows.append((uid, x, y))
        cloaks[uid] = rect
    return CloakingPolicy(cloaks, LocationDatabase(rows), name=f"random-{seed}")


def _forge(root, serial, header=None, members=None):
    """Rewrite one commit's file — its ``header`` through ``header``,
    its other members in place through ``members`` — and checksum it
    again in the journal's intent record."""
    log = os.path.join(root, "journal.log")
    records = [json.loads(line) for line in open(log)]
    intent = [r for r in records if r["op"] == "intent" and r["serial"] == serial][-1]
    path = os.path.join(root, intent["file"])
    with np.load(path, allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}
    if header is not None:
        edited = header(json.loads(arrays["header"].tobytes()))
        arrays["header"] = np.frombuffer(canonical_dumps(edited).encode(), np.uint8)
    if members is not None:
        members(arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with open(path, "wb") as handle:
        handle.write(buffer.getvalue())
    intent["checksum"] = recovery._digest(buffer.getvalue())
    with open(log, "w", encoding="utf-8") as handle:
        handle.write("".join(canonical_dumps(r) + "\n" for r in records))


def _set_ids(arrays, edit):
    ids = decode_ids(arrays["policy/ids"], "ids")
    edit(ids)
    arrays["policy/ids"] = encode_ids(ids)


def _user_outside(arrays):
    box = arrays["policy/boxes"][arrays["policy/group"][0]]
    arrays["policy/coords"][0] = (box[2] + 1.0, box[3])


def _small_group(arrays):
    """Row 0 alone in a point-sized box at its own location: masking
    (Definition 4) still holds, Definition 6 does not."""
    x, y = arrays["policy/coords"][0]
    arrays["policy/boxes"] = np.vstack([arrays["policy/boxes"], [(x, y, x, y)]])
    arrays["policy/group"][0] = len(arrays["policy/boxes"]) - 1


#: forgeries of a policy's rows that keep every checksum intact.
FORGERIES = {
    "small-group": _small_group,
    "user-outside-cloak": _user_outside,
    "duplicate-id": lambda a: _set_ids(a, lambda ids: ids.__setitem__(1, ids[0])),
    "id-count": lambda a: _set_ids(a, lambda ids: ids.pop()),
    "group-out-of-range": lambda a: a["policy/group"].__setitem__(
        0, len(a["policy/boxes"])
    ),
    "group-dtype": lambda a: a.__setitem__(
        "policy/group", a["policy/group"].astype(np.int64)
    ),
    "coords-shape": lambda a: a.__setitem__(
        "policy/coords", a["policy/coords"][:-1]
    ),
    "degenerate-box": lambda a: a["policy/boxes"].__setitem__(
        0, a["policy/boxes"][0][[2, 1, 0, 3]]
    ),
    "object-ids": lambda a: a.__setitem__(
        "policy/ids", a["policy/ids"].astype(object)
    ),
    "missing-boxes": lambda a: a.pop("policy/boxes"),
    "nested-ids": lambda a: a.__setitem__(
        "policy/ids", np.frombuffer(b"[" * 5000 + b"]" * 5000, np.uint8)
    ),
}


class TestPolicyArrays:
    """The policy is journalled as rows in its checkpoint and restored
    through ``CloakingPolicy.from_rows``: it round-trips item for item,
    and a forged file fails closed even with every checksum intact."""

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_keeps_items_order_and_cloak_sharing(self, journal, seed):
        policy = _random_policy(seed)
        # Random cloaks make groups of any size: commit under the
        # policy's own level, which the Definition 6 gate accepts.
        journal.commit(
            policy, seed, {**FINGERPRINT, "k": policy.min_group_size()}
        )
        restored = journal.recover().policy
        assert restored.name == policy.name
        assert list(restored.items()) == list(policy.items())
        assert list(restored.db.rows()) == list(policy.db.rows())

        def sharing(p):
            first = {}
            return [first.setdefault(id(r), len(first)) for __, r in p.items()]

        assert sharing(restored) == sharing(policy)

    def test_non_rect_cloak_is_refused_before_any_write(self, tmp_path):
        db = LocationDatabase([("a", 1.0, 1.0), ("b", 5.0, 5.0)])
        policy = CloakingPolicy(
            {"a": Rect(0, 0, 8, 8), "b": Circle(Point(4.0, 4.0), 4.0)}, db
        )
        single = PolicyJournal(str(tmp_path / "single"))
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        with pytest.raises(ReproError, match="rectangles only"):
            single.commit(policy, 0, FINGERPRINT)
        with pytest.raises(ReproError, match="rectangles only"):
            QuorumJournal(roots).commit(policy, 0, FINGERPRINT)
        for root in [single.root] + roots:
            assert os.listdir(root) == []

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_forged_arrays_fail_closed(self, journal, forgery):
        journal.commit(build_policy(), 0, FINGERPRINT)
        _forge(journal.root, 0, members=FORGERIES[forgery])
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_forged_replica_is_outvoted_and_repaired(self, tmp_path, forgery):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(roots)
        policy = build_policy()
        quorum.commit(policy, 0, FINGERPRINT)
        _forge(roots[0], 0, members=FORGERIES[forgery])
        snapshot = quorum.recover()
        assert_bit_identical(policy, snapshot.policy)
        assert quorum.last_recovery.repaired == (0,)
        assert quorum.last_recovery.replica_states == ("corrupt", "ok", "ok")
        assert _journal_files(roots[0]) == _journal_files(roots[1])


#: checkpoint headers of the wrong shape, checksummed as if committed.
FORGED_HEADERS = {
    "not-an-object": lambda doc: [doc],
    "version-not-an-int": lambda doc: dict(doc, version="three"),
    "fingerprint-not-an-object": lambda doc: dict(doc, fingerprint=["k"]),
    "state-not-an-object": lambda doc: dict(doc, state="fresh"),
    "age-not-an-int": lambda doc: dict(
        doc, state={"policy_age": "0", "rung": "fresh"}
    ),
}


class TestForgedHeader:
    """A checkpoint header of the wrong shape fails closed as corrupt, so
    on a quorum the healthy replicas outvote and repair it instead of
    the error escaping recovery."""

    STATE = {"policy_age": 0, "rung": "fresh"}

    @pytest.mark.parametrize("forgery", sorted(FORGED_HEADERS))
    def test_single_journal_fails_closed(self, journal, forgery):
        journal.commit(build_policy(), 0, FINGERPRINT, state=self.STATE)
        _forge(journal.root, 0, header=FORGED_HEADERS[forgery])
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    @pytest.mark.parametrize("forgery", sorted(FORGED_HEADERS))
    def test_forged_replica_is_outvoted_and_repaired(self, tmp_path, forgery):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(roots)
        policy = build_policy()
        quorum.commit(policy, 0, FINGERPRINT, state=self.STATE)
        _forge(roots[0], 0, header=FORGED_HEADERS[forgery])
        assert_bit_identical(policy, quorum.recover().policy)
        assert quorum.last_recovery.repaired == (0,)


def _flip_member(path, member):
    """Flip one data byte of ``member`` inside a committed file, leaving
    the journalled checksum as it was."""
    raw = bytearray(open(path, "rb").read())
    with zipfile.ZipFile(path) as archive:
        data = archive.read(member + ".npy")
    raw[bytes(raw).index(data) + len(data) - 1] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(raw))


class TestDPMembers:
    """The DP vectors are checksummed with the checkpoint they warm: a
    flipped byte among them fails the restore closed, and on a quorum
    the healthy replicas outvote and repair it."""

    @staticmethod
    def _commit(journal):
        db = uniform_users(60, REGION, seed=7)
        solution = solve_flat(BinaryTree.build(REGION, db, K), K)
        journal.commit(solution.policy(), 0, FINGERPRINT, solution=solution)
        return solution

    def test_single_journal_fails_closed(self, journal):
        self._commit(journal)
        _flip_member(os.path.join(journal.root, journal._checkpoint_file(0)), "dp/data")
        with pytest.raises(RecoveryError) as err:
            journal.recover()
        assert err.value.reason == "corrupt"

    def test_flipped_replica_is_outvoted_and_repaired(self, tmp_path):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(roots)
        solution = self._commit(quorum)
        _flip_member(os.path.join(roots[1], PolicyJournal._checkpoint_file(0)), "dp/data")
        snapshot = quorum.recover()
        assert quorum.last_recovery.replica_states == ("ok", "corrupt", "ok")
        assert quorum.last_recovery.repaired == (1,)
        assert _journal_files(roots[1]) == _journal_files(roots[0])
        assert snapshot.dp_structure == flat_structure_digest(solution.flat, K, True)
        assert all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(snapshot.dp_vecs, _flat_vectors(solution))
        )


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "journal_golden")


def write_golden_commits(journal):
    """The two fixed commits behind ``tests/data/journal_golden``.

    A 60-user flat-engine policy with its DP vectors and a trajectory
    ledger; every ``.npz`` is uncompressed, so the bytes do not depend
    on the zlib build.  Returns the policy, the last committed ledger
    state and the solution.
    """
    db = uniform_users(60, REGION, seed=7)
    solution = solve_flat(BinaryTree.build(REGION, db, K), K)
    policy = solution.policy()
    ids = sorted(policy.db.user_ids())
    ledger = TrajectoryLedger(window=3)
    state = None
    for serial, (age, rung) in enumerate([(0, "fresh"), (1, "stale")]):
        for index, uid in enumerate(ids[serial::7]):
            ledger.record(
                uid,
                policy.cloak_for(uid),
                ids[index : index + K + serial],
                serial=serial,
                widened=index % 3 == 0,
            )
        state = ledger.to_state()
        journal.commit(
            policy,
            serial,
            FINGERPRINT,
            solution=solution,
            state={"policy_age": age, "rung": rung, "trajectory": state},
        )
    return policy, state, solution


def _journal_files(root):
    return {
        name: open(os.path.join(root, name), "rb").read()
        for name in sorted(os.listdir(root))
    }


class TestEncodedBytes:
    """Commits are encoded once and written byte-for-byte as before."""

    FP = FINGERPRINT

    @pytest.fixture
    def roots(self, tmp_path):
        return [str(tmp_path / f"replica-{i}") for i in range(3)]

    def test_golden_bytes_single_and_quorum(self, tmp_path, roots):
        expected = _journal_files(os.path.join(GOLDEN, "single"))
        assert sorted(expected) == [
            "journal.log", "snapshot-000000.npz", "snapshot-000001.npz",
        ]
        write_golden_commits(PolicyJournal(str(tmp_path / "single")))
        assert _journal_files(str(tmp_path / "single")) == expected
        write_golden_commits(QuorumJournal(roots))
        for index, root in enumerate(roots):
            golden = os.path.join(GOLDEN, "quorum", f"replica-{index}")
            assert _journal_files(root) == _journal_files(golden)

    def test_golden_fixture_restores(self, tmp_path):
        policy, state, solution = write_golden_commits(
            PolicyJournal(str(tmp_path / "scratch"))
        )
        shutil.copytree(GOLDEN, str(tmp_path / "golden"))
        single = PolicyJournal(str(tmp_path / "golden" / "single"))
        quorum = QuorumJournal(
            [str(tmp_path / "golden" / "quorum" / f"replica-{i}")
             for i in range(3)]
        )
        for snapshot in (
            single.recover(fingerprint=self.FP),
            quorum.recover(fingerprint=self.FP),
        ):
            assert (snapshot.serial, snapshot.policy_age) == (1, 1)
            assert snapshot.rung == "stale"
            assert same_ledger_state(snapshot.trajectory, state)
            assert_bit_identical(policy, snapshot.policy)
            assert snapshot.dp_structure == flat_structure_digest(
                solution.flat, K, True
            )
            assert len(snapshot.dp_vecs) == solution.flat.n_nodes
        assert quorum.last_recovery.repaired == ()

    def _assert_refused(self, tmp_path, version, why):
        """Both journal types refuse the golden ``version/`` copy whole,
        so no fresh or partial ledger can be adopted, and the refused
        files are left as they were."""
        shutil.copytree(os.path.join(GOLDEN, version), str(tmp_path / version))
        roots = [str(tmp_path / version / "single")] + [
            str(tmp_path / version / "quorum" / f"replica-{i}")
            for i in range(3)
        ]
        before = {root: _journal_files(root) for root in roots}
        with pytest.raises(RecoveryError) as err:
            PolicyJournal(roots[0]).recover(fingerprint=self.FP)
        assert err.value.reason == "corrupt"
        assert why in str(err.value)
        quorum = QuorumJournal(roots[1:])
        with pytest.raises(RecoveryError) as err:
            quorum.recover(fingerprint=self.FP)
        assert err.value.reason == "quorum"
        assert "states: corrupt, corrupt, corrupt" in str(err.value)
        assert quorum.last_recovery is None
        assert {root: _journal_files(root) for root in roots} == before

    def test_parent_format_journal_is_never_misread(self, tmp_path):
        """``v1/`` holds the same two commits in the first format
        (ledger rows as JSON inside the document)."""
        self._assert_refused(tmp_path, "v1", "unknown format/version")

    def test_previous_ledger_version_is_never_misread(self, tmp_path):
        """``v2/`` holds the same two commits with ledger state version 2
        (the intern table as a numpy ``<U`` array) in journal version 2,
        so its documents are refused first.  A ledger of another state
        version inside a journal of today's version is refused by
        ``TestLedgerFile::test_forged_ledger_fails_closed``."""
        self._assert_refused(tmp_path, "v2", "unknown format/version")

    def test_json_policy_journal_is_never_misread(self, tmp_path):
        """``v2-ledger3/`` holds the same two commits in journal version
        2: the policy as per-user JSON in the document, the ledger
        (state version 3) in its own ``.ledger.npz``."""
        self._assert_refused(tmp_path, "v2-ledger3", "unknown format/version")

    def test_previous_journal_version_is_never_misread(self, tmp_path):
        """``v3/`` holds the same two commits in journal version 3: a
        JSON document per serial naming an ``.arrays.npz`` and a DP
        sidecar by their checksums."""
        self._assert_refused(tmp_path, "v3", "unknown format/version")

    def test_quorum_commit_encodes_once(self, provider, roots, monkeypatch):
        """One CSP tick is one 3-replica delta commit: the move batch is
        encoded once, no policy rows or DP vectors are, and every
        replica holds the delta's bytes."""
        db = uniform_users(90, REGION, seed=11)
        csp = CSP(REGION, K, db, provider, journal=QuorumJournal(roots))
        encodes = []
        real_rows = recovery._policy_arrays
        real_delta = PolicyJournal.encode_delta
        real_savez = np.savez

        def spy_rows(policy):
            encodes.append("rows")
            return real_rows(policy)

        def spy_delta(*args, **kwargs):
            encodes.append("delta")
            return real_delta(*args, **kwargs)

        def spy_npz(*args, **kwargs):
            encodes.append("npz")
            return real_savez(*args, **kwargs)

        monkeypatch.setattr(recovery, "_policy_arrays", spy_rows)
        monkeypatch.setattr(PolicyJournal, "encode_delta", spy_delta)
        monkeypatch.setattr(np, "savez", spy_npz)
        report = csp.advance_snapshot(
            random_moves(db, 0.1, REGION, max_distance=100.0, seed=5)
        )
        assert report.promoted
        # One delta file, and nothing of a checkpoint.
        assert sorted(encodes) == ["delta", "npz"]
        serial = csp.manager.world_serial
        name = PolicyJournal._delta_file(serial)
        copies = {open(os.path.join(root, name), "rb").read() for root in roots}
        assert len(copies) == 1
        for root in roots:
            assert sorted(os.listdir(root)) == [
                "journal.log", "snapshot-000000.npz", name,
            ]
            records = [
                json.loads(line)
                for line in open(os.path.join(root, "journal.log"))
            ]
            intent = [r for r in records if r["op"] == "intent"][-1]
            assert (intent["serial"], intent["file"]) == (serial, name)
            assert intent["base"] == serial - 1
            raw = open(os.path.join(root, name), "rb").read()
            assert recovery._digest(raw) == intent["checksum"]


def write_golden_chain(journal):
    """The fixed commits behind ``tests/data/journal_golden/chain``: a
    120-user manager's fit (a checkpoint) and two ticks of moves (two
    deltas), with trajectory-ledger rows served in between.  Returns
    the manager and its constraint."""
    from repro.streaming import EpochManager
    from repro.trajectory import ContinuityConstraint

    db = uniform_users(120, REGION, seed=7)
    constraint = ContinuityConstraint(K, window=3)
    manager = EpochManager(
        REGION, K, db, journal=journal, trajectory=constraint
    )
    ids = db.user_ids()
    for serial in range(2):
        for uid in ids[serial::12]:
            manager.serve_cloak(uid)
        manager.advance(
            random_moves(
                manager.active.db, 0.05, REGION, max_distance=80.0, seed=serial
            )
        )
    return manager, constraint


def _flat_vectors(solution):
    return [solution.solutions[int(i)].vec for i in solution.flat.ids]


class TestDeltaChain:
    """A quorum journal commits a repair as its move batch and the
    ledger rows it touched; restore replays the chain onto its
    checkpoint, bit-identical and warm, or fails closed."""

    #: the kinds of serials 1..8 of ``run``: C checkpoint, D delta.
    KINDS = "DDCDDDCD"

    @pytest.fixture
    def roots(self, tmp_path):
        return [str(tmp_path / f"replica-{i}") for i in range(3)]

    @staticmethod
    def _constraint():
        from repro.trajectory import ContinuityConstraint

        return ContinuityConstraint(K, window=4)

    def run(self, provider, quorum, ticks=8):
        """A seeded CSP run of ``ticks`` snapshots with served requests."""
        db = uniform_users(150, REGION, seed=41)
        csp = CSP(
            REGION, K, db, provider, journal=quorum,
            trajectory=self._constraint(),
        )
        users = db.user_ids()
        for tick in range(ticks):
            for uid in users[tick * 7:][:15]:
                csp.request(uid, [("poi", "rest")])
            report = csp.advance_snapshot(
                random_moves(
                    csp.mpc.db, 0.05, REGION, max_distance=80.0, seed=tick
                )
            )
            assert report.promoted
        return csp

    def restore(self, provider, roots):
        constraint = self._constraint()
        return CSP.restore(provider, QuorumJournal(roots), trajectory=constraint)

    @staticmethod
    def kinds(root, serials):
        names = set(os.listdir(root))
        return "".join(
            "D" if PolicyJournal._delta_file(s) in names else "C"
            for s in serials
        )

    def assert_restores(self, provider, roots, csp):
        """The restore equals the pre-crash active epoch, ledger and DP
        vectors, and is warm."""
        active, shadow = csp.manager.active, csp.manager._shadow
        ledger = csp.trajectory.ledger.to_state()
        restored = self.restore(provider, roots)
        manager = restored.manager
        assert manager.active.serial == active.serial
        assert dict(manager.active.policy.items()) == dict(active.policy.items())
        assert same_ledger_state(restored.trajectory.ledger.to_state(), ledger)
        assert manager._shadow.solution is not None
        mine, theirs = _flat_vectors(manager._shadow.solution), _flat_vectors(
            shadow.solution
        )
        assert len(mine) == len(theirs)
        assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
        return restored

    def test_run_mixes_deltas_and_checkpoints(self, provider, roots):
        self.run(provider, QuorumJournal(roots))
        assert self.kinds(roots[0], range(1, 9)) == self.KINDS
        # A delta's intent names its base; a checkpoint's stays as it was.
        records = [json.loads(line) for line in open(os.path.join(roots[0], "journal.log"))]
        intents = {r["serial"]: r for r in records if r["op"] == "intent"}
        assert intents[8]["base"] == 7 and intents[2]["base"] == 1
        assert "base" not in intents[3]

    @pytest.mark.parametrize("phase", ["before", "intent", "snapshot", "after"])
    def test_kill_at_every_phase_restores_bit_identical(
        self, provider, roots, phase
    ):
        quorum = QuorumJournal(
            roots, kill_plan=ReplicaKillPlan.single(5, 1, phase)
        )
        csp = self.run(provider, quorum)
        self.assert_restores(provider, roots, csp)
        # The destroyed replica got the whole chain back.
        assert _journal_files(roots[1]) == _journal_files(roots[0])

    def test_restore_mid_chain_and_continue(self, provider, roots):
        """A restore at a delta keeps extending the chain, and a second
        restore replays the deltas written on both sides of the first."""
        csp = self.run(provider, QuorumJournal(roots), ticks=4)
        restored = self.assert_restores(provider, roots, csp)
        for tick in range(2):
            restored.advance_snapshot(
                random_moves(
                    restored.mpc.db, 0.05, REGION, max_distance=80.0,
                    seed=50 + tick,
                )
            )
        assert self.kinds(roots[0], range(4, 7)) == "DDD"
        self.assert_restores(provider, roots, restored)

    def test_torn_last_delta_restores_the_previous_serial(self, provider, roots):
        csp = self.run(provider, QuorumJournal(roots), ticks=7)
        expected = dict(csp.manager.active.policy.items())
        ledger = csp.trajectory.ledger.to_state()
        csp.request(csp.mpc.db.user_ids()[3], [("poi", "rest")])
        csp.advance_snapshot(
            random_moves(csp.mpc.db, 0.05, REGION, max_distance=80.0, seed=9)
        )
        # Crash mid-commit of serial 8's delta: its commit record is
        # gone and its intent torn, on every replica.
        for root in roots:
            log = os.path.join(root, "journal.log")
            lines = open(log).read().splitlines()
            assert json.loads(lines[-1]) == {"op": "commit", "serial": 8}
            with open(log, "w") as handle:
                handle.write("\n".join(lines[:-2]) + "\n" + lines[-2][:30])
        restored = self.restore(provider, roots)
        assert restored.manager.active.serial == 7
        assert dict(restored.policy.items()) == expected
        assert same_ledger_state(restored.trajectory.ledger.to_state(), ledger)
        # Recovery dropped the torn records, so the chain goes on.
        restored.advance_snapshot(
            random_moves(restored.mpc.db, 0.05, REGION, max_distance=80.0, seed=10)
        )
        self.assert_restores(provider, roots, restored)

    @pytest.mark.parametrize(
        "damage", ["missing-base", "dropped-base-record", "flipped-byte", "forged-digest"]
    )
    def test_broken_chain_fails_closed(self, provider, roots, damage):
        self.run(provider, QuorumJournal(roots), ticks=5)
        root = roots[0]
        assert self.kinds(root, [3, 4, 5]) == "CDD"
        if damage == "missing-base":
            os.remove(os.path.join(root, PolicyJournal._delta_file(4)))
        elif damage == "dropped-base-record":
            log = os.path.join(root, "journal.log")
            kept = [
                line for line in open(log)
                if json.loads(line) != {"op": "commit", "serial": 4}
            ]
            with open(log, "w") as handle:
                handle.write("".join(kept))
        elif damage == "flipped-byte":
            path = os.path.join(root, PolicyJournal._delta_file(5))
            raw = bytearray(open(path, "rb").read())
            raw[len(raw) // 2] ^= 0x01
            open(path, "wb").write(bytes(raw))
        else:
            _forge(
                root, 5,
                header=lambda h: dict(h, digest=dict(h["digest"], cost=h["digest"]["cost"] + 1.0)),
            )
        with pytest.raises(RecoveryError) as err:
            PolicyJournal(root).recover()
        assert err.value.reason == "corrupt"

    def test_forged_delta_replica_is_outvoted_and_repaired(self, provider, roots):
        csp = self.run(provider, QuorumJournal(roots), ticks=5)
        _forge(
            roots[0], 5,
            header=lambda h: dict(h, digest=dict(h["digest"], groups=h["digest"]["groups"] + 1)),
        )
        quorum = QuorumJournal(roots)
        snapshot = quorum.recover()
        assert quorum.last_recovery.replica_states == ("corrupt", "ok", "ok")
        assert quorum.last_recovery.repaired == (0,)
        # The repair copied the whole chain, checkpoint and deltas.
        assert _journal_files(roots[0]) == _journal_files(roots[1])
        assert self.kinds(roots[0], [3, 4, 5]) == "CDD"
        assert dict(snapshot.policy.items()) == dict(
            csp.manager.active.policy.items()
        )

    def test_a_replica_that_missed_a_delta_gets_a_checkpoint(
        self, provider, roots, monkeypatch
    ):
        """A delta acked without one replica is durable on the others,
        but that replica's chain has a gap: the next commit is a
        checkpoint on every replica, never a delta it cannot replay."""
        quorum = QuorumJournal(roots)
        csp = self.run(provider, quorum, ticks=4)

        def denied(record):
            raise PermissionError("journal directory is read-only")

        moves = lambda seed: random_moves(
            csp.mpc.db, 0.05, REGION, max_distance=80.0, seed=seed
        )
        with monkeypatch.context() as patch:
            patch.setattr(quorum.replicas[2], "_append", denied)
            assert csp.advance_snapshot(moves(30)).promoted
        assert quorum.last_commit_failures == (2,)
        assert csp.advance_snapshot(moves(31)).promoted
        assert csp.advance_snapshot(moves(32)).promoted
        assert self.kinds(roots[0], [5, 6, 7]) == "DCD"
        # The replica that missed serial 5 restores serial 7 on its own.
        snapshot = PolicyJournal(roots[2]).recover()
        assert snapshot.serial == 7
        assert dict(snapshot.policy.items()) == dict(
            csp.manager.active.policy.items()
        )
        self.assert_restores(provider, roots, csp)

    def test_keep_last_keeps_the_chain_it_needs(self, provider, roots):
        quorum = QuorumJournal(roots, keep_last=1)
        csp = self.run(provider, quorum, ticks=7)
        # Serial 7 is a checkpoint: nothing older is kept.
        assert quorum.committed_serials() == [7]
        assert sorted(os.listdir(roots[0])) == [
            "journal.log", "snapshot-000007.npz",
        ]
        self.assert_restores(provider, roots, csp)
        csp.advance_snapshot(
            random_moves(csp.mpc.db, 0.05, REGION, max_distance=80.0, seed=7)
        )
        # Serial 8 is a delta: its checkpoint stays.
        assert quorum.committed_serials() == [7, 8]
        self.assert_restores(provider, roots, csp)

    def test_voided_swap_is_never_replayed_as_a_delta(self, provider, roots, monkeypatch):
        """A quorum-lost commit leaves the shadow a repair ahead of the
        journal; after the failed tick's re-commit of the active epoch,
        the next tick is a checkpoint, so the restore is exact."""
        from repro.robustness.faults import FaultInjector, FaultPlan, FaultRule

        quorum = QuorumJournal(roots)
        csp = self.run(provider, quorum, ticks=1)
        csp.manager.injector = FaultInjector(
            FaultPlan(rules=(FaultRule(site="repair", kind="error", match="3"),), seed=0)
        )

        def denied(record):
            raise PermissionError("journal directory is read-only")

        moves = lambda seed: random_moves(
            csp.mpc.db, 0.05, REGION, max_distance=80.0, seed=seed
        )
        with monkeypatch.context() as patch:
            for replica in quorum.replicas[:2]:
                patch.setattr(replica, "_append", denied)
            assert csp.advance_snapshot(moves(20)).reason == "journal-quorum"
        assert csp.advance_snapshot(moves(21)).reason == "repair"
        assert csp.advance_snapshot(moves(22)).promoted
        assert self.kinds(roots[0], [4]) == "C"
        self.assert_restores(provider, roots, csp)


class TestChainGolden:
    """``journal_golden/chain``: a checkpoint and two deltas, written by
    every replica byte for byte and restored bit-identical."""

    CHAIN = os.path.join(GOLDEN, "chain")

    def test_golden_chain_bytes(self, tmp_path):
        roots = [str(tmp_path / f"replica-{i}") for i in range(3)]
        write_golden_chain(QuorumJournal(roots))
        expected = _journal_files(self.CHAIN)
        assert sorted(expected) == [
            "journal.log",
            "snapshot-000000.npz",
            "snapshot-000001.delta.npz",
            "snapshot-000002.delta.npz",
        ]
        for root in roots:
            assert _journal_files(root) == expected

    def test_golden_chain_restores(self, tmp_path):
        from repro.streaming import EpochManager
        from repro.trajectory import ContinuityConstraint

        manager, constraint = write_golden_chain(
            QuorumJournal([str(tmp_path / "scratch")])
        )
        roots = [str(tmp_path / f"copy-{i}") for i in range(3)]
        for root in roots:
            shutil.copytree(self.CHAIN, root)
        snapshot = PolicyJournal(roots[0]).recover(fingerprint=SOLVER)
        assert (snapshot.serial, snapshot.policy_age) == (2, 0)
        assert dict(snapshot.policy.items()) == dict(manager.active.policy.items())
        assert same_ledger_state(snapshot.trajectory, constraint.ledger.to_state())
        successor = ContinuityConstraint(K)
        restored = EpochManager.restore(QuorumJournal(roots), trajectory=successor)
        assert restored.active.serial == 2
        assert dict(restored.active.policy.items()) == dict(
            manager.active.policy.items()
        )
        assert same_ledger_state(
            successor.ledger.to_state(), constraint.ledger.to_state()
        )
        assert restored._shadow.solution is not None


class TestRecoverOnce:
    """Each check of a restore runs once: one decode per distinct
    replica identity, one ledger adoption per restore, one log parse
    per replica and prune."""

    @pytest.fixture
    def roots(self, tmp_path):
        return [str(tmp_path / f"replica-{i}") for i in range(3)]

    @staticmethod
    def _spy(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    def test_one_decode_per_identity(self, roots, monkeypatch):
        quorum = QuorumJournal(roots)
        policy = build_policy()
        quorum.commit(policy, 0, FINGERPRINT)
        decodes = self._spy(monkeypatch, PolicyJournal, "_decode")
        quorum.recover()
        assert decodes == ["_decode"]
        _forge(roots[0], 0, members=FORGERIES["user-outside-cloak"])
        decodes.clear()
        assert_bit_identical(policy, quorum.recover().policy)
        assert decodes == ["_decode", "_decode"]
        assert quorum.last_recovery.replica_states == ("corrupt", "ok", "ok")
        assert quorum.last_recovery.repaired == (0,)
        assert _journal_files(roots[0]) == _journal_files(roots[1])

    @pytest.mark.parametrize("ticks", [0, 2])
    def test_one_ledger_adoption_per_restore(self, provider, roots, monkeypatch, ticks):
        from repro.streaming import EpochManager
        from repro.trajectory import ContinuityConstraint

        csp = TestDeltaChain().run(provider, QuorumJournal(roots), ticks=ticks)
        expected = csp.trajectory.ledger.to_state()
        adopts = self._spy(monkeypatch, TrajectoryLedger, "adopt_state")
        successor = ContinuityConstraint(K)
        EpochManager.restore(QuorumJournal(roots), trajectory=successor)
        assert adopts == ["adopt_state"]
        assert same_ledger_state(successor.ledger.to_state(), expected)

    def test_one_log_parse_per_replica_and_prune(self, roots, monkeypatch):
        quorum = QuorumJournal(roots)
        for serial in range(3):
            quorum.commit(build_policy(seed=serial), serial, FINGERPRINT)
        parses = self._spy(monkeypatch, PolicyJournal, "_read_journal")
        assert quorum.prune(1) == (0, 1)
        assert len(parses) == 3
