"""The streaming churn layer: ingest, double-buffered epoch swap,
pinning, and the bounded-staleness degradation ladder.

The acceptance bar is the anonymity invariant of DESIGN §12: every
served cloak is bit-identical to a from-scratch bulk solve (the oracle)
of the *served epoch's* exact snapshot — an epoch swap may change which
snapshot that is, never what a given epoch's cloaks look like.
"""

import numpy as np
import pytest

from repro import Rect, ServiceUnavailableError
from repro.core.errors import RecoveryError, TreeError
from repro.core.geometry import Point
from repro.data import uniform_users
from repro.lbs.mobility import random_moves
from repro.robustness.faults import FaultInjector, FaultPlan, FaultRule
from repro.robustness.recovery import PolicyJournal
from repro.streaming import (
    DirtyAccumulator,
    EpochManager,
    SwapReport,
    ancestor_cloak,
    halving_chain,
)

REGION = Rect(0, 0, 4096, 4096)
K = 8


@pytest.fixture
def db():
    return uniform_users(240, REGION, seed=11)


def moves_for(db, fraction, seed=1, max_distance=400.0):
    return random_moves(
        db, fraction, REGION, max_distance=max_distance, seed=seed
    )


def clustered_moves(db, fraction, seed=2):
    """Adversarial churn: the movers all pile into one small corner, so
    the dirty region is maximally clustered (deep local rebuilds)."""
    rng = np.random.default_rng(seed)
    users = db.user_ids()
    picks = rng.choice(len(users), size=int(fraction * len(users)),
                       replace=False)
    corner = Rect(0, 0, REGION.width / 8, REGION.height / 8)
    return {
        users[i]: Point(
            float(rng.uniform(corner.x1, corner.x2)),
            float(rng.uniform(corner.y1, corner.y2)),
        )
        for i in picks
    }


def policy_dict(policy):
    return {uid: cloak for uid, cloak in policy.items()}


def assert_oracle_identical(manager):
    assert policy_dict(manager.active.policy) == policy_dict(
        manager.oracle_policy()
    )


def always_fail_repair(seed=0):
    return FaultInjector(
        FaultPlan(rules=(FaultRule(site="repair", kind="error"),), seed=seed)
    )


# ---------------------------------------------------------------------------
# DirtyAccumulator
# ---------------------------------------------------------------------------


class TestDirtyAccumulator:
    def test_coalesces_per_user_keeping_newest(self):
        acc = DirtyAccumulator()
        acc.add("u1", Point(1.0, 1.0))
        acc.add("u2", Point(2.0, 2.0))
        acc.add("u1", Point(9.0, 9.0))  # supersedes the first u1 move
        assert len(acc) == 2
        assert acc.ingested == 3
        assert acc.coalesced == 1
        batch = acc.drain()
        assert batch["u1"] == Point(9.0, 9.0)
        assert len(acc) == 0
        assert acc.batches == 1

    def test_extend_accepts_mapping_and_pairs(self):
        acc = DirtyAccumulator()
        assert acc.extend({"a": Point(1, 1)}) == 1
        assert acc.extend([("b", Point(2, 2)), ("a", Point(3, 3))]) == 2
        assert acc.drain() == {"a": Point(3, 3), "b": Point(2, 2)}

    def test_restore_keeps_newer_pending_moves(self):
        """A failed swap hands its batch back; moves that streamed in
        *after* the drain must win over the restored ones."""
        acc = DirtyAccumulator()
        acc.add("u1", Point(1, 1))
        batch = acc.drain()
        acc.add("u1", Point(5, 5))  # newer ingest while the swap failed
        acc.restore(batch)
        assert acc.drain()["u1"] == Point(5, 5)


# ---------------------------------------------------------------------------
# Geometric coarsening (no tree consulted)
# ---------------------------------------------------------------------------


class TestHalvingChain:
    def test_chain_descends_from_region_to_cloak(self, db):
        manager = EpochManager(REGION, K, db)
        orientation = manager.orientation
        for __, cloak in manager.active.policy.items():
            chain = halving_chain(REGION, orientation, cloak)
            assert chain[0] == REGION
            assert chain[-1] == cloak
            for parent, child in zip(chain, chain[1:]):
                assert parent.contains_rect(child)
                assert child.area == pytest.approx(parent.area / 2)

    def test_ancestor_clamps_at_root(self):
        assert ancestor_cloak(REGION, "vertical", REGION, 3) == REGION

    def test_non_node_rect_is_rejected(self):
        with pytest.raises(TreeError):
            halving_chain(REGION, "vertical", Rect(3.0, 7.0, 100.0, 50.0))

    def test_uniform_levels_up_is_k_safe(self, db):
        """Mapping every cloak ``levels`` up keeps k-anonymity: fine
        groups (≥ k senders) land wholesale inside one ancestor."""
        manager = EpochManager(REGION, K, db)
        orientation = manager.orientation
        coarse_groups = {}
        for uid, cloak in manager.active.policy.items():
            coarse = ancestor_cloak(REGION, orientation, cloak, 2)
            assert coarse.contains_rect(cloak)
            coarse_groups.setdefault(coarse.as_tuple(), set()).add(uid)
        for members in coarse_groups.values():
            assert len(members) >= K


# ---------------------------------------------------------------------------
# Swap correctness: bit-identity with the per-epoch oracle
# ---------------------------------------------------------------------------


class TestEpochSwap:
    @pytest.mark.parametrize("fraction", [0.1, 0.5])
    def test_incremental_swap_matches_bulk_resolve(self, db, fraction):
        manager = EpochManager(REGION, K, db)
        swap = manager.advance(moves_for(db, fraction))
        assert swap.promoted and swap.staleness == 0
        assert swap.moved_users == pytest.approx(
            int(fraction * len(db)), abs=2
        )
        assert_oracle_identical(manager)

    def test_adversarial_clustered_churn_matches_oracle(self, db):
        manager = EpochManager(REGION, K, db)
        manager.advance(clustered_moves(db, 0.3))
        assert_oracle_identical(manager)

    def test_every_epoch_of_a_churn_run_matches_its_oracle(self, db):
        manager = EpochManager(REGION, K, db)
        current = db
        for round_index in range(4):
            moves = moves_for(current, 0.1, seed=50 + round_index)
            manager.ingest(moves)
            swap = manager.advance()
            assert swap.promoted and swap.serial == round_index + 1
            assert_oracle_identical(manager)
            current = manager.active.db
        assert manager.stats()["promoted"] == 4

    def test_ingest_coalesces_into_the_next_swap(self, db):
        manager = EpochManager(REGION, K, db)
        uid = db.user_ids()[0]
        manager.ingest({uid: Point(10.0, 10.0)})
        manager.ingest({uid: Point(700.0, 700.0)})
        assert manager.stats()["pending_moves"] == 1
        manager.advance()
        assert manager.active.db.location_of(uid) == Point(700.0, 700.0)
        assert_oracle_identical(manager)

    def test_advance_history_is_counted_not_kept(self, db):
        """Memory stays bounded over a long run: stats() counts ticks
        instead of holding every SwapReport."""
        import gc

        manager = EpochManager(REGION, K, db)
        for round_index in range(20):
            manager.advance(moves_for(manager.active.db, 0.02, seed=round_index))
        gc.collect()
        live = sum(isinstance(o, SwapReport) for o in gc.get_objects())
        assert live <= 1
        assert manager.stats()["swaps"] == manager.stats()["promoted"] == 20


# ---------------------------------------------------------------------------
# Epoch pinning
# ---------------------------------------------------------------------------


class TestEpochPinning:
    def test_request_admitted_in_epoch_n_is_served_epoch_n(self, db):
        """The satellite-3 property: a swap landing mid-flight changes
        nothing for an already-admitted request."""
        manager = EpochManager(REGION, K, db)
        uid = db.user_ids()[0]
        pin = manager.pin()
        before, rung = manager.serve_cloak(uid, pin)
        assert rung == "fresh"
        swap = manager.advance(moves_for(db, 0.5))
        assert swap.promoted
        assert manager.active.serial == 1
        # The pin still holds epoch 0: same policy object, same cloak.
        assert pin.epoch.serial == 0
        after, __ = manager.serve_cloak(uid, pin)
        assert after == before
        pin.release()
        # A fresh admission sees epoch 1.
        with manager.pin() as fresh:
            assert fresh.epoch.serial == 1

    def test_pinned_segment_survives_swap_until_drained(self, db):
        manager = EpochManager(REGION, K, db, publish_shared=True)
        with manager:
            pin = manager.pin()
            old_epoch = pin.epoch
            manager.advance(moves_for(db, 0.2))
            assert old_epoch.retired
            # Still pinned: the retired epoch's segment must survive.
            assert old_epoch.shared is not None
            assert manager.stats()["lingering_epochs"] == 1
            pin.release()
            # Drained: unlinked exactly once, removed from lingering.
            assert old_epoch.shared is None
            assert manager.stats()["lingering_epochs"] == 0

    def test_release_is_idempotent(self, db):
        manager = EpochManager(REGION, K, db)
        pin = manager.pin()
        pin.release()
        pin.release()
        assert manager.active.pins == 0


# ---------------------------------------------------------------------------
# Bounded staleness: the degradation ladder
# ---------------------------------------------------------------------------


class TestStalenessLadder:
    def test_ladder_walks_stale_coarsened_rejected(self, db):
        manager = EpochManager(
            REGION, K, db,
            max_stale_snapshots=1,
            coarsen_grace=1,
            injector=always_fail_repair(),
        )
        uid = db.user_ids()[0]
        fine, rung = manager.serve_cloak(uid)
        assert rung == "fresh"

        swap = manager.advance(moves_for(db, 0.1))
        assert not swap.promoted and swap.reason == "repair"
        served, rung = manager.serve_cloak(uid)
        assert rung == "stale"
        assert served == fine  # exact old-epoch cloak, never weaker

        manager.advance(moves_for(db, 0.1, seed=3))
        coarse, rung = manager.serve_cloak(uid)
        assert rung == "coarsened"
        assert coarse.contains_rect(fine)
        assert coarse == ancestor_cloak(
            REGION, manager.orientation, fine, 1
        )

        manager.advance(moves_for(db, 0.1, seed=4))
        with pytest.raises(ServiceUnavailableError) as err:
            manager.pin()
        assert err.value.reason == "stale"
        assert [e.level for e in manager.events] == [
            "stale", "coarsened", "rejected",
        ]

    def test_failed_swap_keeps_the_batch_for_the_next_tick(self, db):
        """An injected repair fault must not lose movement: the batch
        goes back to the accumulator and the next (healthy) swap
        applies it — converging to the same oracle."""
        injector = FaultInjector(
            FaultPlan(
                rules=(
                    FaultRule(site="repair", kind="error", match="1"),
                ),
                seed=0,
            )
        )
        manager = EpochManager(REGION, K, db, injector=injector)
        moves = moves_for(db, 0.2)
        swap = manager.advance(moves)
        assert not swap.promoted
        assert manager.stats()["pending_moves"] == len(moves)
        swap = manager.advance()
        assert swap.promoted and swap.moved_users == len(moves)
        assert policy_dict(manager.active.policy) == policy_dict(
            manager.oracle_policy()
        )
        for uid, point in moves.items():
            assert manager.active.db.location_of(uid) == point

    def test_invalid_moves_are_dropped_not_requeued(self, db):
        """Moves no repair can apply (unknown user, off-map point) must
        not block later swaps: they are dropped with one event naming
        them, the rest of the batch repairs, and the next tick
        promotes."""
        manager = EpochManager(REGION, K, db)
        mover, off_map = db.user_ids()[:2]
        target = Point(10.0, 10.0)
        first = manager.advance(
            {"ghost": Point(1.0, 1.0), off_map: Point(-5.0, 1.0),
             mover: target}
        )
        second = manager.advance(moves_for(db, 0.05))
        assert second.promoted
        assert first.promoted and first.moved_users == 1
        assert manager.staleness == 0
        assert manager.stats()["pending_moves"] == 0
        assert manager.active.db.location_of(mover) == target
        assert manager.active.db.location_of(off_map) == db.location_of(
            off_map
        )
        dropped = [e for e in manager.events if e.reason == "invalid-move"]
        assert len(dropped) == 1
        assert "ghost" in dropped[0].detail and off_map in dropped[0].detail
        assert_oracle_identical(manager)

    def test_rung_is_fixed_at_admission(self, db):
        """A request admitted fresh stays fresh even if swaps fail (and
        staleness grows) while it is in flight."""
        manager = EpochManager(
            REGION, K, db, injector=always_fail_repair()
        )
        pin = manager.pin()
        assert pin.rung == "fresh"
        manager.advance(moves_for(db, 0.1))
        assert manager.staleness == 1
        __, rung = manager.serve_cloak(db.user_ids()[0], pin)
        assert rung == "fresh"
        pin.release()
        __, rung = manager.serve_cloak(db.user_ids()[0])
        assert rung == "stale"


# ---------------------------------------------------------------------------
# Restart: staleness and rung survive recovery
# ---------------------------------------------------------------------------


class TestRestore:
    def test_coarsened_manager_restores_coarsened(self, db, tmp_path):
        journal = PolicyJournal(str(tmp_path / "journal"))
        manager = EpochManager(
            REGION, K, db,
            journal=journal,
            max_stale_snapshots=1,
            coarsen_grace=1,
            injector=always_fail_repair(),
        )
        uid = db.user_ids()[0]
        manager.advance(moves_for(db, 0.1))
        manager.advance(moves_for(db, 0.1, seed=3))
        coarse, rung = manager.serve_cloak(uid)
        assert rung == "coarsened"

        restored = EpochManager.restore(
            journal,
            current_serial=manager.world_serial,
            max_stale_snapshots=1,
            coarsen_grace=1,
        )
        # The restart did not launder staleness away: same rung, same
        # coarse cloak as before the crash.
        assert restored.staleness == 2
        again, rung = restored.serve_cloak(uid)
        assert rung == "coarsened"
        assert again == coarse

    def test_fully_rejected_manager_fails_closed_on_restore(
        self, db, tmp_path
    ):
        journal = PolicyJournal(str(tmp_path / "journal"))
        manager = EpochManager(
            REGION, K, db,
            journal=journal,
            max_stale_snapshots=1,
            coarsen_grace=1,
            injector=always_fail_repair(),
        )
        for seed in (1, 2, 3):
            manager.advance(moves_for(db, 0.1, seed=seed))
        with pytest.raises(ServiceUnavailableError):
            manager.pin()
        # A manager that died on the rejected rung must not restore
        # into serving: past the whole ladder, recovery fails closed.
        with pytest.raises(RecoveryError) as err:
            EpochManager.restore(
                journal,
                current_serial=manager.world_serial,
                max_stale_snapshots=1,
                coarsen_grace=1,
            )
        assert err.value.reason == "stale"

    def test_clean_swap_restores_fresh(self, db, tmp_path):
        journal = PolicyJournal(str(tmp_path / "journal"))
        manager = EpochManager(REGION, K, db, journal=journal)
        manager.advance(moves_for(db, 0.2))
        restored = EpochManager.restore(
            journal, current_serial=manager.world_serial
        )
        assert restored.staleness == 0
        assert policy_dict(restored.active.policy) == policy_dict(
            manager.active.policy
        )
        # Restore-born epochs announce themselves on the recovered rung.
        with restored.pin() as pin:
            assert pin.rung == "recovered"
        # The rehydrated DP state swaps like a warm shadow.
        swap = restored.advance(
            moves_for(restored.active.db, 0.1, seed=9)
        )
        assert swap.promoted
        assert_oracle_identical(restored)
