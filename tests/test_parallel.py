"""Tests for parallel anonymization and the master policy (§V, §VI-D)."""

import pytest

from repro import PolicyError, Rect, ReproError
from repro.core.binary_dp import solve
from repro.core.requests import ServiceRequest
from repro.data import uniform_users
from repro.parallel import MasterPolicy, ServerPolicy, parallel_bulk_anonymize
from repro.trees import BinaryTree


@pytest.fixture
def region():
    return Rect(0, 0, 1024, 1024)


@pytest.fixture
def db(region):
    return uniform_users(500, region, seed=101)


class TestParallelBulk:
    def test_single_server_matches_direct_solve(self, region, db):
        result = parallel_bulk_anonymize(region, db, 10, 1)
        direct = solve(BinaryTree.build(region, db, 10), 10).optimal_cost
        assert result.cost == pytest.approx(direct)

    @pytest.mark.parametrize("n_servers", [2, 4, 8])
    def test_cost_near_optimal(self, region, db, n_servers):
        """§VI-D: distributed cost stays within 1% of the optimum."""
        result = parallel_bulk_anonymize(region, db, 10, n_servers)
        direct = solve(BinaryTree.build(region, db, 10), 10).optimal_cost
        assert result.cost <= direct * 1.01 + 1e-9

    def test_cost_never_below_optimal(self, region, db):
        result = parallel_bulk_anonymize(region, db, 10, 8)
        direct = solve(BinaryTree.build(region, db, 10), 10).optimal_cost
        assert result.cost >= direct - 1e-6

    def test_anonymity_preserved(self, region, db):
        result = parallel_bulk_anonymize(region, db, 10, 8)
        assert result.master.min_group_size() >= 10

    def test_every_user_covered(self, region, db):
        result = parallel_bulk_anonymize(region, db, 10, 8)
        assert len(result.master.merged) == len(db)

    def test_timing_fields(self, region, db):
        result = parallel_bulk_anonymize(region, db, 10, 4)
        assert result.wall_clock_seconds <= result.total_cpu_seconds + 1e-9
        assert result.partition_seconds >= 0
        assert len(result.server_seconds) <= result.n_servers

    def test_unknown_mode_rejected(self, region, db):
        with pytest.raises(ReproError, match="mode"):
            parallel_bulk_anonymize(region, db, 10, 2, mode="threads")

    def test_process_mode_matches_simulated(self, region):
        small = uniform_users(120, region, seed=102)
        sim = parallel_bulk_anonymize(region, small, 8, 2, mode="simulated")
        proc = parallel_bulk_anonymize(region, small, 8, 2, mode="process")
        assert proc.cost == pytest.approx(sim.cost)
        assert proc.master.min_group_size() >= 8

    def test_partition_tree_reuse(self, region, db):
        tree = BinaryTree.build(region, db, 10)
        a = parallel_bulk_anonymize(region, db, 10, 4, partition_tree=tree)
        b = parallel_bulk_anonymize(region, db, 10, 4)
        assert a.cost == pytest.approx(b.cost)

    def test_partition_tree_over_equal_snapshot_accepted(self, region, db):
        """A tree built over a different object with the same contents
        is the same snapshot."""
        twin = db.subset(db.user_ids())
        tree = BinaryTree.build(region, twin, 10)
        a = parallel_bulk_anonymize(region, db, 10, 4, partition_tree=tree)
        b = parallel_bulk_anonymize(region, db, 10, 4)
        assert a.cost == b.cost

    def test_partition_tree_from_another_snapshot_rejected(self, region):
        """Half the users moved at most 5 m since the tree was built: the
        mismatch is named up front, not found deep in policy assembly."""
        from repro.lbs import random_moves

        before = uniform_users(600, region, seed=7)
        tree = BinaryTree.build(region, before, 10)
        after = before.with_moves(
            random_moves(before, 0.5, region, max_distance=5.0, seed=8)
        )
        with pytest.raises(ReproError, match="different snapshot"):
            parallel_bulk_anonymize(region, after, 10, 4, partition_tree=tree)
        fewer = before.subset(before.user_ids()[:-1])
        with pytest.raises(ReproError, match="different snapshot"):
            parallel_bulk_anonymize(region, fewer, 10, 4, partition_tree=tree)


class TestShmTransport:
    def test_shm_bit_identical_to_flat(self, region, db):
        flat = parallel_bulk_anonymize(region, db, 10, 4, transport="flat")
        shm = parallel_bulk_anonymize(region, db, 10, 4, transport="shm")
        assert shm.cost == flat.cost  # bit-identical, not approx
        assert {
            u: shm.master.cloak_for(u) for u in db.user_ids()
        } == {u: flat.master.cloak_for(u) for u in db.user_ids()}

    def test_shm_payload_is_an_order_smaller(self, region, db):
        flat = parallel_bulk_anonymize(region, db, 10, 4, transport="flat")
        shm = parallel_bulk_anonymize(region, db, 10, 4, transport="shm")
        assert shm.dispatch_payload_bytes > 0
        assert (
            flat.dispatch_payload_bytes
            >= 10 * shm.dispatch_payload_bytes
        )

    def test_shm_process_mode_matches_simulated(self, region):
        small = uniform_users(120, region, seed=102)
        sim = parallel_bulk_anonymize(
            region, small, 8, 2, mode="simulated", transport="shm"
        )
        proc = parallel_bulk_anonymize(
            region, small, 8, 2, mode="process", transport="shm"
        )
        assert proc.cost == sim.cost

    def test_unknown_transport_rejected(self, region, db):
        with pytest.raises(ReproError, match="transport"):
            parallel_bulk_anonymize(region, db, 10, 2, transport="carrier")

    def test_rows_transport_is_gone(self, region, db):
        with pytest.raises(ReproError, match="transport"):
            parallel_bulk_anonymize(region, db, 10, 2, transport="rows")

    def test_no_segment_leaks(self, region, db):
        import pathlib

        shm_dir = pathlib.Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm on this platform")
        before = {p.name for p in shm_dir.iterdir()}
        parallel_bulk_anonymize(region, db, 10, 4, transport="shm")
        after = {p.name for p in shm_dir.iterdir()}
        assert after <= before


class TestProcessPoolRebuild:
    def test_rebuild_keeps_configured_width(self):
        from repro.parallel.engine import _ProcessPool

        pool = _ProcessPool(True, max_workers=3)
        try:
            assert pool.max_workers == 3
            pool.rebuild()
            assert pool.pool is not None
            assert pool.pool._max_workers == 3
        finally:
            if pool.pool is not None:
                pool.pool.shutdown()


class TestMasterPolicy:
    def test_dispatch_and_anonymize(self, region, db):
        result = parallel_bulk_anonymize(region, db, 10, 4)
        master = result.master
        uid = db.user_ids()[7]
        server = master.server_for(uid)
        assert server.jurisdiction.rect.contains(db.location_of(uid))
        ar = master.anonymize(ServiceRequest(uid, db.location_of(uid)))
        assert ar.cloak == master.cloak_for(uid)
        assert ar.cloak.contains(db.location_of(uid))

    def test_unknown_user_rejected(self, region, db):
        master = parallel_bulk_anonymize(region, db, 10, 4).master
        with pytest.raises(PolicyError):
            master.server_for("ghost")

    def test_double_claim_rejected(self, region):
        db = uniform_users(20, region, seed=103)
        policy = solve(BinaryTree.build(region, db, 5), 5).policy()
        from repro.trees.partition import Jurisdiction

        jur = Jurisdiction(rect=region, is_semi=False, count=len(db), node_id=0)
        server = ServerPolicy(jur, policy)
        with pytest.raises(PolicyError, match="two jurisdictions"):
            MasterPolicy([server, server], db)

    def test_average_cloak_area_consistent(self, region, db):
        master = parallel_bulk_anonymize(region, db, 10, 4).master
        assert master.average_cloak_area() == pytest.approx(
            master.cost() / len(db)
        )

    def test_empty_jurisdictions_allowed(self, region):
        # Cluster everyone in one corner: most jurisdictions are empty.
        import numpy as np

        from repro import LocationDatabase

        rng = np.random.default_rng(104)
        coords = rng.uniform(0, 60, size=(80, 2))
        db = LocationDatabase.from_array(coords)
        result = parallel_bulk_anonymize(region, db, 8, 4)
        assert len(result.master.merged) == len(db)
        assert result.master.min_group_size() >= 8
