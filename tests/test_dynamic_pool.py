"""Tests for the self-rebalancing server pool (§V future work)."""

import numpy as np
import pytest

from repro import LocationDatabase, PolicyAwareAnonymizer, Point, Rect, ReproError
from repro.core.binary_dp import solve
from repro.data import uniform_users
from repro.lbs import random_moves
from repro.parallel.dynamic import RebalancingPool
from repro.trees import BinaryTree


@pytest.fixture
def region():
    return Rect(0, 0, 2048, 2048)


@pytest.fixture
def db(region):
    return uniform_users(600, region, seed=251)


class TestLifecycle:
    def test_requires_fit(self, region):
        pool = RebalancingPool(region, 10, 4)
        with pytest.raises(ReproError, match="fit"):
            pool.advance({})

    def test_parameters_validated(self, region):
        with pytest.raises(ReproError):
            RebalancingPool(region, 10, 0)
        with pytest.raises(ReproError):
            RebalancingPool(region, 10, 4, imbalance_threshold=0.5)

    def test_fit_partitions_and_solves(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        assert pool.n_jurisdictions == 4
        assert pool.repartition_count == 1
        master = pool.master_policy()
        assert len(master.merged) == len(db)
        assert master.min_group_size() >= 10

    def test_initial_cost_near_optimal(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        optimum = solve(BinaryTree.build(region, db, 10), 10).optimal_cost
        assert pool.master_policy().cost() <= optimum * 1.01


class TestAdvance:
    def test_local_moves_resolve_few_jurisdictions(self, region, db):
        pool = RebalancingPool(region, 10, 8).fit(db)
        # Move a handful of users a few meters: at most their own
        # jurisdictions re-solve; no repartition.
        moves = random_moves(db, 0.02, region, max_distance=5.0, seed=1)
        report = pool.advance(moves)
        assert not report.repartitioned
        assert report.resolved_jurisdictions <= pool.n_jurisdictions
        assert pool.master_policy().min_group_size() >= 10

    def test_cross_border_moves_tracked(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        # Teleport users to the opposite corner: they must cross.
        movers = db.user_ids()[:30]
        moves = {
            uid: Point(2000.0 + i * 0.1, 2000.0 + i * 0.1)
            for i, uid in enumerate(movers)
        }
        report = pool.advance(moves)
        assert report.crossed_jurisdictions > 0
        master = pool.master_policy()
        assert len(master.merged) == len(db)
        assert master.min_group_size() >= 10

    def test_anonymity_maintained_over_many_snapshots(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        current = db
        for step in range(5):
            moves = random_moves(current, 0.2, region, max_distance=300, seed=step)
            pool.advance(moves)
            current = current.with_moves(moves)
            master = pool.master_policy()
            assert master.min_group_size() >= 10
            assert len(master.merged) == len(current)

    def test_migration_triggers_repartition(self, region):
        """Draining one half of the map into the other forces either a
        stranded-jurisdiction or an imbalance repartition."""
        rng = np.random.default_rng(252)
        coords = rng.uniform(0, 2048, size=(400, 2))
        db = LocationDatabase.from_array(coords)
        pool = RebalancingPool(
            region, 10, 4, imbalance_threshold=1.8
        ).fit(db)
        west = [uid for uid, p in db.items() if p.x < 1024]
        moves = {
            uid: Point(float(rng.uniform(1500, 2040)), float(rng.uniform(0, 2040)))
            for uid in west
        }
        report = pool.advance(moves)
        assert report.repartitioned
        assert pool.repartition_count == 2
        assert pool.master_policy().min_group_size() >= 10
        # The threshold is a *trigger*; greedy repartitioning is
        # best-effort, so only sanity-bound the post-repartition load.
        assert report.imbalance < 4.0

    def test_stranded_small_jurisdiction_repartitions(self, region):
        """Leaving 0 < n < k users in a jurisdiction must repartition,
        not crash."""
        rng = np.random.default_rng(253)
        # Two clusters so the partition splits between them.
        coords = np.vstack(
            [rng.uniform(0, 500, (60, 2)), rng.uniform(1500, 2040, (60, 2))]
        )
        db = LocationDatabase.from_array(coords)
        pool = RebalancingPool(
            region, 10, 2, imbalance_threshold=50.0
        ).fit(db)
        # Drain the SW cluster down to 5 users.
        sw = [uid for uid, p in db.items() if p.x < 1000]
        moves = {
            uid: Point(float(rng.uniform(1500, 2040)), float(rng.uniform(1500, 2040)))
            for uid in sw[: len(sw) - 5]
        }
        report = pool.advance(moves)
        assert report.repartitioned
        assert pool.master_policy().min_group_size() >= 10


class TestReporting:
    def test_report_fields(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        moves = random_moves(db, 0.05, region, max_distance=50, seed=9)
        report = pool.advance(moves)
        assert report.moved_users == len(moves)
        assert report.imbalance >= 1.0
        assert pool.resolve_count >= pool.n_jurisdictions

    def test_imbalance_of_fresh_partition_is_reasonable(self, region, db):
        pool = RebalancingPool(region, 10, 8).fit(db)
        assert pool.current_imbalance() < 3.0


def inside_moves(pool, per_server=5):
    """Nudge a few users of every jurisdiction a tenth of the way toward
    its centre: each lands strictly inside its own rectangle."""
    moves = {}
    for jur in pool._jurisdictions:
        centre = jur.rect.center
        for uid in sorted(pool._members[jur.node_id])[:per_server]:
            p = pool.db.location_of(uid)
            moves[uid] = Point(
                p.x + 0.1 * (centre.x - p.x), p.y + 0.1 * (centre.y - p.y)
            )
    return moves


def corner_moves(pool, n):
    """Teleport ``n`` users to the north-east corner: some must cross."""
    return {
        uid: Point(2000.0 + i * 0.1, 2000.0 + i * 0.1)
        for i, uid in enumerate(pool.db.user_ids()[:n])
    }


def assert_matches_fresh_fits(pool):
    """Every server's policy equals a from-scratch fit of its members."""
    for server in pool.master_policy().servers:
        jur = server.jurisdiction
        members = sorted(pool._members[jur.node_id])
        if not members:
            assert server.policy is None
            continue
        oracle = PolicyAwareAnonymizer(
            jur.rect, pool.k, max_depth=pool.max_depth
        ).fit(pool.db.subset(members))
        assert list(server.policy.items()) == list(oracle.policy.items())


class TestManagers:
    def test_policies_match_fresh_fits(self, region, db):
        """Inside-only moves, crossings, a hand-off and a repartition:
        after every advance each jurisdiction's policy is the fresh
        optimum for its members, item for item."""
        pool = RebalancingPool(region, 10, 4, imbalance_threshold=2.0).fit(db)
        report = pool.advance(inside_moves(pool))
        assert report.crossed_jurisdictions == 0 and not report.repartitioned
        assert_matches_fresh_fits(pool)

        report = pool.advance(corner_moves(pool, 30))
        assert report.crossed_jurisdictions > 0 and not report.repartitioned
        assert_matches_fresh_fits(pool)

        pool.server_failed(pool._jurisdictions[1].node_id)
        for moves in (inside_moves(pool), random_moves(pool.db, 0.05, region, 300.0, seed=3)):
            assert not pool.advance(moves).repartitioned
            assert_matches_fresh_fits(pool)

        west = [uid for uid, p in pool.db.items() if p.x < 1024]
        report = pool.advance({uid: Point(1500.0 + i * 0.5, 1000.0) for i, uid in enumerate(west)})
        assert report.repartitioned
        assert_matches_fresh_fits(pool)
        pool.advance(inside_moves(pool))
        assert_matches_fresh_fits(pool)

    def test_inside_only_tick_repairs_in_place(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        jur = pool._jurisdictions[0]
        manager = pool._managers[jur.node_id]
        promotions = manager.promotions
        repairs = []
        advance = manager.advance

        def recording_advance(moves):
            repairs.append(advance(moves))
            return repairs[-1]

        manager.advance = recording_advance
        moves = {
            uid: p for uid, p in inside_moves(pool).items()
            if uid in pool._members[jur.node_id]
        }
        report = pool.advance(moves)
        assert report.resolved_jurisdictions == 1
        assert pool._managers[jur.node_id] is manager
        assert manager.promotions == promotions + 1
        (repair,) = repairs
        assert repair.promoted and 0 < repair.recomputed_nodes < repair.total_nodes

    def test_crossing_replaces_both_managers(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        source, target = pool._jurisdictions[0], pool._jurisdictions[-1]
        before = dict(pool._managers)
        uid = sorted(pool._members[source.node_id])[0]
        report = pool.advance({uid: target.rect.center})
        assert report.crossed_jurisdictions == 1 and not report.repartitioned
        for node_id, manager in pool._managers.items():
            touched = node_id in (source.node_id, target.node_id)
            assert (manager is before[node_id]) != touched
        assert uid in pool._members[target.node_id]


class TestServerFailedBadIds:
    @staticmethod
    def state(pool):
        return (
            pool.n_jurisdictions,
            pool.lost_servers,
            list(pool.master_policy().merged.items()),
        )

    def test_unknown_id_raises_and_changes_nothing(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        before = self.state(pool)
        unknown = max(j.node_id for j in pool._jurisdictions) + 1000
        with pytest.raises(ReproError, match="unknown jurisdiction"):
            pool.server_failed(unknown)
        assert self.state(pool) == before

    def test_already_failed_id_raises_and_changes_nothing(self, region, db):
        pool = RebalancingPool(region, 10, 4).fit(db)
        dead = pool._jurisdictions[0].node_id
        pool.server_failed(dead)
        before = self.state(pool)
        with pytest.raises(ReproError, match="unknown jurisdiction"):
            pool.server_failed(dead)
        assert self.state(pool) == before
