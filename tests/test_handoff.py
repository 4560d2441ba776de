"""Online jurisdiction hand-off: a dead server's territory is
re-partitioned, re-solved, and adopted by its neighbours."""

import pytest

from repro import Rect, ServiceUnavailableError
from repro.core.binary_dp import solve
from repro.data import uniform_users
from repro.parallel import (
    RebalancingPool,
    adjacent_rects,
    assign_adopters,
    handoff_shards,
    parallel_bulk_anonymize,
)
from repro.robustness import FaultInjector, FaultPlan, FaultRule, RetryPolicy
from repro.trees.binarytree import BinaryTree
from repro.trees.partition import Jurisdiction

REGION = Rect(0, 0, 1024, 1024)
K = 5


def jur(node_id, rect, count=0):
    return Jurisdiction(rect=rect, is_semi=False, count=count, node_id=node_id)


class TestAdjacency:
    def test_shared_edge(self):
        assert adjacent_rects(Rect(0, 0, 10, 10), Rect(10, 0, 20, 10))
        assert adjacent_rects(Rect(0, 0, 10, 10), Rect(0, 10, 10, 20))

    def test_corner_touch_is_not_adjacent(self):
        assert not adjacent_rects(Rect(0, 0, 10, 10), Rect(10, 10, 20, 20))

    def test_disjoint(self):
        assert not adjacent_rects(Rect(0, 0, 10, 10), Rect(30, 0, 40, 10))


class TestHandoffShards:
    def rows_in(self, rect, n, seed=17):
        db = uniform_users(n, rect, seed=seed)
        return [
            (uid, db.location_of(uid).x, db.location_of(uid).y)
            for uid in db.user_ids()
        ]

    def test_empty_territory_yields_no_shards(self):
        assert handoff_shards(Rect(0, 0, 100, 100), [], K) == []

    def test_below_k_fails_closed(self):
        rows = self.rows_in(Rect(0, 0, 100, 100), K - 1)
        with pytest.raises(ServiceUnavailableError) as err:
            handoff_shards(Rect(0, 0, 100, 100), rows, K)
        assert err.value.reason == "handoff"

    def test_shards_restore_fine_k_anonymous_cloaks(self):
        territory = Rect(0, 0, 512, 512)
        rows = self.rows_in(territory, 60)
        shards = handoff_shards(territory, rows, K, base_node_id=100)
        assert shards
        covered = set()
        for jur_, policy, seconds in shards:
            assert jur_.node_id >= 100
            if policy is None:
                assert jur_.count == 0
                continue
            assert seconds >= 0.0
            assert policy.min_group_size() >= K
            for uid, cloak in policy.items():
                covered.add(uid)
                # Fine cloaks, not the coarse territory rectangle.
                assert cloak.area < territory.area
        assert covered == {uid for uid, __, ___ in rows}


def object_oracle(rect, db, k=K):
    """A from-scratch ``engine="object"`` solve of one shard."""
    return solve(BinaryTree.build(rect, db, k), k, engine="object").policy()


class TestHandoffOracle:
    """Shard policies equal the ``engine="object"`` oracle solving each
    shard on its own, cloak for cloak and in insertion order."""

    def test_in_process_shards_match_object_oracle(self):
        territory = Rect(0, 0, 512, 512)
        rows = TestHandoffShards().rows_in(territory, 80, seed=3)
        shards = handoff_shards(territory, rows, K, n_shards=3)
        solved = [(j, p) for j, p, __ in shards if p is not None]
        assert sum(len(p) for __, p in solved) == len(rows)
        for jur_, policy in solved:
            expected = object_oracle(jur_.rect, policy.db)
            assert list(policy.items()) == list(expected.items())

    @pytest.mark.parametrize("mode", ["simulated", "process"])
    def test_engine_handoff_shards_match_object_oracle(self, mode):
        db = uniform_users(160, REGION, seed=23)
        reference = parallel_bulk_anonymize(REGION, db, K, 4)
        victim = max(reference.jurisdictions, key=lambda j: j.count).node_id
        injector = FaultInjector(
            FaultPlan(
                rules=(FaultRule("solve", "crash", match=str(victim)),),
                seed=0,
            )
        )
        result = parallel_bulk_anonymize(
            REGION,
            db,
            K,
            4,
            mode=mode,
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_failure="handoff",
            pool_workers=2 if mode == "process" else None,
        )
        shard_ids = {shard for __, shard, ___ in result.handoffs}
        shards = [
            s
            for s in result.master.servers
            if s.jurisdiction.node_id in shard_ids and s.policy is not None
        ]
        assert shards
        for server in shards:
            expected = object_oracle(server.jurisdiction.rect, server.policy.db)
            assert list(server.policy.items()) == list(expected.items())


class TestAssignAdopters:
    def test_prefers_adjacent_then_least_loaded(self):
        shard = jur(9, Rect(0, 0, 10, 10), count=5)
        neighbour = jur(1, Rect(10, 0, 20, 10), count=50)
        far_but_idle = jur(2, Rect(100, 100, 110, 110), count=0)
        assignment = assign_adopters([shard], [neighbour, far_but_idle])
        assert assignment == {9: 1}  # adjacency beats load

    def test_load_spreads_across_shards(self):
        shards = [
            jur(9, Rect(0, 0, 10, 10), count=30),
            jur(10, Rect(0, 10, 10, 20), count=30),
        ]
        survivors = [
            jur(1, Rect(10, 0, 20, 10), count=10),
            jur(2, Rect(10, 10, 20, 20), count=10),
        ]
        assignment = assign_adopters(shards, survivors)
        # The first adoption raises that survivor's load, so the second
        # shard goes to the other one.
        assert sorted(assignment.values()) == [1, 2]

    def test_no_survivors(self):
        assert assign_adopters([jur(9, Rect(0, 0, 1, 1))], []) == {}


class TestPoolServerFailed:
    def test_handoff_keeps_pool_serving(self):
        db = uniform_users(160, REGION, seed=23)
        pool = RebalancingPool(REGION, K, 4).fit(db)
        before = pool.master_policy()
        dead = pool._jurisdictions[0].node_id
        dead_users = sorted(pool._members[dead])

        report = pool.server_failed(dead)
        assert report.dead_node_id == dead
        assert report.resolved_users == len(dead_users)
        assert report.recovery_seconds >= 0.0
        assert set(report.adopters) <= set(report.shard_ids)
        assert pool.lost_servers == 1

        master = pool.master_policy()
        assert len(master.merged) == len(db)
        assert master.merged.min_group_size() >= K
        # The dead server's users regained *fine* cloaks: per-user area
        # no worse than before the failure on average.
        before_area = sum(
            before.cloak_for(uid).area for uid in dead_users
        ) / len(dead_users)
        after_area = sum(
            master.cloak_for(uid).area for uid in dead_users
        ) / len(dead_users)
        assert after_area <= before_area * 1.05

    def test_pool_advances_after_handoff(self):
        db = uniform_users(160, REGION, seed=23)
        pool = RebalancingPool(REGION, K, 4).fit(db)
        pool.server_failed(pool._jurisdictions[-1].node_id)
        from repro.lbs.mobility import random_moves

        moves = random_moves(pool.db, 0.05, REGION, max_distance=60.0, seed=5)
        report = pool.advance(moves)
        assert report.moved_users == len(moves)
        master = pool.master_policy()
        assert len(master.merged) == len(pool.db)
        assert master.merged.min_group_size() >= K

    def test_empty_territory_handoff(self):
        db = uniform_users(40, Rect(0, 0, 256, 256), seed=9)
        pool = RebalancingPool(REGION, K, 4).fit(db)
        empty = [
            j.node_id
            for j in pool._jurisdictions
            if not pool._members[j.node_id]
        ]
        if not empty:
            pytest.skip("partition left no empty jurisdiction")
        report = pool.server_failed(empty[0])
        assert report.shard_ids == ()
        assert report.resolved_users == 0
