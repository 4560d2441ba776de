"""Unit tests for the lazy binary tree of quadrants/semi-quadrants (§V)."""

import numpy as np
import pytest

from repro import LocationDatabase, Point, Rect, TreeError
from repro.data import uniform_users
from repro.lbs import random_moves
from repro.trees import BinaryTree


@pytest.fixture
def region():
    return Rect(0, 0, 64, 64)


def dense_db(region, n=300, seed=0):
    return uniform_users(n, region, seed=seed)


class TestStructure:
    def test_root_shape_classification(self, region):
        db = LocationDatabase([("a", 1, 1)])
        assert BinaryTree(region, db, 1).root.is_semi is False
        semi = Rect(0, 0, 32, 64)
        assert BinaryTree(semi, db, 1).root.is_semi is True

    def test_bad_aspect_rejected(self):
        db = LocationDatabase([("a", 1, 1)])
        with pytest.raises(TreeError, match="semi-quadrant"):
            BinaryTree(Rect(0, 0, 10, 15), db, 1)

    def test_threshold_validated(self, region):
        with pytest.raises(TreeError):
            BinaryTree(region, LocationDatabase(), 0)

    def test_split_orientation_alternates(self, region):
        tree = BinaryTree.build(region, dense_db(region), k=10)
        for node in tree.nodes.values():
            if node.is_leaf:
                continue
            a, b = node.children
            if node.is_semi:
                # Horizontal cut: children stacked vertically.
                assert a.rect.y2 == b.rect.y1
                assert not a.is_semi and not b.is_semi
            else:
                # Vertical cut: children side by side.
                assert a.rect.x2 == b.rect.x1
                assert a.is_semi and b.is_semi

    def test_two_binary_levels_make_a_quadrant(self, region):
        tree = BinaryTree.build(region, dense_db(region), k=5)
        root = tree.root
        grandchildren = [g for c in root.children for g in c.children]
        if len(grandchildren) == 4:
            quads = set(root.rect.quadrants())
            assert {g.rect for g in grandchildren} == quads

    def test_lazy_invariant_holds_after_build(self, region):
        tree = BinaryTree.build(region, dense_db(region), k=10)
        tree.check_invariants()

    def test_leaves_below_threshold(self, region):
        tree = BinaryTree.build(region, dense_db(region), k=10, max_depth=30)
        assert all(leaf.count < 10 for leaf in tree.leaves())

    def test_max_depth_cap(self, region):
        # All users at the same spot force a chain until max_depth.
        db = LocationDatabase([(f"u{i}", 1, 1) for i in range(20)])
        tree = BinaryTree.build(region, db, k=5, max_depth=6)
        assert tree.height == 6
        tree.check_invariants()

    def test_counts_partition_points(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        assert tree.root.count == len(db)
        assert sum(leaf.count for leaf in tree.leaves()) == len(db)


class TestQueries:
    def test_leaf_of_user(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        for uid, point in list(db.items())[:30]:
            leaf = tree.leaf_of_user(uid)
            assert leaf.rect.contains(point)
            assert leaf is tree.leaf_for(point)

    def test_leaf_of_unknown_user(self, region):
        tree = BinaryTree.build(region, dense_db(region), k=10)
        with pytest.raises(TreeError, match="unknown"):
            tree.leaf_of_user("ghost")

    def test_users_of_subtree(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        west = tree.root.children[0]
        users = tree.users_of(west)
        assert len(users) == west.count
        assert all(west.rect.contains(db.location_of(u)) for u in users)

    def test_smallest_node_with(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        for uid, point in list(db.items())[:30]:
            node = tree.smallest_node_with(point, 10)
            assert node.count >= 10
            assert node.rect.contains(point)
            # No deeper node containing the point qualifies.
            if not node.is_leaf:
                deeper = node.child_for(point)
                assert deeper.count < 10

    def test_depth_histogram_counts_leaves(self, region):
        tree = BinaryTree.build(region, dense_db(region), k=10)
        hist = tree.depth_histogram()
        assert sum(hist.values()) == len(tree.leaves())


class TestMoves:
    def test_noop_moves(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        dirty = tree.apply_moves({})
        assert dirty == set()
        tree.check_invariants()

    def test_small_move_updates_counts(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        uid = db.user_ids()[0]
        dirty = tree.apply_moves({uid: Point(63, 63)})
        assert tree.root.node_id in dirty
        tree.check_invariants()
        assert tree.leaf_of_user(uid).rect.contains(Point(63, 63))
        assert tree.db.location_of(uid) == Point(63, 63)

    def test_mass_move_keeps_invariants(self, region):
        db = dense_db(region, n=400, seed=3)
        tree = BinaryTree.build(region, db, k=8)
        for step in range(4):
            moves = random_moves(tree.db, 0.3, region, max_distance=20, seed=step)
            tree.apply_moves(moves)
            tree.check_invariants()
        assert tree.root.count == len(db)

    def test_move_triggers_split_and_collapse(self, region):
        # Start with everyone in the west; then march them east.
        db = LocationDatabase([(f"u{i}", 1, 1 + i * 0.1) for i in range(30)])
        tree = BinaryTree.build(region, db, k=8)
        before_nodes = set(tree.nodes)
        moves = {f"u{i}": Point(60, 1 + i * 0.1) for i in range(30)}
        tree.apply_moves(moves)
        tree.check_invariants()
        # The structure changed: old dense west chain collapsed, east grew.
        assert set(tree.nodes) != before_nodes
        assert all(leaf.count < 8 for leaf in tree.leaves())

    def test_move_outside_map_rejected(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        with pytest.raises(TreeError, match="outside"):
            tree.apply_moves({db.user_ids()[0]: Point(100, 0)})

    def test_move_unknown_user_rejected(self, region):
        tree = BinaryTree.build(region, dense_db(region), k=10)
        with pytest.raises(TreeError, match="unknown"):
            tree.apply_moves({"ghost": Point(1, 1)})

    def test_rejected_batch_moves_nobody(self, region):
        """A bad move mid-batch must leave coords, counts and the
        snapshot view exactly as they were — no half-applied batch."""
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        coords = tree.coords.copy()
        counts = {nid: node.count for nid, node in tree.nodes.items()}
        snapshot = tree.db
        first, second = db.user_ids()[:2]
        moves = {
            first: Point(63, 63),
            "ghost": Point(1, 1),
            second: Point(1, 63),
        }
        with pytest.raises(TreeError, match="unknown"):
            tree.apply_moves(moves)
        assert np.array_equal(tree.coords, coords)
        assert {nid: node.count for nid, node in tree.nodes.items()} == counts
        assert tree.db is snapshot
        tree.check_invariants()

    def test_dirty_set_covers_both_paths(self, region):
        db = dense_db(region)
        tree = BinaryTree.build(region, db, k=10)
        uid = db.user_ids()[0]
        old_leaf = tree.leaf_of_user(uid)
        dirty = tree.apply_moves({uid: Point(63, 63)})
        new_leaf = tree.leaf_of_user(uid)
        for node in list(old_leaf.path_to_root()) + list(new_leaf.path_to_root()):
            if node.node_id in tree.nodes:
                assert node.node_id in dirty
