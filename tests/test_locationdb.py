"""Unit tests for the location database (§II-A)."""

import numpy as np
import pytest

from repro import LocationDatabase, Point, Rect, ReproError
from repro.core.locationdb import SnapshotSequence


class TestConstruction:
    def test_rows_roundtrip(self):
        db = LocationDatabase([("a", 1, 2), ("b", 3, 4)])
        assert sorted(db.rows()) == [("a", 1.0, 2.0), ("b", 3.0, 4.0)]

    def test_duplicate_user_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            LocationDatabase([("a", 1, 2), ("a", 3, 4)])

    def test_from_points(self):
        db = LocationDatabase.from_points({"x": Point(5, 6)})
        assert db.location_of("x") == Point(5, 6)

    def test_from_array(self):
        db = LocationDatabase.from_array(np.array([[1, 2], [3, 4]]))
        assert db.user_ids() == ["u0", "u1"]
        assert db.location_of("u1") == Point(3, 4)

    def test_from_array_shape_checked(self):
        with pytest.raises(ReproError, match="n, 2"):
            LocationDatabase.from_array(np.zeros((3, 3)))

    def test_empty_database(self):
        db = LocationDatabase()
        assert len(db) == 0
        assert db.coords_array().shape == (0, 2)


class TestAccess:
    @pytest.fixture
    def db(self):
        return LocationDatabase([("a", 0, 0), ("b", 2, 2), ("c", 5, 5)])

    def test_len_contains_iter(self, db):
        assert len(db) == 3
        assert "a" in db and "z" not in db
        assert list(db) == ["a", "b", "c"]

    def test_location_of_unknown_is_none(self, db):
        assert db.location_of("z") is None

    def test_users_in_closed_region(self, db):
        assert db.users_in(Rect(0, 0, 2, 2)) == ["a", "b"]

    def test_count_in(self, db):
        assert db.count_in(Rect(1, 1, 10, 10)) == 2

    def test_extent(self, db):
        assert db.extent() == Rect(0, 0, 5, 5)

    def test_coords_array_order_matches_user_ids(self, db):
        coords = db.coords_array()
        for i, uid in enumerate(db.user_ids()):
            assert Point(*coords[i]) == db.location_of(uid)

    def test_subset(self, db):
        sub = db.subset(["c", "a"])
        assert set(sub.user_ids()) == {"a", "c"}
        assert sub.location_of("c") == Point(5, 5)
        assert sub.user_ids() == ["c", "a"]  # caller's order

    def test_subset_rejects_duplicates_and_unknown(self, db):
        with pytest.raises(ReproError, match="duplicate"):
            db.subset(["a", "a"])
        with pytest.raises(KeyError):
            db.subset(["nobody"])

    def test_restricted_to(self, db):
        sub = db.restricted_to(Rect(0, 0, 3, 3))
        assert sub.user_ids() == ["a", "b"]


class TestMoves:
    def test_with_moves_relocates(self):
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1)])
        moved = db.with_moves({"a": Point(9, 9)})
        assert moved.location_of("a") == Point(9, 9)
        assert moved.location_of("b") == Point(1, 1)
        # Original snapshot is untouched.
        assert db.location_of("a") == Point(0, 0)

    def test_with_moves_unknown_user_rejected(self):
        db = LocationDatabase([("a", 0, 0)])
        with pytest.raises(ReproError, match="unknown"):
            db.with_moves({"z": Point(1, 1)})

    def test_with_moves_shares_unmoved_points(self):
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)])
        before = db.points()
        moved = db.with_moves({"b": Point(7, 8)})
        assert moved.user_ids() == ["a", "b", "c"]
        assert moved.location_of("a") is db.location_of("a")
        assert moved.location_of("c") is db.location_of("c")
        assert moved.location_of("b") == Point(7.0, 8.0)
        assert isinstance(moved.location_of("b").x, float)
        assert db.points() == before
        assert [p is q for p, q in zip(db.points(), before)] == [True] * 3


class TestSnapshotSequence:
    def test_advance_and_history(self):
        seq = SnapshotSequence(LocationDatabase([("a", 0, 0), ("b", 1, 1)]))
        seq.advance({"a": Point(5, 5)})
        assert len(seq) == 2
        assert seq.current.location_of("a") == Point(5, 5)
        assert seq[0].location_of("a") == Point(0, 0)

    def test_moved_users(self):
        seq = SnapshotSequence(LocationDatabase([("a", 0, 0), ("b", 1, 1)]))
        seq.advance({"b": Point(2, 2)})
        assert seq.moved_users(1) == ["b"]

    def test_moved_users_index_validation(self):
        seq = SnapshotSequence(LocationDatabase([("a", 0, 0)]))
        with pytest.raises(ReproError):
            seq.moved_users(0)
        with pytest.raises(ReproError):
            seq.moved_users(1)
