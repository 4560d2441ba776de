"""Unit tests for the location database (§II-A)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LocationDatabase, Point, Rect, ReproError
from repro.core.locationdb import SnapshotSequence
from repro.data import uniform_users
from repro.trees.binarytree import BinaryTree


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

    def test_with_moves_shares_id_table(self):
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)])
        before = db.points()
        moved = db.with_moves({"b": Point(7, 8)})
        assert moved.user_ids() == ["a", "b", "c"]
        ids, row = moved.index()
        assert ids is db.index()[0] and row is db.index()[1]
        assert moved.location_of("a") == db.location_of("a")
        assert moved.location_of("b") == Point(7.0, 8.0)
        assert isinstance(moved.location_of("b").x, float)
        assert db.points() == before
        assert not db.agrees_with(moved) and moved.agrees_with(moved.subset(["a", "c"]))


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


# ---------------------------------------------------------------------------
# The columnar layout against a plain dict reference model
# ---------------------------------------------------------------------------

coordinate = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
relation = st.lists(
    st.tuples(st.text("abcdef", min_size=1, max_size=3), coordinate, coordinate),
    max_size=12,
    unique_by=lambda row: row[0],
)


def model_of(rows):
    return {uid: (float(x), float(y)) for uid, x, y in rows}


def agrees(here, there):
    """The model of ``LocationDatabase.agrees_with``."""
    return all(here.get(uid) == xy for uid, xy in there.items())


def assert_matches(db, model):
    assert len(db) == len(model)
    assert list(db) == db.user_ids() == list(model)
    assert [(uid, p.as_tuple()) for uid, p in db.items()] == list(model.items())
    assert list(db.rows()) == [(uid, x, y) for uid, (x, y) in model.items()]
    assert [p.as_tuple() for p in db.points()] == list(model.values())
    assert db.coords_array().reshape(-1, 2).tolist() == [list(xy) for xy in model.values()]
    for uid, xy in model.items():
        assert uid in db
        assert db.location_of(uid).as_tuple() == xy
    assert "zzzz" not in db and db.location_of("zzzz") is None
    assert db.has_users(set(model))
    if model:
        assert not db.has_users(set(list(model)[1:]))
    assert not db.has_users(set(model) | {"zzzz"})


class TestAgainstDictModel:
    @settings(max_examples=60, deadline=None)
    @given(rows=relation, data=st.data())
    def test_operations_match_the_model(self, rows, data):
        model = model_of(rows)
        db = LocationDatabase(rows)
        assert_matches(db, model)
        assert_matches(
            LocationDatabase.from_columns(
                list(model), np.array(list(model.values())).reshape(-1, 2)
            ),
            model,
        )
        assert db.agrees_with(db)

        chosen = data.draw(st.permutations(list(model))).copy()
        chosen = chosen[: data.draw(st.integers(0, len(chosen)))]
        sub_model = {uid: model[uid] for uid in chosen}
        sub = db.subset(chosen)
        assert_matches(sub, sub_model)
        row = {uid: i for i, uid in enumerate(model)}
        assert_matches(db.take([row[uid] for uid in chosen]), sub_model)
        assert db.agrees_with(sub)
        assert sub.agrees_with(db) == agrees(sub_model, model)

        movers = data.draw(st.lists(st.sampled_from(list(model)), unique=True)) if model else []
        moves = {uid: Point(data.draw(coordinate), data.draw(coordinate)) for uid in movers}
        moved_model = dict(model)
        moved_model.update({uid: (float(p.x), float(p.y)) for uid, p in moves.items()})
        moved = db.with_moves(moves)
        assert_matches(moved, moved_model)
        assert_matches(db, model)  # the original is untouched
        assert_matches(sub, sub_model)
        assert moved.agrees_with(db) == agrees(moved_model, model)
        assert db.agrees_with(moved) == agrees(model, moved_model)
        assert moved.agrees_with(sub) == agrees(moved_model, sub_model)
        # a snapshot over its own table compares through the id map
        fresh = LocationDatabase(sub.rows())
        assert moved.agrees_with(fresh) == agrees(moved_model, sub_model)
        assert fresh.agrees_with(moved) == agrees(sub_model, moved_model)

        seq = SnapshotSequence(db)
        seq.advance(moves)
        assert seq.moved_users(1) == [
            uid for uid in model if model[uid] != moved_model[uid]
        ]

    @settings(max_examples=30, deadline=None)
    @given(coords=st.lists(st.tuples(coordinate, coordinate), max_size=10))
    def test_from_array_matches_the_model(self, coords):
        db = LocationDatabase.from_array(np.array(coords, dtype=float).reshape(-1, 2))
        assert_matches(
            db, {f"u{i}": (float(x), float(y)) for i, (x, y) in enumerate(coords)}
        )

    @settings(max_examples=30, deadline=None)
    @given(rows=relation, box=st.tuples(*[st.integers(-1000, 1000)] * 4))
    def test_region_queries_match_the_model(self, rows, box):
        db, model = LocationDatabase(rows), model_of(rows)
        region = Rect(min(box[0], box[2]), min(box[1], box[3]),
                      max(box[0], box[2]), max(box[1], box[3]))
        inside = [uid for uid, xy in model.items() if region.contains(Point(*xy))]
        assert db.users_in(region) == inside
        assert db.count_in(region) == len(inside)
        assert_matches(db.restricted_to(region), {uid: model[uid] for uid in inside})
        if model:
            xs, ys = zip(*model.values())
            assert db.extent() == Rect(min(xs), min(ys), max(xs), max(ys))


class TestColumnarRejections:
    def test_duplicate_ids_rejected_by_every_constructor(self):
        with pytest.raises(ReproError, match="duplicate"):
            LocationDatabase.from_columns(["a", "b", "a"], np.zeros((3, 2)))
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1)])
        with pytest.raises(ReproError, match="duplicate"):
            db.take([1, 0, 1])
        with pytest.raises(ReproError, match="duplicate"):
            db.subset(["b", "b"])

    def test_column_shape_checked(self):
        with pytest.raises(ReproError, match=r"\(2, 2\)"):
            LocationDatabase.from_columns(["a", "b"], np.zeros((3, 2)))
        with pytest.raises(ReproError, match=r"\(1, 2\)"):
            LocationDatabase.from_columns(["a"], np.zeros(2))

    def test_rows_out_of_range_rejected(self):
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1)])
        for rows in ([2], [-1]):
            with pytest.raises(ReproError, match="out of range"):
                db.take(rows)

    def test_unknown_movers_rejected_on_derived_snapshots(self):
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)])
        sub = db.subset(["c", "a"])
        with pytest.raises(ReproError, match="unknown"):
            sub.with_moves({"a": Point(1, 1), "b": Point(1, 1)})  # b is the parent's
        with pytest.raises(ReproError, match="unknown"):
            db.with_moves({"a": Point(5, 5)}).with_moves({"zz": Point(0, 0)})
        assert sub.location_of("a") == Point(0, 0)

    def test_pickle_roundtrip(self):
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)])
        for snapshot in (db, db.subset(["c", "a"]), db.with_moves({"b": Point(7, 7)})):
            back = pickle.loads(pickle.dumps(snapshot))
            assert list(back.rows()) == list(snapshot.rows())


class TestNoWriteThrough:
    def test_coordinate_column_is_read_only(self):
        db = LocationDatabase([("a", 0, 0), ("b", 1, 1)])
        for snapshot in (db, db.subset(["b"]), db.with_moves({"a": Point(3, 3)})):
            assert not snapshot._coords.flags.writeable
            copy = snapshot.coords_array()
            copy[:] = 99.0
            assert all(p.x != 99.0 for p in snapshot.points())

    def test_from_columns_copies_its_input(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        db = LocationDatabase.from_columns(["a", "b"], coords)
        coords[0] = (9.0, 9.0)
        assert db.location_of("a") == Point(0, 0)

    def test_with_moves_chain_keeps_every_snapshot(self):
        seq = SnapshotSequence(LocationDatabase([("a", 0, 0), ("b", 1, 1)]))
        seq.advance({"a": Point(2, 2)})
        seq.advance({"a": Point(3, 3), "b": Point(4, 4)})
        assert [s.location_of("a") for s in seq] == [Point(0, 0), Point(2, 2), Point(3, 3)]
        assert [s.location_of("b") for s in seq] == [Point(1, 1), Point(1, 1), Point(4, 4)]
        assert seq.moved_users(2) == ["a", "b"]

    def test_tree_moves_leave_other_snapshots_alone(self):
        region = Rect(0, 0, 1024, 1024)
        db = uniform_users(300, region, seed=3)
        sub = db.subset(db.user_ids()[::2])
        before = db.coords_array(), sub.coords_array()
        vertical = BinaryTree.build(region, db, 5)
        horizontal = BinaryTree.build(region, db, 5, orientation="horizontal")
        uid = db.user_ids()[0]
        vertical.apply_moves({uid: Point(1.0, 2.0)})
        assert vertical.db.location_of(uid) == Point(1.0, 2.0)
        assert np.array_equal(db.coords_array(), before[0])
        assert np.array_equal(sub.coords_array(), before[1])
        assert np.array_equal(horizontal.coords, before[0])
        assert horizontal.db is db
        vertical.check_invariants()
        horizontal.check_invariants()
