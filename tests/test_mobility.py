"""Tests for the user movement model (§VI-C)."""

import pytest

from repro import Rect, WorkloadError
from repro.data import uniform_users
from repro.lbs import (
    movement_stream,
    poisson_schedule,
    random_moves,
    trajectory_schedule,
    walk_snapshots,
)


@pytest.fixture
def region():
    return Rect(0, 0, 1000, 1000)


@pytest.fixture
def db(region):
    return uniform_users(200, region, seed=141)


class TestRandomMoves:
    def test_fraction_controls_count(self, db, region):
        assert len(random_moves(db, 0.1, region)) == 20
        assert len(random_moves(db, 0.0, region)) == 0
        assert len(random_moves(db, 1.0, region)) == 200

    def test_distance_bound(self, db, region):
        moves = random_moves(db, 0.5, region, max_distance=200.0, seed=1)
        for uid, new_point in moves.items():
            old = db.location_of(uid)
            assert old.distance_to(new_point) <= 200.0 + 1e-9

    def test_moves_stay_on_map(self, region):
        # Users on the border get clipped rather than escaping.
        from repro import LocationDatabase

        db = LocationDatabase([(f"u{i}", 0.0, float(i)) for i in range(50)])
        moves = random_moves(db, 1.0, region, max_distance=500.0, seed=2)
        for p in moves.values():
            assert region.contains(p)

    def test_deterministic_given_seed(self, db, region):
        a = random_moves(db, 0.2, region, seed=7)
        b = random_moves(db, 0.2, region, seed=7)
        assert a == b

    def test_fraction_validated(self, db, region):
        with pytest.raises(WorkloadError):
            random_moves(db, 1.5, region)
        with pytest.raises(WorkloadError):
            random_moves(db, 0.1, region, max_distance=-1)


class TestMovementStream:
    def test_yields_requested_snapshots(self, db, region):
        stream = list(movement_stream(db, 0.1, region, n_snapshots=5, seed=3))
        assert len(stream) == 5
        assert all(len(m) == 20 for m in stream)

    def test_stream_is_a_walk(self, db, region):
        """Each step moves from the *previous* snapshot's position."""
        move_sets = list(
            movement_stream(
                db, 0.3, region, n_snapshots=4, max_distance=100, seed=4
            )
        )
        snapshots = walk_snapshots(db, move_sets)
        assert len(snapshots) == 5
        assert snapshots[0] is db
        for current, moves in zip(snapshots, move_sets):
            for uid, new_point in moves.items():
                old = current.location_of(uid)
                assert old.distance_to(new_point) <= 100 + 1e-9


class TestTrajectorySchedule:
    def _schedule(self, db, region, seed=5):
        return trajectory_schedule(
            db,
            0.3,
            region,
            rate_per_user=0.05,
            duration=100.0,
            snapshot_period=25.0,
            max_distance=150.0,
            seed=seed,
        )

    def test_shapes(self, db, region):
        schedule = self._schedule(db, region)
        # 100 s / 25 s windows → 4 snapshots, 3 move boundaries.
        assert schedule.n_snapshots == 4
        assert len(schedule.moves) == 3
        assert len(schedule.snapshots(db)) == 4
        assert all(0.0 <= t < 100.0 for t, __, ___ in schedule.arrivals)

    def test_deterministic_given_seed(self, db, region):
        a = self._schedule(db, region, seed=9)
        b = self._schedule(db, region, seed=9)
        assert a.arrivals == b.arrivals
        assert a.moves == b.moves
        c = self._schedule(db, region, seed=10)
        assert a.arrivals != c.arrivals

    def test_arrival_batches_window_arrivals(self, db, region):
        schedule = self._schedule(db, region)
        batches = schedule.arrival_batches()
        assert len(batches) == schedule.n_snapshots
        assert sum(len(b) for b in batches) == len(schedule.arrivals)
        for index, batch in enumerate(batches[:-1]):
            for t, __, ___ in batch:
                assert index * 25.0 <= t < (index + 1) * 25.0

    def test_moves_are_a_walk(self, db, region):
        schedule = self._schedule(db, region)
        snapshots = schedule.snapshots(db)
        for current, moves in zip(snapshots, schedule.moves):
            for uid, new_point in moves.items():
                old = current.location_of(uid)
                assert old.distance_to(new_point) <= 150.0 + 1e-9

    def test_validates_inputs(self, db, region):
        with pytest.raises(WorkloadError):
            trajectory_schedule(
                db, 0.3, region,
                rate_per_user=0.05, duration=0.0, snapshot_period=10.0,
            )
        with pytest.raises(WorkloadError):
            trajectory_schedule(
                db, 0.3, region,
                rate_per_user=0.05, duration=10.0, snapshot_period=0.0,
            )

    def test_empty_categories_rejected(self, db, region):
        with pytest.raises(WorkloadError, match="category"):
            trajectory_schedule(
                db, 0.3, region,
                rate_per_user=0.05, duration=10.0, snapshot_period=5.0,
                categories=(),
            )


class TestPoissonSchedule:
    def test_empty_categories_rejected(self, db):
        with pytest.raises(WorkloadError, match="category"):
            poisson_schedule(db.user_ids(), 1.0, 5.0, categories=())

    def test_draws_from_the_given_categories(self, db):
        schedule = poisson_schedule(
            db.user_ids(), 0.5, 5.0, categories=("museum",), seed=3
        )
        assert schedule
        assert {category for __, ___, category in schedule} == {"museum"}
