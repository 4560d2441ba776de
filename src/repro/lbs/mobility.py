"""User movement between location snapshots (§VI-C).

The incremental-maintenance experiment moves a chosen percentage of
users "to a point at a randomly selected distance (bounded by 200
meters, the maximum possible movement within 10 seconds) in a randomly
selected direction".  This module reproduces that model and provides a
snapshot-stream convenience for longer runs, plus the seeded Poisson
arrival streams that serving replays pair with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..core.errors import WorkloadError
from ..core.geometry import Point, Rect
from .locationdb import LocationDatabase

__all__ = [
    "random_moves",
    "movement_stream",
    "walk_snapshots",
    "poisson_schedule",
    "trajectory_schedule",
    "TrajectorySchedule",
]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_moves(
    db: LocationDatabase,
    fraction: float,
    region: Rect,
    max_distance: float = 200.0,
    seed=0,
) -> Dict[str, Point]:
    """Pick ``fraction`` of users and move each ≤ ``max_distance`` meters
    in a uniformly random direction (clipped to the map).

    Returns the ``{user_id: new_point}`` mapping consumed by
    :meth:`BinaryTree.apply_moves` / :meth:`LocationDatabase.with_moves`.
    """
    if not 0.0 <= fraction <= 1.0:
        raise WorkloadError(f"fraction must be in [0, 1], got {fraction}")
    if max_distance < 0:
        raise WorkloadError(f"max_distance must be ≥ 0, got {max_distance}")
    rng = _rng(seed)
    ids = db.user_ids()
    n_moving = int(round(fraction * len(ids)))
    chosen = rng.choice(len(ids), size=n_moving, replace=False)
    moves: Dict[str, Point] = {}
    for i in sorted(chosen):
        user_id = ids[i]
        origin = db.location_of(user_id)
        distance = rng.uniform(0.0, max_distance)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = min(max(origin.x + distance * math.cos(angle), region.x1), region.x2)
        y = min(max(origin.y + distance * math.sin(angle), region.y1), region.y2)
        moves[user_id] = Point(x, y)
    return moves


def movement_stream(
    db: LocationDatabase,
    fraction: float,
    region: Rect,
    n_snapshots: int,
    max_distance: float = 200.0,
    seed=0,
) -> Iterator[Dict[str, Point]]:
    """Yield ``n_snapshots`` successive move sets, each applied to the
    previous snapshot's state (a bounded random walk per moving user)."""
    rng = _rng(seed)
    current = db
    for __ in range(n_snapshots):
        moves = random_moves(current, fraction, region, max_distance, rng)
        current = current.with_moves(moves)
        yield moves


def walk_snapshots(
    db: LocationDatabase, moves: Sequence[Dict[str, Point]]
) -> List[LocationDatabase]:
    """Apply a move-set sequence as a walk: snapshot *i+1* is snapshot
    *i* plus ``moves[i]``.  Returns all ``len(moves) + 1`` snapshots,
    starting with ``db`` itself — the one trace-replay helper shared by
    the trajectory bench and the mobility tests."""
    snapshots = [db]
    for move_set in moves:
        snapshots.append(snapshots[-1].with_moves(move_set))
    return snapshots


@dataclass(frozen=True)
class TrajectorySchedule:
    """One seeded mobility trace paired with one Poisson arrival stream.

    The pairing is the point: the trajectory, churn and §VII replays
    (:func:`repro.experiments.replay.replay_schedule`) all need "users
    move every ``snapshot_period`` seconds *and* issue requests in
    between", and generating the two halves from one seed keeps the
    defended and undefended runs (and any test replaying them) on the
    byte-identical workload.
    """

    region: Rect
    duration: float
    snapshot_period: float
    #: (time, user, category), time-ordered over ``[0, duration)``.
    arrivals: Tuple[Tuple[float, str, str], ...]
    #: per-boundary move sets: ``moves[i]`` is applied at time
    #: ``(i + 1) * snapshot_period`` (a bounded random walk per user).
    moves: Tuple[Dict[str, Point], ...]

    @property
    def n_snapshots(self) -> int:
        """Distinct location snapshots the schedule runs through."""
        return len(self.moves) + 1

    def snapshots(self, db: LocationDatabase) -> List[LocationDatabase]:
        """The trace replayed from ``db`` (see :func:`walk_snapshots`)."""
        return walk_snapshots(db, self.moves)

    def arrival_batches(self) -> List[List[Tuple[float, str, str]]]:
        """Arrivals grouped by snapshot window: batch *i* holds the
        arrivals served under snapshot *i* (before ``moves[i]`` lands)."""
        batches: List[List[Tuple[float, str, str]]] = [
            [] for __ in range(self.n_snapshots)
        ]
        for arrival in self.arrivals:
            index = min(
                int(arrival[0] / self.snapshot_period), self.n_snapshots - 1
            )
            batches[index].append(arrival)
        return batches


def _check_categories(categories: Tuple[str, ...]) -> None:
    if not categories:
        raise WorkloadError("schedule needs at least one POI category")


def poisson_schedule(
    users: List[str],
    rate_per_user: float,
    duration: float,
    categories: Tuple[str, ...] = ("rest", "groc", "cinema"),
    seed=0,
) -> List[Tuple[float, str, str]]:
    """A deterministic Poisson arrival schedule: (time, user, category).

    One global process of rate ``len(users) · rate_per_user`` with the
    user and category of each arrival drawn uniformly.  Map each entry
    to ``(time, user, [("poi", category)])`` and
    :func:`repro.serving.gateway.serve_scheduled` replays it through the
    real gateway — on a :class:`~repro.robustness.aio.VirtualTimeLoop`
    for capacity sweeps, on the wall-clock loop to measure them.
    """
    if rate_per_user <= 0:
        raise WorkloadError("rate_per_user must be > 0")
    if duration <= 0:
        raise WorkloadError("duration must be > 0")
    if not users:
        raise WorkloadError("schedule needs at least one user")
    _check_categories(categories)
    rng = _rng(seed)
    global_rate = len(users) * rate_per_user
    schedule: List[Tuple[float, str, str]] = []
    t = float(rng.exponential(1.0 / global_rate))
    while t < duration:
        user = users[int(rng.integers(len(users)))]
        category = categories[int(rng.integers(len(categories)))]
        schedule.append((t, user, category))
        t += float(rng.exponential(1.0 / global_rate))
    return schedule


def trajectory_schedule(
    db: LocationDatabase,
    fraction: float,
    region: Rect,
    *,
    rate_per_user: float,
    duration: float,
    snapshot_period: float,
    max_distance: float = 200.0,
    categories: Tuple[str, ...] = ("rest", "groc", "cinema"),
    seed: int = 0,
) -> TrajectorySchedule:
    """Build a :class:`TrajectorySchedule` from one seed.

    The mobility trace is drawn first, then the arrival stream, both
    from the same generator — so a given ``seed`` fixes the entire
    workload, and two consumers (defended vs undefended, blackout vs
    swap) replay identical traces.
    """
    if snapshot_period <= 0:
        raise WorkloadError("snapshot_period must be > 0")
    if duration <= 0:
        raise WorkloadError("duration must be > 0")
    _check_categories(categories)
    rng = _rng(seed)
    n_boundaries = max(0, math.ceil(duration / snapshot_period) - 1)
    moves = tuple(
        movement_stream(
            db, fraction, region, n_boundaries, max_distance, rng
        )
    )
    arrivals = tuple(
        poisson_schedule(
            db.user_ids(),
            rate_per_user,
            duration,
            categories=categories,
            seed=rng,
        )
    )
    return TrajectorySchedule(
        region=region,
        duration=float(duration),
        snapshot_period=float(snapshot_period),
        arrivals=arrivals,
        moves=moves,
    )
