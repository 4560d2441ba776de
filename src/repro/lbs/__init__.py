"""The privacy-conscious LBS substrate (§II): location database, POIs,
the untrusted provider, the CSP pipeline, caching, and user mobility."""

from .cache import AnswerCache, CacheStats
from .locationdb import LocationDatabase, SnapshotSequence
from .mobility import (
    TrajectorySchedule,
    movement_stream,
    poisson_schedule,
    random_moves,
    trajectory_schedule,
    walk_snapshots,
)
from .pipeline import (
    CSP,
    MobilePositioningCenter,
    PreparedRequest,
    ServedRequest,
)
from .poi import POI, POIDatabase, generate_pois
from .provider import LBSProvider, QueryAnswer

__all__ = [
    "AnswerCache",
    "CSP",
    "CacheStats",
    "PreparedRequest",
    "LBSProvider",
    "LocationDatabase",
    "MobilePositioningCenter",
    "POI",
    "POIDatabase",
    "QueryAnswer",
    "ServedRequest",
    "SnapshotSequence",
    "TrajectorySchedule",
    "generate_pois",
    "movement_stream",
    "poisson_schedule",
    "random_moves",
    "trajectory_schedule",
    "walk_snapshots",
]
