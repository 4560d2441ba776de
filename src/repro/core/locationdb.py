"""The location database (paper §II-A).

The MPC's view of all device locations is modeled as a single relation
``D = {userid, locx, locy}``.  The database is updated periodically; a
sequence of :class:`LocationDatabase` instances models the snapshots.

The class is deliberately small and dictionary-backed: every algorithm in
the paper consumes it either as "all users with locations" or via point
lookups, and both must be O(1)/O(n).
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple
)

import numpy as np

from .errors import ReproError
from .geometry import Point, Rect, bounding_rect

__all__ = ["LocationDatabase", "SnapshotSequence"]


class LocationDatabase:
    """One snapshot of the relation ``{userid, locx, locy}``.

    User ids are unique within a snapshot (a device has one location at a
    time).  Instances are immutable from the caller's perspective; moves
    between snapshots produce a *new* database via :meth:`with_moves`.
    """

    def __init__(self, rows: Iterable[Tuple[str, float, float]] = ()):
        self._locations: Dict[str, Point] = {}  # taint: location
        for user_id, x, y in rows:
            key = str(user_id)
            if key in self._locations:
                raise ReproError(f"duplicate user id in location database: {key!r}")
            self._locations[key] = Point(float(x), float(y))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_points(cls, points: Mapping[str, Point]) -> "LocationDatabase":
        """Build from a ``{user_id: Point}`` mapping."""
        return cls((uid, p.x, p.y) for uid, p in points.items())

    @classmethod
    def from_array(cls, coords: np.ndarray, prefix: str = "u") -> "LocationDatabase":
        """Build from an ``(n, 2)`` coordinate array, ids ``u0..u{n-1}``."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ReproError(f"expected an (n, 2) array, got shape {coords.shape}")
        return cls(
            (f"{prefix}{i}", float(x), float(y))
            for i, (x, y) in enumerate(coords)
        )

    # -- relational access -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, user_id: str) -> bool:
        return str(user_id) in self._locations

    def __iter__(self) -> Iterator[str]:
        return iter(self._locations)

    def user_ids(self) -> List[str]:
        """All user ids, in insertion order (deterministic)."""
        return list(self._locations)

    def location_of(self, user_id: str) -> Optional[Point]:
        """The recorded location of ``user_id``, or None if absent."""
        return self._locations.get(str(user_id))

    def has_users(self, user_ids: AbstractSet[str]) -> bool:
        """True when ``user_ids`` (a set or a dict's key view) holds
        exactly this snapshot's user ids."""
        return self._locations.keys() == user_ids

    def agrees_with(self, other: "LocationDatabase") -> bool:
        """True when every user of ``other`` is located here exactly as
        there.  One list comparison: identity-fast when ``other`` is a
        :meth:`subset` of this snapshot (shared points), value equality
        otherwise."""
        theirs = other._locations
        return list(map(self._locations.get, theirs)) == list(theirs.values())

    def rows(self) -> Iterator[Tuple[str, float, float]]:
        """Iterate relation rows ``(userid, locx, locy)``."""
        for uid, p in self._locations.items():
            yield (uid, p.x, p.y)

    def items(self) -> Iterator[Tuple[str, Point]]:
        """Iterate ``(user_id, Point)`` pairs."""
        return iter(self._locations.items())

    def points(self) -> List[Point]:
        """All locations (order matches :meth:`user_ids`)."""
        return list(self._locations.values())

    def coords_array(self) -> np.ndarray:
        """All locations as an ``(n, 2)`` float array (DP fast path)."""
        if not self._locations:
            return np.empty((0, 2), dtype=float)
        return np.array([(p.x, p.y) for p in self._locations.values()], dtype=float)

    def users_in(self, region: Rect) -> List[str]:
        """User ids whose location lies inside ``region`` (closed)."""
        return [uid for uid, p in self._locations.items() if region.contains(p)]

    def count_in(self, region: Rect) -> int:
        """Number of users inside ``region``."""
        return sum(1 for p in self._locations.values() if region.contains(p))

    def extent(self) -> Rect:
        """Minimum bounding rectangle of all locations."""
        return bounding_rect(self._locations.values())

    # -- snapshot evolution ----------------------------------------------------

    def with_moves(self, moves: Mapping[str, Point]) -> "LocationDatabase":
        """A new snapshot where the users in ``moves`` are relocated.

        Unknown user ids are rejected — a move must concern a device the
        MPC already tracks.  The (immutable) points of unmoved users are
        shared, as :meth:`subset` shares them; only moved users get a
        new point.
        """
        unknown = [uid for uid in moves if str(uid) not in self._locations]
        if unknown:
            raise ReproError(f"cannot move unknown users: {unknown[:5]!r}")
        updated = dict(self._locations)
        for uid, p in moves.items():
            updated[str(uid)] = Point(float(p.x), float(p.y))
        out = LocationDatabase()
        out._locations = updated
        return out

    def subset(self, user_ids: Sequence[str]) -> "LocationDatabase":
        """The restriction of this snapshot to ``user_ids``; the
        (immutable) points are shared, not rebuilt."""
        locations = self._locations
        out = LocationDatabase()
        out._locations = {str(uid): locations[str(uid)] for uid in user_ids}
        if len(out._locations) != len(user_ids):
            raise ReproError("duplicate user id in location database subset")
        return out

    def restricted_to(self, region: Rect) -> "LocationDatabase":
        """The restriction of this snapshot to users inside ``region``."""
        return self.subset(self.users_in(region))

    def __repr__(self) -> str:
        return f"LocationDatabase(n={len(self)})"


class SnapshotSequence:
    """An ordered sequence of location-database snapshots (§II-A).

    The CSP refreshes the location database periodically; requests are
    evaluated against the snapshot current at send time.  This wrapper
    mainly exists so the incremental-maintenance experiment has a natural
    carrier for "snapshot t → snapshot t+1" deltas.
    """

    def __init__(self, initial: LocationDatabase):
        self._snapshots: List[LocationDatabase] = [initial]

    @property
    def current(self) -> LocationDatabase:
        return self._snapshots[-1]

    def __len__(self) -> int:
        return len(self._snapshots)

    def __getitem__(self, index: int) -> LocationDatabase:
        return self._snapshots[index]

    def advance(self, moves: Mapping[str, Point]) -> LocationDatabase:
        """Append a new snapshot with the given relocations; return it."""
        nxt = self.current.with_moves(moves)
        self._snapshots.append(nxt)
        return nxt

    def moved_users(self, index: int) -> List[str]:
        """Users whose location changed between snapshots ``index-1`` and
        ``index``."""
        if index <= 0 or index >= len(self._snapshots):
            raise ReproError(f"snapshot index {index} out of range")
        prev, curr = self._snapshots[index - 1], self._snapshots[index]
        return [
            uid
            for uid in curr.user_ids()
            if prev.location_of(uid) != curr.location_of(uid)
        ]
