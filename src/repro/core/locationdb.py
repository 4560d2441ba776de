"""The location database (paper §II-A).

The MPC's view of all device locations is modeled as a single relation
``D = {userid, locx, locy}``.  The database is updated periodically; a
sequence of :class:`LocationDatabase` instances models the snapshots.

The relation is held as columns: an id table (user id by row, and the
id → row map built once per table) and one read-only ``(n, 2)`` float64
coordinate array.  Bulk consumers (tree builds, restrictions, snapshot
comparisons) work on rows and the array, never per user; snapshots over
the same rows (:meth:`LocationDatabase.with_moves`) share one id table.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import AbstractSet, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ReproError
from .geometry import Point, Rect, bounding_rect

__all__ = ["LocationDatabase", "SnapshotSequence"]


class _IdTable:
    """User ids by row, and the id → row map built on first use; shared
    by every snapshot over the same rows and never mutated."""

    def __init__(self, ids: List[str]):
        self.ids = ids

    @cached_property
    def row(self) -> Dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))


def _table_of(ids: List[str]) -> _IdTable:
    """The id table of ``ids``; a repeated id is refused."""
    table = _IdTable(ids)
    if len(table.row) != len(ids):
        seen: set = set()
        for key in ids:
            if key in seen:
                raise ReproError(f"duplicate user id in location database: {key!r}")
            seen.add(key)
    return table


class LocationDatabase:
    """One snapshot of the relation ``{userid, locx, locy}``.

    User ids are unique within a snapshot (a device has one location at a
    time).  Instances are immutable: the coordinate array is read-only,
    and moves between snapshots produce a *new* database via
    :meth:`with_moves`.
    """

    def __init__(self, rows: Iterable[Tuple[str, float, float]] = ()):
        ids: List[str] = []
        xy: List[Tuple[float, float]] = []
        for user_id, x, y in rows:
            ids.append(str(user_id))
            xy.append((float(x), float(y)))
        self._init(_table_of(ids), np.array(xy, dtype=np.float64).reshape(-1, 2))

    def _init(self, table: _IdTable, coords: np.ndarray, origin=None) -> None:
        coords.flags.writeable = False
        self._table = table
        self._coords: np.ndarray = coords  # taint: location
        #: a :meth:`take`'s (weak ref to the parent's table, rows in it).
        self._origin: Optional[Tuple[weakref.ref, np.ndarray]] = origin

    @classmethod
    def _of(cls, table: _IdTable, coords: np.ndarray, origin=None) -> "LocationDatabase":
        out = cls.__new__(cls)
        out._init(table, coords, origin)
        return out

    def __reduce__(self):
        return (type(self).from_columns, (self._table.ids, self._coords))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_points(cls, points: Mapping[str, Point]) -> "LocationDatabase":
        """Build from a ``{user_id: Point}`` mapping."""
        return cls((uid, p.x, p.y) for uid, p in points.items())

    @classmethod
    def from_array(cls, coords: np.ndarray, prefix: str = "u") -> "LocationDatabase":
        """Build from an ``(n, 2)`` coordinate array, ids ``u0..u{n-1}``."""
        coords = np.array(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ReproError(f"expected an (n, 2) array, got shape {coords.shape}")
        return cls._of(_IdTable([f"{prefix}{i}" for i in range(len(coords))]), coords)

    @classmethod
    def from_columns(
        cls, user_ids: Sequence[str], coords: np.ndarray
    ) -> "LocationDatabase":
        """Build from an id column and the ``(n, 2)`` coordinate array
        whose row ``r`` locates ``user_ids[r]``.  The array is copied;
        repeated ids and a shape mismatch are refused."""
        ids = list(map(str, user_ids))
        coords = np.array(coords, dtype=np.float64)
        if coords.shape != (len(ids), 2):
            raise ReproError(
                f"expected a ({len(ids)}, 2) array for {len(ids)} ids, "
                f"got shape {coords.shape}"
            )
        return cls._of(_table_of(ids), coords)

    # -- relational access -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._table.ids)

    def __contains__(self, user_id: str) -> bool:
        return str(user_id) in self._table.row

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.ids)

    def user_ids(self) -> List[str]:
        """All user ids, in row order (deterministic)."""
        return list(self._table.ids)

    def id_column(self) -> List[str]:
        """User ids by row: the id table's list, shared with every
        snapshot over the same rows (read only; builds no id map)."""
        return self._table.ids

    def index(self) -> Tuple[List[str], Dict[str, int]]:
        """The id table: user id by row, and the id → row map.  Both
        are shared with every snapshot over the same rows; read only."""
        return self._table.ids, self._table.row

    def location_of(self, user_id: str) -> Optional[Point]:
        """The recorded location of ``user_id``, or None if absent."""
        row = self._table.row.get(str(user_id))
        if row is None:
            return None
        return Point(*self._coords[row].tolist())

    def has_users(self, user_ids: AbstractSet[str]) -> bool:
        """True when ``user_ids`` (a set or a dict's key view) holds
        exactly this snapshot's user ids."""
        table = self._table
        if "row" in vars(table):  # built: one C-level key-set comparison
            return table.row.keys() == user_ids
        return len(user_ids) == len(table.ids) and all(map(user_ids.__contains__, table.ids))

    def agrees_with(self, other: "LocationDatabase") -> bool:
        """True when every user of ``other`` is located here exactly as
        there: one array comparison, row for row when both share an id
        table (:meth:`with_moves`), through :meth:`row_map` otherwise."""
        if other._table is self._table:
            return np.array_equal(self._coords, other._coords)
        rows = self.row_map(other)
        return bool(np.all(rows >= 0)) and np.array_equal(
            self._coords[rows], other._coords
        )

    def row_map(self, other: "LocationDatabase") -> np.ndarray:
        """Each row of ``other`` as a row of this snapshot (-1: an id
        this snapshot lacks): the same rows when both share an id
        table, the taken rows when ``other`` is a :meth:`take` of this
        table (weakly referenced), the id map otherwise."""
        if other._table is self._table:
            return np.arange(len(self))
        origin = other._origin
        if origin is not None and origin[0]() is self._table:
            return origin[1]
        row = self._table.row
        return np.fromiter(
            (row.get(key, -1) for key in other._table.ids), np.intp, len(other)
        )

    def _columns(self) -> List[List[float]]:
        return self._coords.T.tolist()

    def rows(self) -> Iterator[Tuple[str, float, float]]:
        """Iterate relation rows ``(userid, locx, locy)``."""
        return zip(self._table.ids, *self._columns())

    def items(self) -> Iterator[Tuple[str, Point]]:
        """Iterate ``(user_id, Point)`` pairs."""
        return zip(self._table.ids, map(Point, *self._columns()))

    def points(self) -> List[Point]:
        """All locations (order matches :meth:`user_ids`)."""
        return list(map(Point, *self._columns()))

    def coords_array(self) -> np.ndarray:
        """All locations as a fresh, writable ``(n, 2)`` float array
        (row order)."""
        return self._coords.copy()

    def _inside(self, region: Rect) -> np.ndarray:
        """Row mask of the users inside ``region`` (closed)."""
        x, y = self._coords.T
        return (region.x1 <= x) & (x <= region.x2) & (region.y1 <= y) & (y <= region.y2)

    def users_in(self, region: Rect) -> List[str]:
        """User ids whose location lies inside ``region`` (closed)."""
        ids = self._table.ids
        return [ids[row] for row in np.flatnonzero(self._inside(region)).tolist()]

    def count_in(self, region: Rect) -> int:
        """Number of users inside ``region``."""
        return int(np.count_nonzero(self._inside(region)))

    def extent(self) -> Rect:
        """Minimum bounding rectangle of all locations."""
        if not len(self):
            return bounding_rect(())
        return Rect(*self._coords.min(axis=0).tolist(), *self._coords.max(axis=0).tolist())

    # -- snapshot evolution ----------------------------------------------------

    def with_moves(self, moves: Mapping[str, Point]) -> "LocationDatabase":
        """A new snapshot where the users in ``moves`` are relocated.

        Unknown user ids are rejected — a move must concern a device the
        MPC already tracks.  The new snapshot shares this one's id table
        and gets its own copy of the coordinates.
        """
        rows = list(map(self._table.row.get, map(str, moves)))
        if None in rows:
            unknown = [uid for uid, row in zip(moves, rows) if row is None]
            raise ReproError(f"cannot move unknown users: {unknown[:5]!r}")
        coords = self._coords.copy()
        if rows:
            coords[rows] = [(p.x, p.y) for p in moves.values()]
        return self._of(self._table, coords, self._origin)

    def take(self, rows: Sequence[int]) -> "LocationDatabase":
        """The restriction of this snapshot to ``rows``, in that order.

        A row out of range or taken twice is refused.  Taking every row
        in order shares this snapshot's id table.
        """
        rows = np.array(rows, dtype=np.intp).reshape(-1)
        n = len(self)
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise ReproError(f"row out of range for a location database of {n}")
        increasing = bool(np.all(rows[1:] > rows[:-1]))
        if not increasing and len(np.unique(rows)) != len(rows):
            raise ReproError("duplicate user id in location database subset")
        if increasing and len(rows) == n:
            return self._of(self._table, self._coords, self._origin)
        rows.flags.writeable = False
        ids = self._table.ids
        return self._of(
            _IdTable(list(map(ids.__getitem__, rows.tolist()))),
            self._coords[rows],
            (weakref.ref(self._table), rows),
        )

    def subset(self, user_ids: Sequence[str]) -> "LocationDatabase":
        """The restriction of this snapshot to ``user_ids``, in that
        order; an unknown id raises :class:`KeyError`."""
        return self.take(list(map(self._table.row.__getitem__, map(str, user_ids))))

    def restricted_to(self, region: Rect) -> "LocationDatabase":
        """The restriction of this snapshot to users inside ``region``."""
        return self.take(np.flatnonzero(self._inside(region)))

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
        # Every snapshot is a with_moves of the first: one id table.
        prev, curr = self._snapshots[index - 1], self._snapshots[index]
        changed = np.flatnonzero((prev._coords != curr._coords).any(axis=1))
        return list(map(curr._table.ids.__getitem__, changed.tolist()))
