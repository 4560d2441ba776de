"""The per-user served-cloak ledger backing the continuity constraint.

Every user id the ledger meets is **interned**: it gets the next slot of
an append-only table (``_traj_ids``), and from then on the user *and*
every candidate-sender set naming the user speak of that ``int32``
index.  An index never changes meaning for the life of the ledger, so
indexes built against it (the constraint's per-policy candidate arrays)
only ever need extending.

Two structures per interned user, deliberately separate:

* the **running intersection** (``_traj_surviving``) — the sorted
  ``int32`` array of candidate senders consistent with *every* cloak
  served to this user so far.  This is the constraint's only input: it
  is exactly what a trajectory-linking attacker can compute, it only
  shrinks, and it is bounded by the size of the user's first candidate
  set — so keeping the full-history intersection costs O(first group)
  per user, not O(history).  Arrays are read-only and replaced whole on
  every fold, so one handed out by :meth:`prior` never changes.
* a bounded **window** of recent serves, held as columns with one ring
  slot per window position and one row per *served* user, in the order
  of their first serve (``_traj_users``; ``_traj_row`` maps a user to
  its row, ``_traj_count`` counts its serves and so places the ring) —
  observability: which cloaks were served, at what serial
  (``_traj_serial``), how large their candidate sets were
  (``_traj_candidates``), and whether the solver had to widen
  (``_traj_widened``).  Interned users never served cost no window
  storage.  The window never feeds the constraint; trimming it can
  therefore never weaken the defense.

:meth:`record`, :meth:`surviving` and :meth:`entries` are string-level
views over the same array fold (:meth:`fold`), for tests and callers
that speak user ids.

State round-trips through :meth:`to_state`/:meth:`from_state` as a
handful of plain numpy arrays (no object arrays, so it loads without
pickle; the intern table is UTF-8 JSON bytes as ``uint8``, the way
:class:`~repro.trees.flat.SharedFlatTree` ships user ids): the journal
writes them under ``trajectory/`` keys into each checkpoint's raw
``.npz``, whose checksum the journal's intent record carries, and the
fleet pickles them to a worker on respawn and epoch swaps.  A quorum journal's delta commits carry
:meth:`delta_state` instead — the rows of the users folded since the
previous delta and the intern table's new tail — which
:meth:`merge_delta` applies on restore.

TJ001 (:mod:`repro.analysis.rules.trajectory`) enforces that the
``_traj_*`` structures are mutated only inside this package: serving
layers consume decisions, they never edit history.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.errors import ReproError
from ..core.geometry import Rect
from ..core.serialization import decode_ids, encode_ids

__all__ = ["LedgerEntry", "TrajectoryLedger"]

#: 3: ``ids`` holds the intern table as UTF-8 JSON bytes (2: ``<U``).
_STATE_VERSION = 3

#: the arrays of a :meth:`TrajectoryLedger.to_state` snapshot.
_STATE_KEYS = (
    "meta", "ids", "users", "count", "surviving_ptr", "surviving",
    "serial", "cloak", "candidates", "widened",
)

@dataclass(frozen=True)
class LedgerEntry:
    """One served cloak in a user's history window."""

    #: the snapshot/epoch serial the request was served under.
    serial: int
    #: the cloak that went over the wire.
    cloak: Rect
    #: size of the candidate-sender set of that cloak at serving time.
    candidates: int
    #: True when the continuity solver had to widen past the policy's
    #: fine cloak to keep the intersection ≥ k.
    widened: bool


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Rows:
    """A checked :meth:`TrajectoryLedger.to_state` or
    :meth:`~TrajectoryLedger.delta_state`, parsed into its rows."""

    __slots__ = ("window", "recorded", "since", "ids", "users", "ptr",
                 "flat", "count", "columns", "depth")

    @classmethod
    def parse(cls, state: Mapping[str, np.ndarray], delta: bool) -> "_Rows":
        """Raises :class:`ReproError` on a state of another version or
        kind, or with inconsistent arrays."""
        try:
            arrays = {key: np.asarray(state[key]) for key in _STATE_KEYS}
        except (KeyError, TypeError) as exc:
            raise ReproError(
                f"trajectory ledger state lacks {exc}"
            ) from None
        meta = arrays["meta"]
        version = int(meta[0]) if meta.shape == (4 if delta else 3,) else -1
        if version != _STATE_VERSION:
            raise ReproError(
                f"unknown trajectory ledger state version {version!r}"
            )
        rows = cls()
        rows.window, rows.recorded = int(meta[1]), int(meta[2])
        rows.since = int(meta[3]) if delta else 0
        window, ids = rows.window, decode_ids(
            arrays["ids"], "trajectory ledger intern table"
        )
        size = rows.since + len(ids)
        users = arrays["users"].astype(np.int64)
        ptr = arrays["surviving_ptr"].astype(np.int64)
        flat = arrays["surviving"].astype(np.int64)
        count = arrays["count"].astype(np.int64)
        n = len(users)
        # Live ring slots per user.
        depth = np.clip(count, 0, max(window, 1))
        live = int(depth.sum())
        columns = {
            "serial": (live,), "cloak": (live, 4), "candidates": (live,),
            "widened": (live,),
        }
        if (
            window < 1
            or rows.since < 0
            or len(ptr) != n + 1
            or count.shape != (n,)
            or np.any(count < 1)
            or any(arrays[key].shape != shape for key, shape in columns.items())
            or (n and (ptr[0] != 0 or ptr[-1] != len(flat)
                       or np.any(np.diff(ptr) < 0)))
            or np.any((users < 0) | (users >= size))
            or np.any((flat < 0) | (flat >= size))
            or len(set(users.tolist())) != n
            or len(set(ids)) != len(ids)
            # each user's intersection strictly increasing (sorted, unique)
            or not np.all(
                (np.diff(flat) > 0)
                | (np.diff(np.repeat(np.arange(n), np.diff(ptr))) != 0)
            )
        ):
            raise ReproError("trajectory ledger state arrays are inconsistent")
        rows.ids, rows.users, rows.ptr = ids, users, ptr
        rows.flat, rows.count, rows.depth = flat.astype(np.int32), count, depth
        rows.columns = {key: arrays[key] for key in columns}
        return rows

    def held(self, i: int) -> np.ndarray:
        """Row ``i``'s intersection (a view of one fresh array)."""
        return self.flat[self.ptr[i]:self.ptr[i + 1]]


class TrajectoryLedger:
    """Bounded per-user history of served cloaks + running intersections."""

    def __init__(self, window: int = 16):
        if window < 1:
            raise ReproError(f"ledger window must be ≥ 1, got {window}")
        self.window = window
        #: the intern table: index → user id (append-only).
        self._traj_ids: List[str] = []  # guarded-by: self._lock
        self._traj_index: Dict[str, int] = {}  # guarded-by: self._lock
        #: per user: sorted read-only int32 intersection (None: no serve).
        self._traj_surviving: List[Optional[np.ndarray]] = []  # guarded-by: self._lock
        #: per user: its window row (-1: no serve).
        self._traj_row: List[int] = []  # guarded-by: self._lock
        #: per window row: its user.
        self._traj_users: List[int] = []  # guarded-by: self._lock
        self._traj_count = np.zeros(0, dtype=np.int64)  # guarded-by: self._lock
        self._traj_serial = np.zeros((0, window), dtype=np.int64)  # guarded-by: self._lock
        self._traj_cloak = np.zeros((0, window, 4), dtype=np.float64)  # guarded-by: self._lock
        self._traj_candidates = np.zeros((0, window), dtype=np.int32)  # guarded-by: self._lock
        self._traj_widened = np.zeros((0, window), dtype=bool)  # guarded-by: self._lock
        #: users folded since the last :meth:`delta_state`.
        self._traj_dirty: Set[int] = set()  # guarded-by: self._lock
        #: intern table length at the last :meth:`delta_state`.
        self._traj_journalled = 0  # guarded-by: self._lock
        #: bumped whenever :meth:`take` or :meth:`adopt_state` replaces
        #: the intern table.
        self._traj_generation = 0  # guarded-by: self._lock
        #: the last :meth:`intern_table` call: (id table, generation,
        #: its indices).
        self._traj_table: Optional[Tuple[List[str], int, np.ndarray]] = None  # guarded-by: self._lock
        #: total records ever accepted (monotone; survives trimming).
        self.recorded = 0
        self._lock = threading.Lock()

    # -- interning -----------------------------------------------------------

    def _intern_locked(self, user_id: str) -> int:
        index = self._traj_index.get(user_id)
        if index is None:
            index = self._traj_index[user_id] = len(self._traj_ids)
            self._traj_ids.append(user_id)
            self._traj_surviving.append(None)
            self._traj_row.append(-1)
        return index

    def _allocate_locked(self, rows: int, keep: int = 0) -> None:
        """Fresh window columns of ``rows`` rows and ``self.window``
        slots, holding the first ``keep`` rows of the current ones."""

        def fresh(column: np.ndarray, *shape: int) -> np.ndarray:
            grown = np.zeros((rows,) + shape, dtype=column.dtype)
            if keep:
                grown[:keep] = column[:keep]
            return grown

        window = self.window
        self._traj_count = fresh(self._traj_count)
        self._traj_serial = fresh(self._traj_serial, window)
        self._traj_cloak = fresh(self._traj_cloak, window, 4)
        self._traj_candidates = fresh(self._traj_candidates, window)
        self._traj_widened = fresh(self._traj_widened, window)

    def _row_locked(self, user: int) -> int:
        """User ``user``'s window row, appending one on its first serve."""
        row = self._traj_row[user]
        if row < 0:
            row = self._traj_row[user] = len(self._traj_users)
            self._traj_users.append(user)
            if row >= len(self._traj_count):
                self._allocate_locked(max(64, 2 * row), keep=row)
        return row

    def _write_locked(self, rows: _Rows, targets: np.ndarray) -> None:
        """Write parsed ``rows`` into window rows ``targets``."""
        slots = np.arange(rows.window) < rows.depth[:, None]
        self._traj_count[targets] = rows.count
        for key, column in (
            ("serial", self._traj_serial),
            ("cloak", self._traj_cloak),
            ("candidates", self._traj_candidates),
            ("widened", self._traj_widened),
        ):
            block = np.zeros((len(targets),) + column.shape[1:], column.dtype)
            block[slots] = rows.columns[key]
            column[targets] = block

    def _intern_many_locked(self, user_ids: Sequence[str]) -> np.ndarray:
        index = self._traj_index
        try:
            found = list(map(index.__getitem__, user_ids))
        except KeyError:
            found = [self._intern_locked(str(uid)) for uid in user_ids]
        return np.array(found, dtype=np.int32)

    def intern(self, user_ids: Sequence[str]) -> np.ndarray:
        """The ``int32`` indices of ``user_ids``, interning new ones."""
        with self._lock:
            return self._intern_many_locked(user_ids)

    def intern_table(self, ids: List[str], order: np.ndarray) -> np.ndarray:
        """The read-only ``int32`` indices of a snapshot's id table
        (:meth:`~repro.core.locationdb.LocationDatabase.index`, shared
        by every snapshot over the same rows and never mutated); ids not
        yet interned are interned in the row order ``order``.
        Remembered for the last table until :meth:`take` or
        :meth:`adopt_state` replaces the intern table."""
        with self._lock:
            cached = self._traj_table
            generation = self._traj_generation
            if cached is None or cached[0] is not ids or cached[1] != generation:
                indices = np.empty(len(ids), dtype=np.int32)
                indices[order] = self._intern_many_locked(
                    list(map(ids.__getitem__, order.tolist()))
                )
                cached = self._traj_table = (ids, generation, _frozen(indices))
            return cached[2]

    def index(self, user_id: str) -> int:
        """The index of one user id, interning it when new."""
        with self._lock:
            return self._intern_locked(user_id)

    def size(self) -> int:
        """How many user ids are interned (indices are ``< size()``)."""
        with self._lock:
            return len(self._traj_ids)

    def stamp(self) -> Tuple[int, int]:
        """``(size, generation)``: changes when an id is interned and
        when :meth:`take` or :meth:`adopt_state` replaces the intern
        table, so indices derived from the table are stale."""
        with self._lock:
            return len(self._traj_ids), self._traj_generation

    def names(self, indices: Iterable[int]) -> Tuple[str, ...]:
        """The user ids behind ledger indices, in the order given."""
        with self._lock:
            ids = self._traj_ids
            return tuple(ids[i] for i in np.asarray(indices).tolist())

    # -- recording -----------------------------------------------------------

    def prior(self, user: int) -> Optional[np.ndarray]:
        """User ``user``'s surviving intersection as a sorted read-only
        ``int32`` array of ledger indices, or ``None`` before any serve."""
        with self._lock:
            return self._traj_surviving[user]

    def fold(
        self,
        user: int,
        cloak: Rect,
        surviving: np.ndarray,
        candidates: int,
        *,
        serial: int = 0,
        widened: bool = False,
        seen: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Store one served cloak for interned user ``user``.

        ``surviving`` is the user's intersection once the cloak is
        served — ``seen`` (the :meth:`prior` it was computed from)
        intersected with the cloak's ``candidates``-sized candidate set,
        sorted ``int32``.  It is stored as it is, unless another fold
        for this user landed since ``seen`` was read: then it is
        intersected with the newer history, so a race can only shrink
        the stored set, never lose a serve.  Returns what was stored.
        """
        with self._lock:
            current = self._traj_surviving[user]
            if current is not seen and current is not None:
                surviving = np.intersect1d(
                    current, surviving, assume_unique=True
                )
            if surviving.flags.writeable:
                surviving = _frozen(surviving)
            self._traj_surviving[user] = surviving
            self._traj_dirty.add(user)
            row = self._row_locked(user)
            count = int(self._traj_count[row])
            slot = count % self.window
            self._traj_serial[row, slot] = serial
            self._traj_cloak[row, slot] = (
                cloak.x1, cloak.y1, cloak.x2, cloak.y2
            )
            self._traj_candidates[row, slot] = candidates
            self._traj_widened[row, slot] = widened
            self._traj_count[row] = count + 1
            self.recorded += 1
        return surviving

    def record(
        self,
        user_id: str,
        cloak: Rect,
        candidates: Iterable[str],
        *,
        serial: int = 0,
        widened: bool = False,
    ) -> FrozenSet[str]:
        """Fold one served cloak, candidates given as user ids.

        Returns the updated surviving intersection (what the linking
        attacker knows after observing this request).
        """
        with self._lock:
            user = self._intern_locked(str(user_id))
            members = np.unique(
                np.array(
                    [self._intern_locked(str(c)) for c in candidates],
                    dtype=np.int32,
                )
            )
            prior = self._traj_surviving[user]
        after = members if prior is None else np.intersect1d(
            prior, members, assume_unique=True
        )
        stored = self.fold(
            user,
            cloak,
            after,
            len(members),
            serial=int(serial),
            widened=bool(widened),
            seen=prior,
        )
        return frozenset(self.names(stored))

    # -- queries -------------------------------------------------------------

    def surviving(self, user_id: str) -> Optional[FrozenSet[str]]:
        """The full-history intersection, or ``None`` before any request."""
        with self._lock:
            user = self._traj_index.get(str(user_id))
            if user is None or self._traj_surviving[user] is None:
                return None
            ids = self._traj_ids
            return frozenset(
                ids[i] for i in self._traj_surviving[user].tolist()
            )

    def entries(self, user_id: str) -> Tuple[LedgerEntry, ...]:
        """The user's window, oldest first."""
        with self._lock:
            user = self._traj_index.get(str(user_id))
            row = -1 if user is None else self._traj_row[user]
            if row < 0:
                return ()
            count = int(self._traj_count[row])
            slots = [
                step % self.window
                for step in range(max(0, count - self.window), count)
            ]
            serial = self._traj_serial[row, slots].tolist()
            cloak = self._traj_cloak[row, slots].tolist()
            candidates = self._traj_candidates[row, slots].tolist()
            widened = self._traj_widened[row, slots].tolist()
        return tuple(
            LedgerEntry(
                serial=int(s), cloak=Rect(*c), candidates=int(n), widened=w
            )
            for s, c, n, w in zip(serial, cloak, candidates, widened)
        )

    def users(self) -> Tuple[str, ...]:
        with self._lock:
            ids = self._traj_ids
            return tuple(sorted(ids[u] for u in self._traj_users))

    def __len__(self) -> int:
        with self._lock:
            return len(self._traj_users)

    def widened_count(self) -> int:
        """Windowed observability: how many recent serves were widened."""
        with self._lock:
            rows = len(self._traj_users)
            held = np.minimum(self._traj_count[:rows], self.window)
            # A slot holds a live entry iff it was written at least once.
            live = np.arange(self.window)[None, :] < held[:, None]
            return int(np.count_nonzero(self._traj_widened[:rows] & live))

    # -- serialization -------------------------------------------------------

    def _state_locked(
        self, rows: np.ndarray, shard: bool = False, since: Optional[int] = None
    ) -> Dict[str, np.ndarray]:
        users = [self._traj_users[r] for r in rows.tolist()]
        held = [self._traj_surviving[u] for u in users]
        sizes = np.array([len(s) for s in held], dtype=np.int64)  # type: ignore[arg-type]
        indices = np.array(users, dtype=np.int32)
        surviving = np.concatenate(held or [np.empty(0, np.int32)])  # type: ignore[arg-type]
        ids = self._traj_ids
        meta = [_STATE_VERSION, self.window, self.recorded]
        if shard:
            # Keep only the ids the rows name, renumbered in table order;
            # ``named`` is sorted, so renumbering keeps each row sorted.
            named = np.union1d(indices, surviving)
            renumber = np.zeros(len(ids), dtype=np.int32)
            renumber[named] = np.arange(len(named), dtype=np.int32)
            ids = [ids[i] for i in named.tolist()]
            indices, surviving = renumber[indices], renumber[surviving]
        elif since is not None:
            # A delta: the table's tail from ``since`` on, indices as is.
            ids = ids[since:]
            meta.append(since)
        # Only live ring slots leave the ledger: a ring fills from slot 0.
        count = self._traj_count[rows]
        live = np.arange(self.window) < np.minimum(count, self.window)[:, None]
        return {
            "meta": np.array(meta, dtype=np.int64),
            "ids": encode_ids(ids),
            "users": indices,
            "count": count,
            "surviving_ptr": np.concatenate([[0], np.cumsum(sizes)]),
            "surviving": surviving,
            "serial": self._traj_serial[rows][live],
            "cloak": self._traj_cloak[rows][live],
            "candidates": self._traj_candidates[rows][live],
            "widened": self._traj_widened[rows][live],
        }

    def to_state(self) -> Dict[str, np.ndarray]:
        """The ledger as fresh arrays (journal ``.npz``, fleet shards).

        ``ids`` is the whole intern table (UTF-8 JSON bytes) and
        ``users`` the served users' indices in first-serve order;
        ``count`` is aligned with ``users``, and
        ``surviving[surviving_ptr[i]:surviving_ptr[i+1]]`` is user
        ``i``'s intersection.  ``serial``, ``cloak``, ``candidates`` and
        ``widened`` hold the live window slots only: the first
        ``min(count[i], window)`` ring slots of each user, in ``users``
        order (slot ``count[i] % window`` is written next).  Nothing
        returned aliases the ledger, so later records never change a
        state handed out.
        """
        with self._lock:
            return self._state_locked(np.arange(len(self._traj_users)))

    def delta_state(self) -> Dict[str, np.ndarray]:
        """What changed since the last call: the journal's delta commit.

        :meth:`to_state` restricted to the users folded since then, in
        row order, with ``ids`` holding the intern table from the
        previous call's length on and ``meta`` that length as a fourth
        entry.  :meth:`merge_delta` applies it to a ledger holding the
        earlier state.  Each call starts a new delta, so a delta that is
        never made durable must be followed by a full :meth:`to_state`.
        """
        with self._lock:
            row = self._traj_row
            rows = np.array(sorted(row[u] for u in self._traj_dirty), dtype=np.int64)
            since = self._traj_journalled
            self._traj_dirty = set()
            self._traj_journalled = len(self._traj_ids)
            return self._state_locked(rows, since=since)

    def subset_state(self, user_ids: Iterable[str]) -> Dict[str, np.ndarray]:
        """:meth:`to_state` restricted to ``user_ids`` — the fleet shard
        shipped to the one worker that owns those users' routing.

        Its intern table holds only the ids the shard names (its users
        and their candidates), renumbered in table order, so a shard
        does not carry every id the ledger ever met; the adopting
        ledger re-interns them.
        """
        with self._lock:
            index, row = self._traj_index, self._traj_row
            wanted = {index[u] for u in map(str, user_ids) if u in index}
            rows = sorted(row[u] for u in wanted if row[u] >= 0)
            return self._state_locked(np.array(rows, dtype=np.int64), shard=True)

    def adopt_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Replace this ledger's histories with a serialized snapshot.

        The snapshot's intern table is adopted when it extends this
        ledger's (or the other way round), so indices keep their
        meaning; a foreign table is re-interned and its arrays remapped.
        The adopted state counts as journalled: the next
        :meth:`delta_state` holds only what is folded after it.
        """
        rows = _Rows.parse(state, delta=False)
        with self._lock:
            mine = self._traj_ids
            common = min(len(mine), len(rows.ids))
            if mine[:common] == rows.ids[:common]:
                for uid in rows.ids[common:]:
                    self._intern_locked(uid)
                remap = None
            else:
                remap = np.array(
                    [self._intern_locked(uid) for uid in rows.ids], dtype=np.int32
                )
            size = len(self._traj_ids)
            surviving: List[Optional[np.ndarray]] = [None] * size
            row_of = [-1] * size
            served = []
            for i, user in enumerate(rows.users.tolist()):
                held = rows.held(i)
                if remap is not None:
                    user, held = int(remap[user]), np.sort(remap[held])
                surviving[user] = _frozen(held)
                row_of[user] = i
                served.append(user)
            self.window = rows.window
            self._traj_surviving = surviving
            self._traj_row = row_of
            self._traj_users = served
            self._allocate_locked(len(served))
            self._write_locked(rows, np.arange(len(served)))
            self.recorded = rows.recorded
            self._traj_dirty = set()
            self._traj_journalled = size
            self._traj_generation += 1

    def merge_delta(self, delta: Mapping[str, np.ndarray]) -> None:
        """Apply one :meth:`delta_state` to the state it was taken after.

        The delta's intern tail must extend this ledger's table (it may
        overlap its end); its rows replace the same users' rows, and
        users served for the first time get new rows in the delta's
        order, so a ledger merged delta by delta equals the one the
        deltas were taken from.  Raises :class:`ReproError` on a delta
        of another ledger, window or version.
        """
        rows = _Rows.parse(delta, delta=True)
        with self._lock:
            ids, since = self._traj_ids, rows.since
            overlap = len(ids) - since
            if (
                rows.window != self.window
                or overlap < 0
                or ids[since:] != rows.ids[:overlap]
            ):
                raise ReproError(
                    "trajectory ledger delta does not extend this ledger"
                )
            for uid in rows.ids[overlap:]:
                self._intern_locked(uid)
            if len(self._traj_ids) != since + len(rows.ids):
                raise ReproError("trajectory ledger delta re-interns an id")
            targets = []
            for i, user in enumerate(rows.users.tolist()):
                self._traj_surviving[user] = _frozen(rows.held(i))
                targets.append(self._row_locked(user))
            self._write_locked(rows, np.array(targets, dtype=np.int64))
            self.recorded = rows.recorded
            self._traj_journalled = len(self._traj_ids)

    def take(self, other: "TrajectoryLedger") -> None:
        """Replace this ledger's histories with ``other``'s, arrays and
        all, without copying: a restore hands over the ledger recovery
        already checked.  ``other`` must not be used afterwards."""
        with other._lock:
            state = {
                name: getattr(other, name)
                for name in (
                    "window", "recorded", "_traj_ids", "_traj_index",
                    "_traj_surviving", "_traj_row", "_traj_users",
                    "_traj_count", "_traj_serial", "_traj_cloak",
                    "_traj_candidates", "_traj_widened", "_traj_dirty",
                    "_traj_journalled",
                )
            }
        with self._lock:
            for name, value in state.items():
                setattr(self, name, value)
            self._traj_generation += 1

    @classmethod
    def from_state(cls, state: Mapping[str, np.ndarray]) -> "TrajectoryLedger":
        ledger = cls()
        ledger.adopt_state(state)
        return ledger

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrajectoryLedger(users={len(self)}, window={self.window}, "
            f"recorded={self.recorded})"
        )
