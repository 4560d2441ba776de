"""The per-user served-cloak ledger backing the continuity constraint.

Two structures per user, deliberately separate:

* the **running intersection** (``_traj_surviving``) — the set of
  candidate senders consistent with *every* cloak served to this user so
  far.  This is the constraint's only input: it is exactly what a
  trajectory-linking attacker can compute, it only shrinks, and it is
  bounded by the size of the user's first candidate set — so keeping the
  full-history intersection costs O(first group) per user, not O(history).
* a bounded **window** of recent :class:`LedgerEntry` records
  (``_traj_entries``) — observability: which cloaks were served, at what
  serial, how large their candidate sets were, and whether the solver
  had to widen.  The window never feeds the constraint; trimming it can
  therefore never weaken the defense.

State round-trips through :meth:`to_state`/:meth:`from_state` as plain
JSON types, which is what lets the ledger ride the checksummed
``PolicyJournal`` state block (crash restarts resume continuity) and the
pickled fleet spec (worker hand-off on respawn and epoch swaps).

TJ001 (:mod:`repro.analysis.rules.trajectory`) enforces that the
``_traj_*`` structures are mutated only inside this package: serving
layers consume decisions, they never edit history.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.errors import ReproError
from ..core.geometry import Rect

__all__ = ["LedgerEntry", "TrajectoryLedger"]

_STATE_VERSION = 1


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


class TrajectoryLedger:
    """Bounded per-user history of served cloaks + running intersections."""

    def __init__(self, window: int = 16):
        if window < 1:
            raise ReproError(f"ledger window must be ≥ 1, got {window}")
        self.window = window
        self._traj_entries: Dict[str, Deque[LedgerEntry]] = {}  # guarded-by: self._lock
        self._traj_surviving: Dict[str, FrozenSet[str]] = {}  # guarded-by: self._lock
        #: each user's :meth:`to_state` row, built once and never mutated;
        #: :meth:`record` drops the user's row, :meth:`adopt_state` all.
        self._traj_rows: Dict[str, Dict[str, object]] = {}  # guarded-by: self._lock
        #: total records ever accepted (monotone; survives trimming).
        self.recorded = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def record(
        self,
        user_id: str,
        cloak: Rect,
        candidates: Iterable[str],
        *,
        serial: int = 0,
        widened: bool = False,
    ) -> FrozenSet[str]:
        """Fold one served cloak into ``user_id``'s history.

        Returns the updated surviving intersection (what the linking
        attacker knows after observing this request).
        """
        uid = str(user_id)
        candidate_set = frozenset(str(c) for c in candidates)
        entry = LedgerEntry(
            serial=int(serial),
            cloak=cloak,
            candidates=len(candidate_set),
            widened=bool(widened),
        )
        with self._lock:
            prior = self._traj_surviving.get(uid)
            surviving = (
                candidate_set if prior is None else prior & candidate_set
            )
            self._traj_surviving[uid] = surviving
            window = self._traj_entries.get(uid)
            if window is None:
                window = deque(maxlen=self.window)
                self._traj_entries[uid] = window
            window.append(entry)
            self._traj_rows.pop(uid, None)
            self.recorded += 1
        return surviving

    # -- queries -------------------------------------------------------------

    def surviving(self, user_id: str) -> Optional[FrozenSet[str]]:
        """The full-history intersection, or ``None`` before any request."""
        with self._lock:
            return self._traj_surviving.get(str(user_id))

    def entries(self, user_id: str) -> Tuple[LedgerEntry, ...]:
        with self._lock:
            return tuple(self._traj_entries.get(str(user_id), ()))

    def users(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._traj_surviving))

    def __len__(self) -> int:
        with self._lock:
            return len(self._traj_surviving)

    def widened_count(self) -> int:
        """Windowed observability: how many recent serves were widened."""
        with self._lock:
            return sum(
                1
                for window in self._traj_entries.values()
                for entry in window
                if entry.widened
            )

    # -- serialization -------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """A plain-JSON snapshot of the ledger (journal state block);
        its per-user rows are shared with the memo, so never mutate them."""
        with self._lock:
            users: Dict[str, object] = {}
            for uid in sorted(self._traj_surviving):
                row = self._traj_rows.get(uid)
                if row is None:
                    row = self._traj_rows[uid] = {
                        "surviving": sorted(self._traj_surviving[uid]),
                        "entries": [
                            [
                                entry.serial,
                                list(entry.cloak.as_tuple()),
                                entry.candidates,
                                int(entry.widened),
                            ]
                            for entry in self._traj_entries.get(uid, ())
                        ],
                    }
                users[uid] = row
            return {
                "version": _STATE_VERSION,
                "window": self.window,
                "recorded": self.recorded,
                "users": users,
            }

    def subset_state(self, user_ids: Iterable[str]) -> Dict[str, object]:
        """:meth:`to_state` restricted to ``user_ids`` — the fleet shard
        shipped to the one worker that owns those users' routing."""
        wanted = {str(uid) for uid in user_ids}
        state = self.to_state()
        users = state["users"]
        assert isinstance(users, dict)
        state["users"] = {
            uid: payload for uid, payload in users.items() if uid in wanted
        }
        return state

    def adopt_state(self, state: Mapping[str, object]) -> None:
        """Replace this ledger's contents with a serialized snapshot."""
        version = int(state.get("version", -1))  # type: ignore[arg-type]
        if version != _STATE_VERSION:
            raise ReproError(
                f"unknown trajectory ledger state version {version!r}"
            )
        users = state.get("users")
        if not isinstance(users, Mapping):
            raise ReproError("trajectory ledger state lacks a users map")
        window = int(state.get("window", self.window))  # type: ignore[arg-type]
        entries: Dict[str, Deque[LedgerEntry]] = {}
        surviving: Dict[str, FrozenSet[str]] = {}
        for uid, payload in users.items():
            if not isinstance(payload, Mapping):
                raise ReproError(
                    f"trajectory ledger user {uid!r} payload is not a map"
                )
            surviving[str(uid)] = frozenset(
                str(c) for c in payload.get("surviving", ())
            )
            window_entries: List[LedgerEntry] = []
            for row in payload.get("entries", ()):
                serial, rect, count, widened = row
                window_entries.append(
                    LedgerEntry(
                        serial=int(serial),
                        cloak=Rect(*[float(v) for v in rect]),
                        candidates=int(count),
                        widened=bool(widened),
                    )
                )
            entries[str(uid)] = deque(window_entries, maxlen=window)
        with self._lock:
            self.window = window
            self._traj_entries = entries
            self._traj_surviving = surviving
            self._traj_rows = {}
            self.recorded = int(state.get("recorded", 0))  # type: ignore[arg-type]

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "TrajectoryLedger":
        ledger = cls(window=int(state.get("window", 16)))  # type: ignore[arg-type]
        ledger.adopt_state(state)
        return ledger

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrajectoryLedger(users={len(self)}, window={self.window}, "
            f"recorded={self.recorded})"
        )
