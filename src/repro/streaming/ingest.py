"""Delta-batched move ingest between epoch swaps.

The accumulator is the write side of the double-buffered serving layer:
location updates stream in continuously (from the MPC feed, a schedule
replay, or a fleet dispatcher) and are coalesced per user — only the *latest*
position matters for the next repair, so N moves by one user between
two swaps cost exactly one dirty leaf.  :meth:`DirtyAccumulator.drain`
hands the batch to the shadow repair atomically; if that repair fails
(injected fault, tree error) :meth:`DirtyAccumulator.restore` puts the
batch back without clobbering anything newer that arrived meanwhile, so
no movement is ever silently dropped while staleness grows.  (Moves no
repair can ever apply — unknown users, off-map points — are dropped
by the epoch manager before the repair, with an event.)
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Tuple, Union

from ..core.geometry import Point

MoveBatch = Dict[str, Point]
Moves = Union[Mapping[str, Point], Iterable[Tuple[str, Point]]]


class DirtyAccumulator:
    """Thread-safe last-write-wins accumulation of user moves.

    Thread safety matters here and (deliberately) nowhere else in the
    epoch layer's hot path: ingest happens on the serving thread(s)
    while :meth:`drain` happens on the repair thread, and the lock is
    held only for dict operations — never across a repair.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._moves: MoveBatch = {}  # guarded-by: self._lock
        #: total moves ever offered (including coalesced overwrites).
        #: The counters ride the same lock as ``_moves``; external
        #: readers take a consistent snapshot via :meth:`stats`.
        self.ingested = 0
        #: moves that overwrote a pending move for the same user — the
        #: work delta-batching saved the repair.
        self.coalesced = 0
        #: how many times a batch was drained for a repair.
        self.batches = 0

    def add(self, user_id: str, point: Point) -> None:
        """Record one move; a later move by the same user supersedes it."""
        with self._lock:
            if user_id in self._moves:
                self.coalesced += 1
            self._moves[str(user_id)] = point
            self.ingested += 1

    def extend(self, moves: Moves) -> int:
        """Record a batch of moves; returns how many were offered."""
        items = moves.items() if isinstance(moves, Mapping) else moves
        count = 0
        with self._lock:
            for user_id, point in items:
                if user_id in self._moves:
                    self.coalesced += 1
                self._moves[str(user_id)] = point
                count += 1
            self.ingested += count
        return count

    def drain(self) -> MoveBatch:
        """Atomically take the pending batch, leaving the accumulator empty."""
        with self._lock:
            batch, self._moves = self._moves, {}
            self.batches += 1
        return batch

    def restore(self, batch: Mapping[str, Point]) -> None:
        """Put a drained batch back after a failed repair.

        Moves ingested *after* the drain are newer than anything in the
        failed batch, so on collision the already-pending move wins.
        """
        with self._lock:
            merged = dict(batch)
            merged.update(self._moves)
            self._moves = merged

    @property
    def pending(self) -> int:
        """Distinct users with an unrepaired move."""
        with self._lock:
            return len(self._moves)

    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the ingest counters."""
        with self._lock:
            return {
                "ingested": self.ingested,
                "coalesced": self.coalesced,
                "batches": self.batches,
                "pending": len(self._moves),
            }

    def __len__(self) -> int:
        return self.pending
