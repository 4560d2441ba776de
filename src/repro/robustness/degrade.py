"""Fail-closed graceful degradation (the "coarsen, never weaken" ladder).

The paper's central lesson is that the *policy itself* is attack
surface: a failure fallback that quietly served k-inside-style cloaks
would reintroduce exactly the policy-aware breach of Example 1/Fig 6.
So every degradation rung here only ever *coarsens* within the
quad/binary tree, which is safe by the k-summation property
(Lemmas 1–3): assigning an ancestor node's rectangle to every group
contained in it yields one merged group at least as large as any of its
parts — never below k.

Serving ladder (applied by :class:`repro.streaming.epoch.EpochManager`
for every serving path; the CSP is a manager with ``coarsen_grace=0``):

1. **fresh** — the normal path;
2. **coarsened** — a user's fine cloak cannot be served (stale MPC
   location): serve the lowest halving-chain *ancestor* of her cloak
   that covers the reported location, and re-map every group contained
   in that ancestor to it (group-wide, or the requester would form a
   singleton group — itself a breach).  :func:`coarsening_ancestor`
   walks a tree to the same node and is kept as the reference oracle;
3. **stale** — the whole policy swap failed: keep serving the previous
   epoch's policy/location pair, up to a bounded snapshot age;
4. **recovered** — a restarted CSP serving the journalled policy of the
   crash-consistent snapshot store (:mod:`repro.robustness.recovery`)
   until its first promoted swap — operationally the stale rung,
   labelled separately for SLO accounting;
5. **rejected** — nothing above applies: raise
   :class:`~repro.core.errors.ServiceUnavailableError`.

The bulk analogue (applied by the parallel engine): a jurisdiction whose
solve crashed for good is served the jurisdiction rectangle itself as a
single cloak — the jurisdiction node is an ancestor of everything inside
it, and the greedy partitioner guarantees non-empty jurisdictions hold
at least k users.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

from ..core.errors import ServiceUnavailableError
from ..core.geometry import Point, Rect
from ..core.policy import CloakingPolicy

__all__ = [
    "DEGRADATION_LEVELS",
    "DegradationEvent",
    "EVENT_CAP",
    "EventLog",
    "coarsening_ancestor",
    "coarsen_overrides",
    "policy_with_overrides",
    "fallback_jurisdiction_policy",
]

DEGRADATION_LEVELS = ("fresh", "coarsened", "stale", "recovered", "rejected")


@dataclass(frozen=True)
class DegradationEvent:
    """One rung transition, kept by serving layers for observability."""

    level: str
    reason: str
    detail: str = ""


#: how many degradation events a serving layer keeps.  A widened or
#: rejected request appends one, so an unbounded timeline would grow for
#: as long as the process serves.
EVENT_CAP = 1024


class EventLog(deque[DegradationEvent]):
    """The newest :data:`EVENT_CAP` degradation events, oldest first;
    :attr:`dropped` counts the older ones let go."""

    def __init__(self) -> None:
        super().__init__(maxlen=EVENT_CAP)
        self.dropped = 0
        self._lock = threading.Lock()

    def append(self, event: DegradationEvent) -> None:
        with self._lock:
            if len(self) == self.maxlen:
                self.dropped += 1
            super().append(event)


def _covers(outer: Rect, inner) -> bool:
    """Is ``inner`` (a Rect cloak) fully inside ``outer``?"""
    if not isinstance(inner, Rect):
        return False
    return outer.contains_rect(inner)


def coarsening_ancestor(
    tree,
    policy: CloakingPolicy,
    user_id: str,
    location: Optional[Point] = None,
):
    """The lowest safe ancestor node for coarsening ``user_id``'s cloak.

    Walks up from the user's leaf to the node whose rectangle *is* her
    assigned cloak, then further up until the node also covers
    ``location`` (e.g. a stale MPC reading).  Group-wide reassignment to
    the returned node is provably still ≥ k-anonymous: the requester's
    whole fine group (≥ k users, each located inside her cloak ⊆ the
    ancestor) lands in the merged group.

    Raises :class:`ServiceUnavailableError` when no ancestor qualifies
    (the reject rung) — e.g. the reported location left the map.
    """
    cloak = policy.cloak_for(user_id)
    if not isinstance(cloak, Rect):
        raise ServiceUnavailableError(
            f"cannot coarsen non-rectangular cloak {type(cloak).__name__}",
            reason="coarsen",
        )
    node = tree.leaf_of_user(user_id)
    while node is not None and node.rect != cloak:
        node = node.parent
    if node is None:
        raise ServiceUnavailableError(
            f"cloak of user {user_id!r} is not a tree node of this snapshot",
            reason="coarsen",
        )
    if location is not None:
        while node is not None and not node.rect.contains(location):
            node = node.parent
        if node is None:
            raise ServiceUnavailableError(
                f"reported location {location} of user {user_id!r} lies "
                "outside every ancestor cloak; rejecting fail-closed",
                reason="coarsen",
            )
    return node


def coarsen_overrides(
    policy: CloakingPolicy, ancestor_rect: Rect
) -> Dict[str, Rect]:
    """Group-wide coarsening map: every user whose fine cloak is fully
    contained in ``ancestor_rect`` is re-cloaked by the ancestor.

    Users cloaked at *strict ancestors* of the node are deliberately
    untouched — pulling them down would shrink their original groups,
    possibly below k.  The merged group keeps every member of every
    contained group, so its size is ≥ the largest contained group ≥ k.
    """
    return {
        user_id: ancestor_rect
        for user_id, region in policy.items()
        if _covers(ancestor_rect, region)
    }


def policy_with_overrides(
    policy: CloakingPolicy,
    overrides: Mapping[str, Rect],
    name: str = "degraded",
) -> CloakingPolicy:
    """The effective policy after applying coarsening overrides."""
    if not overrides:
        return policy
    merged = dict(policy.items())
    merged.update(overrides)
    return CloakingPolicy(merged, policy.db, name=name)


def fallback_jurisdiction_policy(
    rect: Rect,
    node_id: int,
    rows: Iterable,
    k: int,
) -> CloakingPolicy:
    """The bulk fail-closed fallback: one jurisdiction, one cloak.

    ``rows`` are the jurisdiction's ``(user_id, x, y)`` tuples.  All its
    users share the jurisdiction rectangle, forming a single group of
    ``len(rows)`` users; the greedy partitioner guarantees that count is
    ≥ k for non-empty jurisdictions, and we re-check here because the
    guarantee is what makes the fallback safe to serve at all.
    """
    from ..core.locationdb import LocationDatabase

    rows = list(rows)
    if len(rows) < k:
        raise ServiceUnavailableError(
            f"jurisdiction {node_id} holds only {len(rows)} users (< k={k}); "
            "no fail-closed fallback exists, refusing to serve it",
            reason="degrade",
        )
    db = LocationDatabase(rows)
    return CloakingPolicy(
        {uid: rect for uid, __, ___ in rows},
        db,
        name=f"degraded-{node_id}",
    )
