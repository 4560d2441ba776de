"""Base-station circular cloaking with k-reciprocity, and its breach
(paper §VII, Figure 6(b)).

k-reciprocity (Kalnis et al. [17]) requires that among the ≥ k users
inside a requester's cloak, at least k-1 contain the requester in
*their* cloaks.  The paper's counter-example instantiates it with a
natural algorithm: cloak every user with a circle centered at her
nearest base station, with radius just large enough to cover k users.

The scheme satisfies k-inside (and, in the Figure 6(b) layout,
2-reciprocity), yet a policy-aware attacker who observes a circle
centered at station ``S`` with radius ``r`` can simulate the algorithm
for every user and keep only those producing exactly that circle —
generically a single user, since the radius is determined by the
requester's own neighbourhood.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.errors import NoFeasiblePolicyError
from ..core.geometry import Circle, Point
from ..core.policy import CloakingPolicy
from ..core.locationdb import LocationDatabase

__all__ = [
    "station_circle_policy",
    "station_circle_for",
    "satisfies_k_reciprocity",
]


def _nearest_station(stations: Sequence[Point], point: Point) -> Point:
    """Deterministic nearest-station choice (ties break on coordinates)."""
    return min(stations, key=lambda s: (point.distance_to(s), s.x, s.y))


def station_circle_for(
    db: LocationDatabase, stations: Sequence[Point], user_id: str, k: int
) -> Circle:
    """The circle the algorithm assigns to ``user_id``.

    Center: nearest base station.  Radius: smallest covering both the
    requester and at least k users overall.
    """
    location = db.location_of(user_id)
    if location is None:
        raise NoFeasiblePolicyError(f"unknown user {user_id!r}")
    if len(db) < k:
        raise NoFeasiblePolicyError(f"fewer than k={k} users in the snapshot")
    center = _nearest_station(stations, location)
    distances = sorted(center.distance_to(p) for __, p in db.items())
    radius = max(distances[k - 1], center.distance_to(location))
    return Circle(center, radius)


def station_circle_policy(
    db: LocationDatabase, stations: Sequence[Point], k: int
) -> CloakingPolicy:
    """Bulk-apply the base-station circle algorithm to every user."""
    if not stations:
        raise NoFeasiblePolicyError("no base stations supplied")
    cloaks: Dict[str, Circle] = {}
    for user_id in db.user_ids():
        cloaks[user_id] = station_circle_for(db, stations, user_id, k)
    return CloakingPolicy(cloaks, db, name=f"station-circles(k={k})")


def satisfies_k_reciprocity(policy: CloakingPolicy, k: int) -> bool:
    """Check k-reciprocity: for every user ``x``, at least k-1 of the
    other users inside ``x``'s cloak have ``x`` inside *their* cloak."""
    located = list(policy.db.items())
    for user_id, location in located:
        cloak = policy.cloak_for(user_id)
        reciprocal = 0
        for other_id, other_point in located:
            if other_id == user_id or not cloak.contains(other_point):
                continue
            if policy.cloak_for(other_id).contains(location):
                reciprocal += 1
        if reciprocal < k - 1:
            return False
    return True
