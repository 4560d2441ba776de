"""Cloaking policies and their cost (Definition 4 and §IV).

Following the paper's footnote 1, a bulk policy is represented as a
function from *user locations* to cloaks — equivalently, a per-snapshot
mapping ``user_id → region``.  Anonymizing a service request is then a
lookup plus payload pass-through, so serving a request is O(1) after the
bulk computation.

``Cost(P, D)`` (§IV) is the total cloak area over the hypothetical
workload in which every user issues exactly one request; minimizing it
maximizes utility (smaller cloaks → cheaper LBS-side range queries and
client-side filtering).

Definition 4 (every cloak contains its user's location) is checked when
a policy is built.  The mapping constructor checks one user at a time;
:meth:`CloakingPolicy.from_rows` checks a policy given as rows (ids,
coordinates, per-row cloak group) in one array comparison, and
:meth:`CloakingPolicy.union` merges checked parts without checking
masking again.  All three fail closed with the same
:class:`~repro.core.errors.PolicyError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import PolicyError, UnknownUserError
from .geometry import Circle, Rect
from .requests import AnonymizedRequest, ServiceRequest, request_id_factory

__all__ = ["CloakingPolicy"]

Region = Union[Rect, Circle]


def _unknown(user_id: object) -> PolicyError:
    return PolicyError(f"policy cloaks unknown user {user_id!r}")


def _not_masking(user_id: object, location: object, region: object) -> PolicyError:
    return PolicyError(
        f"policy is not masking: user {user_id!r} at {location} "
        f"outside cloak {region}"
    )


def _uncovered(cloaks: Mapping[str, object], db) -> Optional[PolicyError]:
    """The coverage failure of ``cloaks`` over ``db``, if any; every key
    of ``cloaks`` must be a ``db`` user, so equal sizes mean cover."""
    if len(cloaks) == len(db):
        return None
    missing = [uid for uid in db.user_ids() if uid not in cloaks]
    return PolicyError(
        f"policy does not cover {len(missing)} users "
        f"(first: {missing[:3]!r})"
    )


class CloakingPolicy:
    """A per-snapshot masking policy: each user gets one cloak.

    Instances are built by anonymization algorithms (the optimal DP, the
    k-inside baselines, Casper, ...) for one location database snapshot.
    The mapping is total over the snapshot's users — the paper compares
    policies under the workload where *every* user sends a request.
    """

    def __init__(
        self,
        cloaks: Mapping[str, Region],
        db,
        name: str = "policy",
    ):
        """``cloaks`` maps every user id of ``db`` to its cloak.

        Raises :class:`PolicyError` when a user is missing, unknown, or
        the cloak fails the masking requirement of Definition 4
        (the user's location must lie inside her cloak).
        """
        checked: Dict[str, Region] = {}
        for user_id, region in cloaks.items():
            location = db.location_of(user_id)
            if location is None:
                raise _unknown(user_id)
            if not region.contains(location):
                raise _not_masking(user_id, location, region)
            checked[str(user_id)] = region
        error = _uncovered(checked, db)
        if error is not None:
            raise error
        self._adopt(checked, db, name)

    def _adopt(self, cloaks: Dict[str, Region], db, name: str) -> None:
        self.name = name
        self.db = db
        self._cloaks = cloaks
        # Default stream of request ids when the caller does not inject
        # its own (e.g. the CSP pipeline passes a shared one).
        self._default_rid_factory = request_id_factory()

    @classmethod
    def _checked(
        cls, cloaks: Dict[str, Region], db, name: str
    ) -> "CloakingPolicy":
        policy = cls.__new__(cls)
        policy._adopt(cloaks, db, name)
        return policy

    @classmethod
    def from_rows(
        cls,
        user_ids: Sequence[str],
        coords: np.ndarray,
        group: np.ndarray,
        rects: Sequence[Rect],
        db,
        name: str = "policy",
    ) -> "CloakingPolicy":
        """A policy given as rows: row ``r`` cloaks ``user_ids[r]``,
        located at ``coords[r]``, with ``rects[group[r]]``.

        Each group's users share its one ``Rect`` object, and users are
        inserted in row order.  ``coords`` must hold each row's location
        in ``db``; producers take them from the payload compile of a
        tree built over ``db``, so no location is read out of ``db``
        here.  Definition 4 is one closed comparison over the arrays,
        and unknown or missing users show up as a difference between
        the policy's and ``db``'s key sets.  Raises the
        :class:`PolicyError` the mapping constructor raises, naming the
        first offending row in row order; a user with two rows is
        refused as well.
        """
        coords = np.asarray(coords, dtype=np.float64)
        group = np.asarray(group, dtype=np.intp)
        n = len(user_ids)
        if coords.shape != (n, 2) or group.shape != (n,) or (
            n and not 0 <= group.min() <= group.max() < len(rects)
        ):
            raise PolicyError(
                f"policy rows disagree: {n} ids, coords {coords.shape}, "
                f"groups {group.shape} over {len(rects)} cloaks"
            )
        boxes = np.array(
            [(r.x1, r.y1, r.x2, r.y2) for r in rects], dtype=np.float64
        ).reshape(len(rects), 4)[group]
        x, y = coords[:, 0], coords[:, 1]
        inside = (
            (boxes[:, 0] <= x) & (x <= boxes[:, 2])
            & (boxes[:, 1] <= y) & (y <= boxes[:, 3])
        )
        cloaks: Dict[str, Region] = dict(
            zip(user_ids, map(rects.__getitem__, group.tolist()))
        )
        if len(cloaks) != n or not db.has_users(cloaks.keys()) or not inside.all():
            raise _first_row_fault(user_ids, group, rects, inside, db)
        return cls._checked(cloaks, db, name)

    @classmethod
    def union(
        cls, parts: Sequence["CloakingPolicy"], db, name: str = "policy"
    ) -> "CloakingPolicy":
        """The policy over ``db`` made of disjoint checked ``parts``.

        Each part was checked against its own snapshot when it was
        built, so masking is not checked again.  What is checked: no
        user is in two parts, the parts cover exactly ``db``'s users,
        and every part's snapshot locates its users where ``db`` does
        (:meth:`~repro.core.locationdb.LocationDatabase.agrees_with`:
        one array comparison per part).  A part
        from another snapshot raises :class:`PolicyError`.
        """
        merged: Dict[str, Region] = {}
        for part in parts:
            merged.update(part._cloaks)
        if len(merged) != sum(len(part) for part in parts):
            seen: set = set()
            for part in parts:
                for user_id in part._cloaks:
                    if user_id in seen:
                        raise PolicyError(
                            f"user {user_id!r} claimed by two jurisdictions"
                        )
                    seen.add(user_id)
        for part in parts:
            if not db.agrees_with(part.db):
                for user_id, location in part.db.items():
                    found = db.location_of(user_id)
                    if found is None:
                        raise _unknown(user_id)
                    if found != location:
                        raise PolicyError(
                            f"policy part {part.name!r} was built on another "
                            f"snapshot: user {user_id!r} is at {found}, not "
                            f"at {location}"
                        )
        error = _uncovered(merged, db)
        if error is not None:
            raise error
        return cls._checked(merged, db, name)

    # -- the Definition 4 interface ---------------------------------------------

    def cloak_for(self, user_id: str) -> Region:
        """The cloak assigned to ``user_id``."""
        try:
            return self._cloaks[str(user_id)]
        except KeyError:
            raise UnknownUserError(f"no cloak for user {user_id!r}") from None

    def anonymize(
        self, request: ServiceRequest, next_request_id=None
    ) -> AnonymizedRequest:
        """Apply the policy to a service request (Definition 4).

        The request must be valid w.r.t. the snapshot this policy was
        built for — the CSP constructs requests from MPC locations, so an
        out-of-date location means the wrong snapshot's policy is being
        used.
        """
        if not request.is_valid_for(self.db):
            raise PolicyError(
                f"request from {request.user_id!r} at {request.location} is "
                "not valid w.r.t. this policy's location snapshot"
            )
        if next_request_id is None:
            next_request_id = self._default_rid_factory
        return AnonymizedRequest(
            request_id=next_request_id(),
            cloak=self.cloak_for(request.user_id),
            payload=request.payload,
        )

    # -- analysis ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cloaks)

    def items(self) -> Iterable[Tuple[str, Region]]:
        return self._cloaks.items()

    def cost(self) -> float:
        """``Cost(P, D)``: total cloak area if every user sends once."""
        return sum(region.area for region in self._cloaks.values())

    def average_cloak_area(self) -> float:
        """Mean cloak area per user — the Figure 5(a) metric."""
        if not self._cloaks:
            return 0.0
        return self.cost() / len(self._cloaks)

    def groups(self) -> Dict[Region, List[str]]:
        """Users grouped by their assigned cloak.

        For a deterministic location-only policy, the group of a cloak is
        exactly the candidate-sender set a *policy-aware* attacker can
        reconstruct (Lemma 3 made operational) — so group sizes decide
        policy-aware sender k-anonymity.
        """
        grouped: Dict[Region, List[str]] = {}
        for user_id, region in self._cloaks.items():
            grouped.setdefault(region, []).append(user_id)
        return grouped

    def min_group_size(self) -> int:
        """Smallest cloak group — the policy-aware anonymity level."""
        groups = self.groups()
        if not groups:
            return 0
        return min(len(users) for users in groups.values())

    def min_inside_count(self) -> int:
        """Smallest number of users *inside* any used cloak — the
        policy-unaware anonymity level (k-inside degree)."""
        if not self._cloaks:
            return 0
        points = self.db.points()
        return min(sum(map(r.contains, points)) for r in set(self._cloaks.values()))

    def restricted_to(self, user_ids: Iterable[str]) -> "CloakingPolicy":
        """The policy restricted to a subset of users (helper for the
        parallel master policy)."""
        subset = list(user_ids)
        return CloakingPolicy(
            {uid: self.cloak_for(uid) for uid in subset},
            self.db.subset(subset),
            name=self.name,
        )

    def __repr__(self) -> str:
        return f"CloakingPolicy({self.name!r}, users={len(self)})"


def _first_row_fault(
    user_ids: Sequence[str],
    group: np.ndarray,
    rects: Sequence[Rect],
    inside: np.ndarray,
    db,
) -> PolicyError:
    """The error of the first offending row, as the mapping constructor
    would name it (slow path: only runs once a check failed)."""
    seen: set = set()
    for row, user_id in enumerate(user_ids):
        location = db.location_of(user_id)
        if location is None:
            return _unknown(user_id)
        if not inside[row]:
            return _not_masking(user_id, location, rects[int(group[row])])
        if user_id in seen:
            return PolicyError(f"policy cloaks user {user_id!r} twice")
        seen.add(user_id)
    return _uncovered(dict.fromkeys(seen), db) or PolicyError(
        "policy rows failed their check"
    )
