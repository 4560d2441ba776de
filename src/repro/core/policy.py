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

A policy is rows over its snapshot's id table
(:meth:`~repro.core.locationdb.LocationDatabase.index`): the db rows in
insertion order, each row's group and one region per group; the mapping
interface is a view over them.  Equal cloaks are merged into one class
before anything is counted, so group sizes — Lemma 3's policy-aware
level and the Definition 6 gate — are one ``np.unique`` and one
``np.bincount``.

Definition 4 (every cloak contains its user's location) is checked when
a policy is built.  The mapping constructor checks one user at a time;
:meth:`CloakingPolicy.from_rows` checks a policy given as rows (db rows,
coordinates, per-row cloak group) in one array comparison, and
:meth:`CloakingPolicy.union` merges checked parts without checking
masking again.  All three fail closed with the same
:class:`~repro.core.errors.PolicyError`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import AnonymityBreachError, PolicyError, UnknownUserError
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


def _coverage_fault(order: np.ndarray, db) -> Optional[PolicyError]:
    """Why the db rows ``order`` are not every row of ``db`` once, if so."""
    ids = db.id_column()
    seen = np.bincount(order, minlength=len(ids))
    if len(order) == len(ids) and seen.max(initial=0) <= 1:
        return None
    if seen.max() > 1:
        return PolicyError(f"policy cloaks user {ids[int(np.argmax(seen))]!r} twice")
    missing = [ids[row] for row in np.flatnonzero(seen == 0).tolist()]
    return PolicyError(
        f"policy does not cover {len(missing)} users (first: {missing[:3]!r})"
    )


class CloakingPolicy:
    """A per-snapshot masking policy: each user gets one cloak.

    Instances are built by anonymization algorithms (the optimal DP, the
    k-inside baselines, Casper, ...) for one location database snapshot.
    The mapping is total over the snapshot's users — the paper compares
    policies under the workload where *every* user sends a request.

    ``row_order`` holds the db rows in insertion order (that of
    :meth:`items`), ``row_group`` each db row's group and ``regions``
    one cloak per group; all three are read only.
    """

    def __init__(
        self,
        cloaks: Mapping[str, Region],
        db,
        name: str = "policy",
    ):
        """``cloaks`` maps every user id of ``db`` to its cloak; each
        distinct cloak object becomes one group.

        Raises :class:`PolicyError` when a user is missing, unknown, or
        the cloak fails the masking requirement of Definition 4
        (the user's location must lie inside her cloak).
        """
        labels = list(cloaks)
        slot: Dict[int, int] = {}
        group = [slot.setdefault(id(r), len(slot)) for r in cloaks.values()]
        regions = list({id(r): r for r in cloaks.values()}.values())
        inside = [
            p is not None and r.contains(p)
            for p, r in zip(map(db.location_of, labels), cloaks.values())
        ]
        row_of = db.index()[1]
        order = np.fromiter((row_of.get(str(u), -1) for u in labels), np.intp, len(labels))
        group = np.array(group, dtype=np.intp)
        _validate(labels, order, group, regions, np.array(inside, dtype=bool), db)
        self._adopt(order, group, regions, db, name)

    def _adopt(self, order: np.ndarray, group: np.ndarray, regions, db, name: str) -> None:
        """``order``: every db row once; ``group``: each one's group."""
        self.name = name
        self.db = db
        self.row_order = order
        self.row_group = np.empty(len(order), dtype=np.intp)
        self.row_group[order] = group
        order.flags.writeable = self.row_group.flags.writeable = False
        self.regions: Tuple[Region, ...] = tuple(regions)
        # Default stream of request ids when the caller does not inject
        # its own (e.g. the CSP pipeline passes a shared one).
        self._default_rid_factory = request_id_factory()

    @classmethod
    def _of(cls, order: np.ndarray, group: np.ndarray, regions, db, name: str) -> "CloakingPolicy":
        policy = cls.__new__(cls)
        policy._adopt(order, group, regions, db, name)
        return policy

    @classmethod
    def from_rows(
        cls,
        rows: Union[np.ndarray, Sequence[str]],
        coords: np.ndarray,
        group: np.ndarray,
        rects: Sequence[Rect],
        db,
        name: str = "policy",
    ) -> "CloakingPolicy":
        """A policy given as rows: entry ``r`` cloaks ``rows[r]`` — a
        row of ``db`` (an integer array) or a user id — located at
        ``coords[r]``, with ``rects[group[r]]``.

        Each group's users share its one ``Rect`` object, and users are
        inserted in the order given.  ``coords`` must hold each row's
        location in ``db``; producers take them from the payload compile
        of a tree built over ``db``, so no location is read out of
        ``db`` here.  Definition 4 is one closed comparison over the
        arrays, and coverage (every row of ``db`` once) one
        ``bincount``.  Raises the :class:`PolicyError` the mapping
        constructor raises, naming the first offending entry; a user
        with two entries is refused as well.
        """
        coords = np.asarray(coords, dtype=np.float64)
        group = np.asarray(group, dtype=np.intp)
        n = len(rows)
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
        labels = None
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
            order = rows.astype(np.intp)
        else:
            labels, row_of = rows, db.index()[1]
            order = np.fromiter((row_of.get(u, -1) for u in rows), np.intp, n)
        _validate(labels, order, group, rects, inside, db)
        return cls._of(order, group, rects, db, name)

    @classmethod
    def union(
        cls, parts: Sequence["CloakingPolicy"], db, name: str = "policy"
    ) -> "CloakingPolicy":
        """The policy over ``db`` made of disjoint checked ``parts``,
        their rows concatenated in part order.

        Each part was checked against its own snapshot when it was
        built, so masking is not checked again.  What is checked: no
        user is in two parts, the parts cover exactly ``db``'s users,
        and every part's snapshot locates its users where ``db`` does
        (:meth:`~repro.core.locationdb.LocationDatabase.agrees_with`:
        one array comparison per part).  A part from another snapshot
        raises :class:`PolicyError`.
        """
        orders = [np.empty(0, dtype=np.intp)]
        groups = [np.empty(0, dtype=np.intp)]
        regions: List[Region] = []
        for part in parts:
            orders.append(db.row_map(part.db)[part.row_order])
            groups.append(part.row_group[part.row_order] + len(regions))
            regions.extend(part.regions)
        order = np.concatenate(orders)
        seen = np.bincount(order[order >= 0], minlength=len(db))
        if seen.max(initial=0) > 1:
            user_id = db.id_column()[int(np.argmax(seen))]
            raise PolicyError(f"user {user_id!r} claimed by two jurisdictions")
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
        error = _coverage_fault(order, db)
        if error is not None:
            raise error
        return cls._of(order, np.concatenate(groups), regions, db, name)

    # -- the Definition 4 interface ---------------------------------------------

    @cached_property
    def _lookup(self) -> Tuple[Dict[str, int], List[Region]]:
        """The id → row map and each row's cloak, built on first use."""
        return self.db.index()[1], list(
            map(self.regions.__getitem__, self.row_group.tolist())
        )

    def cloak_for(self, user_id: str) -> Region:
        """The cloak assigned to ``user_id``."""
        row_of, cloaks = self._lookup
        row = row_of.get(str(user_id))
        if row is None:
            raise UnknownUserError(f"no cloak for user {user_id!r}")
        return cloaks[row]

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
        return len(self.row_order)

    def _groups_in_order(self) -> List[int]:
        return self.row_group[self.row_order].tolist()

    def items(self) -> Iterator[Tuple[str, Region]]:
        """``(user_id, cloak)`` pairs in insertion order."""
        ids = self.db.id_column()
        return zip(
            map(ids.__getitem__, self.row_order.tolist()),
            map(self.regions.__getitem__, self._groups_in_order()),
        )

    def cost(self) -> float:
        """``Cost(P, D)``: total cloak area if every user sends once."""
        areas = [region.area for region in self.regions]
        return sum(map(areas.__getitem__, self._groups_in_order()))

    def average_cloak_area(self) -> float:
        """Mean cloak area per user — the Figure 5(a) metric."""
        if not len(self):
            return 0.0
        return self.cost() / len(self)

    @cached_property
    def cloak_classes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The groups with equal cloaks merged: one sorted key row per
        class (a kind column, 0 for a rectangle and 1 for a circle, then
        its corners or its centre and radius), each db row's class, and
        each class's user count (0: an unused cloak).

        For a deterministic location-only policy a class is exactly the
        candidate-sender set a *policy-aware* attacker can reconstruct
        (Lemma 3 made operational).
        """
        keys = np.array(
            [
                (0.0, *r.as_tuple()) if isinstance(r, Rect)
                else (1.0, *r.center.as_tuple(), r.radius, 0.0)
                for r in self.regions
            ],
            dtype=np.float64,
        ).reshape(-1, 5)
        keys, inverse = np.unique(keys, axis=0, return_inverse=True)
        of_row = inverse.reshape(-1)[self.row_group]
        return keys, of_row, np.bincount(of_row, minlength=len(keys))

    def groups(self) -> Dict[Region, List[str]]:
        """Users grouped by their cloak (equal cloaks merged, keyed by
        the first one), in order of first use; group sizes decide
        policy-aware sender k-anonymity."""
        ids, of_row = self.db.id_column(), self.cloak_classes[1].tolist()
        grouped: Dict[int, Tuple[Region, List[str]]] = {}
        for row, g in zip(self.row_order.tolist(), self._groups_in_order()):
            grouped.setdefault(of_row[row], (self.regions[g], []))[1].append(ids[row])
        return dict(grouped.values())

    def min_group_size(self) -> int:
        """Smallest cloak group — the policy-aware anonymity level."""
        sizes = self.cloak_classes[2]
        return int(sizes[sizes > 0].min(initial=len(self)))

    def require_k_anonymous(self, k: int) -> None:
        """The Definition 6 gate: by Lemma 3 a deterministic
        location-only policy is policy-aware sender k-anonymous iff every
        cloak class holds at least ``k`` users.  Raises
        :class:`AnonymityBreachError` naming the users of smaller
        classes; an empty policy serves no one and passes."""
        level = self.min_group_size()
        if level >= k or not len(self):
            return
        __, of_row, sizes = self.cloak_classes
        ids = self.db.id_column()
        raise AnonymityBreachError(
            f"policy {self.name!r} has a cloak group of {level} users, "
            f"under k={k} (Definition 6)",
            breached_users=sorted(
                map(ids.__getitem__, np.flatnonzero(sizes[of_row] < k).tolist())
            ),
        )

    def min_inside_count(self) -> int:
        """Smallest number of users *inside* any used cloak — the
        policy-unaware anonymity level (k-inside degree)."""
        if not len(self):
            return 0
        points = self.db.points()
        return min(sum(map(r.contains, points)) for r in self.groups())

    def restricted_to(self, user_ids: Iterable[str]) -> "CloakingPolicy":
        """The policy restricted to a subset of users (helper for the
        parallel master policy), in the order given."""
        row_of = self.db.index()[1]
        try:
            rows = [row_of[str(user_id)] for user_id in user_ids]
        except KeyError as exc:
            raise UnknownUserError(f"no cloak for user {exc.args[0]!r}") from None
        return self._of(
            np.arange(len(rows)), self.row_group[rows], self.regions,
            self.db.take(rows), self.name,
        )

    def __repr__(self) -> str:
        return f"CloakingPolicy({self.name!r}, users={len(self)})"


def _validate(
    labels: Optional[Sequence[str]],
    order: np.ndarray,
    group: np.ndarray,
    regions: Sequence[Region],
    inside: np.ndarray,
    db,
) -> None:
    """Raise the error of the first offending entry, if any: entry ``i``
    cloaks db row ``order[i]`` (-1: an id of ``labels`` that ``db``
    lacks) with ``regions[group[i]]``, inside it when ``inside[i]``.
    The checks are array passes; naming the entry walks the entries
    (slow path: only once a check failed), unknown before masking
    before a repeat, then the rows left out."""
    if (
        (len(order) == 0 or 0 <= order.min() <= order.max() < len(db))
        and inside.all()
        and _coverage_fault(order, db) is None
    ):
        return
    ids = db.id_column()
    seen: set = set()
    for index, row in enumerate(order.tolist()):
        if not 0 <= row < len(ids):
            if labels is None:
                raise PolicyError(f"policy cloaks row {row} of a {len(ids)}-user snapshot")
            raise _unknown(labels[index])
        user_id = ids[row]
        if not inside[index]:
            raise _not_masking(
                user_id, db.location_of(user_id), regions[int(group[index])]
            )
        if row in seen:
            raise PolicyError(f"policy cloaks user {user_id!r} twice")
        seen.add(row)
    raise _coverage_fault(order, db) or PolicyError("policy rows failed their check")
