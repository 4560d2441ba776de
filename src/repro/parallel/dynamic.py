"""Dynamic jurisdiction maintenance and load re-balancing.

§V closes with: "In future work, we will study the systems issues
related to the dynamic maintenance (and load re-balancing) of the
server pool for highly dynamic fluctuations of the population density."
This module implements that future work at the algorithmic level:

* a :class:`RebalancingPool` keeps a greedy jurisdiction partition alive
  across location snapshots, one
  :class:`~repro.streaming.epoch.EpochManager` per populated jurisdiction;
* each snapshot, moved users are re-routed to their (possibly new)
  jurisdiction: one whose movers all stayed inside repairs in place
  (§IV), one that a mover left or entered re-fits;
* when the load imbalance (max/mean users per non-empty jurisdiction)
  drifts past a threshold, the map is re-partitioned from a fresh tree
  and every server re-fits — the paper's "static partition per
  representative snapshot" generalized to an online trigger;
* when a server is lost for good (:meth:`RebalancingPool.server_failed`,
  or the engine's ``on_failure='handoff'``), its territory is
  re-partitioned into shards that are re-solved online and adopted by
  rectangle-adjacent neighbours (:func:`handoff_shards`,
  :func:`assign_adopters`) — so the dead jurisdiction's users get
  *fine* per-shard optimal cloaks back instead of living with the
  coarse single-rectangle degrade fallback.

The privacy guarantee is unconditional: after every advance, each
jurisdiction's policy is the policy-aware optimal one for its current
population, so the master policy is policy-aware k-anonymous throughout.
Shard solves are share-nothing like jurisdiction solves, so the §VI-D
utility caveat applies verbatim: hand-off cost can exceed the dead
territory's single-server optimum, by <1% in the paper's measurements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import ReproError, ServiceUnavailableError
from ..core.flat_dp import _extract_rows, solve_arrays
from ..core.geometry import Point, Rect
from ..core.locationdb import LocationDatabase
from ..core.policy import CloakingPolicy
from ..robustness.chaos import kill_current_process
from ..streaming.epoch import EpochManager
from ..trees.binarytree import BinaryTree
from ..trees.flat import FlatTree
from ..trees.partition import Jurisdiction, greedy_partition
from .master import MasterPolicy, ServerPolicy

__all__ = [
    "HandoffReport",
    "PoolReport",
    "RebalancingPool",
    "adjacent_rects",
    "assign_adopters",
    "handoff_shards",
]


def adjacent_rects(a: Rect, b: Rect, tol: float = 1e-9) -> bool:
    """Do two rectangles share a boundary segment of positive length?"""
    x_touch = abs(a.x2 - b.x1) <= tol or abs(b.x2 - a.x1) <= tol
    y_overlap = min(a.y2, b.y2) - max(a.y1, b.y1) > tol
    y_touch = abs(a.y2 - b.y1) <= tol or abs(b.y2 - a.y1) <= tol
    x_overlap = min(a.x2, b.x2) - max(a.x1, b.x1) > tol
    return (x_touch and y_overlap) or (y_touch and x_overlap)


#: a worker's extracted policy: local rows in insertion order, each
#: row's group, and one cloak box per group — what crosses the process
#: boundary instead of a ``{user: box}`` dict.
SolvedRows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _solve_jurisdiction_flat(
    flat: FlatTree, k: int, kill: bool = False
) -> Tuple[SolvedRows, float]:
    """One server's work over a compiled flat subtree: returns its
    policy as rows and the elapsed time.

    The master already owns the spatial structure (the partition tree),
    so the worker receives the jurisdiction's structure-of-arrays slice
    — a handful of numpy buffers that pickle in microseconds — and goes
    straight to the level-batched DP plus extraction.  Jurisdiction
    solves and hand-off shard solves both run here, in-process or in a
    process-mode worker.

    ``kill`` is the real-kill chaos hook: the worker SIGKILLs its own
    process after the DP and before extraction — an uncatchable death
    mid-solve, exactly what an OOM kill looks like to the master.
    """
    start = time.perf_counter()
    vecs = solve_arrays(flat, k)
    if kill:
        kill_current_process()
    rows, group, __, boxes = _extract_rows(flat, vecs, k)
    solved = (rows.astype(np.int32), group.astype(np.int32), boxes)
    return solved, time.perf_counter() - start


def _server_policy(
    flat: FlatTree, solved: SolvedRows, tree_db: LocationDatabase, name: str
) -> CloakingPolicy:
    """A server's policy from a worker's rows, checked against the
    master's own payload compile ``flat`` of a subtree of the tree over
    ``tree_db``: its tree rows restrict ``tree_db`` to the policy's
    snapshot (whose row ``r`` is the compile's local row ``r``), and its
    coordinates, not the worker's, decide where each row is cloaked.
    One ``Rect`` per cloaking node, shared by its group."""
    rows, group, boxes = solved
    rects = [Rect(*box) for box in boxes.tolist()]
    snapshot = tree_db.take(flat.tree_rows)
    return CloakingPolicy.from_rows(
        rows, flat.coords[rows], group, rects, snapshot, name=name
    )


def handoff_shards(
    rect: Rect,
    rows: Iterable[Tuple[str, float, float]],
    k: int,
    *,
    max_depth: int = 40,
    n_shards: int = 2,
    base_node_id: int = 0,
    solver=None,
) -> List[Tuple[Jurisdiction, Optional[CloakingPolicy], float]]:
    """Re-partition a dead jurisdiction's territory and re-solve it.

    ``rows`` are the lost territory's ``(user_id, x, y)`` tuples.  The
    territory is split by the paper's greedy partitioner into at most
    ``n_shards`` shards, and each populated shard is solved
    independently — exactly a jurisdiction solve, just over a smaller
    map — so its users regain policy-aware *optimal* cloaks rather than
    the coarse territory rectangle.  Returns
    ``(shard jurisdiction, shard policy or None, solve seconds)``
    triples; shard jurisdictions get synthetic node ids starting at
    ``base_node_id`` (callers pick a range that cannot collide with live
    tree node ids).  Empty shards are kept (policy ``None``) so the
    returned shards still tile the whole territory.

    Each shard's subtree of the territory tree is compiled to a payload
    :class:`~repro.trees.flat.FlatTree` and solved by
    :func:`_solve_jurisdiction_flat`.  ``solver`` delegates that call:
    ``solver(shard_flat, shard_index)`` must return what it returns,
    ``(policy rows, solve seconds)``.  The engine uses
    this to route hand-off solves through its worker pool (with the
    kill-chaos hook live inside them); ``None`` solves in the calling
    process.  Both paths run the identical deterministic DP, so the
    resulting policies are bit-identical either way.

    Fails closed: a territory with fewer than ``k`` users cannot be
    anonymized by any shard, so no hand-off exists.
    """
    rows = list(rows)
    if not rows:
        return []
    if len(rows) < k:
        raise ServiceUnavailableError(
            f"dead territory holds only {len(rows)} users (< k={k}); "
            "no hand-off can anonymize them, refusing to serve",
            reason="handoff",
        )
    local_db = LocationDatabase(rows)
    tree = BinaryTree.build(rect, local_db, k, max_depth=max_depth)
    shards = greedy_partition(tree, max(1, n_shards), k)
    out: List[Tuple[Jurisdiction, Optional[CloakingPolicy], float]] = []
    for offset, shard in enumerate(shards):
        shard_id = base_node_id + offset
        node = tree.nodes[shard.node_id]
        jur = Jurisdiction(
            rect=shard.rect, is_semi=shard.is_semi, count=node.count, node_id=shard_id
        )
        if not node.count:
            out.append((jur, None, 0.0))
            continue
        flat = FlatTree.compile(tree, root=node, with_payload=True)
        if solver is None:
            solved, elapsed = _solve_jurisdiction_flat(flat, k)
        else:
            solved, elapsed = solver(flat, offset)
        policy = _server_policy(flat, solved, local_db, f"handoff-{shard_id}")
        out.append((jur, policy, elapsed))
    return out


def assign_adopters(
    shards: Sequence[Jurisdiction],
    survivors: Sequence[Jurisdiction],
    load: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Pick which surviving server adopts each hand-off shard.

    Preference order per shard: the least-loaded survivor whose
    rectangle is *adjacent* to the shard (locality keeps re-routing
    cheap), then the least-loaded survivor overall.  ``load`` (user
    count per survivor) is updated in place as shards are assigned, so
    one overloaded neighbour does not absorb every shard.  Returns
    ``{shard node_id: adopter node_id}`` — empty when no survivor
    exists (the master then owns the shards directly).
    """
    if not survivors:
        return {}
    if load is None:
        load = {j.node_id: j.count for j in survivors}
    assignment: Dict[int, int] = {}
    for shard in shards:
        neighbours = [
            j for j in survivors if adjacent_rects(shard.rect, j.rect)
        ]
        pool = neighbours or list(survivors)
        adopter = min(
            pool, key=lambda j: (load.get(j.node_id, 0), j.node_id)
        )
        assignment[shard.node_id] = adopter.node_id
        load[adopter.node_id] = load.get(adopter.node_id, 0) + shard.count
    return assignment


@dataclass(frozen=True)
class HandoffReport:
    """Outcome of one permanent server loss handled by hand-off."""

    dead_node_id: int
    shard_ids: Tuple[int, ...]
    #: shard node_id → adopting survivor node_id (may be empty).
    adopters: Dict[int, int]
    #: users whose fine cloaks were restored by the hand-off.
    resolved_users: int
    #: wall-clock spent re-partitioning and re-solving the territory.
    recovery_seconds: float


@dataclass(frozen=True)
class PoolReport:
    """What one snapshot transition cost the pool."""

    moved_users: int
    crossed_jurisdictions: int
    resolved_jurisdictions: int
    repartitioned: bool
    imbalance: float


class RebalancingPool:
    """A self-maintaining pool of anonymization servers."""

    def __init__(
        self,
        region: Rect,
        k: int,
        n_servers: int,
        imbalance_threshold: float = 2.5,
        max_depth: int = 40,
    ):
        if n_servers < 1:
            raise ReproError("need at least one server")
        if imbalance_threshold < 1.0:
            raise ReproError("imbalance threshold must be ≥ 1.0")
        self.region = region
        self.k = k
        self.n_servers = n_servers
        self.imbalance_threshold = imbalance_threshold
        self.max_depth = max_depth
        self.db: Optional[LocationDatabase] = None
        self._jurisdictions: List[Jurisdiction] = []
        self._members: Dict[int, Set[str]] = {}
        #: node_id → the manager owning that server's policy (None while
        #: the jurisdiction is empty).
        self._managers: Dict[int, Optional[EpochManager]] = {}
        self._jurisdiction_of: Dict[str, int] = {}
        self._next_shard_id: Optional[int] = None
        #: lifetime counters
        self.repartition_count = 0
        self.resolve_count = 0
        self.lost_servers = 0

    # -- lifecycle -------------------------------------------------------------

    def fit(self, db: LocationDatabase) -> "RebalancingPool":
        """Initial partition + solve; returns self."""
        self.db = db
        self._repartition()
        return self

    def _require_fit(self) -> LocationDatabase:
        if self.db is None:
            raise ReproError("call fit(db) before using the pool")
        return self.db

    def _repartition(self) -> None:
        """Re-draw jurisdictions from the current snapshot and re-solve
        every populated one."""
        tree = BinaryTree.build(
            self.region, self.db, self.k, max_depth=self.max_depth
        )
        self._jurisdictions = list(
            greedy_partition(tree, self.n_servers, self.k)
        )
        self._members = {
            j.node_id: set(tree.users_of(tree.nodes[j.node_id]))
            for j in self._jurisdictions
        }
        self._jurisdiction_of = {
            uid: node_id
            for node_id, members in self._members.items()
            for uid in members
        }
        # A repartition dissolves any live hand-off shards.
        self._managers = {}
        for jur in self._jurisdictions:
            self._refit(jur)
        self.repartition_count += 1

    def _refit(self, jur: Jurisdiction) -> None:
        """A fresh manager fitted to the jurisdiction's population."""
        members = self._members[jur.node_id]
        if not members:
            self._managers[jur.node_id] = None
            return
        self._managers[jur.node_id] = EpochManager(
            jur.rect,
            self.k,
            self.db.subset(sorted(members)),
            max_depth=self.max_depth,
        )
        self.resolve_count += 1

    def _route(self, point: Point) -> int:
        """The jurisdiction whose rectangle holds ``point`` (first match,
        in deterministic node-id order, for boundary points)."""
        for jur in self._jurisdictions:
            if jur.rect.contains(point):
                return jur.node_id
        raise ReproError(f"point {point} outside every jurisdiction")

    # -- snapshot evolution ------------------------------------------------------

    def advance(self, moves: Mapping[str, Point]) -> PoolReport:
        """Next snapshot: apply moves, re-solve what changed, re-balance
        if the load drifted too far.  A manager cannot add or remove
        users, so a jurisdiction a mover left or entered re-fits; the
        others repair in place."""
        db = self._require_fit()
        self.db = db.with_moves(moves)

        moved: Dict[int, Dict[str, Point]] = {}
        touched: Set[int] = set()
        crossed = 0
        for uid, new_point in moves.items():
            uid = str(uid)
            old_id = self._jurisdiction_of[uid]
            new_id = self._route(new_point)
            moved.setdefault(old_id, {})[uid] = new_point
            if new_id != old_id:
                crossed += 1
                touched.update((old_id, new_id))
                self._members[old_id].discard(uid)
                self._members[new_id].add(uid)
                self._jurisdiction_of[uid] = new_id

        # A jurisdiction stranded with 0 < population < k cannot
        # anonymize its users locally — movement across borders can
        # create this even though the initial partition could not.
        stranded = any(
            0 < len(self._members[j.node_id]) < self.k
            for j in self._jurisdictions
        )
        imbalance = self.current_imbalance()
        if stranded or imbalance > self.imbalance_threshold:
            self._repartition()
            return PoolReport(
                moved_users=len(moves),
                crossed_jurisdictions=crossed,
                resolved_jurisdictions=len(self._jurisdictions),
                repartitioned=True,
                imbalance=self.current_imbalance(),
            )

        for jur in self._jurisdictions:
            if jur.node_id in touched:
                self._refit(jur)
            elif jur.node_id in moved:
                self._managers[jur.node_id].advance(moved[jur.node_id])
                self.resolve_count += 1
        return PoolReport(
            moved_users=len(moves),
            crossed_jurisdictions=crossed,
            resolved_jurisdictions=len(set(moved) | touched),
            repartitioned=False,
            imbalance=imbalance,
        )

    # -- permanent server loss -----------------------------------------------------

    def server_failed(self, node_id: int) -> HandoffReport:
        """Hand a dead server's territory off to the surviving pool.

        The lost jurisdiction is removed, its territory re-partitioned
        into shards, each populated shard re-solved online (restoring
        fine policy-aware optimal cloaks — not the coarse territory
        rectangle), and each shard assigned to a rectangle-adjacent
        least-loaded survivor.  Shards then live as first-class
        jurisdictions, each a manager adopting its shard policy: later
        :meth:`advance` calls route moves into them and repair or re-fit
        them like any other server, and the next repartition dissolves
        them back into a balanced pool.
        """
        start = time.perf_counter()
        db = self._require_fit()
        dead = next((j for j in self._jurisdictions if j.node_id == node_id), None)
        if dead is None:
            raise ReproError(f"unknown jurisdiction {node_id}")
        members = sorted(self._members.get(node_id, set()))
        self._jurisdictions = [
            j for j in self._jurisdictions if j.node_id != node_id
        ]
        self._members.pop(node_id, None)
        self._managers.pop(node_id, None)
        self.lost_servers += 1
        if not members:
            return HandoffReport(
                dead_node_id=node_id,
                shard_ids=(),
                adopters={},
                resolved_users=0,
                recovery_seconds=time.perf_counter() - start,
            )
        base = max(
            [j.node_id for j in self._jurisdictions] + [node_id]
        ) + 1
        if self._next_shard_id is not None:
            base = max(base, self._next_shard_id)
        shards = handoff_shards(
            dead.rect,
            db.subset(members).rows(),
            self.k,
            max_depth=self.max_depth,
            base_node_id=base,
        )
        self._next_shard_id = base + len(shards)
        load = {
            j.node_id: len(self._members[j.node_id])
            for j in self._jurisdictions
        }
        adopters = assign_adopters(
            [jur for jur, __, ___ in shards], self._jurisdictions, load
        )
        for jur, policy, __ in shards:
            self._jurisdictions.append(jur)
            shard_members = (
                {uid for uid, ___ in policy.items()} if policy else set()
            )
            self._members[jur.node_id] = shard_members
            for uid in shard_members:
                self._jurisdiction_of[uid] = jur.node_id
            self._managers[jur.node_id] = None
            if policy is not None:
                self._managers[jur.node_id] = EpochManager(
                    jur.rect, self.k, policy=policy, max_depth=self.max_depth
                )
                self.resolve_count += 1
        self._jurisdictions.sort(key=lambda j: j.node_id)
        return HandoffReport(
            dead_node_id=node_id,
            shard_ids=tuple(jur.node_id for jur, __, ___ in shards),
            adopters=adopters,
            resolved_users=len(members),
            recovery_seconds=time.perf_counter() - start,
        )

    # -- views --------------------------------------------------------------------

    def current_imbalance(self) -> float:
        """Max/mean users per server, counting *all* servers.

        Unlike :func:`~repro.trees.partition.load_imbalance` (which
        ignores empty partitions when describing a map split), a pool
        cares about idle servers: a drained jurisdiction is wasted
        capacity while its neighbours overload, so the mean runs over
        the whole pool.
        """
        counts = [len(self._members[j.node_id]) for j in self._jurisdictions]
        total = sum(counts)
        if total == 0 or not counts:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean

    def master_policy(self) -> MasterPolicy:
        """The current distributed policy over the whole snapshot."""
        db = self._require_fit()
        servers = []
        for jur in self._jurisdictions:
            refreshed = Jurisdiction(
                rect=jur.rect,
                is_semi=jur.is_semi,
                count=len(self._members[jur.node_id]),
                node_id=jur.node_id,
            )
            manager = self._managers[jur.node_id]
            policy = None if manager is None else manager.active.policy
            servers.append(ServerPolicy(refreshed, policy))
        return MasterPolicy(servers, db)

    @property
    def n_jurisdictions(self) -> int:
        return len(self._jurisdictions)
