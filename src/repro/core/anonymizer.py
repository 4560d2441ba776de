"""High-level anonymization façade.

:class:`PolicyAwareAnonymizer` is the one-stop entry point a CSP (or a
reader of the paper) uses: give it a map region, an anonymity degree
``k`` and a location snapshot; it builds the lazy binary tree, runs the
optimized DP, extracts an optimal policy and then serves individual
service requests in O(1) per request — the "sub-second initialization,
milliseconds per query" operating point the paper argues for in §VII.

:class:`IncrementalAnonymizer` additionally carries the DP matrix across
location snapshots, repairing only the dirty portion of the tree when
users move (§IV "Incremental Maintenance of M", evaluated in Fig 5(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.locationdb import LocationDatabase
from ..trees.binarytree import BinaryTree
from .binary_dp import TreeSolution, resolve_dirty, solve
from .errors import ReproError
from .geometry import Point, Rect
from .policy import CloakingPolicy
from .requests import AnonymizedRequest, ServiceRequest, request_id_factory

__all__ = ["PolicyAwareAnonymizer", "IncrementalAnonymizer", "UpdateReport"]


class PolicyAwareAnonymizer:
    """Bulk anonymization for one location snapshot.

    Parameters
    ----------
    region:
        The square map (or a 1:2 semi-quadrant jurisdiction) the
        anonymizer is responsible for.
    k:
        Sender anonymity degree — against *policy-aware* attackers.
    max_depth:
        Binary-tree depth limit; two binary levels make one quad level.
    prune:
        Apply the Lemma-5 search-space cap (keep True outside ablations).
    engine:
        DP evaluator — ``"flat"`` (default) for the level-batched
        structure-of-arrays engine, ``"object"`` for the original
        node-at-a-time oracle.  Identical costs either way.
    """

    def __init__(
        self,
        region: Rect,
        k: int,
        max_depth: int = 40,
        prune: bool = True,
        engine: str = "flat",
    ):
        if k < 1:
            raise ReproError(f"k must be ≥ 1, got {k}")
        self.region = region
        self.k = k
        self.max_depth = max_depth
        self.prune = prune
        self.engine = engine
        self.tree: Optional[BinaryTree] = None
        self.solution: Optional[TreeSolution] = None
        self._policy: Optional[CloakingPolicy] = None
        self._next_request_id = request_id_factory()

    # -- bulk phase -----------------------------------------------------------

    def fit(self, db: LocationDatabase) -> "PolicyAwareAnonymizer":
        """Run bulk anonymization for snapshot ``db``; returns self."""
        self.tree = BinaryTree.build(
            self.region, db, self.k, max_depth=self.max_depth
        )
        self.solution = solve(
            self.tree, self.k, prune=self.prune, engine=self.engine
        )
        self._policy = None  # extracted lazily
        return self

    def _require_fit(self) -> TreeSolution:
        if self.solution is None:
            raise ReproError("call fit(db) before using the anonymizer")
        return self.solution

    @property
    def optimal_cost(self) -> float:
        """``Cost(P, D)`` of the computed optimal policy."""
        return self._require_fit().optimal_cost

    @property
    def policy(self) -> CloakingPolicy:
        """The optimal policy-aware sender k-anonymous policy."""
        if self._policy is not None:
            # Either lazily extracted below, or adopted by a journal
            # restore (which may not carry DP state at all).
            return self._policy
        self._require_fit()
        self._policy = self.solution.policy()
        return self._policy

    # -- serving phase ----------------------------------------------------------

    def anonymize(self, request: ServiceRequest) -> AnonymizedRequest:
        """Serve one request: a policy lookup plus id assignment."""
        return self.policy.anonymize(request, self._next_request_id)

    def average_cloak_area(self) -> float:
        return self.policy.average_cloak_area()


@dataclass(frozen=True)
class UpdateReport:
    """What one incremental snapshot transition cost."""

    moved_users: int
    dirty_nodes: int
    recomputed_nodes: int
    total_nodes: int

    @property
    def recomputed_fraction(self) -> float:
        if self.total_nodes == 0:
            return 0.0
        return self.recomputed_nodes / self.total_nodes


class IncrementalAnonymizer(PolicyAwareAnonymizer):
    """An anonymizer that follows the location database across snapshots.

    After :meth:`fit`, call :meth:`update` with each snapshot's moves;
    only the dirty part of the DP matrix is recomputed.  The result is
    always identical (in cost, and in anonymity guarantee) to a bulk
    re-computation — Figure 5(b) measures when it is also *faster*.
    """

    def restore(
        self,
        db: LocationDatabase,
        policy: CloakingPolicy,
        solution: Optional[TreeSolution] = None,
    ) -> "IncrementalAnonymizer":
        """Adopt journalled state instead of re-running bulk anonymization.

        The recovery path of a restarted CSP: rebuild the (deterministic)
        tree for snapshot ``db`` — cheap relative to the DP — and serve
        the recovered ``policy`` directly.  With ``solution`` (rehydrated
        DP state, see :func:`repro.core.flat_dp.rehydrate_solution`) the
        next :meth:`update` repairs incrementally; without it the first
        :meth:`update` falls back to one bulk solve, but serving works
        immediately either way.
        """
        self.tree = BinaryTree.build(
            self.region, db, self.k, max_depth=self.max_depth
        )
        self.solution = solution
        self._policy = policy
        return self

    def update(self, moves: Mapping[str, Point]) -> UpdateReport:
        """Advance to the next snapshot where ``moves`` users relocated."""
        if self.tree is None:
            raise ReproError("call fit(db) or restore(...) before update()")
        dirty = self.tree.apply_moves(moves)
        if self.solution is None:
            # Cold-restored (no journalled DP state): the first repair
            # is a full re-solve of the already-updated tree.
            self.solution = solve(
                self.tree, self.k, prune=self.prune, engine=self.engine
            )
            recomputed = len(self.tree)
        else:
            self.solution, recomputed = resolve_dirty(self.solution, dirty)
        self._policy = None
        return UpdateReport(
            moved_users=len(moves),
            dirty_nodes=len(dirty),
            recomputed_nodes=recomputed,
            total_nodes=len(self.tree),
        )

    @property
    def current_db(self) -> LocationDatabase:
        """The snapshot the current policy is valid for."""
        if self.tree is None:
            raise ReproError("call fit(db) or restore(...) first")
        return self.tree.db
