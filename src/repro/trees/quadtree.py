"""Quad trees over a square map (paper §IV).

The quad tree is the cloak vocabulary of the first-cut ``Bulk_dp``
algorithm (Algorithm 1) and of the policy-unaware quad baseline (PUQ,
after Gruteser & Grunwald [16]).  The root covers the whole map; every
internal node has exactly four children — its equal quadrants.

Two build modes are provided:

* :meth:`QuadTree.build_full` — materialize every node down to a fixed
  depth (the "static quad-tree based partitioning" of Example 1; only
  sensible for small maps and tests).
* :meth:`QuadTree.build_adaptive` — split a quadrant only while it holds
  at least ``split_threshold`` locations, the lazy materialization of
  §V ("we split a (semi-)quadrant only if it contains sufficient users
  to maintain anonymity").  Pruning below ``d(m) < k`` is exact for the
  DP: k-summation forces such nodes to pass everything up.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.errors import TreeError
from ..core.geometry import Rect
from ..core.locationdb import LocationDatabase
from .node import SpatialNode, SpatialTree, partition_indices

__all__ = ["QuadTree"]


class QuadTree(SpatialTree):
    """A quad tree annotated with per-node location counts ``d(m)``."""

    def __init__(self, root_rect: Rect, db: LocationDatabase):
        if root_rect.width != root_rect.height:
            # The paper assumes a square map for the quad tree; quadrants
            # of a square are squares, which Figure 1 relies on.
            raise TreeError(f"quad tree root must be square, got {root_rect}")
        self.region = root_rect
        self.db = db
        self.user_ids = db.user_ids()
        self.coords = db.coords_array()
        self._next_id = 0
        self.root = self._new_node(root_rect, depth=0, parent=None)
        all_idx = np.arange(len(self.user_ids))
        self.root.count = len(all_idx)
        self.root.point_index = all_idx
        self.nodes: List[SpatialNode] = [self.root]

    # -- construction ----------------------------------------------------------

    def _new_node(
        self, rect: Rect, depth: int, parent: Optional[SpatialNode]
    ) -> SpatialNode:
        node = SpatialNode(self._next_id, rect, depth, parent)
        self._next_id += 1
        return node

    @classmethod
    def build_full(
        cls, region: Rect, db: LocationDatabase, depth: int
    ) -> "QuadTree":
        """Materialize the complete quad tree of the given depth."""
        tree = cls(region, db)
        frontier = [tree.root]
        for _ in range(depth):
            next_frontier = []
            for node in frontier:
                tree._split(node)
                next_frontier.extend(node.children)
            frontier = next_frontier
        return tree

    @classmethod
    def build_adaptive(
        cls,
        region: Rect,
        db: LocationDatabase,
        split_threshold: int,
        max_depth: int = 24,
    ) -> "QuadTree":
        """Split quadrants while they hold ≥ ``split_threshold`` locations.

        For policy-aware anonymization pass ``split_threshold=k``: any
        node with fewer than k users can never cloak, so its subtree is
        irrelevant to the optimum.
        """
        if split_threshold < 1:
            raise TreeError("split_threshold must be ≥ 1")
        tree = cls(region, db)
        frontier = [tree.root]
        while frontier:
            node = frontier.pop()
            if node.depth >= max_depth or node.count < split_threshold:
                continue
            tree._split(node)
            frontier.extend(node.children)
        return tree

    def _split(self, node: SpatialNode) -> None:
        """Create the four quadrant children of ``node`` and distribute
        its points among them."""
        if not node.is_leaf:
            raise TreeError(f"node {node.node_id} is already split")
        rects = list(node.rect.quadrants())
        parts = partition_indices(self.coords, node.point_index, rects)
        for rect, idx in zip(rects, parts):
            child = self._new_node(rect, node.depth + 1, node)
            child.count = len(idx)
            child.point_index = idx
            node.children.append(child)
            self.nodes.append(child)
        node.point_index = None

    # -- queries ---------------------------------------------------------------

    def leaves(self) -> List[SpatialNode]:
        return [node for node in self.nodes if node.is_leaf]

    def node_by_id(self, node_id: int) -> SpatialNode:
        node = self.nodes[node_id]
        if node.node_id != node_id:  # nodes list is id-ordered by build
            raise TreeError(f"node id mismatch for {node_id}")
        return node

    def users_of(self, node: SpatialNode) -> List[str]:
        """User ids inside ``node``'s quadrant."""
        return [self.user_ids[i] for i in self.point_indices_of(node)]

    def point_indices_of(self, node: SpatialNode) -> np.ndarray:
        """Indices (into the coordinate array) of points inside ``node``."""
        if node.is_leaf:
            return node.point_index
        parts = [self.point_indices_of(child) for child in node.children]
        return np.concatenate(parts) if parts else np.empty(0, dtype=int)
