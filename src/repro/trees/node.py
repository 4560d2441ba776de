"""Shared node machinery for the spatial trees.

Both the quad tree (paper §IV) and the binary tree of quadrants and
semi-quadrants (§V) are trees of axis-aligned rectangles over a map.
Each node tracks ``d(m)`` — the number of location-database points that
fall inside its rectangle — which is the only per-node statistic the
configuration framework (Definition 7) needs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..core.errors import TreeError
from ..core.geometry import Point, Rect

__all__ = ["SpatialNode", "SpatialTree"]


class SpatialNode:
    """One node of a spatial partitioning tree.

    Attributes
    ----------
    rect:
        The rectangle this node covers; its area is the cloak cost unit.
    depth:
        Distance from the root (root has depth 0).  The paper calls this
        ``h(m)`` — "height" measured from the root — in Lemma 5.
    children:
        Sub-rectangle nodes partitioning ``rect``; empty for leaves.
    count:
        ``d(m)`` — how many database locations lie in ``rect``.
    point_index:
        For leaves, the indices (into the tree's coordinate array) of the
        points inside; ``None`` for internal nodes, whose membership is
        the union of their children's.
    """

    __slots__ = (
        "node_id",
        "rect",
        "depth",
        "parent",
        "children",
        "count",
        "point_index",
        "is_semi",
    )

    def __init__(
        self,
        node_id: int,
        rect: Rect,
        depth: int,
        parent: Optional["SpatialNode"] = None,
        is_semi: bool = False,
    ):
        self.node_id = node_id
        self.rect = rect
        self.depth = depth
        self.parent = parent
        self.children: List["SpatialNode"] = []
        self.count = 0
        self.point_index: Optional[np.ndarray] = None
        #: True for semi-quadrant (rectangular) nodes of the binary tree.
        self.is_semi = is_semi

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def area(self) -> float:
        return self.rect.area

    def contains(self, point: Point) -> bool:
        return self.rect.contains(point)

    def child_for(self, point: Point) -> "SpatialNode":
        """The child whose rectangle contains ``point``.

        Rectangle containment is closed, so a point on a shared edge lies
        in two children; the first match wins, which keeps descent
        deterministic.
        """
        for child in self.children:
            if child.rect.contains(point):
                return child
        raise TreeError(f"point {point} escapes node {self.node_id} ({self.rect})")

    def iter_subtree(self) -> Iterator["SpatialNode"]:
        """Pre-order traversal of the subtree rooted here."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_postorder(self) -> Iterator["SpatialNode"]:
        """Post-order traversal (children before parents) — the order the
        bottom-up dynamic program consumes nodes in."""
        # Iterative post-order: emit each node after all of its children.
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or node.is_leaf:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))

    def path_to_root(self) -> Iterator["SpatialNode"]:
        """This node, its parent, ... up to the root."""
        node: Optional[SpatialNode] = self
        while node is not None:
            yield node
            node = node.parent

    def leaf_for(self, point: Point) -> "SpatialNode":
        """Descend from this node to the leaf containing ``point``."""
        node = self
        while not node.is_leaf:
            node = node.child_for(point)
        return node

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "node"
        return (
            f"<{kind} id={self.node_id} depth={self.depth} d={self.count} "
            f"rect={self.rect}>"
        )


class SpatialTree:
    """Queries the quad and binary trees share; a tree provides
    ``region``, ``root``, its ``nodes`` and ``leaves()``."""

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def height(self) -> int:
        """Maximum node depth (root = 0): the deepest node is a leaf."""
        return max(leaf.depth for leaf in self.leaves())

    def iter_postorder(self) -> Iterator[SpatialNode]:
        return self.root.iter_postorder()

    def leaf_for(self, point: Point) -> SpatialNode:
        if not self.region.contains(point):
            raise TreeError(f"point {point} lies outside the map {self.region}")
        return self.root.leaf_for(point)

    def smallest_node_with(
        self, point: Point, min_count: int
    ) -> Optional[SpatialNode]:
        """The deepest node containing ``point`` with ``d ≥ min_count``.

        This is exactly the cloak the policy-unaware baselines pick (the
        quad tree's PUQ [16], the binary tree's PUB): the smallest node
        around the requester that still holds at least k users.  Returns
        None when even the root is too sparse.
        """
        if self.root.count < min_count or not self.region.contains(point):
            return None
        best = None
        node = self.root
        while True:
            if node.count >= min_count:
                best = node
            if node.is_leaf:
                return best
            node = node.child_for(point)
            if node.count < min_count:
                return best

    def stats(self) -> Dict[str, float]:
        """Shape statistics for the Figure 3 experiment."""
        leaf_counts = [leaf.count for leaf in self.leaves()]
        return {
            "nodes": len(self),
            "leaves": len(leaf_counts),
            "height": self.height,
            "max_leaf_count": max(leaf_counts) if leaf_counts else 0,
            "mean_leaf_count": float(np.mean(leaf_counts)) if leaf_counts else 0.0,
        }


def partition_indices(
    coords: np.ndarray, indices: np.ndarray, rects: Sequence[Rect]
) -> List[np.ndarray]:
    """Split ``indices`` among ``rects`` (a partition of the parent rect).

    Boundary points belong to the *first* rectangle that contains them,
    mirroring :meth:`SpatialNode.child_for`, so that counts stay
    consistent with point descent.
    """
    remaining = indices
    out: List[np.ndarray] = []
    for i, rect in enumerate(rects):
        if i == len(rects) - 1:
            out.append(remaining)
            break
        xs = coords[remaining, 0]
        ys = coords[remaining, 1]
        inside = (
            (xs >= rect.x1) & (xs <= rect.x2) & (ys >= rect.y1) & (ys <= rect.y2)
        )
        out.append(remaining[inside])
        remaining = remaining[~inside]
    return out
