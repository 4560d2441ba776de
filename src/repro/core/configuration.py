"""Configurations and the k-summation property (Definitions 7–9).

The key insight behind the paper's PTIME result: both the cost of a
quad/binary-tree policy and whether it is policy-aware sender
k-anonymous depend only on *how many* locations each tree node cloaks,
not on *which* ones (Lemma 1).  A *configuration* represents a whole
equivalence class of policies by tracking, for each node ``m``, the
number ``C(m)`` of locations inside ``m`` that are **not** cloaked by
``m`` or any of its descendants ("passed up" to the ancestors).

This module provides the configuration object, its validity check
(Definition 7), its cost (Definition 8, shown equal to the represented
policies' cost by Lemma 2), the k-summation test (Definition 9, shown
equivalent to policy-aware k-anonymity by Lemma 3), both directions of
the configuration ↔ policy correspondence, and a brute-force enumerator
used by the test suite to certify the DP's optimality on small inputs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping

from .errors import ConfigurationError
from .policy import CloakingPolicy

__all__ = [
    "Configuration",
    "configuration_of_policy",
    "policy_from_configuration",
    "enumerate_ksummation_configurations",
]


class Configuration:
    """A function from tree nodes to "passed up" counts (Definition 7)."""

    def __init__(self, tree, values: Mapping[int, int]):
        self.tree = tree
        self._values: Dict[int, int] = dict(values)

    def __getitem__(self, node_id: int) -> int:
        try:
            return self._values[node_id]
        except KeyError:
            raise ConfigurationError(f"no value for node {node_id}") from None

    def cloaked_at(self, node) -> int:
        """How many locations node ``m`` itself cloaks.

        For a leaf that is ``d(m) - C(m)``; for an internal node it is
        ``Δ - C(m)`` with ``Δ`` the sum over children (Definition 8's
        ``f`` without the area factor).
        """
        if node.is_leaf:
            return node.count - self[node.node_id]
        delta = sum(self[child.node_id] for child in node.children)
        return delta - self[node.node_id]

    def validate(self) -> None:
        """Check Definition 7; raise :class:`ConfigurationError` if violated."""
        for node in self.tree.iter_postorder():
            value = self[node.node_id]
            if value < 0:
                raise ConfigurationError(f"negative C({node.node_id}) = {value}")
            if node.is_leaf:
                if value > node.count:
                    raise ConfigurationError(
                        f"leaf {node.node_id}: C = {value} exceeds d = {node.count}"
                    )
            else:
                delta = sum(self[child.node_id] for child in node.children)
                if value > delta:
                    raise ConfigurationError(
                        f"node {node.node_id}: C = {value} exceeds Δ = {delta}"
                    )

    @property
    def is_complete(self) -> bool:
        """Complete configurations leave nothing uncloaked: C(root) = 0."""
        return self[self.tree.root.node_id] == 0

    def cost(self) -> float:
        """``Cost_c(C, D)`` of Definition 8.

        Each node contributes (number of locations it cloaks) × (its
        area); by Lemma 2 this equals ``Cost(P, D)`` for every policy
        ``P`` in the represented equivalence class.
        """
        total = 0.0
        for node in self.tree.iter_postorder():
            total += self.cloaked_at(node) * node.rect.area
        return total

    def satisfies_ksummation(self, k: int) -> bool:
        """Definition 9: every node cloaks either nothing or ≥ k locations.

        By Lemma 3, this holds iff the represented policies are
        policy-aware sender k-anonymous on the snapshot.
        """
        for node in self.tree.iter_postorder():
            value = self[node.node_id]
            if node.is_leaf:
                available = node.count
            else:
                available = sum(self[child.node_id] for child in node.children)
            if available < k:
                # Clauses (i)/(iii): too few to cloak — pass all up.
                if value != available:
                    return False
            else:
                # Clauses (ii)/(iv): cloak nothing, or at least k.
                if value != available and value > available - k:
                    return False
        return True


def configuration_of_policy(tree, policy: CloakingPolicy) -> Configuration:
    """The configuration representing a tree policy's equivalence class.

    ``policy`` must cloak every user with the rectangle of some node of
    ``tree`` — the natural output of quad/binary-tree algorithms.
    """
    rect_to_node = {}
    for node in tree.iter_postorder():
        # Distinct nodes always have distinct rectangles in both trees.
        rect_to_node[node.rect] = node
    cloaked_here: Dict[int, int] = {}
    for user_id, region in policy.items():
        node = rect_to_node.get(region)
        if node is None:
            raise ConfigurationError(
                f"cloak {region} of user {user_id!r} is not a tree node"
            )
        location = policy.db.location_of(user_id)
        if not node.rect.contains(location):
            raise ConfigurationError(
                f"user {user_id!r} cloaked by a node not containing her"
            )
        cloaked_here[node.node_id] = cloaked_here.get(node.node_id, 0) + 1

    values: Dict[int, int] = {}
    for node in tree.iter_postorder():
        if node.is_leaf:
            available = node.count
        else:
            available = sum(values[child.node_id] for child in node.children)
        values[node.node_id] = available - cloaked_here.get(node.node_id, 0)
        if values[node.node_id] < 0:
            raise ConfigurationError(
                f"node {node.node_id} cloaks more users than pass through it"
            )
    return Configuration(tree, values)


def policy_from_configuration(
    tree, config: Configuration, name: str = "from-config", reverse: bool = False
) -> CloakingPolicy:
    """Materialize one concrete policy from an equivalence class.

    The choice of *which* ``C``-mandated locations each node cloaks is
    arbitrary (Lemma 1); we pick deterministically — lowest row index
    first — so reruns produce identical policies.  ``reverse=True``
    flips the tie-breaking (highest rows first), yielding a *different*
    member of the same equivalence class: the lemma checkers use the
    pair to demonstrate cost/anonymity invariance within a class.
    """
    cloaks: Dict[str, object] = {}

    def assign(node, passed_up_target: int) -> List[int]:
        """Return the rows node ``m`` passes up, cloaking the rest here."""
        if node.is_leaf:
            pool = sorted(
                node.point_index
                if isinstance(node.point_index, set)
                else list(node.point_index),
                reverse=reverse,
            )
        else:
            pool = []
            for child in node.children:
                pool.extend(assign(child, config[child.node_id]))
        n_cloak = len(pool) - passed_up_target
        if n_cloak < 0:
            raise ConfigurationError(
                f"node {node.node_id} asked to pass up {passed_up_target} "
                f"of only {len(pool)} locations"
            )
        for row in pool[:n_cloak]:
            cloaks[tree.user_ids[row]] = node.rect
        return pool[n_cloak:]

    leftover = assign(tree.root, config[tree.root.node_id])
    if config.is_complete and leftover:
        raise ConfigurationError("complete configuration left users uncloaked")
    if not config.is_complete:
        raise ConfigurationError(
            "cannot materialize a policy from an incomplete configuration: "
            f"{len(leftover)} users would stay uncloaked"
        )
    return CloakingPolicy(cloaks, tree.db, name=name)


def enumerate_ksummation_configurations(
    tree, k: int, max_nodes: int = 64
) -> Iterator[Configuration]:
    """Yield *every* complete k-summation configuration of ``tree``.

    Exponential — guarded by ``max_nodes`` — and intended solely for
    exhaustively certifying the DP on small instances in tests.
    """
    nodes = list(tree.iter_postorder())
    if len(nodes) > max_nodes:
        raise ConfigurationError(
            f"refusing to enumerate configurations of a {len(nodes)}-node tree"
        )

    def options(available: int) -> List[int]:
        if available < k:
            return [available]
        return [available] + list(range(0, available - k + 1))

    def recurse(node) -> Iterator[Dict[int, int]]:
        if node.is_leaf:
            for value in options(node.count):
                yield {node.node_id: value}
            return
        child_maps = [list(recurse(child)) for child in node.children]

        def combine(idx: int, acc: Dict[int, int], delta: int):
            if idx == len(child_maps):
                for value in options(delta):
                    out = dict(acc)
                    out[node.node_id] = value
                    yield out
                return
            for cm in child_maps[idx]:
                merged = dict(acc)
                merged.update(cm)
                child = node.children[idx]
                yield from combine(idx + 1, merged, delta + cm[child.node_id])

        yield from combine(0, {}, 0)

    for values in recurse(tree.root):
        if values[tree.root.node_id] == 0:
            yield Configuration(tree, values)
