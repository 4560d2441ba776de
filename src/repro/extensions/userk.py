"""User-specified k — the paper's first declared piece of future work.

The paper ("Scope", §I) fixes one global anonymity degree k and leaves
*user-specified k* (as in Gedik & Liu [14] and Chow & Mokbel [11]) to
future work.  This module extends the configuration framework to
per-user degrees while keeping the policy-aware guarantee:

    every used cloak's *assigned group* S must satisfy
    |S| ≥ max_{u ∈ S} k_u.

**Generalized equivalence classes.**  Lemma 1 survives with one twist:
anonymity and cost now depend on how many users *of each privacy class*
(distinct k value) each node cloaks, not just on the total.  A
configuration therefore maps each tree node to a **vector** of per-class
pass-up counts, and the k-summation clause becomes: at every node, the
cloaked vector ``g`` is either all-zero or satisfies
``total(g) ≥ max{k_j : g_j > 0}``.

**Complexity.**  The DP state per node is a dict over per-class count
vectors; with C classes this is O(∏ d_j) states — polynomial for fixed
C, matching the flavor of Theorem 2, but with a much larger constant
than the scalar DP.  A Lemma-5-style cap (prune total pass-up beyond
``(k_max + 1)·depth``) keeps medium instances tractable; it is proven
for the scalar case and *empirically validated* here against the
unpruned DP and exhaustive enumeration (see tests/test_userk.py) —
disable with ``prune=False`` for certified optimality.

Use :func:`solve_user_k` on a :class:`~repro.trees.binarytree.BinaryTree`
built with ``split_threshold = min(k_of.values())``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.configuration import ConfigurationError
from ..core.errors import NoFeasiblePolicyError, ReproError
from ..core.policy import CloakingPolicy

__all__ = ["UserKSolution", "solve_user_k", "audit_user_k", "min_k_slack"]

_INF = float("inf")

#: Per-class pass-up counts, one entry per distinct k (ascending order).
Vector = Tuple[int, ...]


def _vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _group_valid(g: Vector, ks: Sequence[int]) -> bool:
    """The generalized k-summation clause for a cloaked vector ``g``."""
    total = sum(g)
    if total == 0:
        return True
    needed = max(k for k, count in zip(ks, g) if count > 0)
    return total >= needed


@dataclass
class _State:
    cost: float
    #: backpointer: children's chosen vectors (internal) or None (leaf).
    children: Optional[Tuple[Vector, ...]]


class UserKSolution:
    """The completed per-user-k DP, ready for cost queries/extraction."""

    def __init__(
        self,
        tree,
        ks: Tuple[int, ...],
        class_of_row: Dict[int, int],
        states: Dict[int, Dict[Vector, _State]],
    ):
        self.tree = tree
        self.ks = ks
        self._class_of_row = class_of_row
        self._states = states

    @property
    def optimal_cost(self) -> float:
        zero = tuple(0 for __ in self.ks)
        root_states = self._states[self.tree.root.node_id]
        state = root_states.get(zero)
        if state is None or state.cost == _INF:
            raise NoFeasiblePolicyError(
                "no policy-aware anonymization satisfies all user-specified "
                "k values on this snapshot"
            )
        return state.cost

    def policy(self, name: str = "user-k-optimal") -> CloakingPolicy:
        """Extract one concrete optimal policy (top-down, backpointers)."""
        __ = self.optimal_cost
        cloaks: Dict[str, object] = {}
        tree = self.tree

        def class_rows(node) -> Dict[int, List[int]]:
            per_class: Dict[int, List[int]] = {j: [] for j in range(len(self.ks))}
            for row in sorted(
                node.point_index
                if isinstance(node.point_index, set)
                else list(node.point_index)
            ):
                per_class[self._class_of_row[row]].append(row)
            return per_class

        def assign(node, u: Vector) -> Dict[int, List[int]]:
            """Return per-class rows passed up, cloaking the rest here."""
            if node.is_leaf:
                pool = class_rows(node)
            else:
                state = self._states[node.node_id][u]
                pool = {j: [] for j in range(len(self.ks))}
                for child, child_u in zip(node.children, state.children):
                    child_pool = assign(child, child_u)
                    for j, rows in child_pool.items():
                        pool[j].extend(rows)
            for j, passed in enumerate(u):
                n_cloak = len(pool[j]) - passed
                if n_cloak < 0:
                    raise ReproError(
                        f"extraction inconsistency at node {node.node_id}"
                    )
                for row in pool[j][:n_cloak]:
                    cloaks[tree.user_ids[row]] = node.rect
                pool[j] = pool[j][n_cloak:]
            return pool

        zero = tuple(0 for __ in self.ks)
        assign(tree.root, zero)
        return CloakingPolicy(cloaks, tree.db, name=name)


def _greedy_group(delta: Vector, t: int, ks: Sequence[int]) -> Optional[Vector]:
    """The dominant way to cloak exactly ``t`` users out of ``delta``.

    *Class-substitution dominance*: a relaxed user passed up to the
    ancestors is universally substitutable for a strict one (every
    ancestor group satisfying the strict user also satisfies the relaxed
    one), so among all valid groups of size ``t`` — which all cost the
    same here — the one cloaking the strictest available users first
    leaves the most flexible pass-up and dominates the rest.  Class
    ``j`` may join a group of size ``t`` only when ``t ≥ k_j``.

    Returns None when no valid group of size ``t`` exists.
    """
    if t == 0:
        return tuple(0 for __ in delta)
    g = [0] * len(delta)
    remaining = t
    for j in range(len(delta) - 1, -1, -1):
        if remaining == 0:
            break
        if t >= ks[j]:
            take = min(delta[j], remaining)
            g[j] = take
            remaining -= take
    if remaining:
        return None
    return tuple(g)


def _prune_states(
    states: Dict[Vector, _State], cap_total: Optional[int], d_vec: Vector
) -> Dict[Vector, _State]:
    """Drop dominated and (optionally) over-cap states.

    Dominance: for equal pass-up *totals*, a state whose suffix sums
    (counts of class ≥ j, for every j) are all ≤ another's and whose
    cost is ≤ dominates it — the substitution argument above.
    """
    by_total: Dict[int, List[Tuple[Vector, _State]]] = {}
    for u, state in states.items():
        if (
            cap_total is not None
            and sum(u) > cap_total
            and u != d_vec  # the pass-everything sentinel always survives
        ):
            continue
        by_total.setdefault(sum(u), []).append((u, state))

    def suffixes(u: Vector) -> Vector:
        out = []
        acc = 0
        for value in reversed(u):
            acc += value
            out.append(acc)
        return tuple(out)

    pruned: Dict[Vector, _State] = {}
    for __, bucket in by_total.items():
        kept: List[Tuple[Vector, Vector, _State]] = []
        for u, state in sorted(
            bucket, key=lambda item: (suffixes(item[0]), item[1].cost)
        ):
            sfx = suffixes(u)
            dominated = any(
                all(a <= b for a, b in zip(k_sfx, sfx))
                and k_state.cost <= state.cost + 1e-12
                for __, k_sfx, k_state in kept
            )
            if not dominated:
                kept.append((u, sfx, state))
        for u, __, state in kept:
            pruned[u] = state
    return pruned


def _leaf_states(
    node,
    ks: Tuple[int, ...],
    d_vec: Vector,
    cap_total: Optional[int],
) -> Dict[Vector, _State]:
    states: Dict[Vector, _State] = {}
    area = node.rect.area
    for t in range(sum(d_vec) + 1):
        g = _greedy_group(d_vec, t, ks)
        if g is None:
            continue
        u = _vec_sub(d_vec, g)
        cost = t * area
        prior = states.get(u)
        if prior is None or cost < prior.cost:
            states[u] = _State(cost, None)
    return _prune_states(states, cap_total, d_vec)


def _combine_children(
    child_states: Sequence[Dict[Vector, _State]],
) -> Dict[Vector, Tuple[float, Tuple[Vector, ...]]]:
    """Min-plus over vector sums of the children's state dicts."""
    combined: Dict[Vector, Tuple[float, Tuple[Vector, ...]]] = {
        (): (0.0, ())
    }
    first = True
    for states in child_states:
        merged: Dict[Vector, Tuple[float, Tuple[Vector, ...]]] = {}
        for acc_vec, (acc_cost, acc_children) in combined.items():
            for u, state in states.items():
                key = u if first else _vec_add(acc_vec, u)
                cost = acc_cost + state.cost
                prior = merged.get(key)
                if prior is None or cost < prior[0]:
                    merged[key] = (cost, acc_children + (u,))
        combined = merged
        first = False
    return combined


def _internal_states(
    node,
    ks: Tuple[int, ...],
    child_states: Sequence[Dict[Vector, _State]],
    cap_total: Optional[int],
    d_vec: Vector,
) -> Dict[Vector, _State]:
    area = node.rect.area
    combined = _combine_children(child_states)
    # The children's pass-up vectors are themselves subject to the
    # substitution dominance — prune before fanning out group sizes.
    delta_states = _prune_states(
        {
            delta: _State(cost, children)
            for delta, (cost, children) in combined.items()
        },
        None,
        d_vec,
    )
    states: Dict[Vector, _State] = {}
    for delta, delta_state in delta_states.items():
        # Enumerate only group *sizes*; the split within a size is the
        # dominant greedy one (strictest users first).
        for t in range(sum(delta) + 1):
            g = _greedy_group(delta, t, ks)
            if g is None:
                continue
            u = _vec_sub(delta, g)
            cost = delta_state.cost + t * area
            prior = states.get(u)
            if prior is None or cost < prior.cost:
                states[u] = _State(cost, delta_state.children)
    return _prune_states(states, cap_total, d_vec)


def solve_user_k(
    tree,
    k_of: Mapping[str, int],
    prune: bool = True,
    max_states: int = 2_000_000,
) -> UserKSolution:
    """Optimal policy-aware anonymization with per-user k values.

    ``k_of`` maps every user of ``tree.db`` to her required anonymity
    degree.  ``prune`` applies the Lemma-5-style total-pass-up cap
    (empirically lossless; turn off for certified optimality on small
    instances).  ``max_states`` guards against state-space blow-up on
    inputs too large for the vector DP.
    """
    users = tree.db.user_ids()
    missing = [u for u in users if u not in k_of]
    if missing:
        raise ReproError(
            f"k_of lacks entries for {len(missing)} users "
            f"(first: {missing[:3]!r})"
        )
    bad = {u: k for u, k in k_of.items() if k < 1}
    if bad:
        raise ReproError(f"k values must be ≥ 1: {dict(list(bad.items())[:3])}")

    ks = tuple(sorted({int(k_of[u]) for u in users}))
    if not ks:
        ks = (1,)
    class_index = {k: j for j, k in enumerate(ks)}
    class_of_row = {
        row: class_index[int(k_of[uid])]
        for row, uid in enumerate(tree.user_ids)
    }
    k_max = ks[-1]

    # Per-node class-count vectors, bottom-up.
    d_vec: Dict[int, Vector] = {}
    for node in tree.iter_postorder():
        if node.is_leaf:
            counts = [0] * len(ks)
            for row in node.point_index:
                counts[class_of_row[row]] += 1
            d_vec[node.node_id] = tuple(counts)
        else:
            total = tuple(0 for __ in ks)
            for child in node.children:
                total = _vec_add(total, d_vec[child.node_id])
            d_vec[node.node_id] = total

    states: Dict[int, Dict[Vector, _State]] = {}
    total_states = 0
    for node in tree.iter_postorder():
        cap_total = (k_max + 1) * node.depth if prune else None
        if node.is_leaf:
            node_states = _leaf_states(node, ks, d_vec[node.node_id], cap_total)
        else:
            node_states = _internal_states(
                node,
                ks,
                [states[c.node_id] for c in node.children],
                cap_total,
                d_vec[node.node_id],
            )
        states[node.node_id] = node_states
        total_states += len(node_states)
        if total_states > max_states:
            raise ReproError(
                "user-k DP state space exceeded the guard "
                f"({total_states} states); reduce the instance or the "
                "number of distinct k values"
            )
    return UserKSolution(tree, ks, class_of_row, states)


def audit_user_k(policy: CloakingPolicy, k_of: Mapping[str, int]) -> bool:
    """Check the per-user guarantee: every user's cloak group is at
    least as large as her own k."""
    for users in policy.groups().values():
        size = len(users)
        if any(size < int(k_of[u]) for u in users):
            return False
    return True


def min_k_slack(policy: CloakingPolicy, k_of: Mapping[str, int]) -> int:
    """The tightest margin ``|group| - k_u`` over all users (≥ 0 iff the
    policy satisfies every user's requirement)."""
    slack = None
    for users in policy.groups().values():
        size = len(users)
        for u in users:
            margin = size - int(k_of[u])
            slack = margin if slack is None else min(slack, margin)
    return 0 if slack is None else slack
