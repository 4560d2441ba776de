"""The continuity-constrained cloak solver.

For each request the solver restricts the DP engine's admissible cloaks
to those whose candidate-sender set, intersected with the user's
surviving candidates from every prior served request, still holds ≥ k
senders (the defense of arXiv:1202.6677).  The candidate set of a cloak
is what the policy-aware attacker reconstructs:

* the policy's **fine cloak** → its exact anonymity group
  (:meth:`CloakingPolicy.groups`, Lemma 3 made operational);
* a **widened ancestor** rectangle ``A`` → every user whose fine cloak
  is contained in ``A`` — exactly the group of ``A`` in the effective
  policy after a group-wide coarsening override
  (:func:`~repro.robustness.degrade.coarsen_overrides`), so widening is
  k-safe per snapshot *and* auditable.

Widening walks the same deterministic halving hierarchy the streaming
coarsener uses (:func:`~repro.streaming.epoch.halving_chain`) — pure
geometry, no tree access, so one solver serves the batch CSP, the
double-buffered epoch manager, and fleet workers alike.  Candidate sets
grow monotonically up the chain, so the first admissible ancestor is the
smallest one (minimal utility cost).  When even the root region cannot
keep the intersection ≥ k (prior candidates left the system), the
request is rejected fail-closed with ``reason="trajectory"`` — the last
rung of the degradation ladder, never a sub-k serve.

Everything runs on the ledger's interned ``int32`` user indices.  Per
policy the solver builds one index from arrays — each user's cloak
class (:attr:`CloakingPolicy.cloak_classes`, mapped through the ledger's
indices of the snapshot's id table, which the ledger keeps per table),
the classes' members as CSR, and on first use a contained-in mask per
widened ancestor — so the whole check is ``prior[group_of[prior] == g]``
(or ``prior[mask[prior]]``), and the decision carries the result for
the ledger to store as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.errors import ServiceUnavailableError, TreeError
from ..core.geometry import Rect
from ..core.policy import CloakingPolicy
from ..streaming.epoch import halving_chain
from .ledger import TrajectoryLedger, _frozen

__all__ = ["ContinuityConstraint", "ContinuityDecision"]


@dataclass(frozen=True, eq=False)
class ContinuityDecision:
    """One admissibility verdict: the cloak to serve and its evidence.

    Candidate sets are sorted read-only ``int32`` arrays of ledger
    indices (:meth:`TrajectoryLedger.names` turns them into user ids).
    """

    #: the cloak the request must be served under.
    cloak: Rect
    #: the candidate-sender set of that cloak.
    candidates: np.ndarray = field(repr=False)
    #: True when the solver widened past the requested cloak.
    widened: bool
    #: hierarchy levels climbed above the requested cloak (0 = none).
    levels: int
    #: the user's surviving intersection once this request is served.
    after: np.ndarray = field(repr=False)

    @property
    def surviving(self) -> int:
        """Surviving intersection size after this request is served."""
        return len(self.after)

    @property
    def k_evidence(self) -> int:
        """Per-snapshot anonymity of the served cloak itself."""
        return len(self.candidates)


class _PolicyIndex:
    """One policy's candidate sets over the ledger's user indices.

    ``group_of[u]`` is user ``u``'s group (-1: not in the policy, or a
    non-rectangular cloak), ``members[ptr[g]:ptr[g+1]]`` the sorted
    members of group ``g`` and ``boxes[g]`` its cloak.  Masks of the
    users inside a widened ancestor are built on first use and cached.
    """

    __slots__ = ("policy", "users", "stamp", "group_of", "ptr", "members",
                 "boxes", "within")

    def __init__(
        self, policy: CloakingPolicy, users: np.ndarray, stamp: Tuple[int, int]
    ):
        # ``users``: the ledger index of each row of the policy's id
        # table; ``stamp``: the ledger's (size, generation) it holds for.
        keys, of_row, __ = policy.cloak_classes
        # Non-rectangular cloaks join no candidate set; their box is
        # contained in no rectangle.
        rect = keys[:, 0] == 0
        boxes = np.where(
            rect[:, None], keys[:, 1:], [-np.inf, -np.inf, np.inf, np.inf]
        ).reshape(-1, 4)
        group = np.where(rect[of_row], of_row, -1).astype(np.int32)
        self.policy = policy
        self.users = users
        self.stamp = stamp
        self.group_of = np.full(stamp[0], -1, dtype=np.int32)
        self.group_of[users] = group
        order = np.lexsort((users, group))
        order = order[group[order] >= 0]
        self.members = _frozen(users[order])
        self.ptr = np.searchsorted(group[order], np.arange(len(boxes) + 1))
        self.boxes = boxes
        self.within: Dict[Rect, Tuple[np.ndarray, np.ndarray]] = {}

    def group(self, g: int) -> np.ndarray:
        return self.members[self.ptr[g]:self.ptr[g + 1]]

    def inside(self, cloak: Rect) -> Tuple[np.ndarray, np.ndarray]:
        """(user mask, sorted members) of the users whose cloak lies
        inside ``cloak`` — its group under the group-wide override."""
        cached = self.within.get(cloak)
        if cached is None:
            boxes = self.boxes
            contained = np.append(
                (boxes[:, 0] >= cloak.x1) & (boxes[:, 1] >= cloak.y1)
                & (boxes[:, 2] <= cloak.x2) & (boxes[:, 3] <= cloak.y2),
                False,
            )
            mask = _frozen(contained[self.group_of])
            cached = self.within[cloak] = (
                mask, _frozen(np.flatnonzero(mask).astype(np.int32))
            )
        return cached


class ContinuityConstraint:
    """Admissibility solver over a :class:`TrajectoryLedger`.

    One instance per serving process; the ledger can be handed in (fleet
    workers seed theirs from the dispatcher's shard) or created fresh.
    Not thread-safe: concurrent callers serialize.
    """

    def __init__(
        self,
        k: int,
        *,
        ledger: Optional[TrajectoryLedger] = None,
        window: int = 16,
    ):
        self.k = k
        self.ledger = ledger if ledger is not None else TrajectoryLedger(
            window=window
        )
        # One-slot cache: policies are per-snapshot objects, so indexing
        # the current policy once amortizes over its snapshot's requests.
        self._index: Optional[_PolicyIndex] = None

    def _indexed(self, policy: CloakingPolicy) -> _PolicyIndex:
        index = self._index
        if index is None or index.policy is not policy or (
            index.stamp != self.ledger.stamp()
        ):
            users = self.ledger.intern_table(policy.db.id_column(), policy.row_order)
            index = self._index = _PolicyIndex(policy, users, self.ledger.stamp())
        return index

    # -- candidate sets ------------------------------------------------------

    def _candidates(
        self, index: _PolicyIndex, user: int, cloak: Rect, fine: Rect,
        prior: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The attacker's candidate senders of ``cloak`` served to
        ``user``, and the user's intersection once it is served.

        The user's fine policy cloak maps to its exact anonymity group;
        any other rectangle (a widening) to every user whose fine cloak
        it contains — its group under the group-wide coarsening
        override.
        """
        if cloak == fine:
            g = int(index.group_of[user])
            members = index.group(g)
            inside = None if prior is None else index.group_of[prior] == g
        else:
            mask, members = index.inside(cloak)
            inside = None if prior is None else mask[prior]
        return members, members.copy() if prior is None else prior[inside]

    # -- solving -------------------------------------------------------------

    def _decide(
        self,
        policy: CloakingPolicy,
        user_id: str,
        region: Rect,
        orientation: str,
        cloak: Optional[Rect],
    ) -> Tuple[int, Optional[np.ndarray], ContinuityDecision]:
        uid = str(user_id)
        fine = policy.cloak_for(uid)
        start = cloak if cloak is not None else fine
        if not isinstance(start, Rect) or not isinstance(fine, Rect):
            raise ServiceUnavailableError(
                "trajectory continuity needs rectangular hierarchy cloaks",
                reason="trajectory",
            )
        index = self._indexed(policy)
        user = self.ledger.index(uid)
        prior = self.ledger.prior(user)
        base, after = self._candidates(index, user, start, fine, prior)
        if prior is None or len(after) >= self.k:
            return user, prior, ContinuityDecision(
                cloak=start,
                candidates=base,
                widened=start != fine,
                levels=0,
                after=after,
            )
        try:
            chain = halving_chain(region, orientation, start)
        except TreeError as exc:
            raise ServiceUnavailableError(
                f"cannot widen cloak {start} for user {uid!r}: {exc}",
                reason="trajectory",
            ) from exc
        # chain[-1] == start; walk strict ancestors deepest-first so the
        # first admissible one is the smallest (cheapest) widening.
        for idx in range(len(chain) - 2, -1, -1):
            ancestor = chain[idx]
            mask, members = index.inside(ancestor)
            after = prior[mask[prior]]
            if len(after) >= self.k:
                return user, prior, ContinuityDecision(
                    cloak=ancestor,
                    candidates=members,
                    widened=True,
                    levels=len(chain) - 1 - idx,
                    after=after,
                )
        alive = int(np.count_nonzero(index.inside(region)[0][prior]))
        raise ServiceUnavailableError(
            f"no cloak preserves trajectory {self.k}-anonymity for user "
            f"{uid!r}: only {alive} prior candidates remain in the system; "
            "rejecting fail-closed",
            reason="trajectory",
        )

    def admissible(
        self,
        policy: CloakingPolicy,
        user_id: str,
        *,
        region: Rect,
        orientation: str = "vertical",
        cloak: Optional[Rect] = None,
    ) -> ContinuityDecision:
        """The smallest admissible cloak for one request (no recording).

        ``cloak`` is the cloak serving would otherwise emit — the fine
        policy cloak by default, or an already-coarsened ancestor when a
        lower rung intervened first; the constraint only ever widens
        further, so earlier rungs' k-safety is preserved.
        """
        return self._decide(policy, user_id, region, orientation, cloak)[2]

    def enforce(
        self,
        policy: CloakingPolicy,
        user_id: str,
        *,
        region: Rect,
        orientation: str = "vertical",
        cloak: Optional[Rect] = None,
        serial: int = 0,
    ) -> ContinuityDecision:
        """Solve *and* commit: the decision is folded into the ledger, so
        subsequent requests are constrained by it.  Callers must serve
        exactly ``decision.cloak`` (TJ001 keeps them honest about the
        ledger; tests keep them honest about the cloak)."""
        user, prior, decision = self._decide(
            policy, user_id, region, orientation, cloak
        )
        self.ledger.fold(
            user,
            decision.cloak,
            decision.after,
            len(decision.candidates),
            serial=serial,
            widened=decision.widened,
            seen=prior,
        )
        return decision

    def observe(
        self,
        policy: CloakingPolicy,
        user_id: str,
        cloak: Rect,
        *,
        serial: int = 0,
    ) -> np.ndarray:
        """Fold a cloak someone else already served (the fleet mirror
        replaying its workers' serves) under the same candidate rule;
        returns the user's new surviving intersection."""
        uid = str(user_id)
        fine = policy.cloak_for(uid)
        index = self._indexed(policy)
        user = self.ledger.index(uid)
        prior = self.ledger.prior(user)
        members, after = self._candidates(index, user, cloak, fine, prior)
        return self.ledger.fold(
            user,
            cloak,
            after,
            len(members),
            serial=serial,
            widened=cloak != fine,
            seen=prior,
        )
