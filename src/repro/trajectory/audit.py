"""The closing audit: replay the trajectory attack on the served stream.

The defense is only credible if the *attacker's own tooling* certifies
it.  :class:`ServedTrajectories` records every (cloak, policy) pair a
serving layer actually emitted — for widened cloaks the policy recorded
is the effective one after the group-wide coarsening override, i.e. the
policy a policy-aware attacker can reverse-engineer from observing the
widened serve — and :meth:`ServedTrajectories.audit` replays
:func:`~repro.attacks.trajectory.trajectory_attack` over each user's
linked sequence.  The gate: surviving intersection ≥ k for every user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..attacks.trajectory import trajectory_attack
from ..core.policy import CloakingPolicy
from ..core.requests import AnonymizedRequest
from ..robustness.degrade import coarsen_overrides, policy_with_overrides

__all__ = ["ServedTrajectories", "TrajectoryAuditReport"]


@dataclass(frozen=True)
class TrajectoryAuditReport:
    """Outcome of replaying the linking attack on a served stream."""

    k: int
    #: users with at least one served request.
    audited: int
    #: users whose surviving intersection stayed ≥ k.
    holding: int
    #: users eroded below k, with their surviving counts.
    failing: Tuple[Tuple[str, int], ...]
    #: smallest surviving intersection over all audited users.
    min_surviving: int
    #: ``curve[j]`` = the smallest surviving intersection over all users
    #: after their (j+1)-th request — the erosion curve benches plot.
    min_curve: Tuple[int, ...]
    #: per-user final surviving counts (sorted by user id).
    per_user: Dict[str, int]

    @property
    def all_hold(self) -> bool:
        """The audit gate: every audited user kept ≥ k candidates."""
        return self.audited > 0 and not self.failing


class ServedTrajectories:
    """Accumulates the served stream in the attacker's own terms."""

    def __init__(self) -> None:
        self._linked: Dict[
            str, List[Tuple[AnonymizedRequest, CloakingPolicy]]
        ] = {}
        # Effective-policy cache: one override policy per (snapshot
        # policy, widened rect) pair — the recorded policies keep the
        # base objects alive, so identity keys are stable.
        self._effective: Dict[Tuple[int, object], CloakingPolicy] = {}
        self._next_id = 0

    def observe(
        self,
        user_id: str,
        cloak,
        policy: CloakingPolicy,
        *,
        widened: Optional[bool] = None,
    ) -> None:
        """Record one served request as the attacker observes it."""
        uid = str(user_id)
        if widened is None:
            widened = policy.cloak_for(uid) != cloak
        effective = policy
        if widened:
            key = (id(policy), cloak)
            cached = self._effective.get(key)
            if cached is None:
                cached = policy_with_overrides(
                    policy,
                    coarsen_overrides(policy, cloak),
                    name="trajectory-widened",
                )
                self._effective[key] = cached
            effective = cached
        self._next_id += 1
        request = AnonymizedRequest(
            request_id=self._next_id, cloak=cloak, payload=()
        )
        self._linked.setdefault(uid, []).append((request, effective))

    def __len__(self) -> int:
        return len(self._linked)

    @property
    def requests(self) -> int:
        return sum(len(linked) for linked in self._linked.values())

    def audit(self, k: int) -> TrajectoryAuditReport:
        """Replay the linking attack against every recorded user."""
        per_user: Dict[str, int] = {}
        failing: List[Tuple[str, int]] = []
        min_curve: List[int] = []
        for uid in sorted(self._linked):
            linked = self._linked[uid]
            result = trajectory_attack(linked)
            per_user[uid] = result.anonymity
            if result.anonymity < k:
                failing.append((uid, result.anonymity))
            # Running intersection sizes, for the erosion curve.
            running = set(result.per_request[0])
            for step, candidates in enumerate(result.per_request):
                if step > 0:
                    running &= set(candidates)
                if step >= len(min_curve):
                    min_curve.append(len(running))
                else:
                    min_curve[step] = min(min_curve[step], len(running))
        min_surviving = min(per_user.values()) if per_user else 0
        return TrajectoryAuditReport(
            k=k,
            audited=len(per_user),
            holding=sum(1 for n in per_user.values() if n >= k),
            failing=tuple(failing),
            min_surviving=min_surviving,
            min_curve=tuple(min_curve),
            per_user=per_user,
        )
