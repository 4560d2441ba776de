"""Anonymity auditing of cloaking policies.

Given a policy for a snapshot, the auditor measures the anonymity it
actually delivers under both attacker classes of §III, over the paper's
canonical workload ("every user sends one request").  This is how the
library demonstrates Propositions 1–3: k-inside policies pass the
policy-unaware audit but can fail the policy-aware one; the DP's output
passes both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.errors import AnonymityBreachError
from ..core.policy import CloakingPolicy

__all__ = ["AuditReport", "audit_policy", "assert_policy_aware_k_anonymous"]


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing one policy on its snapshot."""

    policy_name: str
    k: int
    #: min candidate-set size under a policy-unaware attacker
    #: (= min #users inside any used cloak).
    policy_unaware_level: int
    #: min candidate-set size under a policy-aware attacker
    #: (= min cloak-group size).
    policy_aware_level: int
    #: users a policy-aware attacker narrows below k.
    breached_users: Tuple[str, ...]
    #: users a policy-aware attacker identifies *exactly*.
    identified_users: Tuple[str, ...]

    @property
    def safe_policy_unaware(self) -> bool:
        return self.policy_unaware_level >= self.k

    @property
    def safe_policy_aware(self) -> bool:
        return self.policy_aware_level >= self.k

    def summary(self) -> str:
        return (
            f"{self.policy_name}: k={self.k} "
            f"unaware level={self.policy_unaware_level} "
            f"({'OK' if self.safe_policy_unaware else 'BREACH'}), "
            f"aware level={self.policy_aware_level} "
            f"({'OK' if self.safe_policy_aware else 'BREACH'}, "
            f"{len(self.breached_users)} users exposed, "
            f"{len(self.identified_users)} identified)"
        )


def audit_policy(policy: CloakingPolicy, k: int) -> AuditReport:
    """Audit ``policy`` under both attacker classes.

    The policy-aware level is the smallest cloak group (Lemma 3); the
    policy-unaware level is the smallest cloak population.  Both are
    computed over all users, matching the paper's cost workload.
    """
    groups = policy.groups()
    aware_level = min((len(users) for users in groups.values()), default=0)
    breached: List[str] = []
    identified: List[str] = []
    for users in groups.values():
        if len(users) < k:
            breached.extend(users)
            if len(users) == 1:
                identified.extend(users)

    unaware_level = 0
    if groups:
        points = policy.db.points()
        unaware_level = min(sum(map(region.contains, points)) for region in groups)

    return AuditReport(
        policy_name=policy.name,
        k=k,
        policy_unaware_level=unaware_level,
        policy_aware_level=aware_level,
        breached_users=tuple(sorted(breached)),
        identified_users=tuple(sorted(identified)),
    )


def assert_policy_aware_k_anonymous(policy: CloakingPolicy, k: int) -> AuditReport:
    """Audit and raise :class:`AnonymityBreachError` on a policy-aware
    breach (deployment gate for CSP-side pipelines)."""
    report = audit_policy(policy, k)
    if not report.safe_policy_aware:
        raise AnonymityBreachError(
            f"policy {policy.name!r} provides only "
            f"{report.policy_aware_level}-anonymity against policy-aware "
            f"attackers (k={k})",
            breached_users=report.breached_users,
        )
    return report
