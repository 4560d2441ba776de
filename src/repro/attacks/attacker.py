"""Operational attackers (§III "The Attacker Model").

The paper's two attacker classes, implemented so they scale to full
workloads (unlike the literal PRE enumeration of
:mod:`repro.attacks.pre`, with which the test suite cross-checks them):

* :class:`PolicyUnawareAttacker` — knows only the cloak vocabulary; the
  candidate-sender set of an anonymized request is every user located
  inside its cloak (any of them admits *some* masking policy producing
  the AR).
* :class:`PolicyAwareAttacker` — knows the exact policy ``P``; the
  candidate set shrinks to the users whose assigned cloak is the AR's
  cloak.  Example 1 / Figure 6 of the paper are exactly the situations
  where this set is smaller than k while the unaware set is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.policy import CloakingPolicy
from ..core.requests import AnonymizedRequest

__all__ = ["AttackResult", "PolicyUnawareAttacker", "PolicyAwareAttacker"]


@dataclass(frozen=True)
class AttackResult:
    """What an attacker learned about one anonymized request."""

    request: AnonymizedRequest
    candidates: Tuple[str, ...]

    @property
    def anonymity(self) -> int:
        """The number of possible senders the attacker is left with."""
        return len(self.candidates)

    @property
    def identified(self) -> Optional[str]:
        """The sender, when the attack pinned it to a single user."""
        return self.candidates[0] if len(self.candidates) == 1 else None

    def breaches(self, k: int) -> bool:
        return self.anonymity < k


class PolicyUnawareAttacker:
    """An attacker with run-time access to ``D`` but no policy knowledge.

    Observes one AR at a time (the weaker extreme the paper defines);
    its candidate set is the cloak's population.
    """

    def __init__(self, db):
        self.db = db
        self._located = list(db.items())

    def attack(self, ar: AnonymizedRequest) -> AttackResult:
        candidates = tuple(
            uid for uid, point in self._located if ar.cloak.contains(point)
        )
        return AttackResult(ar, candidates)

    def attack_all(
        self, ars: Sequence[AnonymizedRequest]
    ) -> List[AttackResult]:
        return [self.attack(ar) for ar in ars]

    def min_anonymity(self, ars: Sequence[AnonymizedRequest]) -> int:
        """The policy-unaware anonymity level of a request set."""
        results = self.attack_all(ars)
        return min((r.anonymity for r in results), default=0)


class PolicyAwareAttacker:
    """An attacker who knows the deployed policy ("the design is not
    secret" [Saltzer '74]) and can observe every anonymized request.

    For a deterministic, location-only policy, a PRE must assign to an
    AR a sender the policy actually maps to the AR's cloak — so the
    candidate set is the cloak's *assigned group*, not its population.
    """

    def __init__(self, policy: CloakingPolicy):
        self.policy = policy
        self._group_of: Dict[object, Tuple[str, ...]] = {
            region: tuple(users)
            for region, users in policy.groups().items()
        }

    def attack(self, ar: AnonymizedRequest) -> AttackResult:
        candidates = self._group_of.get(ar.cloak, ())
        return AttackResult(ar, candidates)

    def attack_all(
        self, ars: Sequence[AnonymizedRequest]
    ) -> List[AttackResult]:
        return [self.attack(ar) for ar in ars]

    def min_anonymity(self, ars: Sequence[AnonymizedRequest]) -> int:
        """The policy-aware anonymity level of a request set."""
        results = self.attack_all(ars)
        return min((r.anonymity for r in results), default=0)

    def identified_senders(
        self, ars: Sequence[AnonymizedRequest]
    ) -> List[str]:
        """Users whose identity the attack fully compromises."""
        out = []
        for result in self.attack_all(ars):
            if result.identified is not None:
                out.append(result.identified)
        return out
