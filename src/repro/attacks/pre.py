"""Possible Reverse Engineerings (Definition 5) and Definition-6 checks.

This module implements the paper's attacker formalism *literally*: a
PRE of a set ``A`` of anonymized requests w.r.t. a location database
``D`` and a policy family ``𝒫`` is a function assigning to every AR a
valid service request that some single policy in ``𝒫`` could have
produced.  Sender k-anonymity (Definition 6) holds when k PREs exist
that disagree on the sender of *every* AR pairwise.

Enumerating PREs is exponential and used only on small instances —
examples, tests, and the breach demonstrations.  The operational
attackers in :mod:`repro.attacks.attacker` compute the same candidate
sets directly and scale to full workloads.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReproError
from ..core.geometry import Rect
from ..core.policy import CloakingPolicy
from ..core.requests import AnonymizedRequest, ServiceRequest, masks

__all__ = [
    "KInsideFamily",
    "PolicyFamily",
    "SingletonFamily",
    "MaskingFamily",
    "enumerate_pres",
    "sender_anonymity_level",
    "provides_sender_k_anonymity",
]

#: A PRE: one service request per anonymized request.
PRE = Dict[AnonymizedRequest, ServiceRequest]

_MAX_BRUTE_FORCE = 2_000_000


class PolicyFamily:
    """The attacker's design-time knowledge: a set 𝒫 of candidate policies.

    Subclasses answer one question: could *some* policy in the family
    have produced this whole assignment of service requests to
    anonymized requests?
    """

    def consistent(self, assignment: PRE) -> bool:
        raise NotImplementedError


class SingletonFamily(PolicyFamily):
    """𝒫 = {P}: the policy-aware attacker knows the exact policy in use."""

    def __init__(self, policy: CloakingPolicy):
        self.policy = policy

    def consistent(self, assignment: PRE) -> bool:
        for ar, sr in assignment.items():
            if not sr.is_valid_for(self.policy.db):
                return False
            # P(D, SR) = AR ⟺ the policy's cloak for the sender is AR's
            # cloak (payload passes through unchanged).
            if self.policy.cloak_for(sr.user_id) != ar.cloak:
                return False
            if sr.payload != ar.payload:
                return False
        return True


class MaskingFamily(PolicyFamily):
    """𝒫 = 𝒫_C: every masking policy over a cloak vocabulary ``C``.

    This is the policy-unaware attacker's knowledge.  An assignment is
    producible by *some* deterministic masking policy iff

    * every AR masks its assigned SR (validity + containment),
    * every cloak used belongs to the vocabulary, and
    * no single service request is assigned to two distinct ARs
      (a deterministic procedure maps each SR to one AR).
    """

    def __init__(self, db, vocabulary: Optional[Set] = None):
        self.db = db
        #: ``None`` means "any connected closed region" (unrestricted C).
        self.vocabulary = vocabulary

    def consistent(self, assignment: PRE) -> bool:
        seen: Dict[Tuple[str, Tuple], AnonymizedRequest] = {}
        for ar, sr in assignment.items():
            if not sr.is_valid_for(self.db):
                return False
            if not masks(ar, sr):
                return False
            if self.vocabulary is not None and ar.cloak not in self.vocabulary:
                return False
            key = (sr.user_id, sr.payload)
            previous = seen.get(key)
            if previous is not None and previous is not ar:
                if previous != ar:
                    return False
            seen[key] = ar
        return True


class KInsideFamily(PolicyFamily):
    """𝒫 = all *k-inside* masking policies over a vocabulary.

    The paper notes that "by varying these sets one can enumerate
    different classes of attackers"; this is the natural intermediate
    point between the two extremes it studies: the attacker knows the
    CSP deploys *some* k-inside policy (the entire prior-work family)
    but not which one.  Consistency adds one constraint on top of
    :class:`MaskingFamily`: every observed cloak must contain at least
    k users — a cloak with fewer could not have come from any k-inside
    policy, so observing one shrinks the candidate set to ∅ (and in
    practice tells the attacker the CSP is not running what it claims).
    """

    def __init__(self, db, k: int, vocabulary: Optional[Set] = None):
        self.db = db
        self.k = k
        self.vocabulary = vocabulary
        self._masking = MaskingFamily(db, vocabulary)

    def consistent(self, assignment: PRE) -> bool:
        if not self._masking.consistent(assignment):
            return False
        points = self.db.points()
        return all(sum(map(ar.cloak.contains, points)) >= self.k for ar in assignment)


def _candidate_requests(
    ar: AnonymizedRequest, db
) -> List[ServiceRequest]:
    """All valid service requests ``AR`` could possibly mask: one per
    user located inside the cloak, with AR's payload."""
    out = []
    for user_id, point in db.items():
        if ar.cloak.contains(point):
            out.append(ServiceRequest(user_id, point, ar.payload))
    return out


def enumerate_pres(
    anonymized: Sequence[AnonymizedRequest],
    db,
    family: PolicyFamily,
) -> Iterator[PRE]:
    """Yield every PRE of ``anonymized`` w.r.t. ``db`` and ``family``.

    Brute force over the product of per-AR candidate sets; refuses
    workloads whose product exceeds an internal guard.
    """
    candidate_lists = [_candidate_requests(ar, db) for ar in anonymized]
    size = 1
    for lst in candidate_lists:
        size *= max(len(lst), 1)
        if size > _MAX_BRUTE_FORCE:
            raise ReproError(
                "PRE enumeration too large; use the operational attackers"
            )
    for combo in itertools.product(*candidate_lists):
        assignment = dict(zip(anonymized, combo))
        if family.consistent(assignment):
            yield assignment


def sender_anonymity_level(
    anonymized: Sequence[AnonymizedRequest],
    db,
    family: PolicyFamily,
) -> int:
    """The largest k for which Definition 6 holds on this request set.

    Definition 6 asks for PREs π_1..π_k whose sender ids differ pairwise
    at every AR.  The largest such k is the maximum clique size in the
    "pairwise everywhere-distinct" compatibility graph over PREs; we
    find it by exhaustive branch search (small inputs only, like
    everything in this module).
    """
    pres = list(enumerate_pres(anonymized, db, family))
    if not pres:
        return 0
    best = 1

    def extend(chosen: List[PRE], start: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(pres)):
            candidate = pres[i]
            ok = all(
                all(
                    candidate[ar].user_id != prior[ar].user_id
                    for ar in anonymized
                )
                for prior in chosen
            )
            if ok:
                chosen.append(candidate)
                extend(chosen, i + 1)
                chosen.pop()

    extend([], 0)
    return best


def provides_sender_k_anonymity(
    anonymized: Sequence[AnonymizedRequest],
    db,
    family: PolicyFamily,
    k: int,
) -> bool:
    """Definition 6, verbatim, for small request sets."""
    return sender_anonymity_level(anonymized, db, family) >= k
