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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..core.errors import ServiceUnavailableError, TreeError
from ..core.geometry import Rect
from ..core.policy import CloakingPolicy
from ..streaming.epoch import halving_chain
from .ledger import TrajectoryLedger

__all__ = ["ContinuityConstraint", "ContinuityDecision"]


@dataclass(frozen=True)
class ContinuityDecision:
    """One admissibility verdict: the cloak to serve and its evidence."""

    #: the cloak the request must be served under.
    cloak: Rect
    #: the candidate-sender set of that cloak (sorted, deterministic).
    candidates: Tuple[str, ...]
    #: True when the solver widened past the requested cloak.
    widened: bool
    #: hierarchy levels climbed above the requested cloak (0 = none).
    levels: int
    #: surviving intersection size after this request is served.
    surviving: int

    @property
    def k_evidence(self) -> int:
        """Per-snapshot anonymity of the served cloak itself."""
        return len(self.candidates)


class ContinuityConstraint:
    """Admissibility solver over a :class:`TrajectoryLedger`.

    One instance per serving process; the ledger can be handed in (fleet
    workers seed theirs from the dispatcher's shard) or created fresh.
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
        # One-slot candidate caches: policies are per-snapshot objects,
        # so caching against the current policy identity amortizes one
        # O(n) grouping across the requests of one snapshot.
        self._cached_policy: Optional[CloakingPolicy] = None
        self._groups: Dict[Rect, FrozenSet[str]] = {}
        self._within: Dict[Rect, FrozenSet[str]] = {}

    # -- candidate sets ------------------------------------------------------

    def candidates(
        self, policy: CloakingPolicy, user_id: str, cloak: Rect
    ) -> FrozenSet[str]:
        """The attacker's candidate senders of ``cloak`` served to
        ``user_id`` under ``policy``.

        The user's fine policy cloak maps to its exact anonymity group;
        any other rectangle (a widening) to every user whose fine cloak
        it contains — its group under the group-wide coarsening
        override.  Not thread-safe: concurrent callers serialize.
        """
        if self._cached_policy is not policy:
            self._cached_policy = policy
            self._groups = {
                region: frozenset(uids)
                for region, uids in policy.groups().items()
                if isinstance(region, Rect)
            }
            self._within = {}
        if cloak == policy.cloak_for(str(user_id)):
            return self._groups.get(cloak, frozenset())
        cached = self._within.get(cloak)
        if cached is None:
            cached = frozenset(
                uid
                for region, uids in self._groups.items()
                if cloak.contains_rect(region)
                for uid in uids
            )
            self._within[cloak] = cached
        return cached

    # -- solving -------------------------------------------------------------

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
        uid = str(user_id)
        fine = policy.cloak_for(uid)
        start = cloak if cloak is not None else fine
        if not isinstance(start, Rect) or not isinstance(fine, Rect):
            raise ServiceUnavailableError(
                "trajectory continuity needs rectangular hierarchy cloaks",
                reason="trajectory",
            )
        base = self.candidates(policy, uid, start)
        prior = self.ledger.surviving(uid)
        if prior is None or len(prior & base) >= self.k:
            after = base if prior is None else prior & base
            return ContinuityDecision(
                cloak=start,
                candidates=tuple(sorted(base)),
                widened=start != fine,
                levels=0,
                surviving=len(after),
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
            candidates = self.candidates(policy, uid, ancestor)
            surviving = prior & candidates
            if len(surviving) >= self.k:
                return ContinuityDecision(
                    cloak=ancestor,
                    candidates=tuple(sorted(candidates)),
                    widened=True,
                    levels=len(chain) - 1 - idx,
                    surviving=len(surviving),
                )
        alive = len(prior & self.candidates(policy, uid, region))
        raise ServiceUnavailableError(
            f"no cloak preserves trajectory {self.k}-anonymity for user "
            f"{uid!r}: only {alive} prior candidates remain in the system; "
            "rejecting fail-closed",
            reason="trajectory",
        )

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
        decision = self.admissible(
            policy,
            user_id,
            region=region,
            orientation=orientation,
            cloak=cloak,
        )
        self.ledger.record(
            str(user_id),
            decision.cloak,
            decision.candidates,
            serial=serial,
            widened=decision.widened,
        )
        return decision
