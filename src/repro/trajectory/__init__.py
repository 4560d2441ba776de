"""Trajectory-aware anonymity defense (the follow-up paper, served).

The per-snapshot guarantee leaves a gap the repo's own attacker module
demonstrates (:mod:`repro.attacks.trajectory`): linking a user's
requests across snapshots and intersecting the candidate-sender sets
erodes anonymity below k.  This package closes the loop with the
defense of "Trajectory and Policy Aware Sender Anonymity"
(arXiv:1202.6677): cloak choice is *continuity-constrained* — a request
is only served under a cloak whose candidate-sender set, intersected
with the user's surviving candidates from every prior served request,
still holds ≥ k senders.

* :class:`TrajectoryLedger` — per-user served-cloak history over
  interned ``int32`` user indices: a bounded observability window plus
  the running full-history intersection the constraint actually needs
  (bounded memory, monotone non-increasing).  Its arrays are journalled
  with the policy's rows in every
  :class:`~repro.robustness.recovery.PolicyJournal` checkpoint's
  ``.npz`` so restarts resume continuity state.
* :class:`ContinuityConstraint` — the admissibility solver: fine cloak
  when it keeps the intersection ≥ k, else the smallest geometric
  ancestor (the same deterministic halving hierarchy the streaming
  coarsener walks) that does, else fail-closed
  ``ServiceUnavailableError(reason="trajectory")``.
* :class:`ServedTrajectories` — the audit side: records every served
  (cloak, policy) pair and replays
  :func:`~repro.attacks.trajectory.trajectory_attack` against the
  served stream, the closing gate of the defense.
"""

from .audit import ServedTrajectories, TrajectoryAuditReport
from .constraint import ContinuityConstraint, ContinuityDecision
from .ledger import LedgerEntry, TrajectoryLedger

__all__ = [
    "ContinuityConstraint",
    "ContinuityDecision",
    "LedgerEntry",
    "ServedTrajectories",
    "TrajectoryAuditReport",
    "TrajectoryLedger",
]
