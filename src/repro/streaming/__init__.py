"""Continuous-churn serving: double-buffered epochs over streaming moves.

The streaming layer owns the policy lifecycle of every serving path: the
CSP and the fleet both serve from an
:class:`~repro.streaming.epoch.EpochManager`.  Moves stream into a
:class:`~repro.streaming.ingest.DirtyAccumulator`, repair runs on a
shadow anonymizer while the active epoch keeps serving, and a
journal-committed atomic swap promotes the shadow.  In-flight requests
pin their epoch; bounded staleness degrades stale → coarsened (empty for
the CSP's ``coarsen_grace=0``) → fail-closed reject, never serving a
cloak untied to a journalled k-anonymous policy.
"""

from .epoch import (
    Epoch,
    EpochManager,
    EpochPin,
    SwapReport,
    ancestor_cloak,
    covering_ancestor,
    halving_chain,
)
from .ingest import DirtyAccumulator

__all__ = [
    "DirtyAccumulator",
    "Epoch",
    "EpochManager",
    "EpochPin",
    "SwapReport",
    "ancestor_cloak",
    "covering_ancestor",
    "halving_chain",
]
