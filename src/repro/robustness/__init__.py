"""Fault tolerance for the serving layers: deterministic fault
injection, retry/backoff with circuit breaking, the fail-closed
degradation ladder (coarsen → stale → reject; never below k),
crash-consistent snapshot recovery, and real process-kill chaos."""

from .aio import (
    AsyncClock,
    LoopClock,
    VirtualClock,
    VirtualTimeLoop,
    breaker_clock,
    retry_call_async,
)
from .chaos import (
    KillPlan,
    ReplicaKillPlan,
    destroy_replica,
    kill_current_process,
)
from .degrade import (
    DEGRADATION_LEVELS,
    DegradationEvent,
    coarsen_overrides,
    coarsening_ancestor,
    fallback_jurisdiction_policy,
    policy_with_overrides,
)
from .faults import (
    FAULT_KINDS,
    FaultInjectingAsyncClient,
    FaultInjectingProvider,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedError,
    InjectedFault,
    InjectedTimeout,
)
from .recovery import (
    PolicyJournal,
    QuorumJournal,
    QuorumRecoveryReport,
    RecoveredSnapshot,
    flat_structure_digest,
    rehydrate_flat_solution,
)
from .retry import (
    CircuitBreaker,
    Clock,
    ManualClock,
    RetryPolicy,
    SystemClock,
    retry_call,
)

__all__ = [
    "DEGRADATION_LEVELS",
    "DegradationEvent",
    "FAULT_KINDS",
    "AsyncClock",
    "CircuitBreaker",
    "Clock",
    "FaultInjectingAsyncClient",
    "FaultInjectingProvider",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedError",
    "InjectedFault",
    "InjectedTimeout",
    "KillPlan",
    "LoopClock",
    "ManualClock",
    "PolicyJournal",
    "QuorumJournal",
    "QuorumRecoveryReport",
    "RecoveredSnapshot",
    "ReplicaKillPlan",
    "RetryPolicy",
    "SystemClock",
    "VirtualClock",
    "VirtualTimeLoop",
    "breaker_clock",
    "destroy_replica",
    "flat_structure_digest",
    "kill_current_process",
    "rehydrate_flat_solution",
    "coarsen_overrides",
    "coarsening_ancestor",
    "fallback_jurisdiction_policy",
    "policy_with_overrides",
    "retry_call",
    "retry_call_async",
]
