"""Real process-kill chaos for the parallel engine.

PR 1's :mod:`repro.robustness.faults` injects failures *master-side*:
the master pretends a worker died and observes what it would observe.
That exercises the retry/degrade ladder but not the one failure mode a
process pool actually has in production — a worker OS process dying
mid-solve (OOM-killed, segfaulted, machine rebooted), which surfaces to
the master as :class:`concurrent.futures.process.BrokenProcessPool` on
*every* in-flight future, not just the dead worker's.

A :class:`KillPlan` is a deterministic schedule of real ``SIGKILL``\\ s:
it names (jurisdiction, attempt) pairs, and the worker assigned such a
pair kills its **own process** with an uncatchable ``SIGKILL`` midway
through the solve (after the DP, before extraction).  Worker-side
self-kill is the standard trick for deterministic kill chaos — the
master cannot know which pool process picked up which job, but the
outcome is exactly a real kill: the process vanishes, the pool breaks,
and the master must detect the breakage, rebuild the pool, and
re-dispatch only the lost jurisdictions under its existing retry
budgets (see :func:`repro.parallel.engine.parallel_bulk_anonymize`).

Determinism invariant: because jurisdiction solves share nothing, a run
that loses workers mid-solve must still produce cloaks bit-identical to
a fault-free run — ``tests/test_chaos_process_kill.py`` enforces this
against the ``mode="simulated"`` reference.
"""

from __future__ import annotations

import os
import shutil
import signal
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "KillPlan",
    "ReplicaKillPlan",
    "destroy_replica",
    "kill_current_process",
]


def kill_current_process() -> None:
    """SIGKILL the calling process — uncatchable, like the real thing."""
    os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def destroy_replica(root: str) -> None:
    """Remove a whole journal replica directory — media loss, not crash.

    Unlike a process kill, nothing of the replica survives: journal log
    and committed files all vanish at once, exactly like a failed
    disk or a fat-fingered ``rm -rf``.  Idempotent (destroying an
    already-missing replica is a no-op), because chaos schedules may
    name the same replica at several phases.
    """
    shutil.rmtree(root, ignore_errors=True)


#: Phases of one replica's local commit a destruction can target:
#: ``"before"`` (media already gone when the commit reaches it),
#: ``"intent"`` (after the intent record hit the replica's journal),
#: ``"snapshot"`` (after the commit's file was renamed into place,
#: before the commit record), and ``"after"`` (the replica acked this
#: commit, then its media died while the quorum round continued).
REPLICA_KILL_PHASES = ("before", "intent", "snapshot", "after")


@dataclass(frozen=True)
class ReplicaKillPlan:
    """A deterministic schedule of journal-replica destructions.

    The process-kill plans above model *compute* loss; this plan models
    *media* loss for the quorum-replicated policy journal
    (:class:`repro.robustness.recovery.QuorumJournal`).  ``kills`` holds
    ``(serial, replica_index, phase)`` triples: while committing
    ``serial``, the named replica's whole directory is destroyed at the
    named phase of *its* local commit (see
    :data:`REPLICA_KILL_PHASES`).  Destruction inside the write sequence
    makes the replica's remaining writes fail with ``OSError``, so the
    quorum layer observes exactly what a dying disk produces: a partial
    local commit followed by hard I/O errors.  Like :class:`KillPlan`,
    the plan is plain data and the same plan destroys the same replicas
    at the same points on every run.
    """

    kills: Tuple[Tuple[int, int, str], ...] = ()
    name: str = "replica-kill-plan"

    def __post_init__(self) -> None:
        for __, ___, phase in self.kills:
            if phase not in REPLICA_KILL_PHASES:
                raise ValueError(
                    f"unknown replica kill phase {phase!r} "
                    f"(expected one of {REPLICA_KILL_PHASES})"
                )

    def should_destroy(
        self, serial: int, replica_index: int, phase: str
    ) -> bool:
        return (int(serial), int(replica_index), phase) in self.kills

    @classmethod
    def single(
        cls, serial: int, replica_index: int, phase: str = "snapshot"
    ) -> "ReplicaKillPlan":
        """Destroy one replica mid-commit of ``serial`` — the canonical
        single-media-loss scenario quorum replication must survive."""
        return cls(
            kills=((int(serial), int(replica_index), phase),),
            name=f"kill-replica-{replica_index}@{phase}",
        )

    @classmethod
    def double(
        cls, serial: int, first: int, second: int, phase: str = "snapshot"
    ) -> "ReplicaKillPlan":
        """Destroy two replicas during one commit — with three replicas
        this breaks the quorum, and every later commit/restore must fail
        closed rather than serve unprovable state."""
        return cls(
            kills=(
                (int(serial), int(first), phase),
                (int(serial), int(second), phase),
            ),
            name=f"kill-replicas-{first},{second}@{phase}",
        )


@dataclass(frozen=True)
class KillPlan:
    """A deterministic schedule of worker kills.

    ``kills`` holds ``(jurisdiction node_id, attempt)`` pairs; the
    worker solving that jurisdiction on that (0-based) attempt dies.
    The plan is plain data — it crosses the process boundary by pickle,
    and the same plan against the same workload kills the same solves on
    every run.

    ``shard_kills`` reaches one layer deeper: it schedules kills *inside
    the recovery path itself*.  Each ``(dead jurisdiction node_id,
    shard_index, attempt)`` triple names a hand-off shard solve — the
    re-solve of shard ``shard_index`` of that permanently failed
    jurisdiction's territory — and the worker running it on that 0-based
    attempt dies.  This is the nastiest real-world timing: the pool
    breaks again while the master is mid-recovery from the previous
    break, so the master must recover *recursively* (rebuild the pool,
    re-dispatch the shard) and still end bit-identical.
    """

    kills: Tuple[Tuple[int, int], ...] = ()
    name: str = "kill-plan"
    #: (dead jurisdiction node_id, shard index, attempt) triples killed
    #: mid-hand-off — see the class docstring.
    shard_kills: Tuple[Tuple[int, int, int], ...] = ()

    def should_kill(self, node_id: int, attempt: int) -> bool:
        return (int(node_id), int(attempt)) in self.kills

    def should_kill_shard(
        self, dead_node_id: int, shard_index: int, attempt: int
    ) -> bool:
        key = (int(dead_node_id), int(shard_index), int(attempt))
        return key in self.shard_kills

    @classmethod
    def first_attempt(cls, *node_ids: int) -> "KillPlan":
        """Kill each named jurisdiction's worker once (attempt 0 only),
        so the retry rounds recover it."""
        return cls(
            kills=tuple((int(nid), 0) for nid in node_ids),
            name="kill-first-attempt",
        )

    @classmethod
    def permanent(cls, node_id: int, max_attempts: int) -> "KillPlan":
        """Kill the jurisdiction's worker on every attempt — the
        permanent-loss scenario that exhausts the retry budget."""
        return cls(
            kills=tuple((int(node_id), a) for a in range(max_attempts)),
            name="kill-permanent",
        )

    @classmethod
    def permanent_with_shard_kill(
        cls,
        node_id: int,
        max_attempts: int,
        shard_index: int = 0,
        shard_attempts: int = 1,
    ) -> "KillPlan":
        """Kill the jurisdiction on every attempt (forcing hand-off),
        then also kill the hand-off re-solve of one of its shards for
        ``shard_attempts`` attempts — the kill-inside-recovery scenario."""
        return cls(
            kills=tuple((int(node_id), a) for a in range(max_attempts)),
            shard_kills=tuple(
                (int(node_id), int(shard_index), a)
                for a in range(shard_attempts)
            ),
            name="kill-permanent-and-shard",
        )
