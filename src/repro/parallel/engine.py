"""Parallel bulk anonymization (§V "Parallel Anonymization", §VI-A/D).

The map is greedily partitioned into jurisdictions; each server solves
its jurisdiction independently (own binary tree, own location subset,
own DP).  Because jurisdictions share nothing, the paper's wall-clock
for ``m`` servers is the *maximum* per-server time — which is what the
default ``simulated`` execution mode reports, running servers
sequentially and timing each.  A ``process`` mode additionally runs the
servers in real OS processes for end-to-end sanity.

Utility caveat measured in §VI-D: a cloak that would optimally span two
jurisdictions must be replaced by a larger intra-jurisdiction cloak, so
the distributed cost can exceed the single-server optimum — by <1% even
at thousands of jurisdictions, per the paper (and our bench).

Fault tolerance: a crashed/straggling jurisdiction solve no longer
aborts the bulk run.  Failures are wrapped in
:class:`~repro.core.errors.JurisdictionSolveError` (carrying the
jurisdiction id and user count), failed jurisdictions are *reassigned to
retry rounds* (``retry_policy``), and — with ``on_failure='degrade'`` —
a permanently failed jurisdiction is served fail-closed: all of its
users share the jurisdiction rectangle as a single cloak, which the
greedy partitioner guarantees holds ≥ k users (see
:mod:`repro.robustness.degrade`).  With ``on_failure='handoff'`` a
permanently failed jurisdiction's territory is instead re-partitioned
into shards re-solved by the surviving pool
(:func:`~repro.parallel.dynamic.handoff_shards`), restoring fine
optimal cloaks.  Never a sub-k or policy-unaware fallback.

Real-kill chaos: ``mode='process'`` additionally accepts a
:class:`~repro.robustness.chaos.KillPlan` — the scheduled worker
SIGKILLs its own process mid-solve, the master observes the resulting
:class:`~concurrent.futures.process.BrokenProcessPool` on every
in-flight future, rebuilds the pool, and re-dispatches only the lost
jurisdictions under the existing retry budgets.  Pool rebuilds and
re-solves of lost work are charged to ``ParallelResult.recovery_seconds``
(``mttr`` = mean time to recovery per event).
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.errors import JurisdictionSolveError, ReproError
from ..core.geometry import Rect
from ..core.policy import CloakingPolicy
from ..core.locationdb import LocationDatabase
from ..robustness.chaos import KillPlan
from ..robustness.degrade import fallback_jurisdiction_policy
from ..robustness.faults import FaultInjector, InjectedFault, InjectedTimeout
from ..robustness.retry import RetryPolicy
from ..trees.binarytree import BinaryTree
from ..trees.flat import FlatTree, SharedFlatTree, SharedTreeHandle
from ..trees.partition import Jurisdiction, greedy_partition, load_imbalance
from .dynamic import (
    SolvedRows,
    _server_policy,
    _solve_jurisdiction_flat,
    assign_adopters,
    handoff_shards,
)
from .master import MasterPolicy, ServerPolicy

__all__ = ["JurisdictionFailure", "ParallelResult", "parallel_bulk_anonymize"]


@dataclass(frozen=True)
class JurisdictionFailure:
    """Structured record of one jurisdiction that exhausted its retries."""

    node_id: int
    n_users: int
    attempts: int
    kind: str  # "crash" | "error" | "timeout"
    degraded: bool  # True: served the fail-closed fallback cloak
    #: True: territory re-partitioned and re-solved by the surviving
    #: pool (fine cloaks restored) instead of the coarse fallback.
    handed_off: bool = False


@dataclass(frozen=True)
class ParallelResult:
    """Outcome of one distributed bulk anonymization."""

    master: MasterPolicy
    jurisdictions: Tuple[Jurisdiction, ...]
    server_seconds: Tuple[float, ...]
    partition_seconds: float
    #: (node_id, attempts) per solved jurisdiction — 1 on the happy path.
    attempts: Tuple[Tuple[int, int], ...] = ()
    #: jurisdictions that exhausted retries (degraded or fatal).
    failures: Tuple[JurisdictionFailure, ...] = ()
    #: simulated seconds lost to failed attempts and retry backoff.
    retry_seconds: float = 0.0
    #: recovery events: process-pool rebuilds after a worker death,
    #: plus territory hand-offs of permanently lost jurisdictions.
    recoveries: int = 0
    #: wall-clock spent recovering: rebuilding the pool, re-solving
    #: crashed jurisdictions, re-partitioning + re-solving hand-offs.
    recovery_seconds: float = 0.0
    #: (dead jurisdiction, shard, adopter) per hand-off shard; the
    #: adopter is ``-1`` when no survivor could take the shard.
    handoffs: Tuple[Tuple[int, int, int], ...] = ()
    #: per jurisdiction, what the transport dispatches (None: empty).
    payloads: Tuple["TaskPayload", ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def dispatch_payload_bytes(self) -> int:
        """Bytes the transport puts on the wire per dispatch, pickled on
        first read — the cost ``transport='shm'`` collapses to handles."""
        return sum(len(pickle.dumps([] if p is None else p)) for p in self.payloads)

    @property
    def n_servers(self) -> int:
        return len(self.jurisdictions)

    @property
    def wall_clock_seconds(self) -> float:
        """Idealized parallel wall clock: the slowest server."""
        return max(self.server_seconds, default=0.0)

    @property
    def total_cpu_seconds(self) -> float:
        return sum(self.server_seconds)

    @property
    def cost(self) -> float:
        return self.master.cost()

    @property
    def imbalance(self) -> float:
        return load_imbalance(self.jurisdictions)

    @property
    def degraded_node_ids(self) -> Tuple[int, ...]:
        return tuple(f.node_id for f in self.failures if f.degraded)

    @property
    def degraded_users(self) -> int:
        return sum(f.n_users for f in self.failures if f.degraded)

    @property
    def availability(self) -> float:
        """Fraction of users served an *optimally solved* cloak (the
        remainder got the coarser fail-closed jurisdiction cloak)."""
        total = len(self.master.merged)
        if total == 0:
            return 1.0
        return 1.0 - self.degraded_users / total

    @property
    def total_attempts(self) -> int:
        solved = sum(n for __, n in self.attempts)
        failed = sum(f.attempts for f in self.failures)
        return solved + failed

    @property
    def mttr(self) -> float:
        """Mean time to recovery per recovery event (0 when none)."""
        if self.recoveries == 0:
            return 0.0
        return self.recovery_seconds / self.recoveries


def _solve_jurisdiction_shm(
    handle: SharedTreeHandle, k: int, kill: bool = False
) -> Tuple[SolvedRows, float]:
    """One server's work over a *published* flat subtree.

    The worker receives only a :class:`SharedTreeHandle` (a few hundred
    bytes however large the jurisdiction) and maps the master's numpy
    blocks read-only — zero copies of the spatial structure cross the
    process boundary.  The attachment is scoped to the solve: the flat
    worker's views are gone before ``close()`` (they dangle afterwards),
    and only freshly allocated row arrays leave the function.  ``kill`` as in
    :func:`~repro.parallel.dynamic._solve_jurisdiction_flat`.
    """
    start = time.perf_counter()
    shared = SharedFlatTree.attach(handle)
    try:
        solved, __ = _solve_jurisdiction_flat(shared.tree, k, kill)
    finally:
        shared.close()
    return solved, time.perf_counter() - start


#: what a dispatch ships per jurisdiction: compiled arrays, a shared
#: segment handle, or nothing (an empty jurisdiction).
TaskPayload = Union[FlatTree, SharedTreeHandle, None]


def _check_snapshot(tree_db: LocationDatabase, db: LocationDatabase) -> None:
    """Fail fast unless a caller's partition tree was built over ``db``
    or a snapshot with the same contents: the servers solve subtrees of
    that tree, so its users and locations are the ones cloaked."""
    if len(tree_db) != len(db) or not tree_db.agrees_with(db):
        raise ReproError(
            "partition_tree was built over a different snapshot than db: "
            f"the tree holds {len(tree_db)} users, db {len(db)}, and not "
            "every user of db is located alike in both"
        )


def _solve_error(
    jur: Jurisdiction, rows: Sequence[int], attempt: int, kind: str, what: str
) -> JurisdictionSolveError:
    """One failed attempt at ``jur``, as the retry rounds record it."""
    return JurisdictionSolveError(
        f"jurisdiction {jur.node_id} ({len(rows)} users) {what}",
        node_id=jur.node_id,
        n_users=len(rows),
        attempts=attempt + 1,
        kind=kind,
    )


def _crash_error(
    jur: Jurisdiction, rows: Sequence[int], attempt: int, exc: BaseException
) -> JurisdictionSolveError:
    return _solve_error(
        jur, rows, attempt, "crash", f"lost to a dead worker process: {exc}"
    )


def _injected(
    injector: Optional[FaultInjector],
    jur: Jurisdiction,
    rows: Sequence[int],
    attempt: int,
) -> Tuple[float, Optional[JurisdictionSolveError]]:
    """Master-side injection for one attempt: ``(straggle seconds,
    injected failure or None)``."""
    if injector is None:
        return 0.0, None
    try:
        return injector.fire("solve", jur.node_id, attempt), None
    except InjectedFault as exc:
        kind = "timeout" if isinstance(exc, InjectedTimeout) else "crash"
        return 0.0, _solve_error(jur, rows, attempt, kind, f"failed: {exc}")


def _judged(
    jur: Jurisdiction,
    rows: Sequence[int],
    attempt: int,
    timeout: Optional[float],
    solved: SolvedRows,
    elapsed: float,
) -> object:
    """A finished solve → ``(policy rows, elapsed)``, or a timeout
    failure when it overran the straggler budget."""
    if timeout is not None and elapsed > timeout:
        return _solve_error(
            jur,
            rows,
            attempt,
            "timeout",
            f"exceeded its {timeout:g}s solve budget ({elapsed:.3f}s)",
        )
    return solved, elapsed


def _worker_for(payload: TaskPayload):
    """The worker function that solves ``payload``."""
    if isinstance(payload, SharedTreeHandle):
        return _solve_jurisdiction_shm
    return _solve_jurisdiction_flat


def _attempt_simulated(
    jur: Jurisdiction,
    rows: Sequence[int],
    payload: TaskPayload,
    k: int,
    attempt: int,
    injector: Optional[FaultInjector],
    timeout: Optional[float],
) -> object:
    """One simulated solve attempt → ``(policy rows, elapsed)`` or its
    :class:`JurisdictionSolveError`."""
    extra, error = _injected(injector, jur, rows, attempt)
    if error is not None:
        return error
    try:
        solved, elapsed = _worker_for(payload)(payload, k)
    except Exception as exc:  # real solver errors carry the node id too
        return _solve_error(jur, rows, attempt, "error", f"failed: {exc}")
    return _judged(jur, rows, attempt, timeout, solved, elapsed + extra)


class _ProcessPool:
    """Context-managed, rebuildable process pool.

    ``with`` semantics guarantee the live pool is shut down on *every*
    exit path — including errors raised before the first round and a
    pool swapped in mid-run by :meth:`rebuild` (a plain
    ``with ProcessPoolExecutor()`` would keep shutting down the original
    object after a rebuild, leaking the replacement).

    The configured worker count is remembered so quarantine-era
    rebuilds replace a broken pool with one of the *same* size — a bare
    ``ProcessPoolExecutor()`` would silently fall back to the cpu-count
    default mid-run.
    """

    def __init__(self, enabled: bool, max_workers: Optional[int] = None):
        self.pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=max_workers) if enabled else None
        )
        #: resolved size every rebuild reuses (the executor's own
        #: resolution of ``None`` → cpu count, pinned at construction).
        self.max_workers: Optional[int] = (
            self.pool._max_workers if self.pool is not None else max_workers
        )

    def __enter__(self) -> "_ProcessPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def rebuild(self) -> float:
        """Replace a broken pool with a fresh, same-sized one; returns
        seconds spent."""
        start = time.perf_counter()
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None


@contextmanager
def _owned_segments(published: List[SharedFlatTree]):
    """Owner-side lifecycle guard: every segment published for a bulk
    run is unlinked on *every* exit path — a raised solve error must not
    leak ``/dev/shm`` entries."""
    try:
        yield published
    finally:
        for shared in published:
            shared.unlink()
            shared.close()


def parallel_bulk_anonymize(
    region: Rect,
    db: LocationDatabase,
    k: int,
    n_servers: int,
    max_depth: int = 40,
    mode: str = "simulated",
    partition_tree: Optional[BinaryTree] = None,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    jurisdiction_timeout: Optional[float] = None,
    on_failure: str = "raise",
    transport: str = "flat",
    kill_plan: Optional[KillPlan] = None,
    pool_workers: Optional[int] = None,
) -> ParallelResult:
    """Distribute bulk anonymization of ``db`` over ``n_servers``.

    ``mode='simulated'`` (default) runs the servers one after another and
    reports each one's time — the faithful share-nothing idealization.
    ``mode='process'`` runs them in a real process pool.

    ``partition_tree`` lets callers reuse a pre-built tree for the
    greedy partitioning step.  It must have been built over ``db``
    itself or over a snapshot with the same contents; anything else
    raises :class:`ReproError` up front, since every server solves its
    subtree of that tree.

    Every server solves its jurisdiction's subtree of the partition
    tree, compiled by the master into :class:`~repro.trees.flat.FlatTree`
    arrays (depths rebased to the jurisdiction root, leaf→point index
    and geometry attached); workers run the level-batched DP and the
    row extraction directly on the arrays and send back the policy as
    rows (local row, cloak group, one box per group).  The master checks
    those rows against its own compile of the subtree, once, with
    :meth:`~repro.core.policy.CloakingPolicy.from_rows`: a corrupted box
    raises :class:`~repro.core.errors.PolicyError`.
    Compilation is master-side prep and is charged to
    ``partition_seconds``, like the partitioning itself.  ``transport``
    selects how the arrays reach a server.  With ``'flat'`` (the
    default) they are pickled with each dispatch.  With ``'shm'`` they
    are instead *published once* into
    :class:`~repro.trees.flat.SharedFlatTree` segments and workers
    receive only the few-hundred-byte handles, mapping the master's
    blocks read-only — zero per-dispatch copies; segments are
    owner-unlinked on every exit path.
    ``ParallelResult.dispatch_payload_bytes`` records what each
    transport actually puts on the wire.

    ``pool_workers`` pins the process-pool size (``mode='process'``
    only); rebuilds after a worker death reuse the resolved size.

    Robustness knobs (all off by default — the happy path is unchanged):

    * ``injector`` — a :class:`FaultInjector` whose ``"solve"`` site can
      crash or straggle individual jurisdiction solves;
    * ``retry_policy`` — failed jurisdictions are *reassigned to retry
      rounds* (a fresh server takes the jurisdiction over), up to
      ``retry_policy.max_attempts`` total attempts; the inter-round
      backoff is charged to ``retry_seconds``;
    * ``jurisdiction_timeout`` — a per-solve straggler budget in
      seconds; an over-budget solve counts as a failure;
    * ``on_failure`` — ``'raise'`` (default) propagates the
      :class:`JurisdictionSolveError` of the first permanently failed
      jurisdiction; ``'degrade'`` serves such jurisdictions the
      fail-closed single-cloak fallback and records them in
      ``ParallelResult.failures``; ``'handoff'`` re-partitions a
      permanently failed jurisdiction's territory into shards re-solved
      by the surviving pool (fine cloaks restored — see
      :func:`~repro.parallel.dynamic.handoff_shards`);
    * ``kill_plan`` — real-kill chaos (``mode='process'`` only): the
      scheduled (jurisdiction, attempt) solves SIGKILL their own worker
      process mid-solve; the master detects the broken pool, rebuilds
      it, and re-dispatches only the lost jurisdictions.

    Every argument is validated *before* any process pool is
    constructed, and the pool is context-managed so early error paths
    cannot leak worker processes.
    """
    if mode not in ("simulated", "process"):
        raise ReproError(f"unknown execution mode {mode!r}")
    if on_failure not in ("raise", "degrade", "handoff"):
        raise ReproError(f"unknown on_failure mode {on_failure!r}")
    if transport not in ("flat", "shm"):
        raise ReproError(f"unknown transport {transport!r}")
    if kill_plan is not None and mode != "process":
        raise ReproError(
            "kill_plan schedules real worker kills and requires "
            "mode='process'; use a FaultInjector for simulated crashes"
        )
    t0 = time.perf_counter()
    if partition_tree is None:
        partition_tree = BinaryTree.build(region, db, k, max_depth=max_depth)
    else:
        _check_snapshot(partition_tree.db, db)
    jurisdictions = greedy_partition(partition_tree, n_servers, k)

    #: per jurisdiction: its users as partition-tree rows, and what a
    #: dispatch ships.
    tasks: List[Tuple[Jurisdiction, np.ndarray, TaskPayload]] = []
    #: the master's own payload compile per populated jurisdiction: a
    #: worker's rows are checked against its ids and coordinates.
    compiled: Dict[int, FlatTree] = {}
    for jur in jurisdictions:
        # Membership comes from the partition tree's row assignment, so
        # a user sitting exactly on a shared boundary belongs to exactly
        # one jurisdiction (rect containment alone would double-count
        # her).
        node = partition_tree.nodes[jur.node_id]
        rows = np.empty(0, dtype=np.int64)
        payload: TaskPayload = None
        if node.count:
            payload = compiled[jur.node_id] = FlatTree.compile(
                partition_tree, root=node, with_payload=True
            )
            rows = payload.tree_rows
        tasks.append((jur, rows, payload))
    published: List[SharedFlatTree] = []
    if transport == "shm":
        try:
            for i, (jur, rows, payload) in enumerate(tasks):
                if isinstance(payload, FlatTree):
                    shared = SharedFlatTree.publish(payload)
                    published.append(shared)
                    tasks[i] = (jur, rows, shared.handle)
        except BaseException:
            for shared in published:
                shared.unlink()
                shared.close()
            raise
    partition_seconds = time.perf_counter() - t0

    max_attempts = retry_policy.max_attempts if retry_policy else 1
    policies: Dict[int, Optional[CloakingPolicy]] = {}
    seconds: Dict[int, float] = {}
    attempts_used: Dict[int, int] = {}
    retry_seconds = 0.0
    recoveries = 0
    recovery_seconds = 0.0
    failures: List[JurisdictionFailure] = []
    #: jurisdictions lost to a (real or injected) crash at least once —
    #: their eventual re-solve time is recovery work, not solve work.
    crashed_ids: Set[int] = set()

    pending = []
    for jur, rows, payload in tasks:
        if len(rows):
            pending.append((jur, rows, payload))
        else:
            policies[jur.node_id] = None

    with _owned_segments(published), _ProcessPool(
        mode == "process", max_workers=pool_workers
    ) as pool:
        round_no = 0
        isolate_round = False
        while pending and round_no < max_attempts:
            still_failing: List[Tuple[Jurisdiction, np.ndarray, TaskPayload]] = []
            last_errors: Dict[int, JurisdictionSolveError] = {}
            if mode == "process":
                outcomes, breaks, rebuild_seconds = _process_round(
                    pool,
                    pending,
                    k,
                    round_no,
                    injector,
                    jurisdiction_timeout,
                    kill_plan,
                    isolate=isolate_round,
                )
                # A worker death breaks the whole pool, so a batch round
                # takes collateral casualties.  Quarantine the next
                # round: dispatch one jurisdiction at a time, so a
                # repeat killer only burns its own retry budget.
                isolate_round = breaks > 0
                recoveries += breaks
                recovery_seconds += rebuild_seconds
            else:
                outcomes = [
                    _attempt_simulated(
                        jur,
                        rows,
                        payload,
                        k,
                        round_no,
                        injector,
                        jurisdiction_timeout,
                    )
                    for jur, rows, payload in pending
                ]
            for (jur, rows, payload), outcome in zip(pending, outcomes):
                attempts_used[jur.node_id] = round_no + 1
                if isinstance(outcome, JurisdictionSolveError):
                    last_errors[jur.node_id] = outcome
                    if outcome.kind == "crash":
                        crashed_ids.add(jur.node_id)
                    # Failed attempts cost wall-clock even though they
                    # produced nothing; charge the straggler budget.
                    if outcome.kind == "timeout" and jurisdiction_timeout:
                        retry_seconds += jurisdiction_timeout
                    still_failing.append((jur, rows, payload))
                else:
                    solved, elapsed = outcome
                    policies[jur.node_id] = _server_policy(
                        compiled[jur.node_id],
                        solved,
                        partition_tree.db,
                        f"server-{jur.node_id}",
                    )
                    seconds[jur.node_id] = elapsed
                    if jur.node_id in crashed_ids:
                        recovery_seconds += elapsed
            pending = still_failing
            round_no += 1
            if pending and round_no < max_attempts and retry_policy:
                retry_seconds += retry_policy.delay_for(round_no - 1)

        # Whatever is still pending exhausted every retry round.  This
        # runs *inside* the pool context: with ``on_failure='handoff'``
        # the shard re-solves are dispatched to the (possibly rebuilt)
        # worker pool, where a ``KillPlan.shard_kills`` entry can break
        # the pool again mid-recovery — nested recovery territory.
        handoffs: List[Tuple[int, int, int]] = []
        extra_servers: List[ServerPolicy] = []
        next_shard_id = (
            max((j.node_id for j in jurisdictions), default=0) + 1
        )

        def pooled_shard_solver(dead_node_id: int):
            """A hand-off shard solver running in the worker pool.

            Retries a shard whose worker dies (rebuilding the broken
            pool each time, charged to recovery) up to the same attempt
            budget as jurisdiction solves; a shard that outlives every
            pool it is given falls back to an in-master solve — the DP
            is deterministic, so the cloaks are identical either way.
            """

            def solve_shard(shard_flat, shard_index):
                nonlocal recoveries, recovery_seconds
                for shard_attempt in range(max(1, max_attempts)):
                    kill = bool(
                        kill_plan is not None
                        and kill_plan.should_kill_shard(
                            dead_node_id, shard_index, shard_attempt
                        )
                    )
                    try:
                        future = pool.pool.submit(
                            _solve_jurisdiction_flat, shard_flat, k, kill
                        )
                        return future.result()
                    except BrokenProcessPool:
                        recoveries += 1
                        recovery_seconds += pool.rebuild()
                return _solve_jurisdiction_flat(shard_flat, k)

            return solve_shard

        for jur, rows, __ in pending:
            error = last_errors[jur.node_id]
            if on_failure == "raise":
                raise error
            if on_failure == "handoff":
                # Online hand-off: re-partition the dead territory,
                # re-solve the shards, and hand them to adjacent
                # surviving servers — users get fine optimal cloaks
                # back, not the coarse rect.
                handoff_start = time.perf_counter()
                shards = handoff_shards(
                    jur.rect,
                    partition_tree.db.take(rows).rows(),
                    k,
                    max_depth=max_depth,
                    base_node_id=next_shard_id,
                    solver=(
                        pooled_shard_solver(jur.node_id)
                        if mode == "process" and pool.pool is not None
                        else None
                    ),
                )
                next_shard_id += len(shards)
                survivors = [
                    j
                    for j in jurisdictions
                    if j.node_id != jur.node_id and j.node_id in policies
                ]
                adopters = assign_adopters(
                    [shard for shard, __, ___ in shards], survivors
                )
                for shard, policy, ___ in shards:
                    extra_servers.append(ServerPolicy(shard, policy))
                    handoffs.append(
                        (
                            jur.node_id,
                            shard.node_id,
                            adopters.get(shard.node_id, -1),
                        )
                    )
                recoveries += 1
                recovery_seconds += time.perf_counter() - handoff_start
                failures.append(
                    JurisdictionFailure(
                        node_id=jur.node_id,
                        n_users=len(rows),
                        attempts=attempts_used[jur.node_id],
                        kind=error.kind,
                        degraded=False,
                        handed_off=True,
                    )
                )
                continue
            # Fail-closed degrade: one jurisdiction, one ≥k cloak.
            policies[jur.node_id] = fallback_jurisdiction_policy(
                jur.rect, jur.node_id, partition_tree.db.take(rows).rows(), k
            )
            failures.append(
                JurisdictionFailure(
                    node_id=jur.node_id,
                    n_users=len(rows),
                    attempts=attempts_used[jur.node_id],
                    kind=error.kind,
                    degraded=True,
                )
            )

    server_policies = [
        ServerPolicy(jur, policies[jur.node_id])
        for jur, __, __ in tasks
        if jur.node_id in policies
    ]
    server_policies.extend(extra_servers)
    ordered_seconds = tuple(
        seconds[jur.node_id] for jur, __, __ in tasks if jur.node_id in seconds
    )
    master = MasterPolicy(server_policies, db)
    return ParallelResult(
        master=master,
        jurisdictions=tuple(jurisdictions),
        server_seconds=ordered_seconds,
        partition_seconds=partition_seconds,
        attempts=tuple(
            (node_id, n)
            for node_id, n in sorted(attempts_used.items())
            if node_id in seconds
        ),
        failures=tuple(failures),
        retry_seconds=retry_seconds,
        recoveries=recoveries,
        recovery_seconds=recovery_seconds,
        handoffs=tuple(handoffs),
        payloads=tuple(payload for __, ___, payload in tasks),
    )


def _process_round(
    pool: _ProcessPool,
    pending: Sequence[Tuple[Jurisdiction, List[str], TaskPayload]],
    k: int,
    attempt: int,
    injector: Optional[FaultInjector],
    timeout: Optional[float],
    kill_plan: Optional[KillPlan] = None,
    isolate: bool = False,
) -> Tuple[List[object], int, float]:
    """One retry round in real processes.

    Returns ``(outcomes, pool breaks observed, seconds spent rebuilding
    the pool)``.

    Injection decisions are made master-side (the injector is not
    shipped to workers): a ``crash`` skips the submission entirely — the
    master observes exactly what it would observe of a dead worker — and
    a ``straggle`` inflates the reported elapsed time, which the
    straggler budget then judges.

    ``kill_plan`` kills are *worker-side*: the scheduled worker SIGKILLs
    its own process mid-solve.  The pool then surfaces
    :class:`BrokenProcessPool` on every in-flight future — its own and
    collateral ones — and submissions to the now-broken pool fail the
    same way.  All such casualties come back as ``kind='crash'``
    failures (retried next round), and the pool is rebuilt in place.

    ``isolate=True`` is the post-breakage quarantine: jurisdictions are
    dispatched and awaited one at a time, so a solve that kills its
    worker again takes down only itself (the pool is rebuilt between
    casualties), and its round-mates complete untouched.
    """
    breaks = 0
    rebuild_seconds = 0.0

    def collect(jur, rows, future, extra):
        """Await one future → (outcome, pool_broke)."""
        try:
            solved, elapsed = future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            what = f"exceeded its {timeout:g}s solve budget"
            return _solve_error(jur, rows, attempt, "timeout", what), False
        except BrokenProcessPool as exc:
            # The worker running this solve (or a pool-mate) was killed;
            # the result is gone for every in-flight future.
            return _crash_error(jur, rows, attempt, exc), True
        except Exception as exc:
            what = f"failed: {exc}"
            return _solve_error(jur, rows, attempt, "error", what), False
        outcome = _judged(jur, rows, attempt, timeout, solved, elapsed + extra)
        return outcome, False

    outcomes: List[object] = []
    # A quarantine round is a batch per jurisdiction: one in flight at a
    # time, the pool rebuilt after each casualty.
    for batch in [[task] for task in pending] if isolate else [pending]:
        submissions = []
        batch_broke = False
        for jur, rows, payload in batch:
            extra, error = _injected(injector, jur, rows, attempt)
            future = None
            if error is None:
                kill = bool(
                    kill_plan is not None
                    and kill_plan.should_kill(jur.node_id, attempt)
                )
                try:
                    future = pool.pool.submit(_worker_for(payload), payload, k, kill)
                except BrokenProcessPool as exc:
                    # An earlier kill already broke the pool; this
                    # jurisdiction never ran — a crash casualty, retried
                    # next round.
                    batch_broke = True
                    error = _crash_error(jur, rows, attempt, exc)
            submissions.append((jur, rows, future, extra, error))
        for jur, rows, future, extra, error in submissions:
            if error is None:
                error, broke = collect(jur, rows, future, extra)
                batch_broke = batch_broke or broke
            outcomes.append(error)
        if batch_broke:
            breaks += 1
            rebuild_seconds += pool.rebuild()
    return outcomes, breaks, rebuild_seconds
