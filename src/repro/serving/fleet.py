"""Sharded gateway fleet: multi-core serving over shared policy epochs.

The asyncio gateway (:mod:`repro.serving.gateway`) is one event loop on
one core.  This module runs **N gateway worker processes** behind a
:class:`FleetDispatcher` that consistent-hashes every submission by the
user's *cloak* — the key the coalescing batcher windows on.  The
dispatch invariant: **one cloak key → one worker**, so sharding never
splits a coalescing opportunity and queries/request match the single
gateway's.

The policy has one owner, the dispatcher's
:class:`~repro.streaming.epoch.EpochManager` (``publish_shared=True``):
it fits the first epoch, repairs it incrementally on every
:meth:`FleetDispatcher.advance_epoch`, and publishes each promoted epoch
as a :class:`~repro.trees.flat.SharedFlatTree` segment whose block table
carries every user's id, coordinates and extracted cloak.  Workers map
it read-only and adopt the policy without solving, so they serve the
sync oracle's cloaks, and the epoch message on the pipe is a fixed-size
handle however many users there are.

Retirement is pin-held.  The dispatcher holds an
:class:`~repro.streaming.epoch.EpochPin` on the epoch its workers are
attached to.  ``advance_epoch`` runs ``manager.advance(moves)``, pins the
promoted epoch and broadcasts its spec; each worker drains its in-flight
submissions on the old epoch (a request admitted under epoch N is served
with epoch-N cloaks), attaches the new segment and acks.  Once every
live worker has acked — or been respawned onto the new epoch, which is
an ack — the old pin is released and the manager's reap unlinks the
retired segment; the fleet never unlinks one itself.  A swap the manager
does not promote raises and leaves every worker on the prior epoch.

Workers talk over per-worker :func:`multiprocessing.Pipe` queues, drain
gracefully at close, and are respawned in place when they die (EOF or
poll timeout): the replacement attaches the current epoch and re-serves
exactly the unanswered submissions.  A slot out of respawn budget fails
its in-flight submissions **closed**
(:class:`~repro.core.errors.ServiceUnavailableError`,
``reason="worker-lost"``) and leaves the ring.

``mode="process"`` runs real workers; ``mode="simulated"`` runs each
worker's share sequentially through
:func:`~repro.serving.gateway.run_gateway` (attaching the segment
in-process) and times it alone, so ``FleetStats.wall_seconds`` is the
slowest worker — the share-nothing model ``ParallelResult`` uses.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core import errors as _errors
from ..core.errors import ReproError, ServiceUnavailableError, TreeError
from ..core.geometry import Rect
from ..core.locationdb import LocationDatabase
from ..core.policy import CloakingPolicy
from ..robustness.chaos import kill_current_process
from ..streaming.epoch import EpochManager, EpochPin
from ..trajectory.constraint import ContinuityConstraint
from ..trajectory.ledger import TrajectoryLedger
from ..trees.flat import SharedFlatTree, SharedTreeHandle
from .gateway import AsyncGateway, GatewayConfig, GatewayStats, run_gateway

__all__ = [
    "FleetConfig",
    "FleetDispatcher",
    "FleetStats",
    "HashRing",
    "merge_gateway_stats",
    "run_fleet",
]


class HashRing:
    """Consistent-hash ring: cloak keys → worker indices.

    ``replicas`` virtual nodes per worker keep shares balanced; when a
    worker joins or leaves, only the keys in its arcs move (~1/N of the
    keyspace), so a respawned fleet keeps almost every cloak's coalescing
    history on its original worker.
    """

    def __init__(self, workers: Sequence[int], replicas: int = 64) -> None:
        if replicas < 1:
            raise ReproError("hash ring needs at least 1 replica per worker")
        self.replicas = replicas
        self._points: List[Tuple[int, int]] = []
        self._workers: Set[int] = set()
        for worker in workers:
            self.add(int(worker))

    @staticmethod
    def _hash(data: bytes) -> int:
        return int.from_bytes(
            hashlib.blake2b(data, digest_size=8).digest(), "big"
        )

    @property
    def workers(self) -> FrozenSet[int]:
        return frozenset(self._workers)

    def add(self, worker: int) -> None:
        if worker in self._workers:
            return
        self._workers.add(worker)
        for replica in range(self.replicas):
            point = self._hash(f"worker:{worker}:{replica}".encode("utf-8"))
            self._points.append((point, worker))
        self._points.sort()

    def remove(self, worker: int) -> None:
        if worker not in self._workers:
            return
        self._workers.discard(worker)
        self._points = [(h, w) for h, w in self._points if w != worker]

    def worker_for(self, key: bytes) -> int:
        """The worker owning ``key``: first ring point clockwise of its
        hash (wrapping past the top)."""
        for worker in self.candidates(key):
            return worker
        raise ReproError("hash ring has no workers left")

    def candidates(self, key: bytes) -> Iterator[int]:
        """All workers in clockwise preference order from ``key``'s
        point (deduplicated) — the probe sequence bounded-load
        assignment walks when the first choice is saturated."""
        if not self._points:
            raise ReproError("hash ring has no workers left")
        h = self._hash(key)
        start = bisect.bisect_left(self._points, (h, -1))
        n = len(self._points)
        seen: Set[int] = set()
        for i in range(n):
            worker = self._points[(start + i) % n][1]
            if worker not in seen:
                seen.add(worker)
                yield worker


@dataclass(frozen=True)
class FleetConfig:
    """Topology and lifecycle knobs of one gateway fleet."""

    #: gateway worker processes (shards of the cloak keyspace).
    n_workers: int = 2
    #: ``"process"`` (real workers) or ``"simulated"`` (share-nothing
    #: idealization — per-worker shares timed sequentially).
    mode: str = "process"
    #: per-worker gateway knobs (admission, batching, pool, RTT).
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    #: virtual nodes per worker on the consistent-hash ring.
    ring_replicas: int = 64
    #: times a dead worker slot is respawned before its in-flight
    #: submissions fail closed and the slot leaves the ring.
    max_respawns: int = 2
    #: seconds of pipe silence (with work outstanding) before a worker
    #: is declared dead; also bounds drain and result waits.
    worker_timeout: float = 60.0
    #: chaos hook: worker index → SIGKILL itself after receiving this
    #: many submissions.  Respawned workers are *not* re-armed.
    kill_after: Optional[Mapping[int, int]] = None
    #: chaos hook: worker index → epoch serial; the worker SIGKILLs
    #: itself on *receiving* that epoch broadcast, after the manager
    #: promoted the epoch but before the worker re-attaches and acks —
    #: the respawn must complete the swap.  Not re-armed on respawn.
    kill_on_epoch: Optional[Mapping[int, int]] = None
    #: trajectory-continuity defense: every worker CSP enforces the
    #: linking constraint, seeded from the dispatcher's mirror ledger
    #: shard — ledger shards ride the cloak-keyed routing, hand off on
    #: respawn, and survive epoch swaps.
    trajectory: bool = False
    #: per-user history window of the trajectory ledgers.
    trajectory_window: int = 16

    def validate(self) -> None:
        if self.n_workers < 1:
            raise ReproError("fleet needs at least 1 worker")
        if self.mode not in ("process", "simulated"):
            raise ReproError(f"unknown fleet mode {self.mode!r}")
        if self.worker_timeout <= 0:
            raise ReproError("worker_timeout must be > 0")
        if self.max_respawns < 0:
            raise ReproError("max_respawns must be ≥ 0")
        self.gateway.validate()


def merge_gateway_stats(a: GatewayStats, b: GatewayStats) -> GatewayStats:
    """Fold two gateway counters: sums for counts, max for gauges."""
    return GatewayStats(
        submitted=a.submitted + b.submitted,
        served=a.served + b.served,
        shed=a.shed + b.shed,
        shed_high_water=a.shed_high_water + b.shed_high_water,
        shed_adaptive=a.shed_adaptive + b.shed_adaptive,
        shed_breaker=a.shed_breaker + b.shed_breaker,
        throttled=a.throttled + b.throttled,
        errors=a.errors + b.errors,
        cancelled=a.cancelled + b.cancelled,
        cache_hits=a.cache_hits + b.cache_hits,
        coalesced=a.coalesced + b.coalesced,
        provider_queries=a.provider_queries + b.provider_queries,
        provider_rounds=a.provider_rounds + b.provider_rounds,
        queue_depth_high_water=max(
            a.queue_depth_high_water, b.queue_depth_high_water
        ),
        inflight_high_water=max(a.inflight_high_water, b.inflight_high_water),
        latencies=a.latencies + b.latencies,
    )


@dataclass(frozen=True)
class FleetStats:
    """Aggregated serving outcome of one fleet run."""

    n_workers: int
    mode: str
    #: per-slot gateway counters, in worker-index order (summed across a
    #: slot's incarnations where a respawn re-served lost submissions).
    per_worker: Tuple[GatewayStats, ...]
    #: per-slot serve wall time (first submission → drain complete).
    per_worker_seconds: Tuple[float, ...]
    #: per-slot routed submissions (ring share actually observed).
    per_worker_requests: Tuple[int, ...]
    #: dead-worker respawns performed by the dispatcher.
    respawns: int = 0
    #: slots that exhausted the respawn budget and left the ring.
    lost_workers: int = 0
    #: dispatcher-side wall clock across all serve() calls.
    dispatch_wall_seconds: float = 0.0
    #: epochs promoted by :meth:`FleetDispatcher.advance_epoch`.
    epochs: int = 0

    @property
    def wall_seconds(self) -> float:
        """Share-nothing idealized wall clock: the slowest worker — the
        same accounting :class:`~repro.parallel.engine.ParallelResult`
        uses for jurisdiction servers."""
        return max(self.per_worker_seconds, default=0.0)

    @property
    def totals(self) -> GatewayStats:
        out = GatewayStats()
        for stats in self.per_worker:
            out = merge_gateway_stats(out, stats)
        return out

    @property
    def shed_by_cause(self) -> Dict[str, int]:
        return self.totals.shed_by_cause

    @property
    def imbalance(self) -> float:
        """Max over mean routed share — 1.0 is a perfectly even ring."""
        shares = [r for r in self.per_worker_requests]
        if not shares or sum(shares) == 0:
            return 1.0
        return max(shares) / (sum(shares) / len(shares))


# -- worker side -------------------------------------------------------------


@dataclass(frozen=True)
class _FleetSpec:
    """Everything a worker needs to rebuild its CSP, in picklable terms.

    Nothing here grows with the user count: the users, their
    coordinates and their cloaks live in the epoch segment that
    ``handle`` names.
    """

    region: Tuple[float, float, float, float]
    k: int
    provider: Any
    handle: SharedTreeHandle
    use_cache: bool
    max_depth: int
    #: the manager serial of the epoch ``handle`` publishes, echoed in
    #: the worker ack.
    epoch: int = 0
    #: trajectory-continuity defense switch; when set the worker CSP
    #: enforces the linking constraint over a ledger seeded from the
    #: dispatcher's mirror shard for the users this slot owns.
    trajectory: bool = False
    trajectory_window: int = 16


#: a slot's mirror ledger shard (``None``: start empty / defense off).
_ShardState = Optional[Mapping[str, np.ndarray]]


def _build_worker_csp(spec: _FleetSpec, trajectory_state: _ShardState) -> Any:
    """Attach the epoch segment and adopt its policy as this worker's CSP.

    The segment carries every user's id, coordinates and cloak, so the
    worker copies three columns out and serves exactly the manager's
    policy without solving; the rows are checked as any extracted
    policy is (``CloakingPolicy.from_rows``).  Views are dropped before
    the segment is closed.
    """
    from ..lbs.pipeline import CSP

    shared = SharedFlatTree.attach(spec.handle)
    try:
        flat = shared.tree
        if flat.coords is None or flat.cloaks is None:
            raise TreeError(f"{spec.handle.segment!r} is not an epoch segment")
        user_ids = flat.user_ids or []
        coords = np.array(flat.coords)
        boxes, group = np.unique(flat.cloaks, axis=0, return_inverse=True)
        del flat
    finally:
        shared.close()
    db = LocationDatabase.from_columns(user_ids, coords)
    # One Rect per distinct cloak, shared by its group's users like the
    # manager's own policy.
    policy = CloakingPolicy.from_rows(
        np.arange(len(user_ids)),
        coords,
        group.ravel(),
        [Rect(*box) for box in boxes.tolist()],
        db,
        name="fleet-worker",
    )
    trajectory = None
    if spec.trajectory:
        ledger = TrajectoryLedger(window=spec.trajectory_window)
        if trajectory_state is not None:
            ledger.adopt_state(trajectory_state)
        trajectory = ContinuityConstraint(spec.k, ledger=ledger)
    return CSP(
        Rect(*spec.region),
        spec.k,
        db,
        spec.provider,
        spec.use_cache,
        spec.max_depth,
        policy=policy,
        trajectory=trajectory,
    )


#: the worker's ordered, non-blocking pipe writer.
_Reply = Callable[[Tuple[Any, ...]], Awaitable[None]]


def _encode_error(exc: BaseException) -> Tuple[str, str, Optional[str]]:
    """Typed errors cross the pipe as (class name, message, reason) —
    exception instances with keyword-only constructors do not survive
    pickling round trips."""
    return (type(exc).__name__, str(exc), getattr(exc, "reason", None))


def _decode_error(encoded: Tuple[str, str, Optional[str]]) -> ReproError:
    name, message, reason = encoded
    cls = getattr(_errors, name, None)
    if cls is ServiceUnavailableError:
        return ServiceUnavailableError(message, reason=reason or "worker")
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:
            # Constructor wants more than a message: degrade to the
            # generic typed rejection rather than lose the failure.
            return ServiceUnavailableError(
                message, reason=reason or "worker"
            )
    return ServiceUnavailableError(message, reason=reason or "worker")


async def _send_failure(reply: _Reply, seq: int, exc: BaseException) -> None:
    """Propagate a typed failure to the dispatcher's waiter — the
    cross-process analogue of ``Future.set_exception``."""
    await reply(("res", seq, None, _encode_error(exc)))


async def _serve_one(
    gateway: AsyncGateway, reply: _Reply, seq: int, user_id: str, payload: Any
) -> None:
    try:
        served = await gateway.submit(user_id, payload)
    except asyncio.CancelledError:
        raise
    except ReproError as exc:
        await _send_failure(reply, seq, exc)
        return
    except Exception as exc:
        await _send_failure(
            reply,
            seq,
            ServiceUnavailableError(
                f"gateway worker failed unexpectedly: {exc}", reason="worker"
            ),
        )
        return
    await reply(("res", seq, served, None))


async def _worker_serve(
    csp: Any,
    config: GatewayConfig,
    conn: Connection,
    kill_after: Optional[int],
    kill_on_epoch: Optional[int],
) -> None:
    """One worker's event loop: pipe submissions → the unchanged
    :class:`AsyncGateway` → pipe results, then stats at drain.

    An ``("epoch", spec, shard)`` message swaps the epoch: the
    worker first lets every in-flight submission finish on the *old*
    gateway (worker-level epoch pinning — admitted under epoch N,
    served with epoch-N cloaks), then attaches the new segment, builds
    a fresh gateway, and acks ``("epoch-ok", serial)``.  Submissions
    already queued in the pipe behind the epoch message are served by
    the new gateway — pipe order is admission order.
    """
    gateway = AsyncGateway(csp, config)
    loop = asyncio.get_running_loop()
    # One sender thread writes every reply, in order, so a full pipe
    # stalls only that thread and the loop keeps reading submissions;
    # the dispatcher sends under its slot lock, so a loop blocked on a
    # send could leave both ends waiting on each other.
    sender = ThreadPoolExecutor(max_workers=1)

    async def reply(msg: Tuple[Any, ...]) -> None:
        # A broken pipe: the dispatcher hung up or is respawning us.
        with contextlib.suppress(BrokenPipeError, OSError):
            await loop.run_in_executor(sender, conn.send, msg)

    tasks: Set["asyncio.Task[None]"] = set()
    retired_stats = GatewayStats()
    received = 0
    started = time.perf_counter()
    conn.send(("ready", os.getpid()))
    while True:
        try:
            msg = await loop.run_in_executor(None, conn.recv)
        # The dispatcher hung up: no waiter is left to answer, so
        # draining and exiting IS the degradation.  # analysis: ok[FC002]
        except (EOFError, OSError):
            break
        if msg[0] == "drain":
            break
        if msg[0] == "epoch":
            __, spec, shard = msg
            if kill_on_epoch is not None and spec.epoch >= kill_on_epoch:
                # Chaos hook: die between the broadcast and the ack —
                # the dispatcher's respawn must complete the swap.
                kill_current_process()
            # Worker-level epoch pinning: everything admitted under the
            # old epoch drains on the old gateway before the swap lands.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            await gateway.close()
            retired_stats = merge_gateway_stats(retired_stats, gateway.stats)
            gateway = AsyncGateway(_build_worker_csp(spec, shard), config)
            await reply(("epoch-ok", spec.epoch))
            continue
        __, seq, user_id, payload = msg
        received += 1
        if kill_after is not None and received >= kill_after:
            # Chaos hook: die *before* answering, so this submission is
            # exactly what the dispatcher must recover.
            kill_current_process()
        task = asyncio.ensure_future(
            _serve_one(gateway, reply, seq, user_id, payload)
        )
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    await gateway.close()
    serve_seconds = time.perf_counter() - started
    stats = merge_gateway_stats(retired_stats, gateway.stats)
    await reply(("stats", stats, serve_seconds))
    sender.shutdown()
    conn.close()


def _fleet_worker_main(
    spec: _FleetSpec,
    shard: _ShardState,
    config: GatewayConfig,
    conn: Connection,
    kill_after: Optional[int],
    kill_on_epoch: Optional[int],
) -> None:
    csp = _build_worker_csp(spec, shard)
    asyncio.run(_worker_serve(csp, config, conn, kill_after, kill_on_epoch))


# -- dispatcher side ---------------------------------------------------------


class _Routing:
    """One epoch's routing table over its snapshot's rows: each row's
    worker (-1: not a rectangular cloak, so routed by id)."""

    __slots__ = ("ids", "row_of", "worker")

    def __init__(self, index: Tuple[List[str], Dict[str, int]], worker: np.ndarray):
        self.ids, self.row_of = index
        self.worker = worker

    def get(self, user_id: str) -> Optional[int]:
        row = self.row_of.get(user_id)
        if row is None or self.worker[row] < 0:
            return None
        return int(self.worker[row])

    def __getitem__(self, user_id: str) -> int:
        widx = self.get(user_id)
        if widx is None:
            raise KeyError(user_id)
        return widx

    def users(self, index: int) -> List[str]:
        """The users routed to worker ``index``, in row order."""
        rows = np.flatnonzero(self.worker == index).tolist()
        return list(map(self.ids.__getitem__, rows))


def _handle_of(pin: EpochPin) -> SharedTreeHandle:
    """The segment handle of a pinned epoch (published by the manager)."""
    shared = pin.epoch.shared
    if shared is None:
        raise TreeError(f"epoch {pin.epoch.serial} has no published segment")
    return shared.handle


class _WorkerSlot:
    """One ring position: its process, pipe, and in-flight ledger."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.conn: Optional[Connection] = None
        self.process: Optional[Process] = None
        self.reader: Optional[threading.Thread] = None
        #: guards conn swaps and the outstanding ledger (sender thread
        #: vs. the slot's reader thread performing a respawn).
        self.lock = threading.Lock()
        #: seq → (user_id, payload) sent but not yet answered; exactly
        #: what a respawned worker must re-serve.
        self.outstanding: Dict[int, Tuple[str, Any]] = {}  # guarded-by: self.lock
        self.requests = 0
        self.respawns = 0
        self.draining = False  # guarded-by: self.lock
        self.lost = False
        #: highest epoch serial this slot has acked re-attaching (a
        #: respawn onto the current spec counts — the replacement never
        #: saw the old segment).  Guarded by the dispatcher's ``_cv``.
        self.epoch_serial = 0  # guarded-by: =self._cv
        self.stats = GatewayStats()
        self.serve_seconds = 0.0


class FleetDispatcher:
    """Consistent-hash front of N gateway workers over shared epochs.

    Construction fits the first epoch through the fleet's
    :class:`~repro.streaming.epoch.EpochManager`, which publishes it and
    unlinks every segment it published in :meth:`close` on every path.
    :meth:`serve` routes a workload by cloak key and blocks until every
    submission has a result — a :class:`~repro.lbs.pipeline.ServedRequest`
    or the typed error that rejected it, aligned with the input.
    :meth:`close` drains workers gracefully and returns the aggregated
    :class:`FleetStats`.
    """

    def __init__(
        self,
        region: Rect,
        k: int,
        db: LocationDatabase,
        provider: Any,
        config: Optional[FleetConfig] = None,
        *,
        use_cache: bool = True,
        max_depth: int = 40,
    ) -> None:
        self.config = config or FleetConfig()
        self.config.validate()
        self.region = region
        self.k = k
        #: the fleet's one policy owner: fit, incremental repair,
        #: publication and pin-counted retirement of epoch segments.
        self._manager = EpochManager(
            region, k, db, max_depth=max_depth, publish_shared=True
        )
        #: dispatcher-side mirror of every worker ledger: fed from serve
        #: results, it is the source of truth for the shard a respawned
        #: or epoch-swapped worker is seeded with.  Fold order does not
        #: matter — set intersection commutes — so the mirror equals the
        #: union of worker ledgers regardless of result interleaving.
        self._mirror: Optional[TrajectoryLedger] = (
            TrajectoryLedger(window=self.config.trajectory_window)
            if self.config.trajectory
            else None
        )
        #: the workers' candidate-set rule, folding serves into the
        #: mirror; reader threads share its caches under _mirror_lock.
        self._continuity: Optional[ContinuityConstraint] = (
            ContinuityConstraint(k, ledger=self._mirror)
            if self._mirror is not None
            else None
        )
        self._mirror_lock = threading.Lock()
        try:
            self.ring = HashRing(
                range(self.config.n_workers),
                replicas=self.config.ring_replicas,
            )
            self._ring_lock = threading.Lock()
            self._slots = [
                _WorkerSlot(i) for i in range(self.config.n_workers)
            ]
            pin = self._manager.pin()
            self._spec = _FleetSpec(
                region=region.as_tuple(),
                k=k,
                provider=provider,
                handle=_handle_of(pin),
                use_cache=use_cache,
                max_depth=max_depth,
                epoch=pin.epoch.serial,
                trajectory=self.config.trajectory,
                trajectory_window=self.config.trajectory_window,
            )
            self._adopt(pin)
        except BaseException:
            self._manager.close()
            raise
        self._seq = 0
        self._results: Dict[int, object] = {}  # guarded-by: self._cv
        self._cv = threading.Condition()
        self._respawn_total = 0  # guarded-by: self._cv
        self._dispatch_wall = 0.0
        self._started = False
        self._closed = False
        self._final_stats: Optional[FleetStats] = None

    @property
    def db(self) -> LocationDatabase:
        """The snapshot of the epoch the workers are attached to."""
        return self._pin.epoch.db

    def _adopt(self, pin: EpochPin) -> None:
        """Route, mirror and spawn on ``pin``'s epoch from now on; the
        pin keeps its segment alive until no worker can attach it."""
        self._pin = pin
        self._spec = replace(
            self._spec, handle=_handle_of(pin), epoch=pin.epoch.serial
        )
        self._routing = self._build_routing()

    @property
    def _cloaks(self) -> Dict[str, Tuple[float, ...]]:
        """uid → cloak box of the routed (rectangular) cloaks of the
        attached epoch, built on demand; routing works on rows."""
        return {
            uid: cloak.as_tuple()
            for uid, cloak in self._pin.epoch.policy.items()
            if isinstance(cloak, Rect)
        }

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "FleetDispatcher":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    def start(self) -> None:
        """Spawn the worker processes (no-op in simulated mode)."""
        if self._started:
            return
        self._started = True
        if self.config.mode != "process":
            return
        kill_plan = self.config.kill_after or {}
        epoch_plan = self.config.kill_on_epoch or {}
        for slot in self._slots:
            conn, proc = self._launch(
                self._spec,
                None,
                kill_plan.get(slot.index),
                epoch_plan.get(slot.index),
            )
            slot.conn = conn
            slot.process = proc
            slot.reader = threading.Thread(
                target=self._read_loop,
                args=(slot,),
                name=f"fleet-reader-{slot.index}",
                daemon=True,
            )
            slot.reader.start()

    def _launch(
        self,
        spec: _FleetSpec,
        shard: _ShardState,
        kill_after: Optional[int],
        kill_on_epoch: Optional[int] = None,
    ) -> Tuple[Connection, Process]:
        parent, child = Pipe()
        proc = Process(
            target=_fleet_worker_main,
            args=(
                spec,
                shard,
                self.config.gateway,
                child,
                kill_after,
                kill_on_epoch,
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        return parent, proc

    def close(self) -> FleetStats:
        """Drain every worker, join, retire every epoch, aggregate."""
        if self._final_stats is not None:
            return self._final_stats
        self._closed = True
        try:
            if self.config.mode == "process" and self._started:
                budget = self.config.worker_timeout * (
                    self.config.max_respawns + 2
                )
                for slot in self._slots:
                    if slot.lost:
                        continue
                    with slot.lock:
                        slot.draining = True
                        if slot.conn is not None:
                            with contextlib.suppress(BrokenPipeError, OSError):
                                slot.conn.send(("drain",))
                for slot in self._slots:
                    if slot.reader is not None:
                        slot.reader.join(timeout=budget)
                    if slot.process is not None:
                        slot.process.join(timeout=5.0)
                        if slot.process.is_alive():
                            slot.process.terminate()
                            slot.process.join(timeout=5.0)
                    if slot.conn is not None:
                        slot.conn.close()
        finally:
            # Shutdown unlinks every epoch segment, pinned or not.
            self._manager.close()
        with self._cv:
            respawns = self._respawn_total
        self._final_stats = FleetStats(
            n_workers=self.config.n_workers,
            mode=self.config.mode,
            per_worker=tuple(slot.stats for slot in self._slots),
            per_worker_seconds=tuple(
                slot.serve_seconds for slot in self._slots
            ),
            per_worker_requests=tuple(slot.requests for slot in self._slots),
            respawns=respawns,
            lost_workers=sum(1 for slot in self._slots if slot.lost),
            dispatch_wall_seconds=self._dispatch_wall,
            epochs=self._manager.promotions,
        )
        return self._final_stats

    # -- epoch churn ---------------------------------------------------------

    def advance_epoch(self, moves: Mapping[str, Any]) -> int:
        """Promote the next policy epoch and re-attach every worker.

        ``moves`` (uid → :class:`~repro.core.locationdb.Point`) go
        through ``manager.advance``; a swap it does not promote raises
        :class:`ServiceUnavailableError` and leaves every worker on the
        prior epoch.  The old epoch's pin is released only after every
        live worker has acked the new one — or died and been respawned
        straight onto it, which counts as the ack because the
        replacement never mapped the old segment.  Returns the new
        epoch serial.

        Serving never blocks on this call: submissions racing the
        broadcast are served by whichever epoch their worker is on
        (worker-level pinning keeps each request's epoch coherent).
        """
        if self._closed:
            raise ReproError("fleet dispatcher is closed")
        # Refuse what the repair cannot apply before the manager sees it.
        bad = [
            uid for uid, point in moves.items()
            if str(uid) not in self.db or not self.region.contains(point)
        ]
        if bad:
            raise ReproError(f"cannot move unknown or off-map users: {bad[:5]!r}")
        report = self._manager.advance(moves)
        if not report.promoted:
            raise ServiceUnavailableError(
                f"epoch swap {report.serial} was not promoted "
                f"({report.reason}); every worker stays on epoch "
                f"{self._spec.epoch}",
                reason="swap",
            )
        process = self.config.mode == "process" and self._started
        if process and self._mirror is not None:
            # Ledger hand-off needs the mirror complete: every in-flight
            # serve must land, against its own epoch, before shards are
            # cut for the new one.
            self._quiesce()
        retired = self._pin
        # Spec first: a worker dying anywhere past this point respawns
        # onto the new epoch, so the swap completes through the crash.
        self._adopt(self._manager.pin())
        serial = self._spec.epoch
        if process:
            for slot in self._slots:
                # ``_cv`` is never taken inside ``slot.lock``: the
                # fleet's single lock order is _cv → slot.lock (CC002),
                # so the lost-slot ack lands after the slot region.
                sent = False
                with slot.lock:
                    if not slot.lost and slot.conn is not None:
                        with contextlib.suppress(BrokenPipeError, OSError):
                            # A broken pipe means the reader thread is
                            # about to respawn the slot onto the new
                            # spec — that respawn is the ack this
                            # broadcast wanted.
                            slot.conn.send(
                                ("epoch", self._spec, self._shard_state(slot.index))
                            )
                        sent = True
                if not sent:
                    with self._cv:
                        slot.epoch_serial = serial
                        self._cv.notify_all()
            deadline = time.monotonic() + self.config.worker_timeout * (
                self.config.max_respawns + 2
            )
            with self._cv:
                while any(
                    not slot.lost and slot.epoch_serial < serial
                    for slot in self._slots
                ):
                    if not self._cv.wait(timeout=1.0) and (
                        time.monotonic() > deadline
                    ):
                        raise ReproError(
                            "epoch swap timed out waiting for worker "
                            "re-attach acks"
                        )
        # Every surviving worker has left the retired epoch: dropping
        # its last pin lets the manager's reap unlink the segment.
        retired.release()
        return serial

    # -- routing -------------------------------------------------------------

    def _build_routing(self) -> "_Routing":
        """Assign every cloak class to a worker: consistent hashing with
        bounded loads.

        Each distinct rectangular cloak (equal cloaks merged,
        :attr:`CloakingPolicy.cloak_classes`) hashes onto the ring by
        its first cloak's box and walks clockwise to the first worker
        whose accumulated share (weighted by the class's user count)
        stays under ~1.05× the even split (or one whole class, whichever
        is larger — classes are indivisible).  The spill is
        deterministic — classes are visited in sorted box order — and
        all users of one cloak land together, so the dispatch invariant
        (one cloak key → one worker) survives the rebalancing.  Plain
        first-choice hashing is badly lumpy here: a k-anonymous policy
        has only ≈ n/k distinct cloaks, far too few for the law of
        large numbers to even shares out.
        """
        policy = self._pin.epoch.policy
        keys, of_row, sizes = policy.cloak_classes
        routed = keys[:, 0] == 0
        used, first = np.unique(of_row[policy.row_order], return_index=True)
        first_group = policy.row_group[policy.row_order[first]].tolist()
        with self._ring_lock:
            workers = sorted(self.ring.workers)
            if not workers:
                raise ReproError("no live workers left to route to")
            total = int(sizes[routed].sum())
            heaviest = int(sizes[routed].max(initial=0))
            cap = max(-(-total * 105 // (100 * len(workers))), heaviest)
            load = {w: 0 for w in workers}
            worker_of = np.full(len(keys), -1, dtype=np.intp)
            for c, g in zip(used.tolist(), first_group):
                if not routed[c]:
                    continue
                count = int(sizes[c])
                chosen: Optional[int] = None
                for cand in self.ring.candidates(
                    repr(policy.regions[g].as_tuple()).encode("utf-8")
                ):
                    if load[cand] + count <= cap:
                        chosen = cand
                        break
                if chosen is None:
                    chosen = min(workers, key=lambda w: (load[w], w))
                load[chosen] += count
                worker_of[c] = chosen
            return _Routing(policy.db.index(), worker_of[of_row])

    # -- trajectory mirror ----------------------------------------------------

    def _shard_state(self, index: int) -> _ShardState:
        """The mirror ledger shard for one slot's routed users, or
        ``None`` when the defense is off."""
        if self._mirror is None:
            return None
        return self._mirror.subset_state(self._routing.users(index))

    def _record_mirror(self, user_id: str, cloak: Rect) -> None:
        """Fold one served cloak into the dispatcher's mirror ledger.

        :meth:`ContinuityConstraint.observe` applies the candidate rule
        each worker CSP applies, under the policy of the epoch the
        workers are attached to.  Reader threads race here;
        ``_mirror_lock`` serializes the constraint's caches and ∩
        commutes, so interleaving cannot corrupt the mirror.
        """
        if self._continuity is None:
            return
        with self._mirror_lock:
            epoch = self._pin.epoch
            self._continuity.observe(
                epoch.policy, user_id, cloak, serial=epoch.serial
            )

    def _quiesce(self) -> None:
        """Wait for every outstanding submission to resolve, so the
        mirror holds every served cloak before shards are snapshotted
        for an epoch broadcast."""
        deadline = time.monotonic() + self.config.worker_timeout * (
            self.config.max_respawns + 2
        )

        def busy() -> bool:
            for slot in self._slots:
                with slot.lock:
                    if slot.outstanding and not slot.lost:
                        return True
            return False

        with self._cv:
            while busy():
                if not self._cv.wait(timeout=0.25) and (
                    time.monotonic() > deadline
                ):
                    raise ReproError(
                        "trajectory quiesce timed out waiting for "
                        "outstanding submissions"
                    )

    def route(self, user_id: str) -> int:
        """The worker index owning ``user_id``'s cloak key.

        Unknown users route by their id — the owning worker's gateway
        raises the proper typed error through the normal path.
        """
        widx = self._routing.get(user_id)
        if widx is None:
            with self._ring_lock:
                return self.ring.worker_for(
                    f"user:{user_id}".encode("utf-8")
                )
        if self._slots[widx].lost:
            # The owner left the ring (respawn budget exhausted):
            # rebuild the table over the surviving workers.
            self._routing = self._build_routing()
            widx = self._routing[user_id]
        return widx

    # -- serving -------------------------------------------------------------

    def serve(
        self, workload: Sequence[Tuple[str, Any]]
    ) -> List[object]:
        """Serve one workload; results align with the input order."""
        if self._closed:
            raise ReproError("fleet dispatcher is closed")
        if not self._started:
            self.start()
        started = time.perf_counter()
        try:
            if self.config.mode == "simulated":
                return self._serve_simulated(workload)
            return self._serve_process(workload)
        finally:
            self._dispatch_wall += time.perf_counter() - started

    def _serve_process(
        self, workload: Sequence[Tuple[str, Any]]
    ) -> List[object]:
        seqs: List[int] = []
        for user_id, payload in workload:
            seq = self._seq
            self._seq += 1
            seqs.append(seq)
            slot = self._slots[self.route(user_id)]
            if slot.lost or slot.conn is None:
                # Routed to a slot in the act of leaving the ring (its
                # removal races this send): fail closed, never drop.
                with self._cv:
                    self._results[seq] = ServiceUnavailableError(
                        f"gateway worker {slot.index} is lost; "
                        "submission rejected fail-closed",
                        reason="worker-lost",
                    )
                    self._cv.notify_all()
                continue
            with slot.lock:
                slot.outstanding[seq] = (user_id, payload)
                slot.requests += 1
                with contextlib.suppress(BrokenPipeError, OSError):
                    # A broken pipe here means the reader thread is
                    # about to observe the death and re-send the
                    # outstanding ledger to the respawned worker.
                    slot.conn.send(("req", seq, user_id, payload))
        deadline = time.monotonic() + self.config.worker_timeout * (
            self.config.max_respawns + 2
        )
        with self._cv:
            while any(seq not in self._results for seq in seqs):
                if not self._cv.wait(timeout=1.0) and (
                    time.monotonic() > deadline
                ):
                    raise ReproError(
                        "fleet serve timed out waiting for worker results"
                    )
            return [self._results.pop(seq) for seq in seqs]

    def _serve_simulated(
        self, workload: Sequence[Tuple[str, Any]]
    ) -> List[object]:
        shares: Dict[int, List[Tuple[int, str, Any]]] = {}
        for i, (user_id, payload) in enumerate(workload):
            shares.setdefault(self.route(user_id), []).append(
                (i, user_id, payload)
            )
        results: List[object] = [None] * len(workload)
        for index in sorted(shares):
            share = shares[index]
            slot = self._slots[index]
            # Worker startup (attach + policy adoption) is charged
            # separately from serving, like partition_seconds in the
            # parallel engine.
            shard: _ShardState = None
            if self._mirror is not None:
                shard = self._mirror.subset_state(
                    [user_id for __, user_id, ___ in share]
                )
            csp = _build_worker_csp(self._spec, shard)
            started = time.perf_counter()
            share_results, stats = run_gateway(
                csp,
                [(user_id, payload) for __, user_id, payload in share],
                self.config.gateway,
            )
            slot.serve_seconds += time.perf_counter() - started
            slot.requests += len(share)
            slot.stats = merge_gateway_stats(slot.stats, stats)
            for (i, user_id, ___), result in zip(share, share_results):
                results[i] = result
                cloak = getattr(
                    getattr(result, "anonymized", None), "cloak", None
                )
                if isinstance(cloak, Rect):
                    self._record_mirror(user_id, cloak)
        return results

    # -- worker death handling ----------------------------------------------

    def _read_loop(self, slot: _WorkerSlot) -> None:
        """Drain one slot's pipe: results, then stats; respawn on death."""
        while True:
            conn = slot.conn
            assert conn is not None
            msg: Any = None
            silent = 0.0
            while msg is None:
                try:
                    if conn.poll(0.25):
                        msg = conn.recv()
                        break
                except (EOFError, OSError) as exc:
                    if not self._handle_worker_death(slot, exc):
                        return
                    conn = slot.conn
                    assert conn is not None
                    silent = 0.0
                    continue
                with slot.lock:
                    busy = bool(slot.outstanding) or slot.draining
                if not busy:
                    continue  # idle worker: infinite patience
                silent += 0.25
                if silent >= self.config.worker_timeout:
                    if not self._handle_worker_death(
                        slot,
                        ReproError(
                            f"worker {slot.index} silent for "
                            f"{self.config.worker_timeout:g}s with work "
                            "outstanding"
                        ),
                    ):
                        return
                    conn = slot.conn
                    assert conn is not None
                    silent = 0.0
            kind = msg[0]
            if kind == "ready":
                continue
            if kind == "epoch-ok":
                with self._cv:
                    slot.epoch_serial = max(slot.epoch_serial, msg[1])
                    self._cv.notify_all()
                continue
            if kind == "res":
                __, seq, served, err = msg
                with slot.lock:
                    entry = slot.outstanding.pop(seq, None)
                outcome: object = (
                    served if err is None else _decode_error(err)
                )
                if err is None and entry is not None:
                    cloak = getattr(
                        getattr(served, "anonymized", None), "cloak", None
                    )
                    if isinstance(cloak, Rect):
                        self._record_mirror(entry[0], cloak)
                with self._cv:
                    self._results[seq] = outcome
                    self._cv.notify_all()
                continue
            if kind == "stats":
                slot.stats = merge_gateway_stats(slot.stats, msg[1])
                slot.serve_seconds += msg[2]
                return

    def _handle_worker_death(
        self, slot: _WorkerSlot, exc: BaseException
    ) -> bool:
        """Respawn the slot (True) or retire it fail-closed (False)."""
        if slot.process is not None:
            slot.process.join(timeout=1.0)
        if slot.respawns >= self.config.max_respawns:
            with slot.lock:
                dead = dict(slot.outstanding)
                slot.outstanding.clear()
                slot.lost = True
            with self._ring_lock:
                self.ring.remove(slot.index)
            error = ServiceUnavailableError(
                f"gateway worker {slot.index} lost after "
                f"{slot.respawns} respawn(s): {exc}; its in-flight "
                "submissions are rejected fail-closed",
                reason="worker-lost",
            )
            with self._cv:
                for seq in dead:
                    self._results[seq] = error
                self._cv.notify_all()
            return False
        slot.respawns += 1
        with self._cv:
            self._respawn_total += 1
        with slot.lock:
            if slot.conn is not None:
                with contextlib.suppress(OSError):
                    slot.conn.close()
            # The replacement attaches the current epoch and re-serves
            # exactly the unanswered ledger (kill chaos is not re-armed).
            # The spec is read under the slot lock the epoch broadcast
            # also takes, so any swap landing after this read reaches
            # the replacement as an ordinary ``epoch`` message.  Ledger
            # hand-off: the replacement resumes from the mirror shard
            # for this slot's routed users, so prior serves keep
            # constraining it across the respawn.
            spec = self._spec
            conn, proc = self._launch(
                spec, self._shard_state(slot.index), None
            )
            slot.conn = conn
            slot.process = proc
            with contextlib.suppress(BrokenPipeError, OSError):
                for seq, (user_id, payload) in sorted(
                    slot.outstanding.items()
                ):
                    conn.send(("req", seq, user_id, payload))
                if slot.draining:
                    conn.send(("drain",))
        with self._cv:
            # Respawn-as-ack: the replacement was built from ``spec``,
            # so it attached epoch ``spec.epoch``'s segment and never
            # mapped the retired one a pending swap wants to release.
            slot.epoch_serial = max(slot.epoch_serial, spec.epoch)
            self._cv.notify_all()
        return True


def run_fleet(
    region: Rect,
    k: int,
    db: LocationDatabase,
    provider: Any,
    workload: Sequence[Tuple[str, Any]],
    config: Optional[FleetConfig] = None,
    *,
    use_cache: bool = True,
    max_depth: int = 40,
) -> Tuple[List[object], FleetStats]:
    """Sync façade: one workload through a fresh fleet to completion.

    Builds the dispatcher (fitting and publishing the first epoch),
    serves the workload, drains, and returns ``(results, stats)`` —
    every epoch segment unlinked on every exit path.
    """
    dispatcher = FleetDispatcher(
        region,
        k,
        db,
        provider,
        config,
        use_cache=use_cache,
        max_depth=max_depth,
    )
    try:
        dispatcher.start()
        results = dispatcher.serve(workload)
    finally:
        stats = dispatcher.close()
    return results, stats
