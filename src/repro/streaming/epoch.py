"""Double-buffered epoch serving: repair on the shadow, swap atomically.

The one owner of the policy lifecycle: fit (or adopt), incremental
repair, journal commit, restore, the staleness ladder and trajectory
enforcement.  :class:`~repro.lbs.pipeline.CSP` is a request path over
one manager (with ``coarsen_grace=0``), and the fleet dispatcher serves
from one with ``publish_shared=True``.  An :class:`EpochManager` keeps
**two** policy buffers:

* the **active epoch** — an immutable `(serial, policy, db)` triple that
  serving reads; optionally published as a read-only
  :class:`~repro.trees.flat.SharedFlatTree` segment carrying every
  user's id, coordinates and cloak, which fleet workers adopt as is;
* the **shadow** — the single :class:`IncrementalAnonymizer` carrying the
  tree and DP state forward.  Moves stream into a
  :class:`~repro.streaming.ingest.DirtyAccumulator`; each
  :meth:`EpochManager.advance` drains the batch and repairs the shadow via
  ``resolve_dirty`` *while the active epoch keeps serving*.

The swap is atomic and crash-consistent: the repaired policy is journal-
committed (``PolicyJournal``/``QuorumJournal`` swap-intent → swap-commit)
**before** promotion, so a crash mid-swap restores either the old epoch or
the new one — never a torn hybrid.  A quorum-failed commit aborts the
promotion outright: the prior epoch stays active and staleness grows
(fail closed; durability unprovable means the swap did not happen).

In-flight requests are **pinned**: :meth:`EpochManager.pin` hands out the
active epoch with its degradation rung decided at admission, and a retired
epoch's shared segment is unlinked only once its pin count drains to zero.

Bounded staleness drives the degradation ladder.  With the shadow
``age`` swaps behind the world::

    age == 0                          -> fresh      (or recovered)
    age <= max_stale                  -> stale      (exact old-epoch cloaks)
    age <= max_stale + coarsen_grace  -> coarsened  (geometric ancestor cloaks)
    beyond                            -> rejected   (fail closed)

With ``coarsen_grace=0`` (the CSP) the coarsened rung of the ladder is
empty: stale within ``max_stale``, then rejected.

Coarsening never consults the (possibly mid-repair) tree: every cloak of a
tree-derived policy is a node rectangle of the deterministic halving
hierarchy, so its ancestors are reconstructible from pure geometry.
Mapping *every* cloak of an epoch uniformly ``levels`` up keeps
k-anonymity: each fine anonymity group (≥ k senders) lands wholesale inside
one ancestor rectangle, so coarse groups are unions of fine groups.  A
request whose reported location the epoch's snapshot does not hold (a
stale MPC read) is served the lowest halving-chain ancestor of its cloak
that covers the location, registered group-wide in the epoch's override
antichain (:attr:`EpochManager.effective_policy`).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    cast,
)

import numpy as np

from ..core.anonymizer import IncrementalAnonymizer, PolicyAwareAnonymizer
from ..core.errors import (
    AnonymityBreachError,
    RecoveryError,
    ReproError,
    ServiceUnavailableError,
    TreeError,
)
from ..core.flat_dp import FlatTreeSolution
from ..core.geometry import Point, Rect
from ..core.policy import CloakingPolicy
from ..core.locationdb import LocationDatabase
from ..robustness.degrade import (
    DegradationEvent,
    EventLog,
    coarsen_overrides,
    policy_with_overrides,
)
from ..robustness.faults import FaultInjector, InjectedFault
from ..robustness.recovery import (
    SOLVER_FINGERPRINT,
    PolicyJournal,
    QuorumJournal,
    RecoveredSnapshot,
    resume_shadow,
)
from ..trees.flat import FlatTree, SharedFlatTree
from .ingest import DirtyAccumulator, Moves

if TYPE_CHECKING:  # runtime import would cycle: trajectory imports epoch
    from ..trajectory.constraint import ContinuityConstraint

Journal = Union[PolicyJournal, QuorumJournal]

_EPS = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _EPS * max(1.0, abs(a), abs(b))


def _same_rect(a: Rect, b: Rect) -> bool:
    return (
        _close(a.x1, b.x1)
        and _close(a.y1, b.y1)
        and _close(a.x2, b.x2)
        and _close(a.y2, b.y2)
    )


def _rect_is_semi(rect: Rect) -> bool:
    """Square vs 1:2 semi-quadrant, the only two shapes in the hierarchy."""
    long_side = max(rect.width, rect.height)
    short_side = min(rect.width, rect.height)
    if _close(long_side, short_side):
        return False
    if _close(long_side, 2.0 * short_side):
        return True
    raise TreeError(
        f"rect {rect} is neither a square nor a 1:2 semi-quadrant; "
        "not a node of the halving hierarchy"
    )


@functools.lru_cache(maxsize=1024)
def halving_chain(region: Rect, orientation: str, cloak: Rect) -> Tuple[Rect, ...]:
    """The unique region→cloak descent of the deterministic hierarchy.

    Mirrors ``BinaryTree`` splitting exactly: a semi-quadrant is cut
    across its long axis (yielding two squares); a square is cut per the
    tree-level ``orientation`` (yielding two semis).  Purely geometric —
    no tree is consulted, so it works while the shadow is mid-repair.
    A pure function of its arguments, so the last 1,024 chains are
    memoized (immutable tuples; a non-node cloak raises every time).
    """
    chain = [region]
    current = region
    target = cloak.center
    for __ in range(64):
        if _same_rect(current, cloak):
            return tuple(chain)
        if current.area < cloak.area * (1.0 - _EPS):
            break
        if _rect_is_semi(current):
            halves = (
                current.halves_horizontal()
                if current.height > current.width
                else current.halves_vertical()
            )
        elif orientation == "vertical":
            halves = current.halves_vertical()
        else:
            halves = current.halves_horizontal()
        # A strict descendant's center is interior to exactly one half
        # (a center on the cut line would force a degenerate rect).
        current = halves[1] if halves[1].contains(target) else halves[0]
        chain.append(current)
    raise TreeError(
        f"cloak {cloak} is not a node rectangle under region {region}"
    )


def ancestor_cloak(
    region: Rect, orientation: str, cloak: Rect, levels: int
) -> Rect:
    """The hierarchy ancestor ``levels`` above ``cloak`` (clamped at root)."""
    chain = halving_chain(region, orientation, cloak)
    return chain[max(0, len(chain) - 1 - max(0, levels))]


def covering_ancestor(
    region: Rect, orientation: str, cloak: Rect, location: Point
) -> Rect:
    """The lowest hierarchy ancestor of ``cloak`` (itself included) that
    covers ``location`` — the geometric twin of
    :func:`~repro.robustness.degrade.coarsening_ancestor`, which walks a
    tree instead.  Raises :class:`ServiceUnavailableError`
    (``reason="coarsen"``) when no ancestor covers ``location``.
    """
    try:
        chain = halving_chain(region, orientation, cloak)
    except TreeError as exc:
        raise ServiceUnavailableError(
            f"cannot coarsen cloak {cloak}: {exc}", reason="coarsen"
        ) from exc
    for rect in reversed(chain):
        if rect.contains(location):
            return rect
    raise ServiceUnavailableError(
        "reported location lies outside every ancestor cloak; "
        "rejecting fail-closed",
        reason="coarsen",
    )


class Epoch:
    """One immutable published policy buffer.

    The policy object is extracted fresh at promotion, so later in-place
    shadow repairs (``FlatTree.refresh`` patches count arrays) can never
    reach it; ``shared`` (when published) is a byte copy in shared
    memory that workers map read-only.
    """

    __slots__ = ("serial", "policy", "db", "origin", "shared", "pins",
                 "retired", "overrides", "ancestors")

    def __init__(
        self,
        serial: int,
        policy: CloakingPolicy,
        db: LocationDatabase,
        origin: str = "swap",
        shared: Optional[SharedFlatTree] = None,
    ) -> None:
        self.serial = serial
        self.policy = policy
        self.db = db
        #: "fit" | "swap" | "restore" — restore-born epochs serve the
        #: "recovered" rung until the first successful swap.
        self.origin = origin
        self.shared = shared
        self.pins = 0
        self.retired = False
        #: group-wide MPC-mismatch coarsenings: an antichain of ancestor
        #: rects, each re-cloaking every group it contains.
        self.overrides: List[Rect] = []
        #: memo of ladder coarsening: (cloak, levels) → ancestor.
        self.ancestors: Dict[Tuple[Rect, int], Rect] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(serial={self.serial}, pins={self.pins}, "
            f"retired={self.retired}, shared={self.shared is not None})"
        )


class EpochPin:
    """A request's admission ticket: epoch + rung, fixed at admission.

    Context manager; while held, the epoch's shared segment cannot be
    unlinked even if a swap retires the epoch mid-flight — the request
    completes with the exact cloaks it was admitted under.
    """

    __slots__ = ("_manager", "epoch", "rung", "levels", "age", "_released")

    def __init__(
        self,
        manager: "EpochManager",
        epoch: Epoch,
        rung: str,
        levels: int,
        age: int,
    ) -> None:
        self._manager = manager
        self.epoch = epoch
        self.rung = rung
        self.levels = levels
        #: swaps the epoch was behind the world at admission.
        self.age = age
        self._released = False

    def __enter__(self) -> "EpochPin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._manager._release(self.epoch)


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`EpochManager.advance` tick did."""

    #: the world serial this tick targeted.
    serial: int
    #: True when the shadow was promoted to active.
    promoted: bool
    #: True when the journal durably holds the promoted state (False on
    #: a single-journal media error — promoted but durability-degraded).
    committed: bool
    #: active-epoch staleness after the tick (0 after a clean swap).
    staleness: int
    moved_users: int = 0
    dirty_nodes: int = 0
    recomputed_nodes: int = 0
    total_nodes: int = 0
    repair_seconds: float = 0.0
    #: why the swap did not promote ("" when it did).
    reason: str = ""


class EpochManager:
    """Continuous-churn serving: ingest → shadow repair → atomic swap."""

    def __init__(
        self,
        region: Rect,
        k: int,
        db: Optional[LocationDatabase] = None,
        *,
        max_depth: int = 40,
        journal: Optional[Journal] = None,
        max_stale_snapshots: int = 1,
        coarsen_grace: int = 1,
        publish_shared: bool = False,
        injector: Optional[FaultInjector] = None,
        swap_chaos: Optional[Callable[[str], None]] = None,
        trajectory: Optional["ContinuityConstraint"] = None,
        policy: Optional[CloakingPolicy] = None,
        _recovered: Optional[RecoveredSnapshot] = None,
    ) -> None:
        self.region = region
        self.k = k
        self.journal = journal
        #: optional trajectory-continuity solver.  It lives at *manager*
        #: level, not epoch level: the ledger must survive every
        #: :meth:`advance` swap — the linking attacker's knowledge does.
        self.trajectory = trajectory
        self.max_stale_snapshots = max_stale_snapshots
        self.coarsen_grace = coarsen_grace
        self.publish_shared = publish_shared
        self.injector = injector
        #: chaos hook forwarded to ``PolicyJournal.commit`` — fires at
        #: the "intent" / "snapshot" phases of the swap commit so tests
        #: can SIGKILL the repairer between swap-intent and swap-commit.
        self.swap_chaos = swap_chaos
        self.accumulator = DirtyAccumulator()
        #: the degradation timeline, bounded (:class:`EventLog`).
        self.events = EventLog()
        #: advance() ticks, and how many of them promoted a swap.
        self.ticks = 0
        self.promotions = 0
        self._lock = threading.Lock()  # guards active/pins/world_serial
        self._swap_lock = threading.Lock()  # serializes advance()
        self._lingering: List[Epoch] = []  # guarded-by: self._lock
        self._shadow = IncrementalAnonymizer(region, k, max_depth=max_depth)
        self._active: Optional[Epoch] = None  # guarded-by: self._lock
        if _recovered is not None:
            # A replayed delta chain hands over its shadow: no second
            # replay, and the DP stays warm.
            self._shadow = resume_shadow(_recovered, self._shadow)
            self._world_serial = _recovered.serial + _recovered.policy_age  # guarded-by: self._lock
            if self.trajectory is not None and _recovered.ledger is not None:
                # Recovery already checked the ledger by building it.
                self.trajectory.ledger.take(_recovered.ledger)
            self._install(
                _recovered.serial, _recovered.policy, origin="restore"
            )
            self.events.append(
                DegradationEvent(
                    level="recovered",
                    reason="restart",
                    detail=(
                        f"serial {_recovered.serial}, "
                        f"age {_recovered.policy_age}, "
                        f"dp={'warm' if self._shadow.solution else 'cold'}"
                    ),
                )
            )
        else:
            payload: Optional[FlatTree] = None
            if policy is not None:
                # Adopt a policy solved elsewhere for its own snapshot
                # (fleet workers): the DP is deterministic, so serving it
                # is bit-identical to fitting; the first repair re-solves.
                self._shadow.restore(policy.db, policy, solution=None)
            elif db is None:
                raise ReproError("EpochManager needs a db (or a policy)")
            else:
                self._shadow.fit(db)
                policy, payload = cast(
                    FlatTreeSolution, self._shadow.solution
                ).extract()
            self._world_serial = 0  # guarded-by: self._lock
            # The Definition 6 gate runs before anything is journalled.
            policy.require_k_anonymous(k)
            if self._commit(policy, 0, self._shadow.solution) is None:
                raise RecoveryError(
                    "initial epoch could not reach a commit quorum; "
                    "refusing to serve state that was never durable",
                    reason="quorum",
                )
            self._install(0, policy, origin="fit", payload=payload)

    # -- epoch bookkeeping -----------------------------------------------------

    @property
    def active(self) -> Epoch:
        with self._lock:
            assert self._active is not None
            return self._active

    @property
    def world_serial(self) -> int:
        with self._lock:
            return self._world_serial

    @property
    def staleness(self) -> int:
        """How many swaps the active epoch is behind the world."""
        with self._lock:
            assert self._active is not None
            return self._world_serial - self._active.serial

    @property
    def orientation(self) -> str:
        return getattr(self._shadow.tree, "orientation", "vertical")

    @property
    def events_dropped(self) -> int:
        """Degradation events let go from the front of :attr:`events`."""
        return self.events.dropped

    def _ladder(self, age: int, epoch: Epoch) -> Tuple[str, int]:
        """(rung, coarsen-levels) for an epoch ``age`` swaps behind."""
        if age <= 0:
            return ("recovered" if epoch.origin == "restore" else "fresh", 0)
        if age <= self.max_stale_snapshots:
            return ("stale", 0)
        levels = age - self.max_stale_snapshots
        if levels <= self.coarsen_grace:
            return ("coarsened", levels)
        return ("rejected", 0)

    def pin(self) -> EpochPin:
        """Admit one request: pin the active epoch, fix its rung.

        Raises :class:`ServiceUnavailableError` (fail closed) when the
        ladder is exhausted — never serves a cloak it cannot tie to a
        k-anonymous policy for some journalled epoch.
        """
        with self._lock:
            epoch = self._active
            assert epoch is not None
            age = self._world_serial - epoch.serial
            rung, levels = self._ladder(age, epoch)
            if rung == "rejected":
                raise ServiceUnavailableError(
                    f"active epoch is {age} swaps stale (bound "
                    f"{self.max_stale_snapshots} + grace "
                    f"{self.coarsen_grace}); rejecting fail-closed",
                    reason="stale",
                )
            epoch.pins += 1
        return EpochPin(self, epoch, rung, levels, age)

    def _release(self, epoch: Epoch) -> None:
        with self._lock:
            epoch.pins -= 1
            self._reap_locked(epoch)

    def _reap_locked(self, epoch: Epoch) -> None:
        """Unlink a retired epoch's segment once fully drained."""
        if not epoch.retired or epoch.pins > 0:
            return
        if epoch in self._lingering:
            self._lingering.remove(epoch)
        if epoch.shared is not None:
            try:
                epoch.shared.unlink()
            finally:
                epoch.shared.close()
            epoch.shared = None

    def _install(
        self,
        serial: int,
        policy: CloakingPolicy,
        origin: str,
        payload: Optional[FlatTree] = None,
    ) -> Epoch:
        """Promote ``policy`` to the active epoch.  ``payload`` is the
        extraction's payload tree; readers get its cloak column beside
        the ids and coordinates, so attaching an epoch never re-solves
        it.

        Every swap, adoption and restore passes the Definition 6 gate
        here: a policy with a cloak group under k raises
        :class:`AnonymityBreachError` before it is published (a swap
        gates before its commit too, and is void on failure).
        """
        policy.require_k_anonymous(self.k)
        shared: Optional[SharedFlatTree] = None
        if self.publish_shared:
            if payload is None:
                # A restored policy came from the journal, not from an
                # extraction: look its cloaks up row by row.
                payload = FlatTree.compile(self._shadow.tree, with_payload=True)
                boxes = [
                    cast(Rect, policy.cloak_for(u)).as_tuple()
                    for u in payload.user_ids or ()
                ]
                payload.cloaks = np.array(boxes, dtype=np.float64).reshape(-1, 4)
            shared = SharedFlatTree.publish(payload)
        epoch = Epoch(serial, policy, self._shadow.current_db, origin, shared)
        with self._lock:
            old, self._active = self._active, epoch
            if old is not None:
                old.retired = True
                if old.pins > 0:
                    self._lingering.append(old)
                else:
                    self._reap_locked(old)
        return epoch

    # -- serving ---------------------------------------------------------------

    def serve_cloak(
        self,
        user_id: str,
        pin: Optional[EpochPin] = None,
        location: Optional[Point] = None,
    ) -> Tuple[Rect, str]:
        """The epoch-pinned cloak for one user, plus the serving rung.

        With ``pin`` (the normal path) both the epoch and the rung were
        fixed at admission — a swap landing mid-flight changes nothing
        for this request.  Without one, a transient pin is taken.
        ``location`` is the position the request reports (the CSP's MPC
        read): when the epoch's cloak does not cover it, the cloak is
        coarsened group-wide (:meth:`_mpc_cloak`) before the trajectory
        defense runs.
        """
        if pin is None:
            with self.pin() as transient:
                return self.serve_cloak(user_id, transient, location)
        epoch, rung = pin.epoch, pin.rung
        fine = epoch.policy.cloak_for(str(user_id))
        if not isinstance(fine, Rect):
            raise ServiceUnavailableError(
                "coarsening needs rectangular cloaks", reason="coarsen"
            )
        cloak = fine
        if location is not None:
            cloak = self._mpc_cloak(epoch, str(user_id), fine, location)
        if rung == "coarsened":
            cloak = self._coarse_cloak(epoch, cloak, pin.levels)
        elif cloak != fine:
            rung = "coarsened"
        if self.trajectory is None:
            return cloak, rung
        return self._continuity_cloak(epoch, str(user_id), cloak, rung)

    def _continuity_cloak(
        self, epoch: Epoch, user_id: str, cloak: Rect, rung: str
    ) -> Tuple[Rect, str]:
        """Run the trajectory-continuity solver over the would-be cloak.

        The solver only ever *widens* (or rejects fail-closed), so the
        staleness ladder's k-safety is preserved; a widening demotes a
        fresh/stale serve to the "coarsened" rung for accounting.
        """
        assert self.trajectory is not None
        try:
            decision = self.trajectory.enforce(
                epoch.policy,
                user_id,
                region=self.region,
                orientation=self.orientation,
                cloak=cloak,
                serial=epoch.serial,
            )
        except ServiceUnavailableError as exc:
            self.events.append(
                DegradationEvent(
                    level="rejected", reason="trajectory", detail=str(exc)
                )
            )
            raise
        if decision.widened and decision.cloak != cloak:
            self.events.append(
                DegradationEvent(
                    level="coarsened",
                    reason="trajectory",
                    detail=(
                        f"user {user_id!r} widened {decision.levels} "
                        f"level(s), surviving {decision.surviving} "
                        f"≥ k={self.k}"
                    ),
                )
            )
            rung = "coarsened"
        return decision.cloak, rung

    def _coarse_cloak(self, epoch: Epoch, cloak: Rect, levels: int) -> Rect:
        # The memo lives on the epoch and dies with it; the ancestor walk
        # itself is a short deterministic geometric descent.
        with self._lock:
            ancestor = epoch.ancestors.get((cloak, levels))
        if ancestor is None:
            try:
                ancestor = ancestor_cloak(
                    self.region, self.orientation, cloak, levels
                )
            except TreeError as exc:
                raise ServiceUnavailableError(
                    f"cannot coarsen cloak {cloak}: {exc}", reason="coarsen"
                ) from exc
            with self._lock:
                epoch.ancestors[(cloak, levels)] = ancestor
        return ancestor

    def _mpc_cloak(
        self, epoch: Epoch, user_id: str, fine: Rect, location: Point
    ) -> Rect:
        """The cloak for a request reporting ``location``.

        The fine cloak, or the epoch's override covering it, when that
        covers ``location`` (always so on a consistent MPC read).  Else
        the lowest halving-chain ancestor covering it, registered in the
        epoch's override antichain: every group inside the ancestor is
        re-cloaked by it, so the requester's whole fine group (≥ k) lands
        in one merged group — never a singleton.  Raises
        :class:`ServiceUnavailableError` (``reason="coarsen"``) when no
        ancestor covers the location.
        """
        with self._lock:
            # A hierarchy node covering the fine cloak lies on its chain,
            # so in an antichain at most one override covers it.
            cloak = next(
                (r for r in epoch.overrides if r.contains_rect(fine)), fine
            )
        if cloak.contains(location):
            return cloak
        ancestor = covering_ancestor(
            self.region, self.orientation, cloak, location
        )
        with self._lock:
            # Keep the overrides an antichain of maximal rects: nested
            # ones would split an ancestor group below k.
            epoch.overrides[:] = [
                r for r in epoch.overrides if not ancestor.contains_rect(r)
            ]
            epoch.overrides.append(ancestor)
        self.events.append(
            DegradationEvent(
                level="coarsened",
                reason="policy mismatch",
                detail=f"user {user_id!r}: reported location off its cloak",
            )
        )
        return ancestor

    @property
    def effective_policy(self) -> CloakingPolicy:
        """The policy an attacker can reverse-engineer *right now*: the
        active epoch's policy under its MPC-mismatch overrides.  This is
        what chaos tests audit — it must stay policy-aware k-anonymous
        through every degradation."""
        epoch = self.active
        with self._lock:
            rects = list(epoch.overrides)
        overrides: Dict[str, Rect] = {}
        for rect in rects:
            overrides.update(coarsen_overrides(epoch.policy, rect))
        return policy_with_overrides(epoch.policy, overrides, name="effective")

    def oracle_policy(self, epoch: Optional[Epoch] = None) -> CloakingPolicy:
        """A from-scratch bulk solve of an epoch's exact db — the policy
        the epoch's served cloaks must be bit-identical to (test oracle).
        """
        target = epoch or self.active
        oracle = PolicyAwareAnonymizer(
            self.region, self.k, max_depth=self._shadow.max_depth
        )
        oracle.fit(target.db)
        return oracle.policy

    # -- ingest + swap ---------------------------------------------------------

    def ingest(self, moves: Moves) -> int:
        """Stream moves in; they take effect at the next :meth:`advance`."""
        return self.accumulator.extend(moves)

    def advance(self, moves: Optional[Moves] = None) -> SwapReport:
        """One churn tick: drain the batch, repair the shadow, swap.

        The active epoch serves throughout; only the final pointer flip
        takes the serving lock.  Every failure mode leaves the prior
        epoch intact and staleness grown:

        * moves the shadow can never apply (unknown user, off the map)
          → dropped with one ``"invalid-move"`` event, and the rest of
          the batch repairs and swaps as usual;
        * injected/raised repair fault → batch restored to the
          accumulator (no movement lost), no promote;
        * quorum-failed journal commit → repair kept on the shadow but
          **no promote** (durability unprovable ⇒ the swap did not
          happen); the next tick re-commits and promotes;
        * single-journal ``OSError`` → promote *with* a degradation
          event (durability degraded ≠ privacy degraded).
        """
        with self._swap_lock:
            if moves is not None:
                self.accumulator.extend(moves)
            with self._lock:
                self._world_serial += 1
                serial = self._world_serial
            self.ticks += 1
            batch = self._applicable(self.accumulator.drain())
            # The journal may write this tick as the batch alone, replayed
            # onto the last durable commit — the active epoch's state.  A
            # voided swap leaves the shadow ahead of it: then it may not.
            replayable = self._shadow.current_db is self.active.db
            started = time.perf_counter()
            if self.injector is not None:
                try:
                    self.injector.fire("repair", serial)
                except InjectedFault as exc:
                    return self._swap_failed(serial, batch, "repair", exc)
            try:
                report = self._shadow.update(batch)
            except TreeError as exc:
                return self._swap_failed(serial, batch, "repair-error", exc)
            repair_seconds = time.perf_counter() - started
            policy, payload = cast(FlatTreeSolution, self._shadow.solution).extract()
            try:
                # A sub-k policy is never journalled nor served.
                policy.require_k_anonymous(self.k)
            except AnonymityBreachError as exc:
                self.events.append(
                    DegradationEvent(
                        level="rejected", reason="k-anonymity", detail=str(exc)
                    )
                )
                committed, reason = None, "k-anonymity"
            else:
                committed = self._commit(
                    policy, serial, self._shadow.solution,
                    moves=batch if replayable else None,
                )
                reason = "journal-quorum"
            if committed is None:
                # Quorum lost between swap-intent and swap-commit, or a
                # cloak group under k: the swap is void.  The shadow
                # keeps the repair (it will re-commit next tick);
                # serving stays on the old epoch.
                return SwapReport(
                    serial=serial,
                    promoted=False,
                    committed=False,
                    staleness=self.staleness,
                    moved_users=report.moved_users,
                    dirty_nodes=report.dirty_nodes,
                    recomputed_nodes=report.recomputed_nodes,
                    total_nodes=report.total_nodes,
                    repair_seconds=repair_seconds,
                    reason=reason,
                )
            self._install(serial, policy, origin="swap", payload=payload)
            self.promotions += 1
            return SwapReport(
                serial=serial,
                promoted=True,
                committed=committed,
                staleness=0,
                moved_users=report.moved_users,
                dirty_nodes=report.dirty_nodes,
                recomputed_nodes=report.recomputed_nodes,
                total_nodes=report.total_nodes,
                repair_seconds=repair_seconds,
            )

    def _applicable(self, batch: Dict[str, Point]) -> Dict[str, Point]:
        """``batch`` without the moves no repair can ever apply.

        Re-queueing such a move would fail every later repair too, so it
        is dropped here, before the shadow is touched, with one event
        naming the users."""
        users = self._shadow.tree.user_row
        bad = [
            uid for uid, point in batch.items()
            if uid not in users or not self.region.contains(point)
        ]
        if not bad:
            return batch
        self.events.append(
            DegradationEvent(
                level="rejected",
                reason="invalid-move",
                detail=f"dropped moves of unknown or off-map users: {bad!r}",
            )
        )
        dropped = set(bad)
        return {uid: p for uid, p in batch.items() if uid not in dropped}

    def _swap_failed(
        self, serial: int, batch: Mapping[str, Point], reason: str,
        exc: Exception,
    ) -> SwapReport:
        self.accumulator.restore(batch)
        staleness = self.staleness
        rung, __ = self._ladder(staleness, self.active)
        self.events.append(
            DegradationEvent(level=rung, reason=reason, detail=str(exc))
        )
        # Make the grown staleness durable: re-commit the *active*
        # policy at its own serial with the new age, so a crash-restart
        # cannot restore believing the old policy is fresh.  The DP
        # vectors are withheld — the shadow's may already be ahead of the active
        # policy after a voided swap, and a cold restore is the safe
        # default in a degraded window.
        self._commit(
            self.active.policy,
            self.active.serial,
            None,
            policy_age=staleness,
            rung=rung,
        )
        return SwapReport(
            serial=serial,
            promoted=False,
            committed=False,
            staleness=staleness,
            repair_seconds=0.0,
            reason=reason,
        )

    def _fingerprint(self) -> Dict[str, object]:
        """What must match for journalled state to be adoptable here."""
        return {
            **SOLVER_FINGERPRINT,
            "k": self.k,
            "max_depth": self._shadow.max_depth,
            "region": list(self.region.as_tuple()),
        }

    def _commit(
        self,
        policy: CloakingPolicy,
        serial: int,
        solution: object,
        policy_age: int = 0,
        rung: str = "fresh",
        moves: Optional[Mapping[str, Point]] = None,
    ) -> Optional[bool]:
        """Journal one epoch.  True = durable, False = degraded-but-
        promotable (single-journal media error), None = void (quorum
        lost; the caller must not promote).  ``moves`` repaired the
        last durable commit's state into this one; a quorum journal
        then may write them instead of the whole state."""
        if self.journal is None:
            return True
        state: Dict[str, object] = {"policy_age": policy_age, "rung": rung}
        if self.trajectory is not None:
            # Ledger records land between commits; records made after
            # the last swap-commit die with a crash (bounded exposure —
            # the restored intersection is a superset, never sub-k).
            # The journal takes the whole ledger or its rows changed
            # since the last delta.
            state["trajectory"] = self.trajectory.ledger
        try:
            if isinstance(self.journal, QuorumJournal):
                self.journal.commit(
                    policy,
                    serial,
                    self._fingerprint(),
                    solution=solution,
                    state=state,
                    moves=moves,
                )
            else:
                self.journal.commit(
                    policy,
                    serial,
                    self._fingerprint(),
                    solution=solution,
                    state=state,
                    _chaos=self.swap_chaos,
                )
        except RecoveryError as exc:
            self.events.append(
                DegradationEvent(
                    level="journal", reason="swap-abort", detail=str(exc)
                )
            )
            return None
        except OSError as exc:
            self.events.append(
                DegradationEvent(
                    level="journal", reason="commit-failed", detail=str(exc)
                )
            )
            return False
        return True

    # -- recovery --------------------------------------------------------------

    @classmethod
    def restore(
        cls,
        journal: Journal,
        *,
        current_serial: Optional[int] = None,
        max_stale_snapshots: int = 1,
        coarsen_grace: int = 1,
        publish_shared: bool = False,
        injector: Optional[FaultInjector] = None,
        swap_chaos: Optional[Callable[[str], None]] = None,
        trajectory: Optional["ContinuityConstraint"] = None,
    ) -> "EpochManager":
        """Rebuild the serving layer from its journal after a crash.

        Staleness survives the restart: the journalled ``policy_age``
        (and ``current_serial``, when the world's clock is known) seeds
        the world serial, so a manager that died on the stale rung comes
        back on the stale rung — the recovery bound allows the full
        ladder (stale + coarsen grace) before failing closed.
        """
        snapshot = journal.recover(
            fingerprint=SOLVER_FINGERPRINT,
            current_serial=current_serial,
            max_stale_snapshots=max_stale_snapshots + coarsen_grace,
        )
        fp = snapshot.fingerprint
        region_values = fp.get("region")
        if not isinstance(region_values, (list, tuple)):
            raise RecoveryError(
                "journal fingerprint lacks a region", reason="fingerprint"
            )
        manager = cls(
            Rect(*[float(v) for v in region_values]),
            int(fp["k"]),  # type: ignore[arg-type]
            None,
            max_depth=int(fp.get("max_depth", 40)),  # type: ignore[arg-type]
            journal=journal,
            max_stale_snapshots=max_stale_snapshots,
            coarsen_grace=coarsen_grace,
            publish_shared=publish_shared,
            injector=injector,
            swap_chaos=swap_chaos,
            trajectory=trajectory,
            _recovered=snapshot,
        )
        if current_serial is not None:
            # analysis: ok[CC001] manager is thread-private until returned
            manager._world_serial = max(manager._world_serial, current_serial)
        report = getattr(journal, "last_recovery", None)
        if report is not None and report.repaired:
            # Quorum restore rebuilt one or more replicas from the
            # majority — surface the repair (and its duration, the MTTR
            # numerator) on the degradation timeline.
            manager.events.append(
                DegradationEvent(
                    level="journal",
                    reason="replica-repaired",
                    detail=(
                        f"replicas {list(report.repaired)} rewritten from "
                        f"quorum of {len(report.voters)} in "
                        f"{report.repair_seconds:.4f}s"
                    ),
                )
            )
        return manager

    # -- lifecycle -------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        ingest = self.accumulator.stats()
        with self._lock:
            active = self._active
            assert active is not None
            return {
                "world_serial": self._world_serial,
                "active_serial": active.serial,
                "staleness": self._world_serial - active.serial,
                "active_pins": active.pins,
                "lingering_epochs": len(self._lingering),
                "pending_moves": ingest["pending"],
                "ingested": ingest["ingested"],
                "coalesced": ingest["coalesced"],
                "swaps": self.ticks,
                "promoted": self.promotions,
            }

    def close(self) -> None:
        """Shutdown: unlink every segment regardless of pins."""
        with self._lock:
            epochs = list(self._lingering)
            if self._active is not None:
                epochs.append(self._active)
            self._lingering.clear()
            for epoch in epochs:
                if epoch.shared is not None:
                    try:
                        epoch.shared.unlink()
                    finally:
                        epoch.shared.close()
                    epoch.shared = None

    def __enter__(self) -> "EpochManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
