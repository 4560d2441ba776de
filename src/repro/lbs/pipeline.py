"""The end-to-end privacy-conscious LBS pipeline (§II-B).

Actors, wired exactly as the paper's model prescribes:

* **MPC** — the Mobile Positioning Center: the authoritative source of
  device locations (here, the current location database snapshot).
* **CSP** — the trusted carrier.  It builds the service request from the
  user's query and the MPC location, anonymizes it with the current
  policy-aware optimal policy, consults the answer cache, and forwards
  only the anonymized request to the LBS.
* **LBS** — untrusted; sees cloaks and payloads, returns candidate sets.
* **Client filter** — the final hop back at the CSP/handset: pick the
  candidate nearest to the true location.

``period`` snapshots: :meth:`CSP.advance_snapshot` moves users and
incrementally repairs the policy.

Fault tolerance (all opt-in; the happy path is byte-identical):

* provider calls retry with exponential backoff under a per-call
  deadline and an optional circuit breaker
  (:mod:`repro.robustness.retry`);
* a :class:`~repro.robustness.faults.FaultInjector` can make provider
  calls fail, MPC lookups go stale, and snapshot repairs crash;
* failures degrade **fail-closed** down the ladder of
  :mod:`repro.robustness.degrade`: coarsen to an ancestor cloak
  (group-wide, provably ≥ k) → serve the stale policy within a bounded
  snapshot age → reject with
  :class:`~repro.core.errors.ServiceUnavailableError`.  The CSP never
  emits a sub-k or policy-unaware cloak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # runtime import would cycle through repro.streaming
    from ..trajectory.constraint import ContinuityConstraint

from ..core.anonymizer import IncrementalAnonymizer, UpdateReport
from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    PolicyError,
    ServiceUnavailableError,
    UnknownUserError,
)
from ..core.geometry import Point, Rect
from ..core.policy import CloakingPolicy
from ..core.requests import AnonymizedRequest, ServiceRequest, normalize_payload
from ..robustness.degrade import (
    DegradationEvent,
    coarsen_overrides,
    coarsening_ancestor,
    policy_with_overrides,
)
from ..robustness.faults import (
    FaultInjectingProvider,
    FaultInjector,
    InjectedFault,
)
from ..robustness.recovery import (
    SOLVER_FINGERPRINT,
    PolicyJournal,
    QuorumJournal,
    RecoveredSnapshot,
    rehydrate_flat_solution,
)
from ..robustness.retry import (
    CircuitBreaker,
    Clock,
    RetryPolicy,
    SystemClock,
    retry_call,
)
from .cache import AnswerCache
from .locationdb import LocationDatabase
from .poi import POI
from .provider import LBSProvider, QueryAnswer

__all__ = [
    "PreparedRequest",
    "ServedRequest",
    "MobilePositioningCenter",
    "CSP",
]

#: Exceptions that mark a provider call transient (worth retrying).
TRANSIENT_PROVIDER_ERRORS = (
    InjectedFault,
    TimeoutError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class PreparedRequest:
    """The synchronous front half of serving one request.

    Everything up to (and including) the cloak decision: the privacy
    contract is fully settled here, before any provider I/O happens —
    which is what lets the async gateway overlap the I/O of many
    requests without touching anonymization semantics.
    """

    request: ServiceRequest
    anonymized: AnonymizedRequest
    degradation: str
    policy_age: int


@dataclass(frozen=True)
class ServedRequest:
    """Everything one request produced, end to end."""

    request: ServiceRequest
    anonymized: AnonymizedRequest
    answer: QueryAnswer
    result: Optional[POI]
    cache_hit: bool
    #: which degradation rung served the request ("fresh", "coarsened",
    #: "stale") — rejected requests raise instead of returning.
    degradation: str = "fresh"
    #: provider call attempts (0 when the answer came from the cache).
    provider_attempts: int = 1
    #: how many snapshots behind the serving policy was (0 = current).
    policy_age: int = 0

    @property
    def candidate_count(self) -> int:
        """Client-side filtering work — the utility cost of the cloak."""
        return self.answer.size

    @property
    def degraded(self) -> bool:
        return self.degradation != "fresh"


class MobilePositioningCenter:
    """The MPC: location lookups against the current snapshot.

    With a fault injector, ``"mpc"``-site ``"stale"`` rules make
    :meth:`locate` answer from the *previous* snapshot — the classic
    replica-lag failure the CSP's coarsening rung exists for.
    """

    def __init__(
        self,
        db: LocationDatabase,
        injector: Optional[FaultInjector] = None,
    ):
        self.db = db
        self.injector = injector
        self._previous: Optional[LocationDatabase] = None
        self._snapshot_serial = 0

    def locate(self, user_id: str) -> Point:
        point = self.db.location_of(user_id)
        if point is None:
            raise UnknownUserError(f"MPC has no location for user {user_id!r}")
        if (
            self.injector is not None
            and self._previous is not None
            and self.injector.should(
                "mpc", "stale", user_id, self._snapshot_serial
            )
        ):
            stale = self._previous.location_of(user_id)
            if stale is not None:
                return stale
        return point

    def refresh(self, db: LocationDatabase) -> None:
        self._previous = self.db
        self._snapshot_serial += 1
        self.db = db


class CSP:
    """The trusted carrier orchestrating the whole flow.

    Robustness knobs (keyword-only, all optional):

    retry_policy / circuit_breaker / provider_deadline:
        retry with backoff for LBS provider calls, budget per request,
        breaker across requests.  While the breaker is open, cached
        answers still serve — the cache is a legitimate degraded mode.
    injector:
        a seeded :class:`FaultInjector` (chaos testing).
    clock:
        time source for backoff/breaker; inject a
        :class:`~repro.robustness.retry.ManualClock` to keep tests and
        benches wall-clock free.
    max_stale_snapshots:
        the bounded age of the "stale" rung: how many consecutive failed
        snapshot repairs may pass before requests are rejected outright.
    journal:
        a :class:`~repro.robustness.recovery.PolicyJournal`: every
        successful (policy, db-serial) pair is committed
        crash-consistently, and :meth:`CSP.restore` resurrects a serving
        CSP from it after a restart without re-running bulk
        anonymization.
    policy:
        a precomputed :class:`~repro.core.policy.CloakingPolicy` for
        ``db`` to adopt instead of running the bulk solve — how fleet
        workers (:mod:`repro.serving.fleet`) share one dispatcher-side
        solve.  The DP being deterministic, the adopted policy is
        bit-identical to what ``fit`` would have produced for the same
        snapshot.
    """

    def __init__(
        self,
        region: Rect,
        k: int,
        db: LocationDatabase,
        provider: LBSProvider,
        use_cache: bool = True,
        max_depth: int = 40,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        provider_deadline: Optional[float] = None,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
        max_stale_snapshots: int = 1,
        journal: Optional[Union[PolicyJournal, QuorumJournal]] = None,
        policy: Optional[CloakingPolicy] = None,
        trajectory: Optional["ContinuityConstraint"] = None,
        _recovered: Optional[RecoveredSnapshot] = None,
    ):
        self.region = region
        self.k = k
        self.injector = injector
        self.clock = clock or SystemClock()
        self.retry_policy = retry_policy
        self.breaker = circuit_breaker
        self.provider_deadline = provider_deadline
        self.max_stale_snapshots = max_stale_snapshots
        self.journal = journal
        #: trajectory-continuity defense (opt-in): a
        #: :class:`~repro.trajectory.constraint.ContinuityConstraint`
        #: whose ledger every served cloak is folded into; its state
        #: rides the journal state block so restarts resume continuity.
        self.trajectory = trajectory
        #: the unwrapped provider — the async gateway builds its pooled
        #: client on this and applies its own (async) injector site, so
        #: faults are not injected twice on the async path.
        self.base_provider = provider
        if injector is not None:
            provider = FaultInjectingProvider(provider, injector)
        self.mpc = MobilePositioningCenter(db, injector=injector)
        self.provider = provider
        self.cache = AnswerCache(provider) if use_cache else None
        self.anonymizer = IncrementalAnonymizer(region, k, max_depth=max_depth)
        #: consecutive snapshot advances that failed (0 = fresh policy).
        self.policy_age = 0
        #: True between a journal restore and the first successful
        #: repair — requests are labelled with the "recovered" rung.
        self.restored = False
        #: antichain of coarsened tree nodes: node_id → ancestor rect.
        self._coarsened: Dict[int, Rect] = {}
        #: degradation rung transitions, for observability/benches.
        self.events: List[DegradationEvent] = []
        if _recovered is not None:
            # Journal restart: adopt the committed policy (serving works
            # immediately), then try to warm the DP so the next repair
            # goes through resolve_dirty instead of a bulk re-solve.
            self.anonymizer.restore(
                _recovered.policy.db, _recovered.policy, solution=None
            )
            self.anonymizer.solution = rehydrate_flat_solution(
                self.anonymizer.tree, _recovered, k
            )
            # The committed state block is authoritative for staleness:
            # _snapshot_index tracks the *world* serial, which at commit
            # time was policy serial + accumulated age.
            self.policy_age = _recovered.policy_age
            self._snapshot_index = _recovered.serial + _recovered.policy_age
            self.restored = True
            if (
                self.trajectory is not None
                and _recovered.trajectory is not None
            ):
                # Resume continuity state: post-restart cloak choices
                # must keep honoring the pre-crash served history.
                self.trajectory.ledger.adopt_state(_recovered.trajectory)
            self.events.append(
                DegradationEvent(
                    level="recovered",
                    reason="restart",
                    detail=(
                        f"serial {_recovered.serial}, "
                        f"age {_recovered.policy_age}, "
                        f"dp={'warm' if self.anonymizer.solution else 'cold'}"
                    ),
                )
            )
        elif policy is not None:
            # Adopt a precomputed policy for this exact snapshot without
            # re-running the bulk DP — the fleet path: the dispatcher
            # solves once (or restores) and every worker CSP adopts the
            # same deterministic policy, so cloaks are bit-identical to
            # a locally-fitted CSP's by construction.
            self.anonymizer.restore(db, policy, solution=None)
            self._snapshot_index = 0
            self._journal_commit()
        else:
            self.anonymizer.fit(db)
            self._snapshot_index = 0
            self._journal_commit()

    # -- durability ----------------------------------------------------------

    def _fingerprint(self) -> Dict[str, object]:
        """What must match for journalled state to be adoptable here."""
        return {
            **SOLVER_FINGERPRINT,
            "k": self.k,
            "max_depth": self.anonymizer.max_depth,
            "region": list(self.region.as_tuple()),
        }

    def _serving_rung(self) -> str:
        """The rung a request admitted right now would be labelled with."""
        if self.policy_age > self.max_stale_snapshots:
            return "rejected"
        if self.policy_age > 0:
            return "stale"
        if self.restored:
            return "recovered"
        return "fresh"

    def _journal_commit(self) -> None:
        """Commit the current (policy, db-serial) pair, fail-visible.

        The committed serial is the one the policy actually matches
        (``_snapshot_index - policy_age``): after a failed repair the
        world has advanced but the policy has not, and journalling the
        world's serial would let a restore adopt a policy under a serial
        it was never solved for.  The accumulated ``policy_age`` and the
        serving rung ride along in the checksummed state block so a
        restore cannot silently reset staleness to fresh.

        A journal write failure must not take serving down (durability
        degraded ≠ privacy degraded), but it is recorded as an event so
        operators see the exposure window.
        """
        if self.journal is None:
            return
        state: Dict[str, object] = {
            "policy_age": self.policy_age,
            "rung": self._serving_rung(),
        }
        if self.trajectory is not None:
            state["trajectory"] = self.trajectory.ledger.to_state()
        try:
            self.journal.commit(
                self.anonymizer.policy,
                self._snapshot_index - self.policy_age,
                self._fingerprint(),
                solution=self.anonymizer.solution,
                state=state,
            )
        except OSError as exc:
            self.events.append(
                DegradationEvent(
                    level="journal",
                    reason="commit-failed",
                    detail=str(exc),
                )
            )

    @classmethod
    def restore(
        cls,
        provider: LBSProvider,
        journal: Union[PolicyJournal, QuorumJournal],
        *,
        use_cache: bool = True,
        current_serial: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        provider_deadline: Optional[float] = None,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
        max_stale_snapshots: int = 1,
        trajectory: Optional["ContinuityConstraint"] = None,
    ) -> "CSP":
        """Resurrect a CSP from its journal after a crash or restart.

        The recovered policy serves immediately on the "recovered" rung
        (bit-identical cloaks to the pre-crash CSP); the next
        :meth:`advance_snapshot` repairs forward incrementally when the
        DP sidecar validated, or re-solves once when it did not.
        ``current_serial`` (the world's present snapshot serial, e.g.
        from the MPC) enforces the stale bound at restore time —
        journalled state too far behind is rejected fail-closed.
        """
        snapshot = journal.recover(
            fingerprint=SOLVER_FINGERPRINT,
            current_serial=current_serial,
            max_stale_snapshots=max_stale_snapshots,
        )
        fp = snapshot.fingerprint
        region = Rect(*fp["region"])
        csp = cls(
            region,
            int(fp["k"]),
            snapshot.policy.db,
            provider,
            use_cache,
            int(fp.get("max_depth", 40)),
            retry_policy=retry_policy,
            circuit_breaker=circuit_breaker,
            provider_deadline=provider_deadline,
            injector=injector,
            clock=clock,
            max_stale_snapshots=max_stale_snapshots,
            journal=journal,
            trajectory=trajectory,
            _recovered=snapshot,
        )
        if current_serial is not None:
            # The world may have moved on while we were down; staleness
            # is whichever is worse — the journalled age or the distance
            # to the world's serial now.
            csp.policy_age = max(
                snapshot.policy_age, current_serial - snapshot.serial, 0
            )
            csp._snapshot_index = snapshot.serial + csp.policy_age
        report = getattr(journal, "last_recovery", None)
        if report is not None and report.repaired:
            # Quorum restore rebuilt one or more replicas from the
            # majority — surface the repair (and its duration, the MTTR
            # numerator) on the degradation timeline.
            csp.events.append(
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
        return csp

    # -- serving ------------------------------------------------------------

    def prepare(self, user_id: str, payload) -> PreparedRequest:
        """The synchronous front half: staleness gate, MPC lookup, and
        the fail-closed cloak decision.  No provider I/O happens here.
        """
        if self.policy_age > self.max_stale_snapshots:
            raise ServiceUnavailableError(
                f"policy is {self.policy_age} snapshots stale "
                f"(bound {self.max_stale_snapshots}); rejecting fail-closed",
                reason="stale",
            )
        location = self.mpc.locate(user_id)
        service_request = ServiceRequest(
            str(user_id), location, normalize_payload(payload)
        )
        if self.policy_age > 0:
            degradation = "stale"
        elif self.restored:
            degradation = "recovered"
        else:
            degradation = "fresh"
        anonymized = self._anonymize_fail_closed(service_request)
        if anonymized.cloak != self.anonymizer.policy.cloak_for(str(user_id)):
            degradation = "coarsened"
        if self.trajectory is not None:
            anonymized, widened = self._apply_trajectory(
                str(user_id), anonymized
            )
            if widened:
                degradation = "coarsened"
        return PreparedRequest(
            request=service_request,
            anonymized=anonymized,
            degradation=degradation,
            policy_age=self.policy_age,
        )

    def _apply_trajectory(
        self, user_id: str, anonymized: AnonymizedRequest
    ) -> Tuple[AnonymizedRequest, bool]:
        """Continuity rung: hold the served-history intersection ≥ k.

        The constraint only ever *widens* the cloak the earlier rungs
        decided (fine or coarsened ancestor), so their k-safety carries
        over; when no widening up to the root works, it raises
        :class:`ServiceUnavailableError` with ``reason="trajectory"`` —
        the ladder's fail-closed tail.  The admitted decision is folded
        into the ledger before any provider I/O, so concurrent gateway
        requests are constrained by it deterministically.
        """
        assert self.trajectory is not None
        try:
            decision = self.trajectory.enforce(
                self.anonymizer.policy,
                user_id,
                region=self.region,
                orientation=getattr(
                    self.anonymizer.tree, "orientation", "vertical"
                ),
                cloak=anonymized.cloak,
                serial=self._snapshot_index,
            )
        except ServiceUnavailableError:
            self.events.append(
                DegradationEvent(
                    level="rejected",
                    reason="trajectory",
                    detail=f"user {user_id!r}: no admissible cloak",
                )
            )
            raise
        if decision.cloak == anonymized.cloak:
            return anonymized, False
        self.events.append(
            DegradationEvent(
                level="coarsened",
                reason="trajectory",
                detail=(
                    f"user {user_id!r} widened {decision.levels} level(s), "
                    f"surviving {decision.surviving} ≥ k={self.k}"
                ),
            )
        )
        return (
            AnonymizedRequest(
                request_id=anonymized.request_id,
                cloak=decision.cloak,
                payload=anonymized.payload,
            ),
            True,
        )

    def complete(
        self,
        prepared: PreparedRequest,
        answer: QueryAnswer,
        *,
        cache_hit: bool,
        attempts: int,
    ) -> ServedRequest:
        """The back half: client-side filtering over a fetched answer."""
        result = self._client_filter(prepared.request.location, answer)
        return ServedRequest(
            request=prepared.request,
            anonymized=prepared.anonymized,
            answer=answer,
            result=result,
            cache_hit=cache_hit,
            degradation=prepared.degradation,
            provider_attempts=attempts,
            policy_age=prepared.policy_age,
        )

    def request(self, user_id: str, payload) -> ServedRequest:
        """Serve one user query end to end (fail-closed under faults)."""
        prepared = self.prepare(user_id, payload)
        answer, cache_hit, attempts = self._fetch(prepared.anonymized)
        return self.complete(
            prepared, answer, cache_hit=cache_hit, attempts=attempts
        )

    def serve_async(
        self,
        workload: Sequence[Tuple[str, object]],
        config=None,
    ):
        """Serve a workload through the asyncio gateway (sync façade).

        ``workload`` is a sequence of ``(user_id, payload)`` pairs;
        ``config`` an optional
        :class:`~repro.serving.gateway.GatewayConfig`.  Returns
        ``(results, stats)`` where each result is a
        :class:`ServedRequest` or the typed exception that rejected it.
        Cloaks are guaranteed identical to the sync path's: the gateway
        calls this CSP's own :meth:`prepare`.
        """
        from ..serving.gateway import run_gateway

        return run_gateway(self, workload, config)

    def _anonymize_fail_closed(
        self, service_request: ServiceRequest
    ) -> AnonymizedRequest:
        """Rungs 1–2: the fine cloak, else a group-wide ancestor cloak."""
        user_id = service_request.user_id
        rect = self._coarse_cloak_for(user_id)
        if rect is None:
            try:
                return self.anonymizer.anonymize(service_request)
            except UnknownUserError:
                raise
            except PolicyError:
                # The reported location does not match the policy's
                # snapshot (stale MPC, mid-repair read...).  Coarsen.
                rect = self._register_coarsening(
                    user_id, service_request.location
                )
        return AnonymizedRequest(
            request_id=self.anonymizer._next_request_id(),
            cloak=rect,
            payload=service_request.payload,
        )

    def _register_coarsening(self, user_id: str, location: Point) -> Rect:
        """Pick and remember a safe ancestor cloak for ``user_id``."""
        try:
            node = coarsening_ancestor(
                self.anonymizer.tree,
                self.anonymizer.policy,
                user_id,
                location=location,
            )
        except PolicyError as exc:
            raise ServiceUnavailableError(
                f"cannot coarsen request of user {user_id!r}: {exc}",
                reason="coarsen",
            ) from exc
        fine_cloak = self.anonymizer.policy.cloak_for(user_id)
        if node.rect == fine_cloak:
            # The reported location still falls inside the fine cloak:
            # the policy answer is unchanged, nothing to override.
            return node.rect
        # Keep the coarsened set an antichain of maximal nodes: nested
        # coarsenings would split an ancestor group below k.
        for node_id, rect in list(self._coarsened.items()):
            if node.rect.contains_rect(rect) and node.node_id != node_id:
                del self._coarsened[node_id]
        if not any(
            rect.contains_rect(node.rect)
            for rect in self._coarsened.values()
        ):
            self._coarsened[node.node_id] = node.rect
        self.events.append(
            DegradationEvent(
                level="coarsened",
                reason="policy mismatch",
                detail=f"user {user_id!r} → node {node.node_id}",
            )
        )
        return self._coarse_cloak_for(user_id) or node.rect

    def _coarse_cloak_for(self, user_id: str) -> Optional[Rect]:
        """The registered ancestor cloak covering this user's fine
        cloak, if any (None on the happy path)."""
        if not self._coarsened:
            return None
        try:
            cloak = self.anonymizer.policy.cloak_for(str(user_id))
        # No-cloak fall-through, not a swallow: with no override to
        # apply, the fine path runs next and raises the canonical
        # UnknownUserError for this user (tests/test_pipeline.py pins
        # this).  # analysis: ok[FC002]
        except UnknownUserError:
            return None
        best: Optional[Rect] = None
        for rect in self._coarsened.values():
            if isinstance(cloak, Rect) and rect.contains_rect(cloak):
                if best is None or best.contains_rect(rect):
                    best = rect  # deepest (smallest) covering ancestor
        return best

    @property
    def effective_policy(self) -> CloakingPolicy:
        """The policy an attacker can reverse-engineer *right now*:
        the fine policy overridden by every registered coarsening.

        This is what chaos tests audit — it must stay policy-aware
        k-anonymous through every degradation."""
        policy = self.anonymizer.policy
        if not self._coarsened:
            return policy
        overrides: Dict[str, Rect] = {}
        # Apply bigger rects first so deeper coarsenings win, matching
        # the serving-side "deepest covering ancestor" rule.
        for rect in sorted(
            self._coarsened.values(), key=lambda r: -r.area
        ):
            overrides.update(coarsen_overrides(policy, rect))
        return policy_with_overrides(policy, overrides, name="effective")

    def _fetch(self, anonymized: AnonymizedRequest):
        """Provider/cache fetch with retry, deadline, and breaker."""
        if self.cache is not None:
            hits_before = self.cache.stats.hits
            fetch = lambda: self.cache.fetch(anonymized)  # noqa: E731
        else:
            fetch = lambda: self.provider.serve(anonymized)  # noqa: E731
        attempts = [0]

        def observe(attempt: int, exc: Optional[BaseException]) -> None:
            attempts[0] = attempt + 1

        try:
            if self.retry_policy is None and self.breaker is None:
                answer = fetch()
                attempts[0] = 1
            else:
                answer = retry_call(
                    fetch,
                    policy=self.retry_policy or RetryPolicy(max_attempts=1),
                    clock=self.clock,
                    deadline=self.provider_deadline,
                    retryable=TRANSIENT_PROVIDER_ERRORS,
                    breaker=self.breaker,
                    on_attempt=observe,
                )
        except (
            CircuitOpenError,
            DeadlineExceededError,
        ) + TRANSIENT_PROVIDER_ERRORS as exc:
            self.events.append(
                DegradationEvent(
                    level="rejected",
                    reason="provider",
                    detail=str(exc),
                )
            )
            raise ServiceUnavailableError(
                f"LBS provider unavailable after {max(attempts[0], 1)} "
                f"attempt(s): {exc}",
                reason="provider",
            ) from exc
        if self.cache is not None:
            cache_hit = self.cache.stats.hits > hits_before
            if cache_hit:
                attempts[0] = 0
        else:
            cache_hit = False
        return answer, cache_hit, attempts[0]

    @staticmethod
    def _client_filter(location: Point, answer: QueryAnswer) -> Optional[POI]:
        """The last hop: exact nearest neighbour among the candidates."""
        if not answer.candidates:
            return None
        return min(
            answer.candidates,
            key=lambda poi: (location.distance_to(poi.location), poi.poi_id),
        )

    # -- snapshot lifecycle --------------------------------------------------

    def advance_snapshot(self, moves: Mapping[str, Point]) -> UpdateReport:
        """Next location snapshot: apply moves, repair the policy
        incrementally, refresh the MPC view.

        An injected ``"repair"`` fault leaves the previous
        policy/snapshot pair fully intact (the stale rung): the report
        comes back with ``applied=False`` and ``policy_age`` grows.
        Once the age exceeds ``max_stale_snapshots``, serving rejects."""
        self._snapshot_index += 1
        if self.injector is not None:
            try:
                self.injector.fire("repair", self._snapshot_index)
            except InjectedFault as exc:
                self.policy_age += 1
                level = (
                    "stale"
                    if self.policy_age <= self.max_stale_snapshots
                    else "rejected"
                )
                self.events.append(
                    DegradationEvent(
                        level=level,
                        reason="repair",
                        detail=str(exc),
                    )
                )
                # Re-commit the unchanged policy with its grown age: a
                # crash-restart mid-degradation must restore knowing it
                # is stale, not believing the old policy is fresh.
                self._journal_commit()
                return UpdateReport(
                    moved_users=0,
                    dirty_nodes=0,
                    recomputed_nodes=0,
                    total_nodes=len(self.anonymizer.tree),
                    applied=False,
                )
        report = self.anonymizer.update(moves)
        self.mpc.refresh(self.anonymizer.current_db)
        self.policy_age = 0
        self.restored = False  # first successful repair ends recovery
        self._coarsened.clear()  # a fresh policy supersedes coarsening
        self._journal_commit()
        return report

    @property
    def policy(self):
        return self.anonymizer.policy
