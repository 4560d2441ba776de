"""Discrete-event simulation of an anonymizing LBS deployment (§VII).

The paper argues an operating point — per snapshot, a sub-second bulk
anonymization, after which "individual queries can be served in
milliseconds" (0.3–0.5 ms cloak lookup + ~2 ms Casper-style candidate
query) — and contrasts it with cryptographic PIR's 6–45 s per query.
Those are *system* claims: they depend on request arrival rates,
snapshot cadence, and how serving interleaves with re-anonymization.

This module provides a deterministic discrete-event simulator to study
exactly that.  Time is simulated (service durations are model
parameters, by default the paper's measured figures), so runs are
reproducible and fast regardless of host speed:

* users issue nearest-POI requests as independent Poisson processes;
* every ``snapshot_period`` seconds the location database refreshes
  (bounded movement) and the policy is repaired; requests arriving
  during the repair wait for it (the policy must match the snapshot);
* each request then costs a cloak lookup plus — on a cache miss — an
  LBS candidate query.

:class:`SimulationReport` aggregates throughput, latency percentiles,
queueing delay, and cache behaviour.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import ServiceUnavailableError, WorkloadError
from ..core.geometry import Rect
from ..core.locationdb import LocationDatabase
from ..robustness.faults import FaultInjector, InjectedFault
from ..robustness.retry import RetryPolicy
from .mobility import random_moves

if TYPE_CHECKING:  # runtime import happens lazily in the constructor
    from ..trajectory.audit import ServedTrajectories
    from ..trajectory.constraint import ContinuityConstraint

__all__ = [
    "LBSSimulation",
    "ServiceTimes",
    "SimulationReport",
    "poisson_schedule",
]


@dataclass(frozen=True)
class ServiceTimes:
    """Model parameters for simulated durations (seconds).

    Defaults follow the paper's §VII measurements: 0.3–0.5 ms cloak
    lookup (we take the midpoint), ~2 ms per candidate query at the LBS
    [23], and a per-snapshot bulk/incremental repair budget in the
    sub-second range the paper reports for one server.
    """

    cloak_lookup: float = 0.0004
    lbs_query: float = 0.002
    cache_lookup: float = 0.00005
    #: policy repair duration per snapshot refresh.
    reanonymization: float = 0.5

    def validate(self) -> None:
        for name in ("cloak_lookup", "lbs_query", "cache_lookup", "reanonymization"):
            if getattr(self, name) < 0:
                raise WorkloadError(f"{name} must be ≥ 0")


@dataclass
class SimulationReport:
    """Aggregated outcome of one simulation run."""

    duration: float
    served: int
    lbs_queries: int
    cache_hits: int
    snapshots: int
    latencies: List[float] = field(repr=False, default_factory=list)
    queue_delays: List[float] = field(repr=False, default_factory=list)
    #: requests rejected fail-closed (stale bound exceeded, provider
    #: retries exhausted) — never served a weaker cloak instead.
    rejected: int = 0
    #: requests served under a bounded-age stale policy.
    stale_served: int = 0
    #: extra provider attempts forced by injected faults.
    provider_retries: int = 0
    #: snapshot repairs that failed (policy kept, staleness grew).
    failed_snapshots: int = 0
    #: per-rung SLO accounting: latencies of served requests keyed by
    #: degradation level ("fresh" | "coarsened" | "stale" | "recovered")
    #: — :data:`repro.robustness.degrade.DEGRADATION_LEVELS` minus
    #: "rejected", which never produces a latency.
    latencies_by_rung: Dict[str, List[float]] = field(
        repr=False, default_factory=dict
    )
    #: process restarts replayed into the timeline (CSP killed, state
    #: restored from the policy journal).
    restarts: int = 0
    #: total simulated blackout spent in journal restores — the measured
    #: restore latency, replayed once per restart.
    restart_seconds: float = 0.0
    #: arrivals that had to queue behind an in-flight repair or restart
    #: blackout (queue delay > 0).  The zero-blackout property of the
    #: double-buffered swap is exactly ``repair_waits == 0`` in a
    #: restart-free run.
    repair_waits: int = 0
    #: arrivals served from the previous epoch while a shadow repair was
    #: in flight — the requests the blackout mode would have stalled.
    served_while_repairing: int = 0
    #: served cloaks that differed from the per-epoch oracle (a bulk
    #: re-solve of the epoch's exact snapshot); only counted when the
    #: simulation was built with ``oracle_check=True``.  Must be 0: the
    #: anonymity invariant across swaps.
    oracle_mismatches: int = 0
    #: serves the trajectory-continuity solver had to widen past the
    #: policy's fine cloak (the utility cost of the linking defense).
    trajectory_widened: int = 0
    #: arrivals rejected fail-closed because no cloak — up to the whole
    #: region — kept the surviving intersection ≥ k.
    trajectory_rejected: int = 0
    #: total area (m²) of every served cloak; with :attr:`served` this
    #: yields the mean cloak area — the second axis of the defense cost.
    served_area_sum: float = 0.0

    @property
    def mean_served_area(self) -> float:
        """Mean area of the cloaks that actually went over the wire."""
        return self.served_area_sum / self.served if self.served else 0.0

    @property
    def throughput(self) -> float:
        """Requests served per simulated second."""
        return self.served / self.duration if self.duration else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.served if self.served else 0.0

    @property
    def availability(self) -> float:
        """Fraction of arrivals that were served (vs rejected)."""
        arrivals = self.served + self.rejected
        return self.served / arrivals if arrivals else 1.0

    def latency_percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(self.latencies, q))

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def mean_queue_delay(self) -> float:
        return float(np.mean(self.queue_delays)) if self.queue_delays else 0.0

    # -- per-rung SLOs -------------------------------------------------------

    @property
    def served_by_rung(self) -> Dict[str, int]:
        """How many requests each degradation rung served."""
        return {
            rung: len(lats) for rung, lats in self.latencies_by_rung.items()
        }

    def rung_latency_percentile(self, rung: str, q: float) -> float:
        lats = self.latencies_by_rung.get(rung)
        if not lats:
            return 0.0
        return float(np.percentile(lats, q))

    def rung_mean_latency(self, rung: str) -> float:
        lats = self.latencies_by_rung.get(rung)
        return float(np.mean(lats)) if lats else 0.0

    def slo_summary(self) -> str:
        """One line per active rung: count, mean and p99 latency."""
        lines = []
        for rung in ("fresh", "coarsened", "stale", "recovered"):
            lats = self.latencies_by_rung.get(rung)
            if not lats:
                continue
            lines.append(
                f"{rung}: {len(lats)} served, mean "
                f"{1e3 * self.rung_mean_latency(rung):.2f} ms, p99 "
                f"{1e3 * self.rung_latency_percentile(rung, 99):.2f} ms"
            )
        if self.rejected:
            lines.append(f"rejected: {self.rejected}")
        if self.served_while_repairing or self.repair_waits:
            lines.append(
                f"served-while-repairing: {self.served_while_repairing}, "
                f"repair waits: {self.repair_waits}, "
                f"oracle mismatches: {self.oracle_mismatches}"
            )
        if self.restarts:
            lines.append(
                f"restarts: {self.restarts}, journal-restore blackout "
                f"{1e3 * self.restart_seconds:.1f} ms total "
                f"({1e3 * self.restart_seconds / self.restarts:.1f} ms each)"
            )
        if self.trajectory_widened or self.trajectory_rejected:
            lines.append(
                f"trajectory: {self.trajectory_widened} widened, "
                f"{self.trajectory_rejected} rejected, mean served cloak "
                f"{self.mean_served_area:,.0f} m²"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        text = (
            f"{self.served} requests in {self.duration:g}s simulated "
            f"({self.throughput:,.0f} req/s), mean latency "
            f"{1e3 * self.mean_latency:.2f} ms "
            f"(p99 {1e3 * self.latency_percentile(99):.2f} ms), "
            f"cache hit rate {self.cache_hit_rate:.0%}, "
            f"{self.snapshots} snapshot refreshes"
        )
        if self.rejected or self.failed_snapshots:
            text += (
                f"; availability {self.availability:.1%} "
                f"({self.rejected} rejected, {self.stale_served} stale, "
                f"{self.provider_retries} provider retries, "
                f"{self.failed_snapshots} failed repairs)"
            )
        return text


# Event kinds, ordered so ties at equal timestamps resolve snapshots
# first, then restarts (a restart scheduled exactly at the tick restores
# the just-repaired policy), then epoch swaps (a double-buffered repair
# completing exactly at an arrival's timestamp serves it the new epoch),
# then requests (arrivals at the tick see the new snapshot).
_SNAPSHOT, _RESTART, _SWAP, _ARRIVAL = 0, 1, 2, 3


class LBSSimulation:
    """Deterministic DES over a cloaking deployment.

    The simulation models the *timing* of the pipeline; the policy's
    privacy properties are the library's usual objects (the simulator
    asks the policy for each requester's cloak, so cloak/cache semantics
    are real, not stubbed).
    """

    def __init__(
        self,
        region: Rect,
        db: LocationDatabase,
        k: int,
        request_rate_per_user: float = 0.01,
        snapshot_period: float = 30.0,
        move_fraction: float = 0.02,
        max_move: float = 200.0,
        use_cache: bool = True,
        categories: Tuple[str, ...] = ("rest", "groc", "cinema"),
        times: Optional[ServiceTimes] = None,
        n_servers: int = 1,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        max_stale_snapshots: int = 1,
        restart_at: Tuple[float, ...] = (),
        restart_blackout: float = 0.0,
        double_buffered: bool = False,
        oracle_check: bool = False,
        trajectory_defense: bool = False,
        audit_stream: bool = False,
        trajectory_window: int = 16,
    ):
        if request_rate_per_user <= 0:
            raise WorkloadError("request_rate_per_user must be > 0")
        if snapshot_period <= 0:
            raise WorkloadError("snapshot_period must be > 0")
        if n_servers < 1:
            raise WorkloadError("n_servers must be ≥ 1")
        if max_stale_snapshots < 0:
            raise WorkloadError("max_stale_snapshots must be ≥ 0")
        if restart_blackout < 0:
            raise WorkloadError("restart_blackout must be ≥ 0")
        if any(t <= 0 for t in restart_at):
            raise WorkloadError("restart_at times must be > 0")
        self.region = region
        self.k = k
        self.request_rate = request_rate_per_user
        self.snapshot_period = snapshot_period
        self.move_fraction = move_fraction
        self.max_move = max_move
        self.use_cache = use_cache
        self.categories = categories
        self.times = times or ServiceTimes()
        self.times.validate()
        #: share-nothing anonymization servers (§V): repairing the
        #: policy after a snapshot parallelizes across jurisdictions, so
        #: the serving blackout shrinks by ~n (the Figure 4(a) model).
        self.n_servers = n_servers
        #: chaos schedule: "repair" faults stall the policy (bounded-age
        #: stale serving, then fail-closed rejection); "provider" faults
        #: cost retries with backoff, then rejection; "coarsen" faults
        #: serve the arrival one rung down (ancestor cloak).
        self.injector = injector
        self.retry_policy = retry_policy
        self.max_stale_snapshots = max_stale_snapshots
        #: process restarts: at each listed simulated time the CSP dies
        #: and restores from its policy journal, replaying the *measured*
        #: restore latency (``restart_blackout``, e.g. from timing
        #: :meth:`repro.lbs.pipeline.CSP.restore`) as a serving blackout.
        #: The committed policy survives — requests queue through the
        #: blackout and then ride the "recovered" rung until the next
        #: successful snapshot repair, exactly like a real restore.  The
        #: answer cache is process memory, so it does not survive.
        self.restart_at = tuple(sorted(float(t) for t in restart_at))
        self.restart_blackout = float(restart_blackout)
        #: double-buffered epoch swap (the streaming layer's timing
        #: model): a snapshot repair runs on the shadow while arrivals
        #: keep being served from the previous epoch, and the repaired
        #: policy is installed atomically ``reanonymization/n_servers``
        #: later — no arrival ever queues behind a repair.  False keeps
        #: the historical blackout model (arrivals wait for the repair).
        self.double_buffered = bool(double_buffered)
        #: when True, every epoch install also runs a from-scratch bulk
        #: solve of that exact snapshot and served cloaks are compared
        #: bit-for-bit (the anonymity invariant across swaps); costs one
        #: bulk solve per snapshot, so it is opt-in for tests/benches.
        self.oracle_check = bool(oracle_check)
        self.rng = np.random.default_rng(seed)

        from ..core.anonymizer import IncrementalAnonymizer

        self.anonymizer = IncrementalAnonymizer(region, k).fit(db)
        self._policy = self.anonymizer.policy
        #: continuity-constrained cloaking (defense against the linking
        #: attacker of :mod:`repro.attacks.trajectory`) — serves widened
        #: ancestors when a user's surviving intersection would drop
        #: below k, and rejects fail-closed when nothing suffices.
        self.trajectory: Optional["ContinuityConstraint"] = None
        #: attacker's-eye record of every served (cloak, policy) pair;
        #: :meth:`ServedTrajectories.audit` replays the linking attack
        #: against the stream after the run (the closing audit gate).
        self.stream: Optional["ServedTrajectories"] = None
        if trajectory_defense:
            from ..trajectory.constraint import ContinuityConstraint

            self.trajectory = ContinuityConstraint(
                k, window=trajectory_window
            )
        if audit_stream:
            from ..trajectory.audit import ServedTrajectories

            self.stream = ServedTrajectories()

    # -- the run ---------------------------------------------------------------

    def run(self, duration: float) -> SimulationReport:
        """Simulate ``duration`` seconds of operation."""
        if duration <= 0:
            raise WorkloadError("duration must be > 0")
        users = self.anonymizer.current_db.user_ids()
        events: List[Tuple[float, int, int, str]] = []
        serial = 0

        def push(t: float, kind: int, payload: str = "") -> None:
            nonlocal serial
            heapq.heappush(events, (t, kind, serial, payload))
            serial += 1

        # Seed one Poisson arrival stream per expected request count:
        # thin a global process of rate n·λ and draw the user uniformly.
        global_rate = len(users) * self.request_rate
        t = float(self.rng.exponential(1.0 / global_rate))
        while t < duration:
            push(t, _ARRIVAL)
            t += float(self.rng.exponential(1.0 / global_rate))
        tick = self.snapshot_period
        while tick < duration:
            push(tick, _SNAPSHOT)
            tick += self.snapshot_period
        for restart_time in self.restart_at:
            if restart_time < duration:
                push(restart_time, _RESTART)

        cache: Dict[Tuple[object, str, bool], bool] = {}
        policy_ready_at = 0.0  # requests wait for an in-flight repair
        report = SimulationReport(
            duration=duration,
            served=0,
            lbs_queries=0,
            cache_hits=0,
            snapshots=0,
        )

        stale_age = 0  # consecutive failed repairs (fail-closed bound)
        # True for the snapshot window right after a repair that ended a
        # stale streak: requests there ride the "recovered" rung (served
        # from a freshly repaired policy, not a continuously fresh one).
        recovered_window = False
        arrival_serial = 0
        # Double-buffered state: the repaired-but-not-yet-installed
        # (policy, oracle) pair, how many snapshots it is ahead of the
        # serving policy, and a generation counter so a superseded swap
        # never installs.
        pending = None
        pending_age = 0
        swap_gen = 0
        oracle = self._oracle_for_current()
        while events:
            now, kind, __, payload = heapq.heappop(events)
            if kind == _SNAPSHOT:
                report.snapshots += 1
                if self.injector is not None:
                    try:
                        self.injector.fire("repair", report.snapshots)
                    # DES models the stale rung; the accounting below IS
                    # the degradation ladder.  # analysis: ok[FC002]
                    except InjectedFault:
                        # Stale rung: keep serving the previous
                        # policy/snapshot pair, consistently — no
                        # blackout, but the staleness bound ticks.
                        stale_age += 1
                        report.failed_snapshots += 1
                        continue
                moves = random_moves(
                    self.anonymizer.current_db,
                    self.move_fraction,
                    self.region,
                    max_distance=self.max_move,
                    seed=self.rng,
                )
                self.anonymizer.update(moves)
                if self.double_buffered:
                    # Shadow repair: the previous epoch keeps serving
                    # (no blackout); the repaired policy installs
                    # atomically when the virtual repair completes.  A
                    # tick landing while an older repair is still in
                    # flight supersedes it — the newer epoch absorbs it.
                    swap_gen += 1
                    pending = (
                        self.anonymizer.policy,
                        self._oracle_for_current(),
                    )
                    pending_age += 1
                    push(
                        now + self.times.reanonymization / self.n_servers,
                        _SWAP,
                        str(swap_gen),
                    )
                    continue
                self._policy = self.anonymizer.policy
                oracle = self._oracle_for_current()
                cache.clear()  # cloaks changed; cached keys are stale
                policy_ready_at = (
                    now + self.times.reanonymization / self.n_servers
                )
                recovered_window = stale_age > 0
                stale_age = 0
                continue

            if kind == _SWAP:
                if payload != str(swap_gen) or pending is None:
                    continue  # superseded by a newer in-flight repair
                # Atomic epoch swap: pointer flip + cache invalidation.
                # Requests already being "served" at this timestamp kept
                # their admission-time cloaks (ties order _SWAP first
                # only for *new* arrivals at the same instant).
                self._policy, oracle = pending
                pending = None
                cache.clear()
                recovered_window = stale_age > 0
                stale_age = 0
                pending_age = 0
                continue

            if kind == _RESTART:
                # Process restart: the CSP dies and restores from its
                # journal.  The committed policy survives (staleness is
                # whatever it already was), but serving blacks out for
                # the measured restore latency, the in-memory answer
                # cache is lost, and requests after the blackout ride
                # the "recovered" rung until the next snapshot repair.
                report.restarts += 1
                report.restart_seconds += self.restart_blackout
                cache.clear()
                policy_ready_at = max(
                    policy_ready_at, now + self.restart_blackout
                )
                recovered_window = True
                continue

            # Request arrival.
            arrival_serial += 1
            # The serving policy's true age: failed repairs plus any
            # snapshots absorbed by an in-flight shadow repair.
            serving_age = stale_age + pending_age
            if serving_age > self.max_stale_snapshots:
                # Reject rung: the policy aged out of its stale budget;
                # serving it further would trade privacy for uptime.
                report.rejected += 1
                continue
            start = max(now, policy_ready_at)
            queue_delay = start - now
            if queue_delay > 0:
                report.repair_waits += 1
            user = users[int(self.rng.integers(len(users)))]
            category = self.categories[
                int(self.rng.integers(len(self.categories)))
            ]
            cloak = self._policy.cloak_for(user)
            if oracle is not None and cloak != oracle.get(user):
                report.oracle_mismatches += 1
            service = self.times.cloak_lookup
            coarsened = False
            if self.injector is not None:
                try:
                    self.injector.fire("coarsen", arrival_serial)
                # DES models the coarsened rung.  # analysis: ok[FC002]
                except InjectedFault:
                    # Coarsened rung: the requester's reported position
                    # is too uncertain for its fine cloak, so serving
                    # walks up to a safe ancestor — one extra cloak
                    # lookup and a coarser, cache-distinct region.
                    coarsened = True
                    service += self.times.cloak_lookup
            widened = False
            if self.trajectory is not None and isinstance(cloak, Rect):
                try:
                    decision = self.trajectory.enforce(
                        self._policy,
                        user,
                        region=self.region,
                        orientation=getattr(
                            self.anonymizer.tree, "orientation", "vertical"
                        ),
                        cloak=cloak,
                        serial=report.snapshots,
                    )
                # The trajectory ladder IS the degradation model here:
                # widen, else reject.  # analysis: ok[FC002]
                except ServiceUnavailableError:
                    report.rejected += 1
                    report.trajectory_rejected += 1
                    continue
                if decision.widened:
                    # The ancestor walk costs one extra cloak lookup,
                    # mirroring the coarsen rung's timing model.
                    widened = True
                    report.trajectory_widened += 1
                    service += self.times.cloak_lookup
                    cloak = decision.cloak
            key = (cloak, category, coarsened)
            needs_provider = True
            if self.use_cache:
                service += self.times.cache_lookup
                if cache.get(key):
                    report.cache_hits += 1
                    needs_provider = False
            if needs_provider:
                service_extra, ok = self._provider_call(
                    arrival_serial, report
                )
                if not ok:
                    report.rejected += 1
                    continue
                service += self.times.lbs_query + service_extra
                report.lbs_queries += 1
                if self.use_cache:
                    cache[key] = True
            finish = start + service
            report.served += 1
            if isinstance(cloak, Rect):
                report.served_area_sum += cloak.area
            if self.stream is not None and isinstance(cloak, Rect):
                self.stream.observe(
                    user, cloak, self._policy, widened=widened
                )
            if serving_age > 0:
                report.stale_served += 1
                rung = "stale"
                if pending_age > 0:
                    report.served_while_repairing += 1
            elif coarsened or widened:
                rung = "coarsened"
            elif recovered_window:
                rung = "recovered"
            else:
                rung = "fresh"
            report.latencies.append(finish - now)
            report.latencies_by_rung.setdefault(rung, []).append(finish - now)
            report.queue_delays.append(queue_delay)
        return report

    def _oracle_for_current(self) -> Optional[Dict[str, object]]:
        """Bulk-solved cloaks for the shadow's current snapshot, or
        ``None`` when oracle checking is off.  This is the anonymity
        referee: the incrementally repaired epoch must serve cloaks
        bit-identical to a from-scratch solve of its exact snapshot."""
        if not self.oracle_check:
            return None
        from ..core.anonymizer import PolicyAwareAnonymizer

        referee = PolicyAwareAnonymizer(self.region, self.k)
        referee.fit(self.anonymizer.current_db)
        return {uid: cloak for uid, cloak in referee.policy.items()}

    def _provider_call(self, serial: int, report: SimulationReport):
        """Model one LBS provider interaction under the chaos schedule.

        Returns ``(extra_seconds, ok)``: wasted attempt time plus retry
        backoff, and whether any attempt eventually succeeded."""
        if self.injector is None:
            return 0.0, True
        extra = 0.0
        attempt = 0
        while True:
            try:
                extra += self.injector.fire("provider", serial, attempt)
                return extra, True
            # DES models retry/reject; the caller rejects when attempts
            # run out.  # analysis: ok[FC002]
            except InjectedFault:
                # The failed attempt cost a full (timed-out) query.
                extra += self.times.lbs_query
                attempt += 1
                if (
                    self.retry_policy is None
                    or attempt >= self.retry_policy.max_attempts
                ):
                    return extra, False
                extra += self.retry_policy.delay_for(attempt - 1)
                report.provider_retries += 1


# -- arrival schedules ---------------------------------------------------------


def poisson_schedule(
    users: List[str],
    rate_per_user: float,
    duration: float,
    categories: Tuple[str, ...] = ("rest", "groc", "cinema"),
    seed: int = 0,
) -> List[Tuple[float, str, str]]:
    """A deterministic Poisson arrival schedule: (time, user, category).

    Map each entry to ``(time, user, [("poi", category)])`` and
    :func:`repro.serving.gateway.serve_scheduled` replays it through the
    real gateway — on a :class:`~repro.robustness.aio.VirtualTimeLoop`
    for capacity sweeps, on the wall-clock loop to measure them.
    """
    if rate_per_user <= 0:
        raise WorkloadError("rate_per_user must be > 0")
    if duration <= 0:
        raise WorkloadError("duration must be > 0")
    if not users:
        raise WorkloadError("schedule needs at least one user")
    rng = np.random.default_rng(seed)
    global_rate = len(users) * rate_per_user
    schedule: List[Tuple[float, str, str]] = []
    t = float(rng.exponential(1.0 / global_rate))
    while t < duration:
        user = users[int(rng.integers(len(users)))]
        category = categories[int(rng.integers(len(categories)))]
        schedule.append((t, user, category))
        t += float(rng.exponential(1.0 / global_rate))
    return schedule
