"""One-command closed-loop SLO report (``python -m repro slo-report``).

Ties the robustness spine together into a single, committable artifact:

1. **Durability** — a quorum-replicated policy journal survives the
   destruction of a whole replica directory mid-commit: restore is
   timed (MTTR, including the majority-vote repair of the lost
   replica), the recovered policy is verified bit-identical, and loss
   of quorum is verified to fail closed (``RecoveryError``, no coarse
   serving).
2. **Capacity sweep** — the real :class:`~repro.serving.gateway.AsyncGateway`
   replays one Poisson schedule on a
   :class:`~repro.robustness.aio.VirtualTimeLoop` across admission
   operating points, once with static fail-closed thresholds and once
   with the AIMD controller, recording availability, latency, and
   per-cause shed counters — and checking the containment invariant
   (adaptive ⊆ static) on every point.  Virtual time makes the sweep
   exact and reproducible: rerunning it gives identical rows.
3. **Cross-validation** — a subset of the swept points is replayed on
   the wall-clock event loop with the same schedule; the virtual run's
   shed rate is scored against the measured one (the acceptance bar:
   within 15% on at least two points).  The two runs share every line
   of serving code; what differs is CPU time (free on virtual time)
   and event-loop jitter.

Everything lands in ``bench_results/slo.json`` (machine-readable) and
``bench_results/slo.txt`` (human-readable), so capacity planning has
one command and one diffable artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import RecoveryError, ReproError
from ..core.geometry import Rect
from ..data import uniform_users
from ..lbs.mobility import poisson_schedule, random_moves
from ..lbs.pipeline import CSP
from ..lbs.poi import generate_pois
from ..lbs.provider import LBSProvider
from ..robustness.aio import VirtualTimeLoop
from ..robustness.chaos import ReplicaKillPlan, destroy_replica
from ..robustness.recovery import QuorumJournal
from ..serving.admission import AdmissionConfig, AdmissionController
from ..serving.gateway import (
    AsyncGateway,
    GatewayConfig,
    GatewayStats,
    run_gateway_scheduled,
    serve_scheduled,
)

__all__ = ["SLO_SCALES", "build_slo_report", "render_slo_report", "write_slo_report"]

REGION = Rect(0, 0, 4096, 4096)
K = 8

#: (rtt, max_wait) operating points; every scale sweeps these on
#: virtual time, and validates the listed ones on the wall clock.
_POINTS: Tuple[Tuple[float, float], ...] = (
    (0.03, 0.005),
    (0.05, 0.008),
    (0.06, 0.01),
)

#: The serving SLO the controller enforces: provider rounds slower than
#: this are congestion, so the sweep shows the controller leaving the
#: healthy points alone and shedding only where the SLO is violated.
_RTT_SLO = 0.055

SLO_SCALES: Dict[str, Dict[str, object]] = {
    #: CI-sized: short schedule; validate the two deep-overload points
    #: (the lightly loaded one sits at the shed threshold, where live
    #: event-loop jitter swamps a short run).
    "quick": {
        "n_users": 150,
        "duration": 1.2,
        "rate": 8.0,
        "validate": (1, 2),
    },
    "default": {
        "n_users": 200,
        "duration": 2.0,
        "rate": 8.0,
        "validate": (0, 1, 2),
    },
    "full": {
        "n_users": 400,
        "duration": 4.0,
        "rate": 8.0,
        "validate": (0, 1, 2),
    },
}


def _make_csp(n_users: int, journal=None) -> CSP:
    db = uniform_users(n_users, REGION, seed=5)
    provider = LBSProvider(
        generate_pois(
            REGION, {"rest": 40, "groc": 30, "cinema": 10}, seed=3
        )
    )
    return CSP(REGION, K, db, provider, journal=journal)


def _point_config(rtt: float, max_wait: float) -> GatewayConfig:
    return GatewayConfig(
        queue_high_water=8,
        max_inflight=64,
        rtt=rtt,
        max_wait=max_wait,
        max_batch=8,
        pool_size=2,
    )


def _durability_section(n_users: int) -> Dict[str, object]:
    """Destroy one replica mid-commit, restore, measure MTTR; then
    destroy two and prove the restore fails closed."""
    with tempfile.TemporaryDirectory(prefix="slo-quorum-") as base:
        roots = [os.path.join(base, f"replica-{i}") for i in range(3)]
        quorum = QuorumJournal(
            roots, kill_plan=ReplicaKillPlan.single(2, 0, "snapshot")
        )
        csp = _make_csp(n_users, journal=quorum)
        for index in range(2):
            moves = random_moves(
                csp.mpc.db,
                0.15,
                REGION,
                max_distance=120.0,
                seed=100 + index,
            )
            csp.advance_snapshot(moves)
        expected = {uid: cloak for uid, cloak in csp.policy.items()}
        provider = csp.base_provider
        del csp

        start = time.perf_counter()
        restored = CSP.restore(provider, QuorumJournal(roots))
        restore_seconds = time.perf_counter() - start
        bit_identical = all(
            restored.policy.cloak_for(uid) == cloak
            for uid, cloak in expected.items()
        ) and len(restored.policy) == len(expected)
        report = restored.manager.journal.last_recovery

        destroy_replica(roots[0])
        destroy_replica(roots[1])
        try:
            CSP.restore(
                _make_csp(n_users).base_provider, QuorumJournal(roots)
            )
            fails_closed = False
        except RecoveryError as exc:
            fails_closed = exc.reason == "quorum"
        return {
            "replicas": len(roots),
            "scenario": "destroy replica 0 at snapshot phase of serial 2",
            "restore_seconds": restore_seconds,
            "repair_seconds": report.repair_seconds if report else 0.0,
            "repaired_replicas": list(report.repaired) if report else [],
            "replica_states": list(report.replica_states) if report else [],
            "bit_identical": bit_identical,
            "quorum_loss_fails_closed": fails_closed,
        }


def _shed_rate(stats: GatewayStats) -> float:
    """Fraction of submissions refused at admission (all causes)."""
    if not stats.submitted:
        return 0.0
    return (stats.shed + stats.throttled) / stats.submitted


def _report_row(stats: GatewayStats) -> Dict[str, object]:
    latencies = stats.latencies or [0.0]
    return {
        "submitted": stats.submitted,
        "served": stats.served,
        "availability": stats.availability,
        "shed_rate": _shed_rate(stats),
        "shed_by_cause": stats.shed_by_cause,
        "errors": stats.errors,
        "provider_rounds": stats.provider_rounds,
        "provider_queries": stats.provider_queries,
        "mean_latency_ms": 1e3 * float(np.mean(latencies)),
        "p99_latency_ms": 1e3 * float(np.percentile(latencies, 99)),
    }


def _run_virtual(
    n_users: int,
    requests: Sequence[Tuple[float, str, object]],
    config: GatewayConfig,
    admission: Optional[AdmissionController] = None,
) -> GatewayStats:
    """One capacity-sweep run: a fresh CSP behind the real gateway,
    replaying ``requests`` on virtual time."""
    gateway = AsyncGateway(_make_csp(n_users), config, admission=admission)
    VirtualTimeLoop().run(serve_scheduled(gateway, requests))
    return gateway.stats


def build_slo_report(scale: str = "default", seed: int = 7) -> Dict[str, object]:
    """Run the full closed loop; returns the JSON-ready report."""
    if scale not in SLO_SCALES:
        raise ReproError(
            f"unknown scale {scale!r} (expected one of {sorted(SLO_SCALES)})"
        )
    params = SLO_SCALES[scale]
    n_users = int(params["n_users"])
    duration = float(params["duration"])
    rate = float(params["rate"])
    validate_points = tuple(params["validate"])  # type: ignore[arg-type]

    durability = _durability_section(min(n_users, 120))

    users = _make_csp(n_users).mpc.db.user_ids()
    schedule = poisson_schedule(users, rate, duration, seed=seed)
    requests = [
        (t, user, [("poi", category)]) for t, user, category in schedule
    ]

    sweep: List[Dict[str, object]] = []
    static_runs: List[GatewayStats] = []
    containment_ok = True
    for rtt, max_wait in _POINTS:
        config = _point_config(rtt, max_wait)
        static = _run_virtual(n_users, requests, config)
        static_runs.append(static)
        controller = AdmissionController(
            config.queue_high_water,
            AdmissionConfig(rtt_target=_RTT_SLO, ewma_alpha=0.5),
        )
        adaptive = _run_virtual(n_users, requests, config, controller)
        point_contained = (
            adaptive.served <= static.served
            and adaptive.shed + adaptive.throttled
            >= static.shed + static.throttled
        )
        containment_ok = containment_ok and point_contained
        sweep.append(
            {
                "rtt": rtt,
                "max_wait": max_wait,
                "queue_high_water": config.queue_high_water,
                "static": _report_row(static),
                "adaptive": _report_row(adaptive),
                "controller": controller.snapshot(),
                "adaptive_contained_in_static": point_contained,
            }
        )

    validation: List[Dict[str, object]] = []
    for index in validate_points:
        rtt, max_wait = _POINTS[index]
        config = _point_config(rtt, max_wait)
        virtual = static_runs[index]
        __, stats = run_gateway_scheduled(_make_csp(n_users), requests, config)
        measured = _shed_rate(stats)
        error: Optional[float] = (
            abs(_shed_rate(virtual) - measured) / measured if measured else None
        )
        validation.append(
            {
                "rtt": rtt,
                "max_wait": max_wait,
                "virtual_shed_rate": _shed_rate(virtual),
                "measured_shed_rate": measured,
                "relative_error": error,
                "within_15pct": error is not None and error <= 0.15,
                # Queue-pressure gauges, virtual vs wall clock: what a
                # fleet dispatcher would use to size per-worker queues.
                "virtual_queue_depth_high_water": (
                    virtual.queue_depth_high_water
                ),
                "measured_queue_depth_high_water": (
                    stats.queue_depth_high_water
                ),
                "measured_inflight_high_water": stats.inflight_high_water,
            }
        )
    return {
        "scale": scale,
        "seed": seed,
        "rtt_slo": _RTT_SLO,
        "arrivals": len(schedule),
        "durability": durability,
        "capacity_sweep": sweep,
        "cross_validation": validation,
        "controller_invariant": {
            "adaptive_subset_of_static": containment_ok,
            "points_checked": len(sweep),
        },
    }


def render_slo_report(report: Dict[str, object]) -> str:
    """The human-readable half of the artifact."""
    lines = [
        f"== Closed-loop SLO report (scale={report['scale']}, "
        f"{report['arrivals']} arrivals) ==",
        "",
        "-- durability: quorum journal under replica destruction --",
    ]
    durability = report["durability"]
    lines.append(
        f"{durability['scenario']}: restore "
        f"{1e3 * durability['restore_seconds']:.1f} ms "
        f"(replica repair {1e3 * durability['repair_seconds']:.1f} ms, "
        f"repaired {durability['repaired_replicas']}), bit-identical: "
        f"{durability['bit_identical']}"
    )
    lines.append(
        "quorum loss (2 of 3 destroyed) fails closed: "
        f"{durability['quorum_loss_fails_closed']}"
    )
    lines.append("")
    lines.append(
        "-- capacity sweep (gateway on virtual time, static vs adaptive "
        "admission, "
        f"RTT SLO {1e3 * report['rtt_slo']:.0f} ms) --"
    )
    for point in report["capacity_sweep"]:
        static, adaptive = point["static"], point["adaptive"]
        lines.append(
            f"rtt={point['rtt']:g}s qhw={point['queue_high_water']}: "
            f"static avail {static['availability']:.1%} "
            f"(shed {static['shed_rate']:.1%}, "
            f"p99 {static['p99_latency_ms']:.1f} ms) | "
            f"adaptive avail {adaptive['availability']:.1%} "
            f"(shed {adaptive['shed_rate']:.1%}, "
            f"p99 {adaptive['p99_latency_ms']:.1f} ms, "
            f"limit→{point['controller']['high_water']}) | "
            f"contained: {point['adaptive_contained_in_static']}"
        )
    invariant = report["controller_invariant"]
    lines.append(
        f"controller invariant (adaptive ⊆ static) on "
        f"{invariant['points_checked']} points: "
        f"{invariant['adaptive_subset_of_static']}"
    )
    lines.append("")
    lines.append("-- cross-validation (virtual time vs wall clock) --")
    within = 0
    for point in report["cross_validation"]:
        error = point["relative_error"]
        error_text = f"{error:.1%}" if error is not None else "n/a"
        lines.append(
            f"rtt={point['rtt']:g}s: virtual shed "
            f"{point['virtual_shed_rate']:.1%}, measured "
            f"{point['measured_shed_rate']:.1%}, error {error_text} "
            f"({'within' if point['within_15pct'] else 'outside'} 15%)"
        )
        lines.append(
            f"  queue depth high-water: virtual "
            f"{point['virtual_queue_depth_high_water']}, measured "
            f"{point['measured_queue_depth_high_water']} "
            f"(inflight high-water "
            f"{point['measured_inflight_high_water']})"
        )
        within += bool(point["within_15pct"])
    lines.append(
        f"{within}/{len(report['cross_validation'])} validation points "
        "within 15%"
    )
    return "\n".join(lines)


def write_slo_report(
    scale: str = "default",
    results_dir: str = "bench_results",
    seed: int = 7,
) -> Tuple[str, str]:
    """Build the report and write ``slo.json`` + ``slo.txt``."""
    report = build_slo_report(scale=scale, seed=seed)
    os.makedirs(results_dir, exist_ok=True)
    json_path = os.path.join(results_dir, "slo.json")
    txt_path = os.path.join(results_dir, "slo.txt")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    with open(txt_path, "w", encoding="utf-8") as handle:
        handle.write(render_slo_report(report) + "\n")
    return json_path, txt_path
