"""One-command trajectory report (``python -m repro trajectory``).

Measures what the continuity-constrained cloaking defense
(:mod:`repro.trajectory`) buys against the trajectory-linking attacker
(:mod:`repro.attacks.trajectory`) — and what it costs:

1. **Served scenario** — one seeded mobility trace + Poisson arrival
   stream (:func:`~repro.lbs.mobility.trajectory_schedule`) replayed
   twice through a real :class:`~repro.lbs.pipeline.CSP` behind the
   async gateway on virtual time
   (:func:`~repro.experiments.replay.replay_schedule`): once undefended
   (per-snapshot k only) and once with the
   :class:`~repro.trajectory.constraint.ContinuityConstraint` enforced.
   Both served streams are then attacked with the attacker's own
   tooling (:meth:`~repro.trajectory.audit.ServedTrajectories.audit`) —
   the closing audit gate.
2. **Cost** — from the same two runs: the mean-cloak-area overhead the
   widening rung charges, and the p99 latency overhead.  Virtual time
   charges no CPU, so the latencies are modelled waits (batching window
   plus the 2 ms provider round) only.

Gates (recorded in the artifact, asserted by the benches and CI): the
defended stream keeps every user's surviving intersection ≥ k (100 %
of users) while the undefended baseline erodes below k.  Artifacts
land in ``bench_results/trajectory.json`` + ``trajectory.txt``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from ..core.errors import ReproError
from ..core.geometry import Rect
from ..data import uniform_users
from ..lbs.mobility import trajectory_schedule
from ..lbs.pipeline import CSP
from ..lbs.poi import generate_pois
from ..lbs.provider import LBSProvider
from ..trajectory.audit import ServedTrajectories
from ..trajectory.constraint import ContinuityConstraint
from .replay import replay_schedule

__all__ = [
    "TRAJECTORY_SCALES",
    "build_trajectory_report",
    "render_trajectory_report",
    "scenario_run",
    "write_trajectory_report",
]

REGION = Rect(0, 0, 4096, 4096)
K = 6

TRAJECTORY_SCALES: Dict[str, Dict[str, float]] = {
    "quick": {
        "n_users": 300,
        "duration": 120.0,
        "rate": 0.05,
        "snapshot_period": 20.0,
        "move_fraction": 0.3,
        "max_move": 400.0,
    },
    "default": {
        "n_users": 800,
        "duration": 240.0,
        "rate": 0.05,
        "snapshot_period": 20.0,
        "move_fraction": 0.3,
        "max_move": 400.0,
    },
    "full": {
        "n_users": 2000,
        "duration": 400.0,
        "rate": 0.08,
        "snapshot_period": 20.0,
        "move_fraction": 0.3,
        "max_move": 400.0,
    },
}


# -- served scenario -----------------------------------------------------------


def scenario_run(
    defended: bool, params: Dict[str, float], seed: int
) -> Dict[str, object]:
    """Replay one trajectory schedule through a real CSP and attack it.

    The same ``seed`` fixes the entire workload, so the defended and
    undefended runs serve byte-identical traces — any difference in the
    audit is the defense, nothing else.  Each move set lands at its
    boundary with no repair delay, so every arrival is served by the
    snapshot it falls in.
    """
    db = uniform_users(int(params["n_users"]), REGION, seed=seed)
    schedule = trajectory_schedule(
        db,
        float(params["move_fraction"]),
        REGION,
        rate_per_user=float(params["rate"]),
        duration=float(params["duration"]),
        snapshot_period=float(params["snapshot_period"]),
        max_distance=float(params["max_move"]),
        seed=seed,
    )
    provider = LBSProvider(
        generate_pois(
            REGION, {"rest": 60, "groc": 40, "cinema": 30}, seed=seed + 1
        )
    )
    trajectory = ContinuityConstraint(K) if defended else None
    csp = CSP(REGION, K, db, provider, trajectory=trajectory)
    run = replay_schedule(csp, schedule, repair_seconds=0.0)
    stream = ServedTrajectories()
    widened = 0
    area_sum = 0.0
    for replayed in run.requests:
        if not replayed.served:
            continue
        served = replayed.outcome
        user = served.request.user_id  # type: ignore[union-attr]
        cloak = served.anonymized.cloak  # type: ignore[union-attr]
        policy = replayed.epoch.policy
        is_widened = cloak != policy.cloak_for(user)
        widened += is_widened
        if isinstance(cloak, Rect):
            area_sum += cloak.area
        stream.observe(user, cloak, policy, widened=is_widened)
    audit = stream.audit(K)
    served_count = len(run.served)
    return {
        "mode": "defended" if defended else "undefended",
        "served": served_count,
        "widened": widened,
        "rejected": run.rejected,
        "mean_cloak_area": area_sum / served_count if served_count else 0.0,
        # Rounded to the µs: loop-clock sums carry float noise.
        "p50_ms": round(1e3 * run.latency_percentile(50), 3),
        "p99_ms": round(1e3 * run.latency_percentile(99), 3),
        "audited": audit.audited,
        "holding": audit.holding,
        "min_surviving": audit.min_surviving,
        "min_curve": list(audit.min_curve),
        "all_hold": audit.all_hold,
        "snapshots": schedule.n_snapshots,
    }


# -- report assembly -----------------------------------------------------------


def build_trajectory_report(
    scale: str = "default", seed: int = 7
) -> Dict[str, object]:
    """Run both comparisons; returns the JSON-ready report."""
    if scale not in TRAJECTORY_SCALES:
        raise ReproError(
            f"unknown scale {scale!r} "
            f"(expected one of {sorted(TRAJECTORY_SCALES)})"
        )
    params = TRAJECTORY_SCALES[scale]
    scenario_undefended = scenario_run(False, params, seed)
    scenario_defended = scenario_run(True, params, seed)
    area = float(scenario_defended["mean_cloak_area"])  # type: ignore[arg-type]
    base_area = float(scenario_undefended["mean_cloak_area"])  # type: ignore[arg-type]
    p99 = float(scenario_defended["p99_ms"])  # type: ignore[arg-type]
    base_p99 = float(scenario_undefended["p99_ms"])  # type: ignore[arg-type]
    overheads = {
        "cloak_area_ratio": area / base_area if base_area else 0.0,
        "p99_latency_ratio": p99 / base_p99 if base_p99 else 0.0,
        "p99_latency_delta_ms": p99 - base_p99,
    }
    gates = {
        # The defense must hold for every user of the served stream
        # while the baseline demonstrably erodes — otherwise the
        # scenario is not exercising the attack and the gate is vacuous.
        "defended_scenario_holds_all_users": bool(
            scenario_defended["all_hold"]
        ),
        "undefended_scenario_erodes_below_k": (
            int(scenario_undefended["min_surviving"]) < K  # type: ignore[call-overload]
        ),
    }
    return {
        "scale": scale,
        "seed": seed,
        "k": K,
        "move_fraction": params["move_fraction"],
        "scenario": {
            "undefended": scenario_undefended,
            "defended": scenario_defended,
        },
        "overheads": overheads,
        "gates": gates,
        "all_gates_pass": all(gates.values()),
    }


def _curve_text(curve: List[int], width: int = 12) -> str:
    """First ``width`` points of an erosion curve, compactly."""
    shown = ", ".join(str(v) for v in curve[:width])
    return f"[{shown}{', …' if len(curve) > width else ''}]"


def render_trajectory_report(report: Dict[str, object]) -> str:
    """The human-readable half of the artifact."""
    scenario = report["scenario"]
    lines = [
        f"== Trajectory report (scale={report['scale']}, "
        f"{100 * float(report['move_fraction']):g}% movement/snapshot, "  # type: ignore[arg-type]
        f"k={report['k']}) ==",
        "",
        "-- served scenario: linking attack on the real CSP + gateway "
        "stream --",
    ]
    for row in (scenario["undefended"], scenario["defended"]):  # type: ignore[index]
        lines.append(
            f"{row['mode']:>11}: {row['holding']}/{row['audited']} users "
            f"hold ≥ k, min surviving {row['min_surviving']}, "
            f"{row['widened']} widened / {row['rejected']} rejected of "
            f"{row['served']} served, mean cloak "
            f"{row['mean_cloak_area']:,.0f} m²"
        )
        lines.append(
            f"{'':>11}  erosion curve "
            f"{_curve_text(list(row['min_curve']))}"
        )
    lines.append("")
    lines.append(
        "-- serving cost on virtual time (modelled waits: batching "
        "window + provider round) --"
    )
    for row in (scenario["undefended"], scenario["defended"]):  # type: ignore[index]
        lines.append(
            f"{row['mode']:>11}: p50 {row['p50_ms']:.2f} ms, "
            f"p99 {row['p99_ms']:.2f} ms"
        )
    overheads = report["overheads"]
    lines.append("")
    lines.append(
        f"overheads: cloak area ×{overheads['cloak_area_ratio']:.2f}, "  # type: ignore[index]
        f"p99 ×{overheads['p99_latency_ratio']:.2f} "  # type: ignore[index]
        f"(+{overheads['p99_latency_delta_ms']:.2f} ms)"  # type: ignore[index]
    )
    lines.append("")
    gates = report["gates"]
    for name, ok in gates.items():  # type: ignore[union-attr]
        lines.append(f"gate {name}: {'PASS' if ok else 'FAIL'}")
    lines.append(
        f"all gates: {'PASS' if report['all_gates_pass'] else 'FAIL'}"
    )
    return "\n".join(lines)


def write_trajectory_report(
    scale: str = "default",
    results_dir: str = "bench_results",
    seed: int = 7,
) -> Tuple[str, str]:
    """Build the report and write ``trajectory.json`` + ``.txt``."""
    report = build_trajectory_report(scale=scale, seed=seed)
    os.makedirs(results_dir, exist_ok=True)
    json_path = os.path.join(results_dir, "trajectory.json")
    txt_path = os.path.join(results_dir, "trajectory.txt")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    with open(txt_path, "w", encoding="utf-8") as handle:
        handle.write(render_trajectory_report(report) + "\n")
    return json_path, txt_path
