"""One-command churn report (``python -m repro churn``).

Measures what the double-buffered epoch swap buys over the historical
stop-the-world repair, at the paper's Fig 5(b) operating point (a few
percent of users moving per snapshot):

1. **Virtual-time churn** — one seeded Poisson workload with 2 %/snapshot
   movement replayed twice through the real CSP and async gateway on
   virtual time (:func:`~repro.experiments.replay.replay_schedule`):
   once in blackout mode (arrivals wait for a 0.5 s repair) and once in
   swap mode (the prior epoch serves during the repair).  Every served
   cloak is compared with a from-scratch solve of the epoch that served
   it.  Virtual time charges no CPU, so these latencies are modelled
   waits (repair, batching window, 2 ms provider round) only.
2. **Live epochs** — a real :class:`~repro.streaming.epoch.EpochManager`
   serving wall-clock requests from one thread while a repairer thread
   ingests moves and swaps epochs.  The blackout twin is the same code
   with serving forced to wait on the repair (one lock) — the latency
   tail the swap retires is measured, not modelled.

Gates (recorded in the artifact, asserted by the benches): the swap path
never exceeds the blackout path's p99, waits zero requests on repair,
and produces zero oracle mismatches.  Artifacts land in
``bench_results/churn.json`` + ``bench_results/churn.txt``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from ..core.errors import ReproError
from ..core.geometry import Rect
from ..data import uniform_users
from ..lbs.mobility import random_moves, trajectory_schedule
from ..lbs.pipeline import CSP
from ..lbs.poi import generate_pois
from ..lbs.provider import LBSProvider
from ..streaming import EpochManager
from .replay import oracle_mismatches, replay_schedule

__all__ = [
    "CHURN_SCALES",
    "MOVE_FRACTION",
    "build_churn_report",
    "live_churn_run",
    "render_churn_report",
    "replay_churn_run",
    "write_churn_report",
]

REGION = Rect(0, 0, 4096, 4096)
K = 8
MOVE_FRACTION = 0.02  # the headline churn rate: 2 % of users per snapshot

CHURN_SCALES: Dict[str, Dict[str, float]] = {
    "quick": {
        "n_users": 500,
        "duration": 200.0,
        "rate": 0.05,
        "snapshot_period": 20.0,
        "live_users": 600,
        "live_requests": 300,
        "live_repairs": 6,
    },
    "default": {
        "n_users": 1500,
        "duration": 400.0,
        "rate": 0.05,
        "snapshot_period": 20.0,
        "live_users": 2000,
        "live_requests": 1200,
        "live_repairs": 10,
    },
    "full": {
        "n_users": 4000,
        "duration": 600.0,
        "rate": 0.08,
        "snapshot_period": 20.0,
        "live_users": 5000,
        "live_requests": 3000,
        "live_repairs": 16,
    },
}


# -- virtual-time churn -------------------------------------------------------


def replay_churn_run(
    mode: str, params: Dict[str, float], seed: int
) -> Dict[str, object]:
    """One churn replay in ``mode`` ("blackout" or "swap")."""
    db = uniform_users(int(params["n_users"]), REGION, seed=seed)
    schedule = trajectory_schedule(
        db,
        MOVE_FRACTION,
        REGION,
        rate_per_user=float(params["rate"]),
        duration=float(params["duration"]),
        snapshot_period=float(params["snapshot_period"]),
        seed=seed,
    )
    provider = LBSProvider(
        generate_pois(
            REGION, {"rest": 60, "groc": 40, "cinema": 30}, seed=seed + 1
        )
    )
    csp = CSP(REGION, K, db, provider)
    run = replay_schedule(csp, schedule, mode=mode)
    return {
        "mode": mode,
        "served": len(run.served),
        "rejected": run.rejected,
        "snapshots": len(run.swaps),
        # Rounded to the µs: loop-clock sums carry float noise.
        "p50_ms": round(1e3 * run.latency_percentile(50), 3),
        "p99_ms": round(1e3 * run.latency_percentile(99), 3),
        "repair_waits": run.repair_waits,
        "served_while_repairing": run.served_while_repairing,
        "oracle_mismatches": oracle_mismatches(csp.manager, run),
        "served_by_rung": run.served_by_rung,
    }


# -- live epochs ---------------------------------------------------------------


def live_churn_run(
    double_buffered: bool, params: Dict[str, float], seed: int
) -> Dict[str, object]:
    """Wall-clock serving latencies while a repairer thread churns.

    ``double_buffered=False`` is the blackout twin: every request (and
    the repair) takes one world lock, so requests arriving mid-repair
    wait for it — exactly the serving model the epoch swap retires.
    """
    rng = np.random.default_rng(seed)
    db = uniform_users(int(params["live_users"]), REGION, seed=seed)
    manager = EpochManager(REGION, K, db)
    users = db.user_ids()
    n_requests = int(params["live_requests"])
    n_repairs = int(params["live_repairs"])
    world_lock = threading.Lock()
    latencies: List[float] = []
    failed: List[BaseException] = []
    done = threading.Event()

    def repairer() -> None:
        try:
            for __ in range(n_repairs):
                moves = random_moves(
                    manager._shadow.current_db,
                    MOVE_FRACTION,
                    REGION,
                    max_distance=200.0,
                    seed=rng,
                )
                manager.ingest(moves)
                if double_buffered:
                    manager.advance()
                else:
                    with world_lock:
                        manager.advance()
                if done.wait(0.002):
                    return
        except BaseException as exc:  # surfaced by the caller
            failed.append(exc)

    thread = threading.Thread(target=repairer, daemon=True)
    thread.start()
    pause = 0.0005
    try:
        for i in range(n_requests):
            uid = users[int(rng.integers(len(users)))]
            started = time.perf_counter()
            if double_buffered:
                with manager.pin() as pin:
                    manager.serve_cloak(uid, pin)
            else:
                with world_lock:
                    with manager.pin() as pin:
                        manager.serve_cloak(uid, pin)
            latencies.append(time.perf_counter() - started)
            time.sleep(pause)
    finally:
        done.set()
        thread.join(timeout=30.0)
    if failed:
        raise failed[0]
    # The anonymity referee: the final epoch's cloaks must be
    # bit-identical to a from-scratch solve of its exact snapshot.
    oracle = {uid: cloak for uid, cloak in manager.oracle_policy().items()}
    active = {uid: cloak for uid, cloak in manager.active.policy.items()}
    stats = manager.stats()
    return {
        "mode": "swap" if double_buffered else "blackout",
        "requests": len(latencies),
        "p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "p99_ms": 1e3 * float(np.percentile(latencies, 99)),
        "max_ms": 1e3 * float(np.max(latencies)),
        "epochs_promoted": stats["promoted"],
        "moves_ingested": stats["ingested"],
        "bit_identical": active == oracle,
    }


# -- report assembly -----------------------------------------------------------


def build_churn_report(
    scale: str = "default", seed: int = 7
) -> Dict[str, object]:
    """Run both comparisons; returns the JSON-ready report."""
    if scale not in CHURN_SCALES:
        raise ReproError(
            f"unknown scale {scale!r} (expected one of {sorted(CHURN_SCALES)})"
        )
    params = CHURN_SCALES[scale]
    virtual_blackout = replay_churn_run("blackout", params, seed)
    virtual_swap = replay_churn_run("swap", params, seed)
    live_blackout = live_churn_run(False, params, seed)
    live_swap = live_churn_run(True, params, seed)
    gates = {
        # The swap path must strictly dominate: no latency regression,
        # no request ever waiting on a repair, and bit-identical cloaks.
        "virtual_swap_p99_within_blackout": (
            virtual_swap["p99_ms"] <= virtual_blackout["p99_ms"]
        ),
        "virtual_zero_repair_waits": virtual_swap["repair_waits"] == 0,
        "virtual_zero_oracle_mismatches": (
            virtual_swap["oracle_mismatches"] == 0
            and virtual_blackout["oracle_mismatches"] == 0
        ),
        "live_swap_p99_within_blackout": (
            live_swap["p99_ms"] <= live_blackout["p99_ms"]
        ),
        "live_bit_identical": bool(
            live_swap["bit_identical"] and live_blackout["bit_identical"]
        ),
    }
    return {
        "scale": scale,
        "seed": seed,
        "k": K,
        "move_fraction": MOVE_FRACTION,
        "virtual": {"blackout": virtual_blackout, "swap": virtual_swap},
        "live": {"blackout": live_blackout, "swap": live_swap},
        "gates": gates,
        "all_gates_pass": all(gates.values()),
    }


def render_churn_report(report: Dict[str, object]) -> str:
    """The human-readable half of the artifact."""
    virtual = report["virtual"]
    live = report["live"]
    lines = [
        f"== Churn report (scale={report['scale']}, "
        f"{100 * float(report['move_fraction']):g}% movement/snapshot, "
        f"k={report['k']}) ==",
        "",
        "-- virtual time: blackout vs double-buffered swap "
        "(real CSP + gateway; latencies are modelled waits) --",
    ]
    for row in (virtual["blackout"], virtual["swap"]):  # type: ignore[index]
        lines.append(
            f"{row['mode']:>9}: p50 {row['p50_ms']:.2f} ms, "
            f"p99 {row['p99_ms']:.2f} ms, "
            f"{row['repair_waits']} waited on repair, "
            f"{row['served_while_repairing']} served while repairing, "
            f"{row['oracle_mismatches']} oracle mismatches "
            f"({row['served']} served / {row['rejected']} rejected, "
            f"{row['snapshots']} snapshots)"
        )
    lines.append("")
    lines.append("-- live EpochManager: blackout twin vs epoch swap --")
    for row in (live["blackout"], live["swap"]):  # type: ignore[index]
        lines.append(
            f"{row['mode']:>9}: p50 {row['p50_ms']:.3f} ms, "
            f"p99 {row['p99_ms']:.3f} ms, max {row['max_ms']:.3f} ms "
            f"({row['requests']} requests, {row['epochs_promoted']} epochs "
            f"promoted, bit-identical: {row['bit_identical']})"
        )
    lines.append("")
    gates = report["gates"]
    for name, ok in gates.items():  # type: ignore[union-attr]
        lines.append(f"gate {name}: {'PASS' if ok else 'FAIL'}")
    lines.append(
        f"all gates: {'PASS' if report['all_gates_pass'] else 'FAIL'}"
    )
    return "\n".join(lines)


def write_churn_report(
    scale: str = "default",
    results_dir: str = "bench_results",
    seed: int = 7,
) -> Tuple[str, str]:
    """Build the report and write ``churn.json`` + ``churn.txt``."""
    report = build_churn_report(scale=scale, seed=seed)
    os.makedirs(results_dir, exist_ok=True)
    json_path = os.path.join(results_dir, "churn.json")
    txt_path = os.path.join(results_dir, "churn.txt")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    with open(txt_path, "w", encoding="utf-8") as handle:
        handle.write(render_churn_report(report) + "\n")
    return json_path, txt_path
