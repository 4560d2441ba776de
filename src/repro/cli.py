"""Command-line interface: ``python -m repro <command>``.

Operational front door for the library:

* ``generate``   — synthesize a location snapshot (the §VI recipe) to CSV;
* ``anonymize``  — bulk-anonymize a CSV snapshot into a policy JSON;
* ``audit``      — audit a saved policy against both attacker classes;
* ``cloak``      — look up one user's cloak in a saved policy;
* ``experiment`` — run one of the paper's tables/figures and print it;
* ``slo-report`` — the closed-loop SLO artifact (durability MTTR,
  capacity sweep on virtual time, wall-clock cross-validation);
* ``churn``      — the zero-blackout churn artifact (stop-the-world
  repair vs double-buffered epoch swap, virtual-time replay + live,
  oracle gates);
* ``trajectory`` — the linking-attack artifact (undefended erosion vs
  continuity-constrained cloaking, with audit and cost gates);
* ``fleet``      — serve a synthetic workload through the sharded
  gateway fleet and print per-worker stats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

from .attacks.audit import audit_policy
from .core.binary_dp import solve, solve_best_orientation
from .core.errors import ReproError
from .core.geometry import Rect
from .core.locationdb import LocationDatabase
from .core.serialization import (
    load_policy,
    read_locations_csv,
    save_policy,
    write_locations_csv,
)
from .data.synthetic import bay_area_master, sample_users
from .trees.binarytree import BinaryTree

__all__ = ["main", "build_parser", "enclosing_region"]

_EXPERIMENTS = {
    "table1": "run_table1",
    "fig3": "run_fig3",
    "fig4a": "run_fig4a",
    "fig4b": "run_fig4b",
    "fig5a": "run_fig5a",
    "fig5b": "run_fig5b",
    "sec6d": "run_sec6d",
    "fig6": "run_fig6",
    "thm1": "run_thm1",
    "ablate-dp": "run_ablation_dp",
    "sec7-cache": "run_sec7_cache",
}


def enclosing_region(db: LocationDatabase, margin: float = 1.0) -> Rect:
    """The smallest power-of-two square map containing every location.

    Quadrant boundaries stay exactly representable when the side is a
    power of two, so repeated halving never accumulates float error.
    """
    extent = db.extent()
    span = max(extent.width, extent.height, 1.0) + 2 * margin
    side = 2.0 ** math.ceil(math.log2(span))
    return Rect(
        extent.x1 - margin,
        extent.y1 - margin,
        extent.x1 - margin + side,
        extent.y1 - margin + side,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Policy-aware sender k-anonymity for LBS (ICDE 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="synthesize a location snapshot to CSV"
    )
    generate.add_argument("--users", type=int, required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--intersections",
        type=int,
        default=None,
        help="intersection count (default: users / 10)",
    )
    generate.add_argument("--out", required=True)

    anonymize = sub.add_parser(
        "anonymize", help="bulk-anonymize a CSV snapshot into a policy"
    )
    anonymize.add_argument("--locations", required=True)
    anonymize.add_argument("--k", type=int, required=True)
    anonymize.add_argument("--out", required=True)
    anonymize.add_argument(
        "--orientation",
        choices=("vertical", "horizontal", "best"),
        default="vertical",
    )
    anonymize.add_argument("--max-depth", type=int, default=40)

    audit = sub.add_parser("audit", help="audit a saved policy")
    audit.add_argument("--policy", required=True)
    audit.add_argument("--k", type=int, required=True)

    cloak = sub.add_parser("cloak", help="look up one user's cloak")
    cloak.add_argument("--policy", required=True)
    cloak.add_argument("--user", required=True)

    experiment = sub.add_parser(
        "experiment", help="run one paper table/figure"
    )
    experiment.add_argument("id", choices=sorted(_EXPERIMENTS))
    experiment.add_argument(
        "--chart",
        default=None,
        metavar="X:Y1[,Y2...]",
        help="also render an ASCII chart of the named columns",
    )

    report = sub.add_parser(
        "report", help="assemble recorded bench results into markdown"
    )
    report.add_argument(
        "--results-dir", default="bench_results",
        help="directory the benchmarks wrote their tables to",
    )
    report.add_argument("--out", default=None, help="write to file instead of stdout")

    verify = sub.add_parser(
        "verify-results",
        help="check recorded bench results against the paper's claims",
    )
    verify.add_argument("--results-dir", default="bench_results")

    slo = sub.add_parser(
        "slo-report",
        help="closed-loop SLO report: quorum durability MTTR, "
        "static-vs-adaptive capacity sweep on virtual time, "
        "wall-clock cross-validation",
    )
    slo.add_argument(
        "--scale",
        default="default",
        choices=("quick", "default", "full"),
        help="workload size (quick is CI-sized)",
    )
    slo.add_argument("--results-dir", default="bench_results")
    slo.add_argument("--seed", type=int, default=7)

    churn = sub.add_parser(
        "churn",
        help="churn report: stop-the-world blackout vs double-buffered "
        "epoch swap, virtual-time replay through the real CSP + live "
        "EpochManager, with oracle identity gates",
    )
    churn.add_argument(
        "--scale",
        default="default",
        choices=("quick", "default", "full"),
        help="workload size (quick is CI-sized)",
    )
    churn.add_argument("--results-dir", default="bench_results")
    churn.add_argument("--seed", type=int, default=7)

    trajectory = sub.add_parser(
        "trajectory",
        help="trajectory report: linking-attack erosion vs the "
        "continuity-constrained cloaking defense, served through the real "
        "CSP and gateway on virtual time, with closing audit gates",
    )
    trajectory.add_argument(
        "--scale",
        default="default",
        choices=("quick", "default", "full"),
        help="workload size (quick is CI-sized)",
    )
    trajectory.add_argument("--results-dir", default="bench_results")
    trajectory.add_argument("--seed", type=int, default=7)

    fleet = sub.add_parser(
        "fleet",
        help="serve a synthetic workload through the sharded gateway "
        "fleet and print per-worker stats",
    )
    fleet.add_argument("--users", type=int, default=400)
    fleet.add_argument("--requests", type=int, default=400)
    fleet.add_argument("--workers", type=int, default=2)
    fleet.add_argument("--k", type=int, default=20)
    fleet.add_argument(
        "--mode",
        choices=("process", "simulated"),
        default="process",
        help="real worker processes, or the share-nothing idealization",
    )
    fleet.add_argument("--rtt", type=float, default=0.01)
    fleet.add_argument("--seed", type=int, default=151)

    return parser


def _cmd_generate(args) -> int:
    intersections = args.intersections
    if intersections is None:
        intersections = max(args.users // 10, 1)
    __, master = bay_area_master(
        seed=args.seed, n_intersections=intersections
    )
    if args.users < len(master):
        db = sample_users(master, args.users, seed=args.seed)
    else:
        db = master
    write_locations_csv(db, args.out)
    print(f"wrote {len(db)} locations to {args.out}")
    return 0


def _cmd_anonymize(args) -> int:
    db = read_locations_csv(args.locations)
    region = enclosing_region(db)
    start = time.perf_counter()
    if args.orientation == "best":
        solution = solve_best_orientation(
            region, db, args.k, max_depth=args.max_depth
        )
    else:
        tree = BinaryTree.build(
            region, db, args.k,
            max_depth=args.max_depth, orientation=args.orientation,
        )
        solution = solve(tree, args.k)
    policy = solution.policy()
    elapsed = time.perf_counter() - start
    save_policy(policy, args.out)
    print(
        f"anonymized {len(db)} users (k={args.k}) in {elapsed:.2f}s; "
        f"cost {solution.optimal_cost:.6g} m², "
        f"avg cloak {policy.average_cloak_area():.6g} m²; "
        f"policy -> {args.out}"
    )
    return 0


def _cmd_audit(args) -> int:
    policy = load_policy(args.policy)
    report = audit_policy(policy, args.k)
    print(report.summary())
    return 0 if report.safe_policy_aware else 1


def _cmd_cloak(args) -> int:
    policy = load_policy(args.policy)
    region = policy.cloak_for(args.user)
    print(region)
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    runner = getattr(experiments, _EXPERIMENTS[args.id])
    table = runner()
    table.show()
    if args.chart:
        from .experiments.charts import chart_table

        x, __, y_spec = args.chart.partition(":")
        if not y_spec:
            raise ReproError("--chart expects X:Y1[,Y2...]")
        print()
        print(chart_table(table, x.strip(), [y.strip() for y in y_spec.split(",")]))
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import build_report

    text = build_report(args.results_dir)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify_results(args) -> int:
    from .experiments.expectations import verify_results

    results = verify_results(args.results_dir)
    failures = 0
    for result in results:
        marker = {"pass": "PASS", "fail": "FAIL", "missing": "----"}[result.status]
        line = f"[{marker}] {result.experiment_id}: {result.claim}"
        if result.detail:
            line += f"  ({result.detail})"
        print(line)
        failures += result.status == "fail"
    recorded = sum(r.status != "missing" for r in results)
    print(f"\n{recorded}/{len(results)} recorded, {failures} failing")
    return 1 if failures else 0


def _cmd_slo_report(args) -> int:
    from .experiments.slo import write_slo_report

    json_path, txt_path = write_slo_report(
        scale=args.scale, results_dir=args.results_dir, seed=args.seed
    )
    with open(txt_path, "r", encoding="utf-8") as handle:
        print(handle.read().rstrip())
    print(f"\nslo report -> {json_path}, {txt_path}")
    # Fail visibly if the closed loop's hard invariants did not hold.
    with open(json_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    durability = report["durability"]
    healthy = (
        durability["bit_identical"]
        and durability["quorum_loss_fails_closed"]
        and report["controller_invariant"]["adaptive_subset_of_static"]
    )
    return 0 if healthy else 1


def _cmd_churn(args) -> int:
    from .experiments.churn import write_churn_report

    json_path, txt_path = write_churn_report(
        scale=args.scale, results_dir=args.results_dir, seed=args.seed
    )
    with open(txt_path, "r", encoding="utf-8") as handle:
        print(handle.read().rstrip())
    print(f"\nchurn report -> {json_path}, {txt_path}")
    # Fail visibly when the zero-blackout gates did not hold.
    with open(json_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return 0 if report["all_gates_pass"] else 1


def _cmd_trajectory(args) -> int:
    from .experiments.trajectory import write_trajectory_report

    json_path, txt_path = write_trajectory_report(
        scale=args.scale, results_dir=args.results_dir, seed=args.seed
    )
    with open(txt_path, "r", encoding="utf-8") as handle:
        print(handle.read().rstrip())
    print(f"\ntrajectory report -> {json_path}, {txt_path}")
    # Fail visibly when the defense (or the attack baseline) gates broke.
    with open(json_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return 0 if report["all_gates_pass"] else 1


def _cmd_fleet(args) -> int:
    from .data import uniform_users
    from .lbs import LBSProvider, generate_pois
    from .serving import FleetConfig, GatewayConfig, run_fleet

    region = Rect(0, 0, 16384, 16384)
    db = uniform_users(args.users, region, seed=args.seed)
    provider = LBSProvider(
        generate_pois(
            region, {"rest": 120, "groc": 80, "fuel": 40}, seed=args.seed + 1
        )
    )
    users = db.user_ids()
    categories = ("rest", "groc", "fuel")
    workload = [
        (users[i % len(users)], [("poi", categories[i % len(categories)])])
        for i in range(args.requests)
    ]
    config = FleetConfig(
        n_workers=args.workers,
        mode=args.mode,
        gateway=GatewayConfig(rtt=args.rtt),
    )
    results, stats = run_fleet(
        region, args.k, db, provider, workload, config
    )
    failed = sum(1 for r in results if isinstance(r, Exception))
    totals = stats.totals
    print(
        f"fleet: {args.workers} worker(s), mode={args.mode}, "
        f"k={args.k}, rtt={args.rtt * 1000:g}ms"
    )
    for i, (per, seconds, share) in enumerate(
        zip(stats.per_worker, stats.per_worker_seconds,
            stats.per_worker_requests)
    ):
        print(
            f"  worker {i}: {share} routed, {per.served} served, "
            f"{per.coalesced} coalesced, {per.provider_rounds} rounds, "
            f"{seconds:.3f}s"
        )
    wall = stats.wall_seconds
    rate = totals.served / wall if wall > 0 else float("inf")
    print(
        f"  total: {totals.served} served, {failed} failed, "
        f"{totals.coalesced} coalesced, imbalance "
        f"{stats.imbalance:.2f}, respawns {stats.respawns}; "
        f"wall {wall:.3f}s ({rate:.0f} req/s)"
    )
    return 0 if failed == 0 else 1


_HANDLERS = {
    "generate": _cmd_generate,
    "anonymize": _cmd_anonymize,
    "audit": _cmd_audit,
    "cloak": _cmd_cloak,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "verify-results": _cmd_verify_results,
    "slo-report": _cmd_slo_report,
    "churn": _cmd_churn,
    "trajectory": _cmd_trajectory,
    "fleet": _cmd_fleet,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # Output was piped into something like `head` that closed early.
        # Must precede OSError handling — BrokenPipeError is a subclass.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
