"""Extension benchmark: the §VII deployment story, end to end.

Replays a Poisson workload with periodic snapshot repairs through the
real CSP and async gateway on virtual time, next to the PIR cost model,
to regenerate the paper's feasibility comparison: milliseconds per
cloaked query versus seconds per query for cryptographic PIR — the
"three orders of magnitude" claim, with the answer cache's LBS-offload
quantified.  Virtual time charges no CPU: the cloaking latencies are
modelled waits (batching window plus the 2 ms provider round).
"""

import pytest

from repro.baselines import PIRCostModel
from repro.data import uniform_users
from repro.core.geometry import Rect
from repro.experiments import Table
from repro.experiments.replay import replay_schedule
from repro.lbs import CSP, LBSProvider, generate_pois, trajectory_schedule

from conftest import run_once

N_POIS = 10_000


def _run_des():
    region = Rect(0, 0, 65_536, 65_536)
    db = uniform_users(2_000, region, seed=29)
    table = Table(
        "§VII deployment — serving replayed on virtual time vs the PIR "
        "cost model",
        [
            "system",
            "mean_latency_s",
            "p99_latency_s",
            "throughput_qps",
            "lbs_load_fraction",
        ],
    )
    schedule = trajectory_schedule(
        db,
        0.02,
        region,
        rate_per_user=0.05,
        duration=120.0,
        snapshot_period=30.0,
        seed=5,
    )
    provider = LBSProvider(
        generate_pois(region, {"rest": 60, "groc": 40, "cinema": 30}, seed=6)
    )
    for label, use_cache in (("cloaking+cache", True), ("cloaking", False)):
        csp = CSP(region, 25, db, provider, use_cache=use_cache)
        run = replay_schedule(csp, schedule)
        served = len(run.served)
        table.add(
            system=label,
            mean_latency_s=run.mean_latency,
            p99_latency_s=run.latency_percentile(99),
            throughput_qps=served / schedule.duration,
            lbs_load_fraction=run.stats.provider_queries / served,
        )
    pir = PIRCostModel()
    for servers in (1, 8):
        latency = pir.seconds_per_query(N_POIS, servers)
        table.add(
            system=f"PIR×{servers} [15]",
            mean_latency_s=latency,
            p99_latency_s=latency,
            throughput_qps=pir.throughput(N_POIS, servers),
            lbs_load_fraction=1.0,
        )
    return table


def test_des_throughput_vs_pir(benchmark, record_table):
    table = run_once(benchmark, _run_des)
    record_table("sec7_des", table)
    rows = {r["system"]: r for r in table.rows}
    cloaked = rows["cloaking+cache"]
    pir1 = rows["PIR×1 [15]"]
    # Milliseconds vs seconds: ≥ 3 orders of magnitude in mean latency.
    assert pir1["mean_latency_s"] / cloaked["mean_latency_s"] > 100
    # The cache strictly offloads the LBS.
    assert (
        cloaked["lbs_load_fraction"] < rows["cloaking"]["lbs_load_fraction"]
    )
