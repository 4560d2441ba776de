"""Async serving gateway: admission control, one keyed batcher (answer
store, single-flight coalescing, provider rounds), and a pooled
non-blocking LBS provider client in front of the synchronous CSP (the
sync path stays the bit-identical oracle)."""

from .admission import AdmissionConfig, AdmissionController
from .aio_provider import AsyncProviderClient, ClientStats, PooledConnection
from .batcher import BatcherStats, CoalescingBatcher
from .fleet import (
    FleetConfig,
    FleetDispatcher,
    FleetStats,
    HashRing,
    merge_gateway_stats,
    run_fleet,
)
from .gateway import (
    AsyncGateway,
    GatewayConfig,
    GatewayStats,
    run_gateway,
    run_gateway_scheduled,
    serve_scheduled,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AsyncGateway",
    "AsyncProviderClient",
    "BatcherStats",
    "ClientStats",
    "CoalescingBatcher",
    "FleetConfig",
    "FleetDispatcher",
    "FleetStats",
    "GatewayConfig",
    "GatewayStats",
    "HashRing",
    "PooledConnection",
    "merge_gateway_stats",
    "run_fleet",
    "run_gateway_scheduled",
    "serve_scheduled",
]
