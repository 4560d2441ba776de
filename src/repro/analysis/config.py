"""Analyzer configuration: sources, sinks, launder APIs, and scopes.

The defaults encode *this* repository's trust perimeter (see DESIGN.md
§9): raw locations originate at the MPC/location database, may only
cross to the provider after laundering through the policy/anonymizer
APIs, exception handlers in the serving layers must ride the fail-closed
ladder, the async gateway must never block its loop, and the DP kernels
must stay bit-identical across engines and restores.

New sinks and sources should be added here (or tagged inline with
``# taint: location`` at the defining assignment) rather than special-
cased inside the rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

__all__ = ["AnalysisConfig", "DEFAULT_CONFIG"]


def _fs(*items: str) -> FrozenSet[str]:
    return frozenset(items)


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable knobs of all rule families."""

    # -- privacy taint (PA) --------------------------------------------------

    #: method/function names whose return value is a raw location.
    taint_source_calls: FrozenSet[str] = _fs("locate", "location_of")
    #: attribute names that carry raw-location taint on any receiver.
    tainted_fields: FrozenSet[str] = _fs(
        "location", "request", "locx", "locy", "_coords"
    )
    #: constructors whose result *is* a raw-location carrier.
    taint_constructors: FrozenSet[str] = _fs("ServiceRequest")
    #: constructors producing containers that hold a tainted field next
    #: to clean ones (field-sensitive: only ``tainted_fields`` project
    #: taint back out of them).
    partial_constructors: FrozenSet[str] = _fs(
        "PreparedRequest", "ServedRequest"
    )
    #: calls that launder a raw location into a policy-aware cloak.
    #: ``halving_chain``/``ancestor_cloak`` are the coarsening ladder:
    #: their results are tree ancestors of a cloak, never raw points.
    launder_calls: FrozenSet[str] = _fs(
        "anonymize", "cloak_for", "cloak_of", "halving_chain", "ancestor_cloak"
    )
    #: wire-format constructors: a tainted argument here IS the leak.
    wire_constructors: FrozenSet[str] = _fs("AnonymizedRequest")
    #: provider-facing call names (the trust perimeter).
    sink_calls: FrozenSet[str] = _fs("serve", "serve_many", "serve_round", "fetch")
    #: provider-facing class constructors (tainted ctor args leak).
    sink_constructors: FrozenSet[str] = _fs(
        "AsyncProviderClient", "CoalescingBatcher", "FaultInjectingAsyncClient"
    )
    #: observability sinks: logging a raw location is a leak too.
    log_call_names: FrozenSet[str] = _fs("print")
    log_method_names: FrozenSet[str] = _fs(
        "debug", "info", "warning", "error", "critical", "exception", "log"
    )
    #: parameter names assumed tainted on entry (interprocedural seed).
    taint_param_names: FrozenSet[str] = _fs("location", "service_request")
    #: names too generic for cross-module call summaries (dict methods
    #: and the like) — summary lookups skip them to avoid collisions.
    generic_names: FrozenSet[str] = _fs(
        "items", "keys", "values", "get", "copy", "pop", "update",
        "append", "add", "close", "flush",
    )

    # -- fail-closed exception discipline (FC) -------------------------------

    #: path fragments where every handler must re-raise or degrade.
    failclosed_scope: Tuple[str, ...] = ("lbs/", "serving/")
    #: calls that count as propagating/degrading inside a handler.
    #: ``_send_failure`` is the fleet worker's cross-process analogue of
    #: ``Future.set_exception`` (typed error fan-out over the pipe).
    degrade_calls: FrozenSet[str] = _fs(
        "set_exception", "record_failure", "cancel", "fire", "_send_failure"
    )
    #: constructors that count as entering the degradation ladder.
    degrade_constructors: FrozenSet[str] = _fs(
        "DegradationEvent", "ServiceUnavailableError"
    )
    #: exception names a handler may swallow outright (cancellation is a
    #: caller decision — a cancelled request returns nothing, so it can
    #: never return an uncloaked response).
    swallow_exempt_exceptions: FrozenSet[str] = _fs(
        "CancelledError", "GeneratorExit", "StopIteration", "StopAsyncIteration"
    )

    # -- async-safety (AS) ---------------------------------------------------

    #: path fragments whose ``async def`` bodies must not block the loop.
    async_scope: Tuple[str, ...] = ("serving/", "robustness/aio.py", "lbs/cache.py")
    #: fully-resolved dotted calls that block the event loop.
    blocking_calls: FrozenSet[str] = _fs(
        "time.sleep",
        "os.system",
        "socket.create_connection",
        "urllib.request.urlopen",
    )
    #: dotted prefixes that block (whole modules).
    blocking_prefixes: Tuple[str, ...] = ("subprocess.", "requests.")
    #: bare names that block (sync file I/O, sync retry loop, stdin).
    blocking_names: FrozenSet[str] = _fs("open", "input", "retry_call")
    #: method names that block regardless of receiver (``.result()`` on
    #: an executor future, pathlib file I/O).
    blocking_methods: FrozenSet[str] = _fs(
        "result", "write_text", "read_text", "write_bytes", "read_bytes"
    )
    #: context-manager expression fragment that looks like a lock; an
    #: ``await`` inside a loop inside such a ``with`` stalls every other
    #: holder for the whole loop.
    lockish_pattern: str = r"(?i)(lock|sem\b|_sem\b|sem\(|semaphore|mutex)"

    # -- determinism (DT) ----------------------------------------------------

    #: path fragments of the bit-identical DP kernels.
    dp_kernel_scope: Tuple[str, ...] = (
        "core/bulk_dp.py",
        "core/binary_dp.py",
        "core/flat_dp.py",
        "trees/flat.py",
    )
    #: dotted names forbidden in kernels: wall clocks.
    wallclock_calls: FrozenSet[str] = _fs(
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.sleep",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    )
    #: dotted prefixes forbidden in kernels: unseeded randomness.
    random_prefixes: Tuple[str, ...] = ("random.", "numpy.random.", "secrets.")
    #: members of ``numpy.random`` that are fine (seeded factories —
    #: still checked for an explicit seed argument).
    seeded_factories: FrozenSet[str] = _fs(
        "default_rng", "Generator", "SeedSequence", "PCG64", "Philox"
    )
    #: other nondeterministic dotted calls (process-unique identity).
    nondeterministic_calls: FrozenSet[str] = _fs("uuid.uuid4", "os.urandom")

    # -- resource safety (RS) ------------------------------------------------

    #: path fragments where kernel-backed resource creation is audited.
    resource_scope: Tuple[str, ...] = (
        "trees/", "serving/", "parallel/", "lbs/"
    )
    #: constructors that acquire a named kernel resource needing release.
    resource_constructors: FrozenSet[str] = _fs("SharedMemory")
    #: attribute calls that count as releasing such a resource.
    resource_release_calls: FrozenSet[str] = _fs("close", "unlink")

    # -- epoch integrity (EP) ------------------------------------------------

    #: path fragments allowed to mutate flat-tree arrays: compilation
    #: (``trees/``) and the double-buffered shadow repair that the next
    #: epoch swap republishes (``streaming/``).
    epoch_owner_scope: Tuple[str, ...] = ("trees/", "streaming/")
    #: attribute names of the flat-tree array blocks (structure and
    #: standalone payload) whose element stores EP001 audits.
    epoch_array_fields: FrozenSet[str] = _fs(
        "ids", "left", "right", "count", "area", "depth", "level_offsets",
        "rects", "leaf_ptr", "leaf_rows", "user_ids", "tree_rows",
    )

    # -- trajectory-ledger ownership (TJ) ------------------------------------

    #: path fragments allowed to mutate trajectory-ledger structures —
    #: the defense package itself.
    trajectory_owner_scope: Tuple[str, ...] = ("trajectory/",)
    #: attribute names of the ledger's state structures whose stores,
    #: rebinds, and mutating calls TJ001 audits.
    trajectory_state_fields: FrozenSet[str] = _fs(
        "_traj_ids", "_traj_index", "_traj_surviving", "_traj_row",
        "_traj_users", "_traj_count", "_traj_serial", "_traj_cloak",
        "_traj_candidates", "_traj_widened",
    )

    # -- lockset concurrency (CC) --------------------------------------------

    #: path fragments where the ``# guarded-by:`` lockset discipline
    #: (CC001–CC003) is enforced — every layer holding cross-thread
    #: mutable state.
    concurrency_scope: Tuple[str, ...] = (
        "trajectory/", "streaming/", "serving/", "lbs/", "robustness/"
    )
    #: expression fragment that marks a context manager / receiver as a
    #: lock for the lockset analysis (broader than the AS heuristic:
    #: condition variables count — ``with self._cv:`` holds the lock).
    concurrency_lockish: str = (
        r"(?i)(lock|_cv\b|_sem\b|semaphore|mutex|condition)"
    )

    # -- shared --------------------------------------------------------------

    #: directories never scanned.
    exclude_parts: FrozenSet[str] = _fs("__pycache__", ".git", ".venv")

    def in_scope(self, relpath: str, fragments: Tuple[str, ...]) -> bool:
        """Whether ``relpath`` (posix, relative) matches any fragment."""
        normalized = relpath.replace("\\", "/")
        return any(frag in normalized for frag in fragments)


#: The repository's default configuration.
DEFAULT_CONFIG = AnalysisConfig()
