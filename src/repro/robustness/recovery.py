"""Crash-consistent persistence of CSP anonymization state.

The paper's CSP computes one policy per location-database snapshot and
serves from it for the snapshot's lifetime (§II-A, §VII).  Operationally
that policy *is* the CSP's state: losing it on a restart forces a full
``Bulk_dp`` re-run while requests queue.  This module makes the
(policy, db-serial) pair durable with the classic write-ahead recipe:

1. the commit's **arrays file** (and DP sidecar, if any) is written to a
   temporary file and atomically renamed into place;
2. an **intent** record is appended (and fsync'd) to an append-only
   journal, naming the snapshot document and its content checksum;
3. the snapshot document's bytes, encoded once per commit
   (:meth:`PolicyJournal.encode`) and shared by every quorum replica,
   are written and atomically renamed into place;
4. a **commit** record is appended and fsync'd.

A reader therefore never observes a torn snapshot: a crash between (2)
and (4) leaves an intent without a commit, which recovery skips, falling
back to the previous committed serial.  Anything *else* that fails
validation — a journal line corrupted in the middle of the history, a
committed snapshot whose checksum no longer matches, an embedded serial
disagreeing with the journal, an engine fingerprint from a different
deployment — is storage corruption, not a crash, and recovery **fails
closed** with :class:`~repro.core.errors.RecoveryError` rather than
serve state it cannot prove it journalled.

The document is a small canonical-JSON header: format, version, serial,
engine fingerprint, policy name, the serving ``state`` block
(``policy_age``, ``rung``), the ``dp`` sidecar block and the name and
blake2b of the commit's ``snapshot-NNNNNN.arrays.npz``.  That file is
an uncompressed ``np.savez`` of raw arrays, never unpickled:

* the policy as rows — ``policy/ids`` (the user ids as UTF-8 JSON bytes
  in a ``uint8`` array), ``policy/coords`` (``(n, 2)`` float64
  locations), ``policy/group`` (``int32`` cloak index per row) and
  ``policy/boxes`` (``(m, 4)`` float64, one box per distinct cloak
  object);
* with the trajectory defense on, the ledger's
  :meth:`~repro.trajectory.ledger.TrajectoryLedger.to_state` arrays
  under ``trajectory/`` keys.

Restore rebuilds the snapshot from the rows and the policy through
:meth:`~repro.core.policy.CloakingPolicy.from_rows`, so Definition 4 is
re-checked on load: even a checksum-colliding forgery cannot smuggle in
a non-masking policy, and any file that does not rebuild — torn,
altered, from another commit, with object arrays, bad shapes, duplicate
ids or a non-masking row — fails the restore closed.

Alongside the policy, a committed snapshot may carry a **DP sidecar**:
the flat engine's per-node cost vectors (an uncompressed ``.npz``).  On
restore the (deterministic) tree is rebuilt from the journalled
locations, compiled to flat arrays, and — if the structural digest
matches — the vectors are rehydrated into a full
:class:`~repro.core.flat_dp.FlatTreeSolution`, so the next snapshot
repairs forward through ``resolve_dirty_flat`` instead of re-running
bulk anonymization.  The sidecar is a pure performance artifact: if it
is missing or fails validation the restore proceeds *cold* (the
recovered policy still serves; the first repair is one bulk solve) —
privacy never depends on it.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import operator
import os
import time
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import RecoveryError, ReproError
from ..core.geometry import Rect
from ..core.locationdb import LocationDatabase
from ..core.policy import CloakingPolicy
from ..core.serialization import (
    atomic_write_bytes,
    canonical_dumps,
    decode_ids,
    encode_ids,
    file_checksum,
)

__all__ = [
    "EncodedCommit",
    "PolicyJournal",
    "QuorumJournal",
    "QuorumRecoveryReport",
    "RecoveredSnapshot",
    "SOLVER_FINGERPRINT",
    "flat_structure_digest",
    "rehydrate_flat_solution",
]

#: the solver settings behind every journalled policy.  Journals written
#: by ``CSP`` and ``EpochManager`` carry them in their fingerprint, and
#: both restore paths require them, so a journal naming another engine
#: or prune setting fails closed.
SOLVER_FINGERPRINT: Dict[str, object] = {"engine": "flat", "prune": True}

_FORMAT = "repro-snapshot"
#: 3: the policy and the ledger are rows in one ``.arrays.npz`` (2: the
#: policy as per-user JSON in the document, the ledger in ``.ledger.npz``).
_VERSION = 3
_JOURNAL_FILE = "journal.log"
#: the arrays-file key prefix of the trajectory ledger's state.
_LEDGER_PREFIX = "trajectory/"
_XY = operator.attrgetter("x", "y")
_BOX = operator.attrgetter("x1", "y1", "x2", "y2")


def flat_structure_digest(flat, k: int, prune: bool) -> str:
    """Digest of a flat tree's *structure* (shape, counts, areas).

    Binds a DP sidecar to the exact tree it was computed for: a restored
    process recompiles the tree from the journalled locations and only
    adopts the persisted vectors when this digest matches, since vectors
    indexed against a different level-major layout would be garbage.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{k}|{int(prune)}|{flat.n_nodes}".encode())
    for arr in (flat.ids, flat.left, flat.right, flat.count, flat.depth):
        digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(flat.area, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _check_keep_last(keep_last: Optional[int]) -> None:
    if keep_last is not None and keep_last < 1:
        raise RecoveryError(
            f"keep_last must be ≥ 1 (got {keep_last}); retaining "
            "zero snapshots would make every restore fail",
            reason="corrupt",
        )


def _check_stale(policy_age: int, serial: int, current_serial: Optional[int], bound: int) -> None:
    """Fail closed on a policy past the stale rung.

    Effective staleness is the distance from the world, or — when the
    world serial is unknown — the staleness the committer had already
    accumulated when it journalled the state block.  Both are bounded:
    restoring past the stale rung would resume a deployment that was (or
    should have been) rejecting.
    """
    behind = policy_age
    if current_serial is not None:
        behind = max(behind, current_serial - serial)
    if behind > bound:
        raise RecoveryError(
            f"recovered policy is {behind} snapshots behind the current "
            f"db (bound {bound}); rejecting fail-closed",
            reason="stale",
        )


def _digest(payload: bytes) -> str:
    """Content checksum of raw bytes (hex blake2b-128), the same digest
    :func:`~repro.core.serialization.checksum_of` gives a document."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _policy_arrays(policy: CloakingPolicy) -> Dict[str, np.ndarray]:
    """``policy`` as rows, in its insertion order: ids, locations, the
    cloak index of each row and one box per distinct cloak object.

    Raises :class:`ReproError` for a cloak that is not a ``Rect``; no
    journalling caller produces one.
    """
    cloaks = dict(policy.items())
    ids = list(cloaks)
    keys = list(map(id, cloaks.values()))
    # Distinct cloak objects in order of first use; keyed by identity,
    # so equal-but-distinct rectangles keep their own boxes.
    distinct = dict(zip(keys, cloaks.values()))
    for region in distinct.values():
        if not isinstance(region, Rect):
            user_id = ids[keys.index(id(region))]
            raise ReproError(
                f"cannot journal user {user_id!r}'s cloak {region!r}: "
                "the journal stores rectangles only"
            )
    slot_of = dict(zip(distinct, range(len(distinct))))
    located = dict(policy.db.items())
    return {
        "policy/ids": encode_ids(ids),
        "policy/coords": np.fromiter(
            chain.from_iterable(map(_XY, map(located.__getitem__, ids))),
            dtype=np.float64,
            count=2 * len(ids),
        ).reshape(-1, 2),
        "policy/group": np.fromiter(
            map(slot_of.__getitem__, keys), dtype=np.int32, count=len(keys)
        ),
        "policy/boxes": np.array(
            list(map(_BOX, distinct.values())), dtype=np.float64
        ).reshape(-1, 4),
    }


def _policy_from_arrays(arrays: Mapping[str, np.ndarray], name: str) -> CloakingPolicy:
    """The policy :func:`_policy_arrays` wrote, masking re-checked.

    Raises ``ValueError``/``KeyError`` on arrays of the wrong kind and
    :class:`ReproError` on ids that do not decode, duplicate ids, a
    degenerate box, group indices out of range or a row outside its
    cloak.
    """
    ids = decode_ids(arrays["policy/ids"], "the policy's ids")
    coords = arrays["policy/coords"]
    group = arrays["policy/group"]
    boxes = arrays["policy/boxes"]
    if (
        coords.dtype != np.float64 or coords.shape != (len(ids), 2)
        or group.dtype != np.int32
        or boxes.dtype != np.float64 or boxes.ndim != 2 or boxes.shape[1] != 4
    ):
        raise ValueError(
            f"policy rows disagree: {len(ids)} ids, coords {coords.dtype} "
            f"{coords.shape}, groups {group.dtype} {group.shape}, boxes "
            f"{boxes.dtype} {boxes.shape}"
        )
    db = LocationDatabase(zip(ids, coords[:, 0].tolist(), coords[:, 1].tolist()))
    rects = [Rect(*box) for box in boxes.tolist()]
    return CloakingPolicy.from_rows(ids, coords, group, rects, db, name=name)


@dataclass(frozen=True)
class EncodedCommit:
    """One commit's bytes (:meth:`PolicyJournal.encode`), written as they
    are to every journal that receives it."""

    serial: int
    #: the snapshot document (its header) in canonical JSON.
    document: bytes = field(repr=False)
    #: digest of ``document`` — what the intent record names.
    checksum: str
    #: the ``.arrays.npz`` bytes: the policy's rows and, with the
    #: trajectory defense on, the ledger's arrays.
    arrays: bytes = field(repr=False)
    #: the DP sidecar's ``.npz`` bytes, ``None`` for a policy alone.
    sidecar: Optional[bytes] = field(default=None, repr=False)


@dataclass(frozen=True)
class RecoveredSnapshot:
    """Everything recovery could prove about the last committed state."""

    policy: CloakingPolicy
    serial: int
    fingerprint: Dict[str, object]
    #: flat-engine cost vectors (level-major), when the DP sidecar
    #: validated — ``None`` means cold restore (serving still works).
    dp_vecs: Optional[List[np.ndarray]] = field(default=None, repr=False)
    #: structural digest the sidecar was computed against.
    dp_structure: Optional[str] = None
    #: the journalled flat layout ``(ids, left, right)`` — lets restore
    #: relabel the rebuilt tree's node ids to the pre-crash ids, since
    #: incremental maintenance assigns ids in a history-dependent order.
    dp_layout: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    #: the journal ended in a partial line (crash mid-append) that was
    #: safely discarded.
    torn_tail: bool = False
    #: the journalled content checksum of the recovered snapshot — the
    #: identity quorum recovery votes on (same serial + same checksum
    #: means bit-identical committed state).
    checksum: Optional[str] = None
    #: accumulated staleness at commit time: how many snapshots the
    #: committed policy was already behind the world when it was last
    #: journalled.  A restore that ignored this would resume serving a
    #: stale policy as if fresh — the silent-staleness-reset bug the
    #: persisted state block exists to prevent.
    policy_age: int = 0
    #: the degradation rung the committer was serving on ("fresh",
    #: "stale", "recovered", ...) when the state was journalled.
    rung: str = "fresh"
    #: serialized :class:`~repro.trajectory.ledger.TrajectoryLedger`
    #: state, when the committer ran the trajectory-continuity defense —
    #: a restore that dropped it would let post-restart cloak choices
    #: forget served history and erode linked anonymity below k.
    trajectory: Optional[Dict[str, np.ndarray]] = field(
        default=None, repr=False
    )


def _relabel_tree(tree, ids, left, right) -> bool:
    """Relabel ``tree``'s node ids to the journalled flat layout.

    The rebuilt tree's *geometry* is a pure function of the journalled
    locations (the lazy split invariant), but its node *ids* are fresh
    construction-order labels, while the pre-crash tree carried
    history-dependent ids from incremental re-splits — and
    ``FlatTree.compile`` breaks level ties by id, so the persisted
    vectors are ordered by the old labels.  Walking the journalled
    ``(left, right)`` topology and the rebuilt tree in lockstep from the
    root re-assigns the journalled id to each geometric position.
    Returns ``False`` (tree untouched) when the shapes disagree.
    """
    n = len(ids)
    if len(tree.nodes) != n:
        return False
    mapping = {}
    stack = [(0, tree.root)]
    while stack:
        pos, node = stack.pop()
        if pos in mapping or not 0 <= pos < n:
            return False
        mapping[pos] = node
        child_l, child_r = int(left[pos]), int(right[pos])
        if (child_l == -1) != node.is_leaf or (child_r == -1) != node.is_leaf:
            return False
        if child_l != -1:
            if len(node.children) != 2:
                return False
            stack.append((child_l, node.children[0]))
            stack.append((child_r, node.children[1]))
    if len(mapping) != n or len({int(i) for i in ids}) != n:
        return False
    new_nodes = {}
    for pos, node in mapping.items():
        node.node_id = int(ids[pos])
        new_nodes[node.node_id] = node
    tree.nodes = new_nodes
    tree._next_id = max(new_nodes) + 1
    return True


def rehydrate_flat_solution(tree, snapshot: RecoveredSnapshot, k: int, prune: bool = True):
    """Warm-start the DP from a recovered sidecar, or ``None`` to go cold.

    ``tree`` is the object tree rebuilt from the recovered snapshot's
    locations; when the sidecar carries the journalled layout the tree's
    node ids are relabelled in place to the pre-crash ids (see
    :func:`_relabel_tree`).  Returns a full
    :class:`~repro.core.flat_dp.FlatTreeSolution` (memo and fingerprints
    re-derived, so incremental repair behaves exactly as before the
    crash) when the sidecar matches the rebuilt structure; ``None``
    otherwise — a correctness-neutral fallback.
    """
    if snapshot.dp_vecs is None or snapshot.dp_structure is None:
        return None
    from ..core.flat_dp import is_binary_tree, rehydrate_solution
    from ..trees.flat import FlatTree

    if not is_binary_tree(tree):
        return None
    if snapshot.dp_layout is not None:
        ids, left, right = snapshot.dp_layout
        if not _relabel_tree(tree, ids, left, right):
            return None
    flat = FlatTree.compile(tree)
    if flat_structure_digest(flat, k, prune) != snapshot.dp_structure:
        return None
    if len(snapshot.dp_vecs) != flat.n_nodes:
        return None
    return rehydrate_solution(tree, flat, snapshot.dp_vecs, k, prune)


class PolicyJournal:
    """A write-ahead journal of committed (policy, db-serial) snapshots.

    One journal directory serves one CSP deployment.  ``commit`` is
    crash-consistent (see the module docstring); ``recover`` returns the
    newest snapshot whose commit record and content checksum both
    validate, failing closed on any sign of corruption.

    ``keep_last`` bounds disk for long-lived deployments: after every
    commit the journal retains only the newest ``keep_last`` committed
    serials — older snapshot/sidecar files are deleted and the log is
    compacted to just the surviving intent/commit pairs (see
    :meth:`prune`).  Recovery needs exactly one committed serial, so any
    ``keep_last ≥ 1`` preserves restartability; restores that *require*
    a pruned serial (e.g. a ``current_serial`` bound that only an older
    snapshot could satisfy) fail closed exactly like any other missing
    state.
    """

    def __init__(self, root: str, keep_last: Optional[int] = None):
        _check_keep_last(keep_last)
        self.root = str(root)
        self.keep_last = keep_last
        os.makedirs(self.root, exist_ok=True)
        self._journal_path = os.path.join(self.root, _JOURNAL_FILE)

    # -- writing -------------------------------------------------------------

    def _append(self, record: Mapping[str, object]) -> None:
        with open(self._journal_path, "a", encoding="utf-8") as handle:
            handle.write(canonical_dumps(dict(record)) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    @staticmethod
    def _snapshot_file(serial: int) -> str:
        return f"snapshot-{serial:06d}.json"

    @staticmethod
    def _sidecar_file(serial: int) -> str:
        return f"snapshot-{serial:06d}.npz"

    @staticmethod
    def _arrays_file(serial: int) -> str:
        return f"snapshot-{serial:06d}.arrays.npz"

    def _artifacts(self, serial: int) -> Tuple[str, str, str]:
        return (
            self._snapshot_file(serial),
            self._sidecar_file(serial),
            self._arrays_file(serial),
        )

    def commit(
        self,
        policy: Union[CloakingPolicy, EncodedCommit],
        serial: Optional[int] = None,
        fingerprint: Optional[Mapping[str, object]] = None,
        solution=None,
        state: Optional[Mapping[str, object]] = None,
        _chaos: Optional[Callable[[str], None]] = None,
    ) -> str:
        """Durably commit one (policy, db-serial) pair; returns its checksum.

        ``policy`` is a policy to :meth:`encode` with the other
        arguments, or an :class:`EncodedCommit` written as it is.
        ``_chaos`` is the quorum layer's destruction hook: it is called
        with ``"intent"`` after the intent record is durable and with
        ``"snapshot"`` after the snapshot document is renamed into
        place, so a chaos schedule can destroy this replica's media at
        exactly those points (see
        :class:`~repro.robustness.chaos.ReplicaKillPlan`).
        """
        encoded = policy if isinstance(policy, EncodedCommit) else self.encode(
            policy, serial, fingerprint, solution, state  # type: ignore[arg-type]
        )
        for name, payload in (
            (self._sidecar_file(encoded.serial), encoded.sidecar),
            (self._arrays_file(encoded.serial), encoded.arrays),
        ):
            if payload is not None:
                atomic_write_bytes(os.path.join(self.root, name), payload)
        snapshot_name = self._snapshot_file(encoded.serial)
        self._append(
            {
                "op": "intent",
                "serial": encoded.serial,
                "file": snapshot_name,
                "checksum": encoded.checksum,
            }
        )
        if _chaos is not None:
            _chaos("intent")
        atomic_write_bytes(
            os.path.join(self.root, snapshot_name), encoded.document
        )
        if _chaos is not None:
            _chaos("snapshot")
        self._append({"op": "commit", "serial": encoded.serial})
        if self.keep_last is not None:
            self.prune(self.keep_last)
        return encoded.checksum

    @classmethod
    def encode(
        cls,
        policy: CloakingPolicy,
        serial: int,
        fingerprint: Mapping[str, object],
        solution=None,
        state: Optional[Mapping[str, object]] = None,
    ) -> EncodedCommit:
        """Build one commit's bytes, once, for any number of journals.

        The policy becomes rows in the ``.arrays.npz`` file the document
        names with its checksum; a cloak that is not a ``Rect`` raises
        :class:`ReproError` before any byte is written.  ``solution``
        may be a flat-engine
        :class:`~repro.core.flat_dp.FlatTreeSolution`, in which case its
        cost vectors are persisted as the DP sidecar enabling warm
        restarts; any other value (or ``None``) commits the policy alone.
        ``state`` is the committer's serving state —
        ``{"policy_age": int, "rung": str}`` — journalled inside the
        checksummed document so a restore inherits accumulated staleness
        instead of silently resetting to fresh.  Its ``"trajectory"``
        entry, a ledger's :meth:`~repro.trajectory.ledger.TrajectoryLedger.
        to_state` arrays, joins the arrays file under ``trajectory/`` keys.
        """
        arrays = _policy_arrays(policy)
        document: Dict[str, object] = {
            "format": _FORMAT,
            "version": _VERSION,
            "serial": int(serial),
            "fingerprint": dict(fingerprint),
            "name": policy.name,
        }
        if state is not None:
            document["state"] = {
                "policy_age": int(state.get("policy_age", 0)),  # type: ignore[arg-type]
                "rung": str(state.get("rung", "fresh")),
            }
            trajectory = state.get("trajectory")
            if trajectory is not None:
                for key, value in trajectory.items():  # type: ignore[attr-defined]
                    arrays[_LEDGER_PREFIX + key] = value
        # Raw arrays, uncompressed: deflating them costs more than
        # writing them.  The document pins the bytes.
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        packed = buffer.getvalue()
        document["arrays"] = {
            "file": cls._arrays_file(serial),
            "checksum": _digest(packed),
        }
        sidecar = cls._dp_payload(solution)
        payload = None
        if sidecar is not None:
            payload, structure = sidecar
            document["dp"] = {
                "file": cls._sidecar_file(serial),
                "checksum": _digest(payload),
                "structure": structure,
            }
        raw = canonical_dumps(document).encode("utf-8")
        return EncodedCommit(int(serial), raw, _digest(raw), packed, payload)

    def prune(self, keep_last: int) -> Tuple[int, ...]:
        """Retain only the newest ``keep_last`` committed serials.

        Three steps, ordered so a crash at any point leaves a journal
        that still recovers (pruning must never be the thing that loses
        state):

        1. the **compacted log** is written first, via atomic replace —
           only the surviving serials' intent/commit records remain, so
           the journal file stops growing one pair per commit;
        2. then the dropped serials' snapshot documents are deleted;
        3. then their DP sidecars and arrays files.

        A crash between (1) and (2) merely leaves orphaned files that
        the next prune removes; the reverse order could leave a log
        whose newest committed serial has no snapshot file — a fail-
        closed (but needless) :class:`RecoveryError` at restart.
        Returns the serials that were pruned.
        """
        _check_keep_last(keep_last)
        records, __ = self._read_journal()
        serials = self.committed_serials()
        keep = set(serials[-keep_last:])
        dropped = tuple(s for s in serials if s not in keep)
        if not dropped:
            return ()
        survivors = [
            record
            for record in records
            if record.get("op") in ("intent", "commit")
            and record.get("serial") in keep
        ]
        compacted = (
            "\n".join(canonical_dumps(record) for record in survivors) + "\n"
        )
        atomic_write_bytes(self._journal_path, compacted.encode("utf-8"))
        for serial in dropped:
            for name in self._artifacts(serial):
                path = os.path.join(self.root, name)
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        return dropped

    @staticmethod
    def _dp_payload(solution) -> Optional[Tuple[bytes, str]]:
        """Serialize a flat solution's vectors to uncompressed npz bytes
        + structural digest."""
        from ..core.flat_dp import FlatTreeSolution

        if not isinstance(solution, FlatTreeSolution):
            return None
        flat = solution.flat
        vecs = [
            np.asarray(solution.solutions[int(i)].vec, dtype=np.float64)
            for i in flat.ids
        ]
        buffer = io.BytesIO()
        np.savez(
            buffer,
            offsets=np.cumsum([0] + [len(v) for v in vecs], dtype=np.int64),
            data=np.concatenate(vecs) if vecs else np.empty(0),
            ids=np.ascontiguousarray(flat.ids, dtype=np.int64),
            left=np.ascontiguousarray(flat.left, dtype=np.int64),
            right=np.ascontiguousarray(flat.right, dtype=np.int64),
        )
        structure = flat_structure_digest(flat, solution.k, solution.prune)
        return buffer.getvalue(), structure

    # -- reading -------------------------------------------------------------

    def _read_journal(self) -> Tuple[List[Dict[str, object]], bool]:
        """Parse the journal; returns (records, torn_tail).

        A partial **final** line is the expected residue of a crash
        mid-append and is discarded; a malformed line anywhere else means
        the history itself is damaged → fail closed.
        """
        if not os.path.exists(self._journal_path):
            raise RecoveryError(
                f"no journal at {self._journal_path}", reason="empty"
            )
        with open(self._journal_path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records: List[Dict[str, object]] = []
        torn_tail = False
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "op" not in record:
                    raise ValueError("not a journal record")
            except ValueError:
                if index == len(lines) - 1:
                    torn_tail = True
                    break
                raise RecoveryError(
                    f"journal corrupted at line {index + 1}: {line[:80]!r}",
                    reason="corrupt",
                ) from None
            records.append(record)
        return records, torn_tail

    def committed_serials(self) -> List[int]:
        """Serials with both an intent and a commit record, ascending."""
        records, __ = self._read_journal()
        intents = {
            r["serial"] for r in records if r.get("op") == "intent"
        }
        committed = []
        for record in records:
            if record.get("op") != "commit":
                continue
            serial = record.get("serial")
            if serial not in intents:
                raise RecoveryError(
                    f"commit for serial {serial} has no intent record",
                    reason="corrupt",
                )
            committed.append(int(serial))
        return sorted(set(committed))

    def latest_serial(self) -> Optional[int]:
        """Newest committed serial, or ``None`` for an empty journal."""
        try:
            serials = self.committed_serials()
        except RecoveryError as exc:
            if exc.reason == "empty":
                return None
            raise
        return serials[-1] if serials else None

    def recover(
        self,
        *,
        fingerprint: Optional[Mapping[str, object]] = None,
        current_serial: Optional[int] = None,
        max_stale_snapshots: int = 1,
    ) -> RecoveredSnapshot:
        """Load the newest committed snapshot, failing closed on doubt.

        ``fingerprint`` (when given) must match the committed engine
        fingerprint key-for-key — a policy solved under a different
        ``k``/region/engine is not valid state for this deployment.
        ``current_serial`` is the world's present db serial (e.g. the
        MPC's); recovery refuses when the journalled policy is more than
        ``max_stale_snapshots`` behind it, exactly like the serving-side
        stale rung.
        """
        records, torn_tail = self._read_journal()
        intents = {
            r["serial"]: r for r in records if r.get("op") == "intent"
        }
        serials = self.committed_serials()
        if not serials:
            raise RecoveryError(
                "journal holds no committed snapshot", reason="empty"
            )
        serial = serials[-1]
        intent = intents[serial]
        path = os.path.join(self.root, str(intent["file"]))
        if not os.path.exists(path):
            raise RecoveryError(
                f"committed snapshot file {intent['file']!r} is missing",
                reason="corrupt",
            )
        with open(path, "rb") as handle:
            raw = handle.read()
        if _digest(raw) != intent["checksum"]:
            raise RecoveryError(
                f"snapshot {intent['file']!r} fails its journalled checksum "
                "(torn write or bit flip); refusing to serve it",
                reason="corrupt",
            )
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            raise RecoveryError(
                f"committed snapshot {intent['file']!r} is unreadable: {exc}",
                reason="corrupt",
            ) from exc
        if document.get("format") != _FORMAT or document.get("version") != _VERSION:
            raise RecoveryError(
                f"snapshot {intent['file']!r} has unknown format/version",
                reason="corrupt",
            )
        if document.get("serial") != serial:
            raise RecoveryError(
                f"snapshot {intent['file']!r} embeds db-serial "
                f"{document.get('serial')!r} but the journal committed "
                f"{serial}; refusing stale/mismatched state",
                reason="stale",
            )
        committed_fp = document.get("fingerprint")
        state = document.get("state", {})
        # A header of the wrong shape is forged or corrupt: the state
        # block in particular must not silently reset the staleness.
        if (
            not isinstance(committed_fp, dict)
            or not isinstance(state, dict)
            or type(state.get("policy_age", 0)) is not int
        ):
            raise RecoveryError(
                f"snapshot {intent['file']!r} has a malformed header",
                reason="corrupt",
            )
        if fingerprint is not None:
            for key, value in dict(fingerprint).items():
                if committed_fp.get(key) != value:
                    raise RecoveryError(
                        f"engine fingerprint mismatch on {key!r}: "
                        f"journal has {committed_fp.get(key)!r}, "
                        f"deployment expects {value!r}",
                        reason="fingerprint",
                    )
        policy_age = state.get("policy_age", 0)
        rung = str(state.get("rung", "fresh"))
        _check_stale(policy_age, serial, current_serial, max_stale_snapshots)
        policy, trajectory = self._load_arrays(
            serial, document.get("arrays"), str(document.get("name", "loaded"))
        )
        dp_vecs, dp_structure, dp_layout = self._load_sidecar(document)
        return RecoveredSnapshot(
            policy=policy,
            serial=serial,
            fingerprint=committed_fp,
            dp_vecs=dp_vecs,
            dp_structure=dp_structure,
            dp_layout=dp_layout,
            torn_tail=torn_tail,
            checksum=str(intent["checksum"]),
            policy_age=policy_age,
            rung=rung,
            trajectory=trajectory,
        )

    def files_for_serial(self, serial: int) -> List[str]:
        """Names of the on-disk artifacts of one committed serial that
        actually exist (snapshot document, DP sidecar, arrays file)."""
        return [
            name
            for name in self._artifacts(serial)
            if os.path.exists(os.path.join(self.root, name))
        ]

    def _load_arrays(
        self, serial: int, meta: object, name: str
    ) -> Tuple[CloakingPolicy, Optional[Dict[str, np.ndarray]]]:
        """The policy and ledger state of the arrays file the document
        names — fail closed on doubt.

        Both are privacy state, so a missing, torn or altered file, a
        policy that does not rebuild (Definition 4 is re-checked by
        :meth:`CloakingPolicy.from_rows`) and a ledger state of another
        version or with inconsistent arrays (checked by adopting it into
        a scratch ledger) all raise :class:`RecoveryError`.  Never
        unpickles.
        """
        from ..trajectory.ledger import TrajectoryLedger

        file = self._arrays_file(serial)
        try:
            if not isinstance(meta, dict) or meta.get("file") != file:
                raise ValueError("the snapshot names another file")
            with open(os.path.join(self.root, file), "rb") as handle:
                raw = handle.read()
            if _digest(raw) != meta.get("checksum"):
                raise ValueError("checksum mismatch (torn write or bit flip)")
            with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in archive.files}
            policy = _policy_from_arrays(arrays, name)
            trajectory = {
                key[len(_LEDGER_PREFIX):]: value
                for key, value in arrays.items()
                if key.startswith(_LEDGER_PREFIX)
            } or None
            if trajectory is not None:
                TrajectoryLedger.from_state(trajectory)
        except (
            OSError, KeyError, ValueError, zipfile.BadZipFile, ReproError
        ) as exc:
            raise RecoveryError(
                f"snapshot arrays {file!r}: {exc}; refusing to restore "
                "a policy or served history it cannot prove",
                reason="corrupt",
            ) from exc
        return policy, trajectory

    def _load_sidecar(
        self, document: Mapping[str, object]
    ) -> Tuple[
        Optional[List[np.ndarray]],
        Optional[str],
        Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ]:
        """Best-effort DP sidecar load — cold restore on any doubt."""
        meta = document.get("dp")
        if not isinstance(meta, dict):
            return None, None, None
        path = os.path.join(self.root, str(meta.get("file", "")))
        try:
            if file_checksum(path) != meta.get("checksum"):
                return None, None, None
            with np.load(path, allow_pickle=False) as archive:
                offsets = archive["offsets"].astype(np.int64)
                data = archive["data"].astype(np.float64)
                ids = archive["ids"].astype(np.int64)
                left = archive["left"].astype(np.int64)
                right = archive["right"].astype(np.int64)
        except (OSError, KeyError, ValueError):
            return None, None, None
        if len(offsets) < 1 or offsets[-1] != len(data):
            return None, None, None
        if not (len(ids) == len(left) == len(right) == len(offsets) - 1):
            return None, None, None
        vecs = np.split(data, offsets[1:-1])
        return vecs, str(meta.get("structure")), (ids, left, right)


# -- quorum replication --------------------------------------------------------


@dataclass(frozen=True)
class QuorumRecoveryReport:
    """What one quorum recovery observed and repaired.

    Stored on :attr:`QuorumJournal.last_recovery` so callers (``CSP.
    restore``, the chaos bench) can attribute MTTR: how many replicas
    voted for the adopted state, which ones were dead/lagging/divergent,
    and how long the majority-vote repair of those replicas took.
    """

    #: the adopted (serial, checksum) identity.
    serial: int
    checksum: str
    #: replica indexes that voted for the adopted state.
    voters: Tuple[int, ...]
    #: replica indexes rewritten from a voter (dead, lagging, divergent,
    #: or carrying torn-tail residue).
    repaired: Tuple[int, ...]
    #: wall-clock seconds the repair copies took (0.0 when nothing
    #: needed repair).
    repair_seconds: float
    #: per-replica pre-repair condition, index-aligned with the roots:
    #: ``"ok"`` | ``"torn"`` | ``"lagging"`` | ``"divergent"`` | a
    #: :class:`RecoveryError` reason (``"empty"``, ``"corrupt"``, ...).
    replica_states: Tuple[str, ...] = ()


class QuorumJournal:
    """``PolicyJournal`` mirrored across N directories with majority
    quorum — media loss becomes survivable, not just process death.

    Every commit is applied to all replicas; it succeeds once a **write
    quorum** of ⌊N/2⌋+1 replicas acked their (locally crash-consistent)
    commit, and **fails closed** with :class:`RecoveryError`
    (``reason="quorum"``) below that — an anonymizer that cannot prove
    its policy history durable must stop advancing state, never shed
    durability silently.  Recovery reads *all* replicas and adopts the
    newest (serial, checksum) pair that a **read quorum** (the same
    majority) agrees on; replicas outside the winning vote — destroyed,
    lagging, divergent, or carrying torn-tail residue — are rewritten
    from a voter (majority-vote repair), and the repair is timed so
    restores report MTTR.  Because read and write quorums overlap in at
    least one replica, an acked commit can never be silently lost, and
    a serial that survives only on a minority (e.g. a stale replica
    that missed a quorum-coordinated prune) can never be resurrected.

    ``keep_last`` retention is **quorum-coordinated**: pruning runs only
    when a write quorum of replicas is healthy and must succeed on a
    write quorum, so the set of retained serials can never silently
    diverge to where a minority replica's older serial could win a
    future vote.

    ``kill_plan`` (a :class:`~repro.robustness.chaos.ReplicaKillPlan`)
    deterministically destroys whole replica directories at chosen
    phases of a commit — the chaos harness for everything above.
    """

    def __init__(
        self,
        roots: Sequence[str],
        keep_last: Optional[int] = None,
        *,
        kill_plan=None,
    ):
        roots = [str(root) for root in roots]
        if not roots:
            raise RecoveryError(
                "a quorum journal needs at least one replica directory",
                reason="corrupt",
            )
        if len({os.path.abspath(r) for r in roots}) != len(roots):
            raise RecoveryError(
                "replica directories must be distinct — mirroring a "
                "journal onto itself survives nothing",
                reason="corrupt",
            )
        _check_keep_last(keep_last)
        self.roots = tuple(roots)
        self.keep_last = keep_last
        self.kill_plan = kill_plan
        #: write/read quorum: a strict majority of replicas.
        self.quorum = len(roots) // 2 + 1
        self.replicas = [PolicyJournal(root) for root in roots]
        #: replica indexes that failed their local commit last time.
        self.last_commit_failures: Tuple[int, ...] = ()
        #: what the last :meth:`recover` adopted and repaired.
        self.last_recovery: Optional[QuorumRecoveryReport] = None

    # -- writing ---------------------------------------------------------------

    def _fire_kill(self, serial: int, index: int, phase: str) -> None:
        if self.kill_plan is not None and self.kill_plan.should_destroy(
            serial, index, phase
        ):
            from .chaos import destroy_replica

            destroy_replica(self.roots[index])

    def commit(
        self,
        policy: CloakingPolicy,
        serial: int,
        fingerprint: Mapping[str, object],
        solution=None,
        state: Optional[Mapping[str, object]] = None,
    ) -> str:
        """Mirror one commit to every replica; fail closed below quorum.

        The commit is encoded once and every replica writes the same
        bytes.  Per-replica failures (missing media, permission errors,
        a chaos destruction mid-write) are contained: the replica simply
        does not ack.  With ``acks ≥ ⌊N/2⌋+1`` the commit is durable and its
        checksum is returned; below that the quorum is lost and
        :class:`RecoveryError` (``reason="quorum"``) propagates — the
        caller must treat the state advance as not having happened.
        """
        encoded = PolicyJournal.encode(
            policy, serial, fingerprint, solution, state
        )
        acks = 0
        failures: List[int] = []
        for index, replica in enumerate(self.replicas):
            self._fire_kill(serial, index, "before")
            try:
                replica.commit(
                    encoded, _chaos=functools.partial(self._fire_kill, serial, index)
                )
            except OSError:
                failures.append(index)
                continue
            acks += 1
            self._fire_kill(serial, index, "after")
        self.last_commit_failures = tuple(failures)
        if acks < self.quorum:
            raise RecoveryError(
                f"commit of serial {serial} reached only {acks} of "
                f"{len(self.replicas)} replicas (write quorum "
                f"{self.quorum}); failing closed — durability cannot be "
                "proven",
                reason="quorum",
            )
        if self.keep_last is not None:
            self.prune(self.keep_last)
        return encoded.checksum

    def prune(self, keep_last: int) -> Tuple[int, ...]:
        """Quorum-coordinated retention: prune every healthy replica.

        Refuses (fail-closed, nothing touched) unless a write quorum of
        replicas is healthy *before* pruning, and raises if fewer than a
        write quorum completed their prune — otherwise a lagging
        minority replica could keep serials the majority dropped and a
        later vote-less restore could resurrect them.
        """
        _check_keep_last(keep_last)
        healthy: List[int] = []
        for index, replica in enumerate(self.replicas):
            try:
                replica.committed_serials()
            except (RecoveryError, OSError):
                continue
            healthy.append(index)
        if len(healthy) < self.quorum:
            raise RecoveryError(
                f"only {len(healthy)} of {len(self.replicas)} replicas "
                f"are readable (write quorum {self.quorum}); refusing to "
                "prune — retention must stay quorum-coordinated",
                reason="quorum",
            )
        dropped: set = set()
        pruned = 0
        for index in healthy:
            try:
                dropped.update(self.replicas[index].prune(keep_last))
            except (RecoveryError, OSError):
                continue
            pruned += 1
        if pruned < self.quorum:
            raise RecoveryError(
                f"prune completed on only {pruned} of {len(self.replicas)} "
                f"replicas (write quorum {self.quorum}); retention is not "
                "quorum-coordinated",
                reason="quorum",
            )
        return tuple(sorted(dropped))

    # -- reading ---------------------------------------------------------------

    def committed_serials(self) -> List[int]:
        """Serials committed on at least a read quorum of replicas."""
        counts: Counter = Counter()
        readable = 0
        for replica in self.replicas:
            try:
                counts.update(replica.committed_serials())
            except (RecoveryError, OSError):
                continue
            readable += 1
        if readable < self.quorum:
            raise RecoveryError(
                f"only {readable} of {len(self.replicas)} replicas are "
                f"readable (read quorum {self.quorum})",
                reason="quorum",
            )
        return sorted(s for s, n in counts.items() if n >= self.quorum)

    def latest_serial(self) -> Optional[int]:
        """Newest quorum-committed serial, or ``None`` when empty."""
        serials = self.committed_serials()
        return serials[-1] if serials else None

    def recover(
        self,
        *,
        fingerprint: Optional[Mapping[str, object]] = None,
        current_serial: Optional[int] = None,
        max_stale_snapshots: int = 1,
        repair: bool = True,
    ) -> RecoveredSnapshot:
        """Majority-vote recovery with replica repair.

        Each replica independently runs the full fail-closed
        single-journal recovery; the vote key is the (serial, checksum)
        identity of what it recovered.  The newest identity holding a
        read quorum of votes wins and is returned.  No quorum — too many
        replicas destroyed, or a divergent split with no majority —
        raises :class:`RecoveryError` (``reason="quorum"``): the CSP
        must refuse to serve rather than adopt state it cannot prove,
        and in particular must **never** fall back to serving some
        coarser policy.  With ``repair=True`` (the default) every
        replica outside the winning vote is rewritten from a voter and
        the repair is timed (:attr:`last_recovery`).
        """
        votes: Dict[Tuple[int, str], List[int]] = {}
        snapshots: Dict[int, RecoveredSnapshot] = {}
        states: List[str] = []
        for index, replica in enumerate(self.replicas):
            try:
                snapshot = replica.recover(
                    fingerprint=fingerprint,
                    max_stale_snapshots=max_stale_snapshots,
                )
            except RecoveryError as exc:
                states.append(exc.reason)
                continue
            except OSError:
                states.append("corrupt")
                continue
            snapshots[index] = snapshot
            states.append("torn" if snapshot.torn_tail else "ok")
            key = (snapshot.serial, snapshot.checksum or "")
            votes.setdefault(key, []).append(index)
        # Each replica votes once, so at most one identity holds a
        # majority.
        quorate = [key for key, who in votes.items() if len(who) >= self.quorum]
        if not quorate:
            raise RecoveryError(
                "no (serial, checksum) identity reaches the read quorum "
                f"of {self.quorum} across {len(self.replicas)} replicas "
                f"(states: {', '.join(states)}); failing closed — a "
                "minority replica must never resurrect state on its own",
                reason="quorum",
            )
        winner = quorate[0]
        serial, __ = winner
        voters = votes[winner]
        age = max(snapshots[i].policy_age for i in voters)
        _check_stale(age, serial, current_serial, max_stale_snapshots)
        # Retention must also agree: a replica that voted for the
        # winning state but kept serials the quorum has pruned (it
        # missed a quorum-coordinated prune while offline) is
        # retention-divergent.  Left alone, its stale tail would sit
        # waiting for enough other failures to make it the deciding
        # copy; repairing it here keeps every majority bit-identical,
        # so pruned serials can never be resurrected.
        serial_sets = {
            index: tuple(self.replicas[index].committed_serials())
            for index in snapshots
        }
        serial_counts = Counter(
            one for serials in serial_sets.values() for one in serials
        )
        quorum_set = tuple(
            sorted(s for s, n in serial_counts.items() if n >= self.quorum)
        )
        canonical = [i for i in voters if serial_sets[i] == quorum_set]
        laggards = tuple(
            index for index in range(len(self.replicas))
            if index not in voters
            or (index in snapshots and snapshots[index].torn_tail)
            or (canonical and serial_sets[index] != quorum_set)
        )
        for index in laggards:
            if index in snapshots and states[index] == "ok":
                states[index] = (
                    "lagging" if snapshots[index].serial < serial else "divergent"
                )
        # Prefer a clean, retention-canonical voter as the repair source.
        source = min(
            voters,
            key=lambda i: (
                snapshots[i].torn_tail,
                serial_sets[i] != quorum_set,
                i,
            ),
        )
        repair_seconds = 0.0
        repaired: Tuple[int, ...] = ()
        if repair and laggards:
            start = time.perf_counter()
            for index in laggards:
                self._repair_replica(index, source)
            repair_seconds = time.perf_counter() - start
            repaired = laggards
        self.last_recovery = QuorumRecoveryReport(
            serial=serial,
            checksum=winner[1],
            voters=tuple(voters),
            repaired=repaired,
            repair_seconds=repair_seconds,
            replica_states=tuple(states),
        )
        return snapshots[source]

    def _repair_replica(self, index: int, source: int) -> None:
        """Rewrite replica ``index`` from voter ``source``.

        Artifacts first, journal last (the same ordering argument as
        :meth:`PolicyJournal.prune`): a crash mid-repair leaves either
        orphaned snapshot files (harmless) or the old journal (the
        replica stays exactly as broken as before) — never a journal
        referencing files that are not there yet.
        """
        from .chaos import destroy_replica

        src = self.replicas[source]
        dst_root = self.roots[index]
        destroy_replica(dst_root)
        os.makedirs(dst_root, exist_ok=True)
        names = [
            name
            for serial in src.committed_serials()
            for name in src.files_for_serial(serial)
        ]
        for name in names + [_JOURNAL_FILE]:
            with open(os.path.join(src.root, name), "rb") as handle:
                atomic_write_bytes(os.path.join(dst_root, name), handle.read())
        self.replicas[index] = PolicyJournal(dst_root)
