"""Crash-consistent persistence of CSP anonymization state.

The paper's CSP computes one policy per location-database snapshot and
serves from it for the snapshot's lifetime (§II-A, §VII).  Operationally
that policy *is* the CSP's state: losing it on a restart forces a full
``Bulk_dp`` re-run while requests queue.  This module makes the
(policy, db-serial) pair durable with the classic write-ahead recipe:

1. an **intent** record is appended (and fsync'd) to an append-only
   journal, naming the commit's file and its content checksum;
2. the commit's file, encoded once per commit
   (:meth:`PolicyJournal.encode`, :meth:`PolicyJournal.encode_delta`)
   and shared by every quorum replica, is written to a temporary file
   and atomically renamed into place;
3. a **commit** record is appended and fsync'd.

A reader therefore never observes a torn commit: a crash between (1)
and (3) leaves an intent without a commit, which recovery skips, falling
back to the previous committed serial.  Anything *else* that fails
validation — a journal line corrupted in the middle of the history, a
committed file whose checksum no longer matches, an embedded serial
disagreeing with the journal, an engine fingerprint from a different
deployment — is storage corruption, not a crash, and recovery **fails
closed** with :class:`~repro.core.errors.RecoveryError` rather than
serve state it cannot prove it journalled.

Every commit is one uncompressed ``np.savez`` file of raw arrays, never
unpickled, and the intent's checksum covers all of it.  Its ``header``
member is canonical JSON: format, version, serial, policy name and the
serving ``state`` block (``policy_age``, ``rung``).  A **checkpoint**,
``snapshot-NNNNNN.npz``, adds the engine fingerprint to its header and
holds the whole state:

* the policy as rows — ``policy/ids`` (the user ids as UTF-8 JSON bytes
  in a ``uint8`` array), ``policy/coords`` (``(n, 2)`` float64
  locations), ``policy/group`` (``int32`` cloak index per row) and
  ``policy/boxes`` (``(m, 4)`` float64, one box per policy group,
  numbered by first use);
* with the trajectory defense on, the ledger's
  :meth:`~repro.trajectory.ledger.TrajectoryLedger.to_state` arrays
  under ``trajectory/`` keys;
* for a flat-engine solution, its per-node cost vectors and flat layout
  under ``dp/`` keys, and their structure digest in the header.

Restore rebuilds the snapshot from the rows and the policy through
:meth:`~repro.core.policy.CloakingPolicy.from_rows`, so Definition 4 is
re-checked on load: even a checksum-colliding forgery cannot smuggle in
a non-masking policy, and any file that does not rebuild — torn,
altered, from another commit, with object arrays, bad shapes, duplicate
ids or a non-masking row — fails the restore closed.  The restored
policy (after any delta replay) must also pass the Definition 6 gate
under the ``k`` of its commit's fingerprint
(:meth:`~repro.core.policy.CloakingPolicy.require_k_anonymous`): a
cloak group under ``k`` is ``RecoveryError(reason="corrupt")``, so a
quorum outvotes the replica holding it.

A :class:`QuorumJournal` commit that repairs the previous commit's
state with a batch of moves is written as a **delta** instead:
``snapshot-NNNNNN.delta.npz``, whose header adds the ``base`` commit's
serial and checksum and a ``digest`` of the repaired solution, holding
the move batch (``moves/ids``, ``moves/coords``) and, with the
trajectory defense on, the ledger rows folded since the base
(:meth:`~repro.trajectory.ledger.TrajectoryLedger.delta_state`).  Its
intent record names the base serial.  Recovery restores the chain's
checkpoint and replays each delta through
:meth:`~repro.core.anonymizer.IncrementalAnonymizer.update`, merges its
ledger rows and extracts the policy once; a chain with a gap, a delta
that fails its checksum or names another base, and a replay whose
digest differs all fail closed.  A commit is a checkpoint when it
carries no moves, when its base did not reach every replica, and when
the deltas since the last checkpoint would reach that checkpoint's
size — so a replay never reads more than one checkpoint's bytes.

A checkpoint's ``dp/`` members make a restart warm: the
(deterministic) tree is rebuilt from the journalled locations, compiled
to flat arrays, and — if the structural digest matches — the vectors
are rehydrated into a full :class:`~repro.core.flat_dp.FlatTreeSolution`,
so the next snapshot repairs forward through ``resolve_dirty_flat``
instead of re-running bulk anonymization.  They are checksummed with
the rest of the file, so a damaged byte fails the restore closed like
any other; a checkpoint without them, or whose layout does not match
the rebuilt tree, restores *cold* (the recovered policy still serves;
the first repair is one bulk solve) — privacy never depends on them.
"""

from __future__ import annotations

import contextlib
import dataclasses
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
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

from ..core.anonymizer import IncrementalAnonymizer
from ..core.errors import AnonymityBreachError, RecoveryError, ReproError
from ..core.geometry import Point, Rect
from ..core.locationdb import LocationDatabase
from ..core.policy import CloakingPolicy
from ..core.serialization import (
    atomic_write_bytes,
    canonical_dumps,
    decode_ids,
    encode_ids,
)

if TYPE_CHECKING:  # runtime import would cycle: trajectory imports epoch
    from ..trajectory.ledger import TrajectoryLedger

__all__ = [
    "EncodedCommit",
    "PolicyJournal",
    "QuorumJournal",
    "QuorumRecoveryReport",
    "RecoveredSnapshot",
    "SOLVER_FINGERPRINT",
    "flat_structure_digest",
    "rehydrate_flat_solution",
    "resume_shadow",
]

#: the solver settings behind every journalled policy.  Journals written
#: by ``CSP`` and ``EpochManager`` carry them in their fingerprint, and
#: both restore paths require them, so a journal naming another engine
#: or prune setting fails closed.
SOLVER_FINGERPRINT: Dict[str, object] = {"engine": "flat", "prune": True}

_FORMAT = "repro-snapshot"
#: 4: a checkpoint is one ``.npz`` with a ``header`` member, like a delta
#: (3: a JSON document naming an ``.arrays.npz`` and a DP sidecar).
_VERSION = 4
_JOURNAL_FILE = "journal.log"
#: the key prefix of the trajectory ledger's state.
_LEDGER_PREFIX = "trajectory/"
#: the fingerprint entries a delta's replay rebuilds the solver from.
_REPLAY_KEYS = ("region", "k", "max_depth")
_BOX = operator.attrgetter("x1", "y1", "x2", "y2")


def flat_structure_digest(flat, k: int, prune: bool) -> str:
    """Digest of a flat tree's *structure* (shape, counts, areas).

    Binds DP vectors to the exact tree they were computed for: a restored
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


def _check_anonymous(policy: CloakingPolicy, k: object) -> None:
    """The Definition 6 gate on a decoded policy, under the ``k`` its
    commit's fingerprint names: a cloak group under ``k`` fails closed."""
    if type(k) is not int:
        return
    try:
        policy.require_k_anonymous(k)
    except AnonymityBreachError as exc:
        raise RecoveryError(
            f"journalled policy is not policy-aware {k}-anonymous: {exc}; "
            "refusing to serve it",
            reason="corrupt",
        ) from exc


def _digest(payload: bytes) -> str:
    """Content checksum of raw bytes (hex blake2b-128), the same digest
    :func:`~repro.core.serialization.checksum_of` gives a document."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _policy_arrays(policy: CloakingPolicy) -> Dict[str, np.ndarray]:
    """``policy`` as rows, in its insertion order: ids, locations, the
    cloak index of each row (its group, numbered by first use) and one
    box per used group.

    Raises :class:`ReproError` for a cloak that is not a ``Rect``; no
    journalling caller produces one.
    """
    order = policy.row_order
    group = policy.row_group[order]
    used, first = np.unique(group, return_index=True)
    by_use = np.argsort(first)
    number = np.empty(len(policy.regions), dtype=np.int32)
    number[used[by_use]] = np.arange(len(used), dtype=np.int32)
    regions = list(map(policy.regions.__getitem__, used[by_use].tolist()))
    ids = policy.db.id_column()
    for slot, region in enumerate(regions):
        if not isinstance(region, Rect):
            user_id = ids[int(order[first[by_use[slot]]])]
            raise ReproError(
                f"cannot journal user {user_id!r}'s cloak {region!r}: "
                "the journal stores rectangles only"
            )
    return {
        "policy/ids": encode_ids(list(map(ids.__getitem__, order.tolist()))),
        "policy/coords": policy.db.coords_array()[order],
        "policy/group": number[group],
        "policy/boxes": np.array(
            list(map(_BOX, regions)), dtype=np.float64
        ).reshape(-1, 4),
    }


def _solution_digest(solution, policy: CloakingPolicy) -> Dict[str, object]:
    """What a delta's replay must reproduce: the repaired solution's
    optimal cost and the policy's number of distinct cloaks."""
    sizes = policy.cloak_classes[2]
    return {"cost": float(solution.optimal_cost), "groups": int(np.count_nonzero(sizes))}


def _ledger_state(trajectory) -> Mapping[str, np.ndarray]:
    """A ``state["trajectory"]`` entry as state arrays: a ledger's
    :meth:`~repro.trajectory.ledger.TrajectoryLedger.to_state`, or the
    arrays as given."""
    to_state = getattr(trajectory, "to_state", None)
    return trajectory if to_state is None else to_state()


def _state_block(state: Mapping[str, object]) -> Dict[str, object]:
    """A header's ``state`` entry: the committer's staleness and rung."""
    return {
        "policy_age": int(state.get("policy_age", 0)),  # type: ignore[arg-type]
        "rung": str(state.get("rung", "fresh")),
    }


def _dp_arrays(solution) -> Optional[Tuple[str, Dict[str, np.ndarray]]]:
    """A flat solution's structure digest and its cost vectors and flat
    layout as ``dp/`` arrays; ``None`` for any other solution."""
    from ..core.flat_dp import FlatTreeSolution

    if not isinstance(solution, FlatTreeSolution):
        return None
    flat = solution.flat
    vecs = [
        np.asarray(solution.solutions[int(i)].vec, dtype=np.float64)
        for i in flat.ids
    ]
    return flat_structure_digest(flat, solution.k, solution.prune), {
        "dp/offsets": np.cumsum([0] + [len(v) for v in vecs], dtype=np.int64),
        "dp/data": np.concatenate(vecs) if vecs else np.empty(0),
        "dp/ids": np.ascontiguousarray(flat.ids, dtype=np.int64),
        "dp/left": np.ascontiguousarray(flat.left, dtype=np.int64),
        "dp/right": np.ascontiguousarray(flat.right, dtype=np.int64),
    }


def _dp_state(structure: object, arrays: Mapping[str, np.ndarray]) -> Tuple[
    Optional[List[np.ndarray]],
    Optional[str],
    Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
]:
    """The cost vectors, structure digest and flat layout that
    :func:`_dp_arrays` wrote; ``None``s for a checkpoint without them.
    Raises ``ValueError``/``KeyError`` on members that disagree."""
    if structure is None:
        return None, None, None
    offsets, ids, left, right = (
        arrays[key].astype(np.int64)
        for key in ("dp/offsets", "dp/ids", "dp/left", "dp/right")
    )
    data = arrays["dp/data"].astype(np.float64)
    if (
        not isinstance(structure, str)
        or not len(offsets) == len(ids) + 1 == len(left) + 1 == len(right) + 1
        or offsets[-1] != len(data)
    ):
        raise ValueError("the DP members disagree")
    return np.split(data, offsets[1:-1]), structure, (ids, left, right)


def _pack(header: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> bytes:
    """One commit's file: an uncompressed ``np.savez`` of the
    canonical-JSON ``header`` (format and version added) and ``arrays``.
    Raw arrays, so the bytes do not depend on the zlib build, and
    deflating them would cost more than writing them."""
    raw = canonical_dumps({"format": _FORMAT, "version": _VERSION, **header})
    buffer = io.BytesIO()
    np.savez(buffer, header=np.frombuffer(raw.encode("utf-8"), np.uint8), **arrays)
    return buffer.getvalue()


@contextlib.contextmanager
def _refusing(link: "_Link") -> Iterator[None]:
    """Fail closed on a committed file that does not decode: a decode
    error becomes ``RecoveryError(reason="corrupt")`` naming the file."""
    try:
        yield
    except (
        KeyError, TypeError, ValueError, RecursionError, zipfile.BadZipFile,
        ReproError,
    ) as exc:
        raise RecoveryError(
            f"committed file {link.intent['file']!r}: {exc}; refusing to "
            "restore a policy or served history it cannot prove",
            reason="corrupt",
        ) from exc


def _state_ok(state: object) -> bool:
    """A header's ``state`` block has the shape a commit writes."""
    return isinstance(state, dict) and type(state.get("policy_age", 0)) is int


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
    db = LocationDatabase.from_columns(ids, coords)
    rects = [Rect(*box) for box in boxes.tolist()]
    return CloakingPolicy.from_rows(
        np.arange(len(ids)), coords, group, rects, db, name=name
    )


@dataclass(frozen=True)
class EncodedCommit:
    """One commit's file (:meth:`PolicyJournal.encode` for a checkpoint,
    :meth:`PolicyJournal.encode_delta` for a delta), written as it is to
    every journal that receives it."""

    serial: int
    #: the file's bytes.
    raw: bytes = field(repr=False)
    #: digest of ``raw`` — what the intent record names.
    checksum: str
    #: a delta's base serial; ``None`` for a checkpoint.
    base: Optional[int] = None

    @property
    def file(self) -> str:
        """The name of the file the intent record names."""
        if self.base is None:
            return PolicyJournal._checkpoint_file(self.serial)
        return PolicyJournal._delta_file(self.serial)


@dataclass(frozen=True)
class _Head:
    """The newest durable commit a :class:`QuorumJournal` extends, and
    what its chain has written since the checkpoint."""

    serial: int
    checksum: str
    #: bytes of the chain's checkpoint.
    checkpoint: int
    #: bytes of the deltas written on it since.
    deltas: int = 0

    @staticmethod
    def after(head: Optional["_Head"], encoded: EncodedCommit) -> "_Head":
        """The head once ``encoded`` is durable; a delta extends ``head``."""
        if encoded.base is None:
            return _Head(encoded.serial, encoded.checksum, len(encoded.raw))
        assert head is not None
        return _Head(
            encoded.serial, encoded.checksum, head.checkpoint,
            head.deltas + len(encoded.raw),
        )


@dataclass(frozen=True)
class _Link:
    """One committed file of a chain, read and checked against its
    intent record."""

    serial: int
    intent: Mapping[str, object]
    raw: bytes = field(repr=False)

    @property
    def checksum(self) -> str:
        return str(self.intent["checksum"])


@dataclass(frozen=True)
class _Chain:
    """A journal's newest committed chain with every byte of its
    privacy state read and checked (:meth:`PolicyJournal._read_chain`),
    nothing decoded yet."""

    #: checkpoint first, the newest commit last.
    links: List[_Link]
    torn_tail: bool
    #: every committed serial of the journal.
    serials: List[int]

    @property
    def identity(self) -> Tuple[int, str]:
        """What quorum recovery votes on: equal identities name
        byte-identical chains."""
        return self.links[-1].serial, self.links[-1].checksum

    @property
    def head(self) -> _Head:
        """The head a writer continues this chain from."""
        sizes = [len(link.raw) for link in self.links]
        return _Head(*self.identity, sizes[0], sum(sizes[1:]))


@dataclass(frozen=True)
class _Delta:
    """A decoded delta: what its replay applies and must reproduce."""

    serial: int
    name: str
    state: Mapping[str, object]
    digest: Mapping[str, object]
    moves: Dict[str, Point] = field(repr=False)
    trajectory: Optional[Dict[str, np.ndarray]] = field(repr=False)
    #: a chain's first delta: the committer's user ids in tree row
    #: order, which extraction breaks ties by.
    order: Optional[List[str]] = field(repr=False)


@dataclass(frozen=True)
class RecoveredSnapshot:
    """Everything recovery could prove about the last committed state."""

    policy: CloakingPolicy
    serial: int
    fingerprint: Dict[str, object]
    #: flat-engine cost vectors (level-major), when the checkpoint
    #: holds them — ``None`` means cold restore (serving still works).
    dp_vecs: Optional[List[np.ndarray]] = field(default=None, repr=False)
    #: structural digest the vectors were computed against.
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
    #: the ledger recovery checked ``trajectory`` with, for a restore to
    #: take over instead of adopting the arrays again.
    ledger: Optional["TrajectoryLedger"] = field(
        default=None, repr=False, compare=False
    )
    #: after a delta replay: the incremental anonymizer holding the
    #: replayed tree and DP state (``dp_*`` are then ``None``).
    shadow: Optional[IncrementalAnonymizer] = field(
        default=None, repr=False, compare=False
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
    """Warm-start the DP from recovered vectors, or ``None`` to go cold.

    ``tree`` is the object tree rebuilt from the recovered snapshot's
    locations; when the snapshot carries the journalled layout the tree's
    node ids are relabelled in place to the pre-crash ids (see
    :func:`_relabel_tree`).  Returns a full
    :class:`~repro.core.flat_dp.FlatTreeSolution` (memo and fingerprints
    re-derived, so incremental repair behaves exactly as before the
    crash) when the vectors match the rebuilt structure; ``None``
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


def _unpack(link: _Link) -> Tuple[
    Dict[str, object], Dict[str, np.ndarray], Optional[Dict[str, np.ndarray]]
]:
    """A committed file's header, arrays and ``trajectory/`` arrays, its
    format, version, serial and ``state`` block checked; never unpickles.
    Raises what :func:`_refusing` turns into :class:`RecoveryError`."""
    try:
        archive = zipfile.ZipFile(io.BytesIO(link.raw))
    except zipfile.BadZipFile:
        raise ValueError("unknown format/version: not an .npz archive") from None
    with archive:
        arrays = {
            name.removesuffix(".npy"): np.lib.format.read_array(
                archive.open(name), allow_pickle=False
            )
            for name in archive.namelist()
        }
    raw = arrays.pop("header")
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise ValueError("the header is not bytes")
    header = json.loads(raw.tobytes().decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("the header is not a JSON object")
    if header.get("format") != _FORMAT or header.get("version") != _VERSION:
        raise ValueError("unknown format/version")
    if header.get("serial") != link.serial:
        raise ValueError(
            f"it embeds serial {header.get('serial')!r}, but the journal "
            f"committed {link.serial}"
        )
    # A state block of the wrong shape must not silently reset the
    # staleness.
    if not _state_ok(header.get("state", {})):
        raise ValueError("malformed header")
    trajectory = {
        key[len(_LEDGER_PREFIX):]: arrays.pop(key)
        for key in list(arrays)
        if key.startswith(_LEDGER_PREFIX)
    }
    return header, arrays, trajectory or None


def _parse_delta(link: _Link, base: _Link) -> _Delta:
    """A delta's header, moves and ledger rows, checked against the
    ``base`` link it must extend."""
    with _refusing(link):
        header, arrays, trajectory = _unpack(link)
        if header.get("base") != {"serial": base.serial, "checksum": base.checksum}:
            raise ValueError(
                f"it extends {header.get('base')!r}, not the committed "
                f"serial {base.serial}"
            )
        digest = header.get("digest")
        if not isinstance(digest, dict):
            raise ValueError("malformed header")
        ids = decode_ids(arrays["moves/ids"], "the moves' ids")
        coords = arrays["moves/coords"]
        if (
            coords.dtype != np.float64
            or coords.shape != (len(ids), 2)
            or len(set(ids)) != len(ids)
        ):
            raise ValueError(f"{len(ids)} move ids, coords {coords.shape}")
        moves = dict(
            zip(ids, map(Point, coords[:, 0].tolist(), coords[:, 1].tolist()))
        )
        order = None
        if "tree/ids" in arrays:
            order = decode_ids(arrays["tree/ids"], "the tree's row order")
    return _Delta(
        link.serial, str(header.get("name", "loaded")), header.get("state", {}),
        digest, moves, trajectory, order,
    )


def resume_shadow(
    snapshot: RecoveredSnapshot,
    shadow: IncrementalAnonymizer,
    db: Optional[LocationDatabase] = None,
) -> IncrementalAnonymizer:
    """The incremental anonymizer a restore resumes from.

    A replayed snapshot carries its own; otherwise ``shadow`` (fresh,
    with the journal's region, ``k`` and depth) adopts the checkpoint:
    the tree is rebuilt from the recovered locations — ``db``, when
    given, holds them in the row order to build with — and the DP is
    warm when the checkpoint's DP vectors fit it, cold (``solution``
    ``None``) otherwise.
    """
    if snapshot.shadow is not None:
        return snapshot.shadow
    if db is None:
        db = snapshot.policy.db
    shadow.restore(db, snapshot.policy, solution=None)
    shadow.solution = rehydrate_flat_solution(shadow.tree, snapshot, shadow.k)
    return shadow


def _replay(checkpoint: RecoveredSnapshot, deltas: Sequence[_Delta]) -> RecoveredSnapshot:
    """The state after ``deltas``, replayed onto ``checkpoint``.

    Each delta's moves repair the checkpoint's tree and DP through
    :meth:`~repro.core.anonymizer.IncrementalAnonymizer.update` and its
    ledger rows merge into the checkpoint's ledger; the policy is
    extracted once, at the end, and must match the last delta's digest.
    Anything that does not replay raises :class:`RecoveryError`.
    """
    last, order = deltas[-1], deltas[0].order
    fp = checkpoint.fingerprint
    try:
        # Extraction breaks ties by tree row, so the tree is rebuilt in
        # the committer's row order, not the checkpoint's policy order.
        db = checkpoint.policy.db
        if order is None or len(order) != len(db):
            raise ReproError("the chain's first delta lacks the tree's row order")
        region = Rect(*[float(v) for v in fp["region"]])  # type: ignore[union-attr]
        shadow = resume_shadow(
            checkpoint,
            IncrementalAnonymizer(
                region, int(fp["k"]), max_depth=int(fp["max_depth"])  # type: ignore[arg-type]
            ),
            db.subset(order),
        )
        ledger = checkpoint.ledger
        for delta in deltas:
            shadow.update(delta.moves)
            if delta.trajectory is not None:
                if ledger is None:
                    raise ReproError("ledger rows without a ledger")
                ledger.merge_delta(delta.trajectory)
        policy, __ = shadow.solution.extract(last.name)  # type: ignore[union-attr]
        replayed = _solution_digest(shadow.solution, policy)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise RecoveryError(
            f"delta chain to serial {last.serial} does not replay: {exc}",
            reason="corrupt",
        ) from exc
    if replayed != last.digest:
        raise RecoveryError(
            f"delta chain to serial {last.serial} replays to {replayed}, "
            f"but its committer held {last.digest}; refusing to serve it",
            reason="corrupt",
        )
    return dataclasses.replace(
        checkpoint,
        policy=policy,
        serial=last.serial,
        dp_vecs=None,
        dp_structure=None,
        dp_layout=None,
        policy_age=last.state.get("policy_age", 0),  # type: ignore[arg-type]
        rung=str(last.state.get("rung", "fresh")),
        trajectory=None if ledger is None else ledger.to_state(),
        shadow=shadow,
    )


class PolicyJournal:
    """A write-ahead journal of committed (policy, db-serial) snapshots.

    One journal directory serves one CSP deployment.  ``commit`` is
    crash-consistent (see the module docstring); ``recover`` returns the
    newest snapshot whose commit record and content checksum both
    validate, failing closed on any sign of corruption.

    ``keep_last`` bounds disk for long-lived deployments: after every
    commit the journal retains only the newest ``keep_last`` committed
    serials and the serials their delta chains replay from — older
    files are deleted and the log is compacted to just the surviving
    intent/commit pairs (see :meth:`prune`).  Recovery needs one
    committed serial and its chain, so any
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
        with open(self._journal_path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    # A crash mid-append left a partial line, a record
                    # never committed: drop it, or this record would
                    # extend it into a corrupt line mid-history.
                    handle.seek(0)
                    handle.truncate(handle.read().rfind(b"\n") + 1)
            handle.write((canonical_dumps(dict(record)) + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())

    @staticmethod
    def _checkpoint_file(serial: int) -> str:
        return f"snapshot-{serial:06d}.npz"

    @staticmethod
    def _delta_file(serial: int) -> str:
        return f"snapshot-{serial:06d}.delta.npz"

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

        ``policy`` is a policy to :meth:`encode` (a checkpoint) with the
        other arguments, or an :class:`EncodedCommit` — a checkpoint or
        a delta — written as it is.
        ``_chaos`` is the quorum layer's destruction hook: it is called
        with ``"intent"`` after the intent record is durable and with
        ``"snapshot"`` after the commit's file is renamed into place, so
        a chaos schedule can destroy this replica's media at exactly
        those points (see :class:`~repro.robustness.chaos.ReplicaKillPlan`).
        """
        encoded = policy if isinstance(policy, EncodedCommit) else self.encode(
            policy, serial, fingerprint, solution, state  # type: ignore[arg-type]
        )
        intent: Dict[str, object] = {
            "op": "intent",
            "serial": encoded.serial,
            "file": encoded.file,
            "checksum": encoded.checksum,
        }
        if encoded.base is not None:
            intent["base"] = encoded.base
        self._append(intent)
        if _chaos is not None:
            _chaos("intent")
        atomic_write_bytes(os.path.join(self.root, encoded.file), encoded.raw)
        if _chaos is not None:
            _chaos("snapshot")
        self._append({"op": "commit", "serial": encoded.serial})
        if self.keep_last is not None:
            self.prune(self.keep_last)
        return encoded.checksum

    @staticmethod
    def encode(
        policy: CloakingPolicy,
        serial: int,
        fingerprint: Mapping[str, object],
        solution=None,
        state: Optional[Mapping[str, object]] = None,
    ) -> EncodedCommit:
        """Build one checkpoint's bytes, once, for any number of journals.

        The policy becomes rows in the file (a cloak that is not a
        ``Rect`` raises :class:`ReproError` before any byte is written).
        ``solution`` may be a flat-engine
        :class:`~repro.core.flat_dp.FlatTreeSolution`, whose cost vectors
        and flat layout join the file under ``dp/`` keys, enabling warm
        restarts; any other value (or ``None``) commits the policy alone.
        ``state`` is the committer's serving state —
        ``{"policy_age": int, "rung": str}`` — journalled in the header
        so a restore inherits accumulated staleness instead of silently
        resetting to fresh.  Its ``"trajectory"`` entry, a ledger's
        :meth:`~repro.trajectory.ledger.TrajectoryLedger.to_state` arrays
        (or the ledger itself), joins the file under ``trajectory/`` keys.
        """
        arrays = _policy_arrays(policy)
        header: Dict[str, object] = {
            "serial": int(serial),
            "fingerprint": dict(fingerprint),
            "name": policy.name,
        }
        if state is not None:
            header["state"] = _state_block(state)
            trajectory = state.get("trajectory")
            if trajectory is not None:
                for key, value in _ledger_state(trajectory).items():
                    arrays[_LEDGER_PREFIX + key] = value
        dp = _dp_arrays(solution)
        if dp is not None:
            header["dp"], dp_members = dp
            arrays.update(dp_members)
        raw = _pack(header, arrays)
        return EncodedCommit(int(serial), raw, _digest(raw))

    @staticmethod
    def encode_delta(
        policy: CloakingPolicy,
        serial: int,
        base: Tuple[int, str],
        moves: Mapping[str, Point],
        solution,
        state: Optional[Mapping[str, object]] = None,
        ledger_rows: Optional[Mapping[str, np.ndarray]] = None,
        order: Optional[Sequence[str]] = None,
    ) -> EncodedCommit:
        """Build one delta commit's bytes: the moves that repaired the
        ``base`` commit's state ``(serial, checksum)`` into ``policy``.

        ``solution`` is the repaired solution; its digest (with the
        policy's) is what a replay must reproduce.  ``ledger_rows`` is
        a :meth:`~repro.trajectory.ledger.TrajectoryLedger.delta_state`.
        ``order`` — the user ids in the solution tree's row order — is
        required when ``base`` is a checkpoint, whose policy rows do not
        keep that order.  The base's checksum inside the file makes
        equal (serial, checksum) pairs name equal chains.
        """
        header: Dict[str, object] = {
            "serial": int(serial),
            "name": policy.name,
            "base": {"serial": int(base[0]), "checksum": str(base[1])},
            "digest": _solution_digest(solution, policy),
        }
        if state is not None:
            header["state"] = _state_block(state)
        points = list(moves.values())
        arrays = {
            "moves/ids": encode_ids([str(uid) for uid in moves]),
            "moves/coords": np.array(
                [(p.x, p.y) for p in points], dtype=np.float64
            ).reshape(-1, 2),
        }
        if order is not None:
            arrays["tree/ids"] = encode_ids(list(order))
        for key, value in (ledger_rows or {}).items():
            arrays[_LEDGER_PREFIX + key] = value
        raw = _pack(header, arrays)
        return EncodedCommit(int(serial), raw, _digest(raw), base=int(base[0]))

    def prune(self, keep_last: int) -> Tuple[int, ...]:
        """Retain only the newest ``keep_last`` committed serials and the
        serials their delta chains replay from.

        Two steps, ordered so a crash at any point leaves a journal
        that still recovers (pruning must never be the thing that loses
        state):

        1. the **compacted log** is written first, via atomic replace —
           only the surviving serials' intent/commit records remain, so
           the journal file stops growing one pair per commit;
        2. then the dropped serials' files are deleted.

        A crash between (1) and (2) merely leaves orphaned files that
        the next prune removes; the reverse order could leave a log
        whose newest committed serial has no file — a fail-closed (but
        needless) :class:`RecoveryError` at restart.
        Returns the serials that were pruned.
        """
        _check_keep_last(keep_last)
        return self._prune(self._read_journal()[0], keep_last)

    def _prune(
        self, records: List[Dict[str, object]], keep_last: int
    ) -> Tuple[int, ...]:
        """:meth:`prune` over the journal's parsed ``records``."""
        serials = self._committed(records)
        bases = {
            r["serial"]: r.get("base") for r in records if r.get("op") == "intent"
        }
        keep = set(serials[-keep_last:])
        pending = list(keep)
        while pending:
            base = bases.get(pending.pop())
            if base is not None and base not in keep:
                keep.add(base)
                pending.append(base)
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
            for name in self.files_for_serial(serial):
                os.remove(os.path.join(self.root, name))
        return dropped

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
        return self._committed(self._read_journal()[0])

    @staticmethod
    def _committed(records: Sequence[Mapping[str, object]]) -> List[int]:
        """:meth:`committed_serials` of parsed ``records``."""
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
        stale rung.  A newest serial that is a delta is replayed onto its
        chain's checkpoint (see the module docstring).
        """
        return self._decode(
            self._read_chain(), fingerprint, current_serial, max_stale_snapshots
        )

    def _read_chain(self) -> _Chain:
        """The newest committed serial's chain, each file read and
        checked against its checksum.  Nothing is decoded."""
        records, torn_tail = self._read_journal()
        serials = self._committed(records)
        if not serials:
            raise RecoveryError(
                "journal holds no committed snapshot", reason="empty"
            )
        intents = {
            r["serial"]: r for r in records if r.get("op") == "intent"
        }
        committed = set(serials)
        links: List[_Link] = []
        serial = serials[-1]
        while True:
            intent = intents[serial]
            links.append(_Link(serial, intent, self._read_committed(intent)))
            base = intent.get("base")
            if base is None:
                break
            if type(base) is not int or base >= serial or base not in committed:
                raise RecoveryError(
                    f"delta {intent['file']!r} replays from serial {base!r}, "
                    "which the journal does not hold committed: the chain "
                    "has a gap",
                    reason="corrupt",
                )
            serial = base
        links.reverse()
        return _Chain(links, torn_tail, serials)

    def _read_committed(self, intent: Mapping[str, object]) -> bytes:
        """The bytes of the file ``intent`` names, checksum-checked."""
        path = os.path.join(self.root, str(intent["file"]))
        if not os.path.exists(path):
            raise RecoveryError(
                f"committed file {intent['file']!r} is missing",
                reason="corrupt",
            )
        with open(path, "rb") as handle:
            raw = handle.read()
        if _digest(raw) != intent["checksum"]:
            raise RecoveryError(
                f"committed file {intent['file']!r} fails its journalled "
                "checksum (torn write or bit flip); refusing to serve it",
                reason="corrupt",
            )
        return raw

    def _decode(
        self,
        chain: _Chain,
        fingerprint: Optional[Mapping[str, object]],
        current_serial: Optional[int],
        max_stale_snapshots: int,
    ) -> RecoveredSnapshot:
        """The state a :meth:`_read_chain` chain commits: the checkpoint
        decoded, then every delta replayed — fail closed on doubt.

        The policy and the ledger are privacy state, so a policy that
        does not rebuild (Definition 4 is re-checked by
        :meth:`CloakingPolicy.from_rows`), a ledger state of another
        version or with inconsistent arrays (checked by adopting it into
        the ledger returned) and DP members that disagree raise
        :class:`RecoveryError`.
        """
        from ..trajectory.ledger import TrajectoryLedger

        links = chain.links
        with _refusing(links[0]):
            header, arrays, trajectory = _unpack(links[0])
            committed_fp = header.get("fingerprint")
            if not isinstance(committed_fp, dict):
                raise ValueError("malformed header")
        if fingerprint is not None:
            for key, value in dict(fingerprint).items():
                if committed_fp.get(key) != value:
                    raise RecoveryError(
                        f"engine fingerprint mismatch on {key!r}: "
                        f"journal has {committed_fp.get(key)!r}, "
                        f"deployment expects {value!r}",
                        reason="fingerprint",
                    )
        deltas = [
            _parse_delta(link, base) for base, link in zip(links, links[1:])
        ]
        state = cast(Dict[str, object], header.get("state", {}))
        policy_age = cast(int, (deltas[-1].state if deltas else state).get("policy_age", 0))
        _check_stale(
            policy_age, links[-1].serial, current_serial, max_stale_snapshots
        )
        with _refusing(links[0]):
            policy = _policy_from_arrays(arrays, str(header.get("name", "loaded")))
            ledger = None
            if trajectory is not None:
                ledger = TrajectoryLedger.from_state(trajectory)
            dp_vecs, dp_structure, dp_layout = _dp_state(header.get("dp"), arrays)
        snapshot = RecoveredSnapshot(
            policy=policy,
            serial=links[0].serial,
            fingerprint=committed_fp,
            dp_vecs=dp_vecs,
            dp_structure=dp_structure,
            dp_layout=dp_layout,
            torn_tail=chain.torn_tail,
            checksum=links[-1].checksum,
            policy_age=policy_age,
            rung=str(state.get("rung", "fresh")),
            trajectory=trajectory,
            ledger=ledger,
        )
        recovered = _replay(snapshot, deltas) if deltas else snapshot
        _check_anonymous(recovered.policy, committed_fp.get("k"))
        return recovered

    def files_for_serial(self, serial: int) -> List[str]:
        """Names of the files of one committed serial that actually
        exist: its checkpoint or its delta."""
        return [
            name
            for name in (self._checkpoint_file(serial), self._delta_file(serial))
            if os.path.exists(os.path.join(self.root, name))
        ]


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

    Commits that repair the previous state with a batch of moves are
    written as deltas (see the module docstring) while every replica
    holds the chain they extend.

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
        #: the newest commit a delta may extend, acked with its whole
        #: chain by every replica (``None``: the next commit is a
        #: checkpoint).
        self._head: Optional[_Head] = None

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
        moves: Optional[Mapping[str, Point]] = None,
    ) -> str:
        """Mirror one commit to every replica; fail closed below quorum.

        The commit is encoded once and every replica writes the same
        bytes.  ``moves`` is the batch that repaired the previous
        commit's state into ``solution`` and ``policy``: the commit is
        then a delta (:meth:`PolicyJournal.encode_delta`) unless the
        previous commit did not reach every replica or the deltas since
        the last checkpoint would reach its size.  With ``state["trajectory"]``
        a ledger, a delta carries only its rows folded since the last
        delta.  Per-replica failures (missing media, permission errors,
        a chaos destruction mid-write) are contained: the replica simply
        does not ack.  With ``acks ≥ ⌊N/2⌋+1`` the commit is durable and its
        checksum is returned; below that the quorum is lost and
        :class:`RecoveryError` (``reason="quorum"``) propagates — the
        caller must treat the state advance as not having happened.
        """
        head, self._head = self._head, None
        encoded = self._encode(
            head, policy, serial, fingerprint, solution, state, moves
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
        # A delta is acked only by replicas holding its whole chain, so
        # a chain goes on only while every replica has acked all of it.
        self._head = None if failures else _Head.after(head, encoded)
        return encoded.checksum

    @staticmethod
    def _encode(
        head: Optional[_Head],
        policy: CloakingPolicy,
        serial: int,
        fingerprint: Mapping[str, object],
        solution,
        state: Optional[Mapping[str, object]],
        moves: Optional[Mapping[str, Point]],
    ) -> EncodedCommit:
        """A delta on ``head`` when one is allowed and smaller than what
        the chain has left, else a checkpoint."""
        trajectory = None if state is None else state.get("trajectory")
        delta_state = getattr(trajectory, "delta_state", None)
        if (
            moves is not None
            and head is not None
            and solution is not None
            and all(key in fingerprint for key in _REPLAY_KEYS)
            and (trajectory is None or delta_state is not None)
        ):
            delta = PolicyJournal.encode_delta(
                policy, serial, (head.serial, head.checksum), moves,
                solution, state, None if delta_state is None else delta_state(),
                # The chain's first delta (its base is the checkpoint).
                solution.tree.user_ids if head.deltas == 0 else None,
            )
            if head.deltas + len(delta.raw) < head.checkpoint:
                return delta
        return PolicyJournal.encode(policy, serial, fingerprint, solution, state)

    def prune(self, keep_last: int) -> Tuple[int, ...]:
        """Quorum-coordinated retention: prune every healthy replica.

        Refuses (fail-closed, nothing touched) unless a write quorum of
        replicas is healthy *before* pruning, and raises if fewer than a
        write quorum completed their prune — otherwise a lagging
        minority replica could keep serials the majority dropped and a
        later vote-less restore could resurrect them.
        """
        _check_keep_last(keep_last)
        # Each replica's log is parsed once: the records that show it
        # healthy are the ones its prune compacts.
        healthy: List[Tuple[int, List[Dict[str, object]]]] = []
        for index, replica in enumerate(self.replicas):
            try:
                records, __ = replica._read_journal()
                replica._committed(records)
            except (RecoveryError, OSError):
                continue
            healthy.append((index, records))
        if len(healthy) < self.quorum:
            raise RecoveryError(
                f"only {len(healthy)} of {len(self.replicas)} replicas "
                f"are readable (write quorum {self.quorum}); refusing to "
                "prune — retention must stay quorum-coordinated",
                reason="quorum",
            )
        dropped: set = set()
        pruned = 0
        for index, records in healthy:
            try:
                dropped.update(self.replicas[index]._prune(records, keep_last))
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

        Every replica's newest chain is read and checksum-checked; the
        vote key is the (serial, checksum) identity of its newest
        commit, which pins the whole chain.  Each distinct identity is
        then decoded (and replayed) once, from one of its voters, with
        the single-journal fail-closed checks: an identity that does not
        decode loses its votes.  The newest identity holding a read
        quorum of votes wins and is returned.  No quorum — too many
        replicas destroyed, or a divergent split with no majority —
        raises :class:`RecoveryError` (``reason="quorum"``): the CSP
        must refuse to serve rather than adopt state it cannot prove,
        and in particular must **never** fall back to serving some
        coarser policy.  With ``repair=True`` (the default) every
        replica outside the winning vote is rewritten from a voter and
        the repair is timed (:attr:`last_recovery`).
        """
        chains: Dict[int, _Chain] = {}
        votes: Dict[Tuple[int, str], List[int]] = {}
        states: List[str] = []
        for index, replica in enumerate(self.replicas):
            try:
                chains[index] = chain = replica._read_chain()
            except RecoveryError as exc:
                states.append(exc.reason)
                continue
            except OSError:
                states.append("corrupt")
                continue
            states.append("torn" if chain.torn_tail else "ok")
            votes.setdefault(chain.identity, []).append(index)
        decoded: Dict[Tuple[int, str], RecoveredSnapshot] = {}
        for key, who in list(votes.items()):
            # Voters hold byte-identical chains; decode a clean one.
            first = min(who, key=lambda i: (chains[i].torn_tail, i))
            try:
                decoded[key] = self.replicas[first]._decode(
                    chains[first], fingerprint, None, max_stale_snapshots
                )
            except (RecoveryError, OSError) as exc:
                reason = exc.reason if isinstance(exc, RecoveryError) else "corrupt"
                for index in who:
                    states[index] = reason
                    del chains[index]
                del votes[key]
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
        snapshot = decoded[winner]
        _check_stale(
            snapshot.policy_age, serial, current_serial, max_stale_snapshots
        )
        # Retention must also agree: a replica that voted for the
        # winning state but kept serials the quorum has pruned (it
        # missed a quorum-coordinated prune while offline) is
        # retention-divergent.  Left alone, its stale tail would sit
        # waiting for enough other failures to make it the deciding
        # copy; repairing it here keeps every majority bit-identical,
        # so pruned serials can never be resurrected.
        serial_sets = {index: tuple(chain.serials) for index, chain in chains.items()}
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
            or chains[index].torn_tail
            or (canonical and serial_sets[index] != quorum_set)
        )
        for index in laggards:
            if index in chains and states[index] == "ok":
                states[index] = (
                    "lagging" if chains[index].identity[0] < serial
                    else "divergent"
                )
        # Prefer a clean, retention-canonical voter as the repair source.
        source = min(
            voters,
            key=lambda i: (chains[i].torn_tail, serial_sets[i] != quorum_set, i),
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
        self._head = chains[source].head
        return snapshot

    def _repair_replica(self, index: int, source: int) -> None:
        """Rewrite replica ``index`` from voter ``source`` (or, with
        ``index == source``, drop its torn tail).

        Artifacts first, journal last (the same ordering argument as
        :meth:`PolicyJournal.prune`): a crash mid-repair leaves either
        orphaned snapshot files (harmless) or the old journal (the
        replica stays exactly as broken as before) — never a journal
        referencing files that are not there yet.
        """
        from .chaos import destroy_replica

        src = self.replicas[source]
        dst_root = self.roots[index]
        records, __ = src._read_journal()
        if index != source:
            destroy_replica(dst_root)
            os.makedirs(dst_root, exist_ok=True)
            for serial in src._committed(records):
                for name in src.files_for_serial(serial):
                    with open(os.path.join(src.root, name), "rb") as handle:
                        atomic_write_bytes(
                            os.path.join(dst_root, name), handle.read()
                        )
        # The log as parsed: a torn tail (even the source's own) is
        # dropped, never copied.
        log = "".join(canonical_dumps(record) + "\n" for record in records)
        atomic_write_bytes(
            os.path.join(dst_root, _JOURNAL_FILE), log.encode("utf-8")
        )
        self.replicas[index] = PolicyJournal(dst_root)
