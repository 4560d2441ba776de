"""Persistence for location snapshots and cloaking policies.

A CSP computes a policy per location-database snapshot and serves
requests from it for the snapshot's lifetime; operationally that means
policies are shipped between the bulk-anonymization tier and the
request-serving tier.  This module provides a stable JSON format for
policies (rectangular and circular cloaks) and a CSV format for
location databases (the relation of §II-A), with full round-trip
fidelity — masking validation re-runs on load, so a corrupted file
cannot smuggle in a non-masking policy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from typing import Dict, List, TextIO, Union

import numpy as np

from .errors import ReproError
from .geometry import Circle, Point, Rect
from .locationdb import LocationDatabase
from .policy import CloakingPolicy

__all__ = [
    "policy_to_dict",
    "policy_from_dict",
    "save_policy",
    "load_policy",
    "write_locations_csv",
    "read_locations_csv",
    "canonical_dumps",
    "checksum_of",
    "atomic_write_json",
    "atomic_write_bytes",
    "encode_ids",
    "decode_ids",
]

_FORMAT = "repro-policy"
_VERSION = 1


def _region_to_dict(region: Union[Rect, Circle]) -> Dict[str, object]:
    if isinstance(region, Rect):
        return {
            "type": "rect",
            "x1": region.x1,
            "y1": region.y1,
            "x2": region.x2,
            "y2": region.y2,
        }
    if isinstance(region, Circle):
        return {
            "type": "circle",
            "cx": region.center.x,
            "cy": region.center.y,
            "r": region.radius,
        }
    raise ReproError(f"unsupported cloak type: {type(region).__name__}")


def _region_from_dict(data: Dict[str, object]) -> Union[Rect, Circle]:
    kind = data.get("type")
    if kind == "rect":
        return Rect(
            float(data["x1"]), float(data["y1"]),
            float(data["x2"]), float(data["y2"]),
        )
    if kind == "circle":
        return Circle(
            Point(float(data["cx"]), float(data["cy"])), float(data["r"])
        )
    raise ReproError(f"unknown cloak type in policy file: {kind!r}")


def policy_to_dict(policy: CloakingPolicy) -> Dict[str, object]:
    """The JSON-ready representation of a policy and its snapshot."""
    users = []
    for user_id, region in policy.items():
        location = policy.db.location_of(user_id)
        users.append(
            {
                "id": user_id,
                "x": location.x,
                "y": location.y,
                "cloak": _region_to_dict(region),
            }
        )
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "name": policy.name,
        "users": users,
    }


def policy_from_dict(data: Dict[str, object]) -> CloakingPolicy:
    """Rebuild a policy (masking-validated) from its representation."""
    if data.get("format") != _FORMAT:
        raise ReproError(
            f"not a {_FORMAT} document (format={data.get('format')!r})"
        )
    if int(data.get("version", -1)) != _VERSION:
        raise ReproError(
            f"unsupported policy file version {data.get('version')!r}"
        )
    rows = [(u["id"], float(u["x"]), float(u["y"])) for u in data["users"]]
    db = LocationDatabase(rows)
    cloaks = {
        u["id"]: _region_from_dict(u["cloak"]) for u in data["users"]
    }
    return CloakingPolicy(cloaks, db, name=str(data.get("name", "loaded")))


def save_policy(policy: CloakingPolicy, path: str) -> None:
    """Write a policy (with its snapshot) to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(policy_to_dict(policy), handle, indent=1)


def load_policy(path: str) -> CloakingPolicy:
    """Read a policy back; masking is re-validated on load."""
    with open(path, "r", encoding="utf-8") as handle:
        return policy_from_dict(json.load(handle))


def encode_ids(ids: List[str]) -> np.ndarray:
    """User ids as UTF-8 JSON bytes in a ``uint8`` array: how the
    trajectory ledger's intern table and the journal's policy rows carry
    ids through an ``.npz`` without pickle."""
    return np.frombuffer(json.dumps(ids).encode("utf-8"), np.uint8)


def decode_ids(encoded: np.ndarray, what: str) -> List[str]:
    """The ids :func:`encode_ids` wrote; :class:`ReproError` naming
    ``what`` for an array that is not such an encoding (deeply nested
    JSON raises :class:`RecursionError` in the parser; it is refused the
    same way)."""
    try:
        if encoded.dtype != np.uint8 or encoded.ndim != 1:
            raise ValueError(f"a {encoded.dtype} array of shape {encoded.shape}")
        ids = json.loads(encoded.tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ReproError(f"{what} is not UTF-8 JSON: {exc}") from None
    if not isinstance(ids, list) or not all(isinstance(u, str) for u in ids):
        raise ReproError(f"{what} is not a list of ids")
    return ids


# -- durable, checksummed writes (the recovery substrate) ----------------------


def canonical_dumps(data) -> str:
    """Deterministic JSON encoding: sorted keys, fixed separators.

    Checksums are computed over this form, so two processes serializing
    the same logical document always agree on the digest.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def checksum_of(data) -> str:
    """Content checksum of a JSON-ready document (hex blake2b-128)."""
    return hashlib.blake2b(
        canonical_dumps(data).encode("utf-8"), digest_size=16
    ).hexdigest()


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` crash-consistently.

    The bytes land in a temporary file in the same directory, are
    fsync'd, and only then renamed over ``path`` — a reader (or a
    restarted process) sees either the complete old file or the complete
    new one, never a torn intermediate.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # Make the rename itself durable (directory entry).
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    except OSError:
        pass  # not all filesystems support directory fsync
    finally:
        os.close(dir_fd)


def atomic_write_json(path: str, data) -> str:
    """Atomically persist a JSON document; returns its content checksum."""
    digest = checksum_of(data)
    atomic_write_bytes(path, canonical_dumps(data).encode("utf-8"))
    return digest


def write_locations_csv(db: LocationDatabase, target: Union[str, TextIO]) -> None:
    """Write the location relation as ``userid,locx,locy`` CSV."""
    own = isinstance(target, str)
    handle = open(target, "w", newline="", encoding="utf-8") if own else target
    try:
        writer = csv.writer(handle)
        writer.writerow(["userid", "locx", "locy"])
        for row in db.rows():
            writer.writerow(row)
    finally:
        if own:
            handle.close()


def read_locations_csv(source: Union[str, TextIO]) -> LocationDatabase:
    """Read a ``userid,locx,locy`` CSV into a location database."""
    own = isinstance(source, str)
    handle = open(source, "r", newline="", encoding="utf-8") if own else source
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != [
            "userid",
            "locx",
            "locy",
        ]:
            raise ReproError(
                "location CSV must start with header 'userid,locx,locy'"
            )
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ReproError(f"malformed CSV row at line {line_no}: {row!r}")
            try:
                rows.append((row[0], float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ReproError(
                    f"non-numeric coordinate at line {line_no}: {row!r}"
                ) from exc
        return LocationDatabase(rows)
    finally:
        if own:
            handle.close()
