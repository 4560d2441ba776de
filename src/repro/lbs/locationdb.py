"""Compatibility re-export.

The location database lives in :mod:`repro.core.locationdb` (every
layer of the library consumes it), but conceptually it belongs to the
LBS model of §II-A, so it stays importable from here.

Privacy note: everything this module exports is a raw-location source
for the :mod:`repro.analysis` taint rules — the backing coordinate
column ``_coords`` is tagged ``# taint: location`` at its definition, so
values read through either import path are tracked identically.
"""

from ..core.locationdb import LocationDatabase, SnapshotSequence

__all__ = ["LocationDatabase", "SnapshotSequence"]
