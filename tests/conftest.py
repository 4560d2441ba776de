"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LocationDatabase, Rect
from repro.data import square_region, uniform_users


@pytest.fixture
def table1_db() -> LocationDatabase:
    """Table I of the paper: the five users of the running example."""
    return LocationDatabase(
        [
            ("Alice", 1, 1),
            ("Bob", 1, 2),
            ("Carol", 1, 4),
            ("Sam", 3, 1),
            ("Tom", 4, 4),
        ]
    )


@pytest.fixture
def table1_region() -> Rect:
    return Rect(0, 0, 4, 4)


@pytest.fixture
def small_region() -> Rect:
    return square_region(1024)


@pytest.fixture
def small_db(small_region) -> LocationDatabase:
    """200 uniformly placed users — enough structure for k up to ~20."""
    return uniform_users(200, small_region, seed=1234)


def random_instance(seed: int, n_range=(4, 30), k_range=(2, 6), side=64.0):
    """A random (region, db, k) triple for randomized cross-checks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(*n_range))
    k = int(rng.integers(*k_range))
    coords = rng.uniform(0, side, size=(n, 2))
    return Rect(0, 0, side, side), LocationDatabase.from_array(coords), k


def same_ledger_state(a, b) -> bool:
    """Two ``TrajectoryLedger.to_state`` snapshots hold the same arrays:
    same keys, dtypes, shapes and values."""
    return sorted(a) == sorted(b) and all(
        np.asarray(a[key]).dtype == np.asarray(b[key]).dtype
        and np.array_equal(a[key], b[key])
        for key in a
    )
