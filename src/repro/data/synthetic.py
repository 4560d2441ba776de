"""Synthetic location workloads following the paper's §VI recipe.

The paper starts from ~175k real street-intersection points for the SF
Bay Area, observes that intersection density tracks population density,
and then inserts **10 user locations around each intersection with a
Gaussian of σ = 500 m**, yielding a 1.75M-location *Master* dataset;
experiment sizes are random samples of the master.

The real intersection dataset is not available offline, so we generate
an intersection-like point set with the same statistical character: a
clustered point process — a handful of heavy-tailed "city centers"
spreading intersections with per-city Gaussian footprints, plus a thin
uniform rural background.  Everything downstream (tree shape, runtime
scaling, cloak areas) only depends on this multi-scale skewed density,
which DESIGN.md discusses as the substitution's justification.

All functions are deterministic given a seed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.errors import WorkloadError
from ..core.geometry import Rect
from ..core.locationdb import LocationDatabase
from .regions import bay_area_region

__all__ = [
    "generate_intersections",
    "users_from_intersections",
    "bay_area_master",
    "sample_users",
    "uniform_users",
]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _clip_to(region: Rect, coords: np.ndarray) -> np.ndarray:
    coords[:, 0] = np.clip(coords[:, 0], region.x1, region.x2)
    coords[:, 1] = np.clip(coords[:, 1], region.y1, region.y2)
    return coords


def generate_intersections(
    n: int,
    region: Rect,
    seed=0,
    n_centers: int = 40,
    background_fraction: float = 0.08,
) -> np.ndarray:
    """Generate ``n`` street-intersection-like points in ``region``.

    City centers are drawn uniformly; their "sizes" follow a heavy
    tailed (Pareto-ish) weight so a few metro cores dominate, like the
    Figure 2 density maps.  Each center scatters intersections with its
    own Gaussian footprint (bigger cities sprawl wider); a small uniform
    background models rural roads.
    """
    if n < 1:
        raise WorkloadError(f"need at least one intersection, got {n}")
    if not 0.0 <= background_fraction < 1.0:
        raise WorkloadError("background_fraction must be in [0, 1)")
    rng = _rng(seed)
    span = min(region.width, region.height)

    n_background = int(round(n * background_fraction))
    n_clustered = n - n_background

    centers = np.column_stack(
        [
            rng.uniform(region.x1, region.x2, size=n_centers),
            rng.uniform(region.y1, region.y2, size=n_centers),
        ]
    )
    weights = rng.pareto(1.2, size=n_centers) + 0.05
    weights /= weights.sum()
    # Bigger cities sprawl wider: footprint σ between 1% and 6% of span.
    sigmas = span * (0.01 + 0.05 * (weights / weights.max()))

    assignment = rng.choice(n_centers, size=n_clustered, p=weights)
    offsets = rng.normal(size=(n_clustered, 2)) * sigmas[assignment, None]
    clustered = centers[assignment] + offsets

    background = np.column_stack(
        [
            rng.uniform(region.x1, region.x2, size=n_background),
            rng.uniform(region.y1, region.y2, size=n_background),
        ]
    )
    coords = np.vstack([clustered, background])
    return _clip_to(region, coords)


def users_from_intersections(
    intersections: np.ndarray,
    region: Rect,
    users_per_intersection: int = 10,
    sigma: float = 500.0,
    seed=0,
) -> np.ndarray:
    """The paper's exact user-placement step: ``users_per_intersection``
    locations around each intersection, Gaussian with σ = ``sigma``
    meters (500 m in §VI), clipped to the map."""
    if users_per_intersection < 1:
        raise WorkloadError("need at least one user per intersection")
    rng = _rng(seed)
    repeated = np.repeat(intersections, users_per_intersection, axis=0)
    jitter = rng.normal(scale=sigma, size=repeated.shape)
    return _clip_to(region, repeated + jitter)


def bay_area_master(
    seed=0,
    n_intersections: int = 20_000,
    users_per_intersection: int = 10,
    sigma: float = 500.0,
    region: Optional[Rect] = None,
) -> Tuple[Rect, LocationDatabase]:
    """Build a Master dataset à la §VI and return ``(region, db)``.

    Paper scale is ``n_intersections=175_000`` (→ 1.75M users); the
    default here is a laptop-friendly 20k (→ 200k users).  Experiment
    sizes should be drawn from the master with :func:`sample_users`,
    exactly as the paper scales its experiments.
    """
    if region is None:
        region = bay_area_region()
    rng = _rng(seed)
    intersections = generate_intersections(n_intersections, region, rng)
    coords = users_from_intersections(
        intersections, region, users_per_intersection, sigma, rng
    )
    return region, LocationDatabase.from_array(coords)


def sample_users(master: LocationDatabase, n: int, seed=0) -> LocationDatabase:
    """A uniform random sample of ``n`` users from the master dataset,
    preserving their master ids (the paper's 100k/200k/... samples)."""
    if n > len(master):
        raise WorkloadError(
            f"cannot sample {n} users from a master of {len(master)}"
        )
    rng = _rng(seed)
    chosen = rng.choice(len(master), size=n, replace=False)
    return master.take(np.sort(chosen))


def uniform_users(n: int, region: Rect, seed=0) -> LocationDatabase:
    """``n`` users uniformly distributed in ``region`` (the distribution
    under which the complexity analysis of §V is stated)."""
    rng = _rng(seed)
    coords = np.column_stack(
        [
            rng.uniform(region.x1, region.x2, size=n),
            rng.uniform(region.y1, region.y2, size=n),
        ]
    )
    return LocationDatabase.from_array(coords)
