"""Points of interest and a POI store over per-category coordinate arrays.

The LBS provider answers "nearest restaurant"-style queries.  With
cloaked requests it cannot pinpoint the requester, so (as in Casper's
privacy-aware query processing, discussed in §VII) it returns a
*candidate set* guaranteed to contain the true nearest neighbour of
every possible location inside the cloak; the client filters locally.

Each category keeps its POIs in grid order beside numpy arrays of their
coordinates, so a query is one vectorized mask and answers in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.errors import ReproError, WorkloadError
from ..core.geometry import Point, Rect

__all__ = ["POI", "POIDatabase", "generate_pois"]


@dataclass(frozen=True)
class POI:
    """A point of interest: id, location, and a category tag
    (matching the ``(poi, <category>)`` payload pairs of Example 2)."""

    poi_id: str
    location: Point
    category: str


def _loose(limit: float) -> float:
    """``limit`` widened past any rounding gap between numpy's and
    ``math.hypot``'s distances: a prefilter the scalar test confirms."""
    return limit * (1 + 1e-9) + 1e-9


def _inside(xs: np.ndarray, ys: np.ndarray, rect: Rect) -> np.ndarray:
    """:meth:`Rect.contains` over coordinate arrays."""
    return (xs >= rect.x1) & (xs <= rect.x2) & (ys >= rect.y1) & (ys <= rect.y2)


class POIDatabase:
    """Store of POIs with range / NN-candidate queries answered in *grid
    order*: cell ``(cx, cy)`` of a uniform ``grid_cells``² grid ascending,
    then insertion order.  Pickles as its region, POIs and grid size."""

    def __init__(self, region: Rect, pois: Iterable[POI], grid_cells: int = 64):
        if grid_cells < 1:
            raise ReproError("grid must have at least one cell per side")
        self.region = region
        self.grid_cells = grid_cells
        self._cell_w = region.width / grid_cells
        self._cell_h = region.height / grid_cells
        self._pois = tuple(pois)
        for poi in self._pois:
            if not region.contains(poi.location):
                raise ReproError(f"POI {poi.poi_id!r} outside the map")
        # ``sorted`` is stable: POIs sharing a cell keep insertion order.
        ordered = sorted(self._pois, key=lambda poi: self._cell_of(poi.location))
        groups: Dict[Optional[str], List[POI]] = {None: ordered}
        for poi in ordered:
            groups.setdefault(poi.category, []).append(poi)
        #: category (``None``: all) → (its POIs in grid order, (xs, ys)).
        self._tables = {
            key: (tuple(group), np.array([p.location.as_tuple() for p in group]).reshape(-1, 2).T)
            for key, group in groups.items()
        }

    def __reduce__(self):
        return (POIDatabase, (self.region, self._pois, self.grid_cells))

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        cx = min(int((point.x - self.region.x1) / self._cell_w), self.grid_cells - 1)
        cy = min(int((point.y - self.region.y1) / self._cell_h), self.grid_cells - 1)
        return (cx, cy)

    def __len__(self) -> int:
        return len(self._pois)

    def categories(self) -> List[str]:
        return sorted(key for key in self._tables if key is not None)

    def in_category(self, category: str) -> List[POI]:
        return [poi for poi in self._pois if poi.category == category]

    # -- queries -----------------------------------------------------------------

    def range_query(self, rect: Rect, category: Optional[str] = None) -> List[POI]:
        """All POIs inside ``rect`` (optionally category-filtered)."""
        pois, (xs, ys) = self._tables.get(category, ((), (None, None)))
        return [pois[i] for i in np.flatnonzero(_inside(xs, ys, rect))] if pois else []

    def nearest(self, point: Point, category: Optional[str] = None) -> Optional[POI]:
        """The POI nearest to ``point`` (``None`` if there is none); of
        POIs at the same ``math.hypot`` distance, the first in grid order."""
        pois, (xs, ys) = self._tables.get(category, ((), (None, None)))
        return _closest(pois, np.hypot(xs - point.x, ys - point.y), point)[0] if pois else None

    def nn_candidates(
        self, cloak: Rect, category: Optional[str] = None
    ) -> List[POI]:
        """A candidate set containing the nearest POI of *every* point in
        the cloak.

        Soundness: let ``p₀`` be the POI nearest to the cloak's center,
        at distance ``d₀``.  Any point ``q`` in the cloak has
        ``dist(q, NN(q)) ≤ dist(q, p₀) ≤ d₀ + diag/2``, so every
        possible nearest neighbour lies within ``d₀ + diag`` of the
        center; we return all POIs inside that disk (and its bounding
        square).
        """
        pois, (xs, ys) = self._tables.get(category, ((), (None, None)))
        if not pois:
            return []
        center = cloak.center
        dist = np.hypot(xs - center.x, ys - center.y)
        radius = _closest(pois, dist, center)[1] + math.hypot(cloak.width, cloak.height)
        box = Rect(center.x - radius, center.y - radius, center.x + radius, center.y + radius)
        near = (dist <= _loose(radius + 1e-9)) & _inside(xs, ys, box)
        return [
            pois[i]
            for i in np.flatnonzero(near)
            if center.distance_to(pois[i].location) <= radius + 1e-9
        ]


def _closest(pois: Tuple[POI, ...], dist: np.ndarray, point: Point) -> Tuple[POI, float]:
    """The first of ``pois`` at the least ``math.hypot`` distance from
    ``point``, and that distance; ``dist`` holds numpy's distances."""
    best, best_dist = pois[0], math.inf
    for i in np.flatnonzero(dist <= _loose(float(dist.min()))):
        d = point.distance_to(pois[i].location)
        if d < best_dist:
            best, best_dist = pois[i], d
    return best, best_dist


def generate_pois(
    region: Rect,
    counts_by_category: Dict[str, int],
    seed=0,
) -> POIDatabase:
    """Scatter POIs uniformly per category (synthetic LBS content)."""
    if not counts_by_category:
        raise WorkloadError("need at least one POI category")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    pois: List[POI] = []
    for category, count in sorted(counts_by_category.items()):
        if count < 0:
            raise WorkloadError(f"negative POI count for {category!r}")
        xs = rng.uniform(region.x1, region.x2, size=count)
        ys = rng.uniform(region.y1, region.y2, size=count)
        for i, (x, y) in enumerate(zip(xs, ys)):
            pois.append(POI(f"{category}-{i}", Point(float(x), float(y)), category))
    return POIDatabase(region, pois)
