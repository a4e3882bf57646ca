"""Directional-quantile envelope from u-orthogonal hyperplanes.

The restricted hyperplane class keeps b parallel to u, so each
directional quantile is just an order statistic of the projections and
every direction is an independent computation.  Intersecting the upper
halfspaces over K equispaced directions yields a convex envelope that
contains the exact fixed-tau region for every K and converges to it as
K grows; compare_regions quantifies the remaining gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DimensionMismatch, NotBounded
from .geometry import (
    BOUNDED,
    OUTSIDE,
    ConvexRegion2D,
    Direction,
    hausdorff_distance,
    intersect_halfplanes_2d,
)
from .qr import validate_tau


@dataclass(frozen=True)
class EnvelopeConfig:
    """Equispaced-direction envelope settings.

    K directions phi_j = 2 pi j / K; the directional quantile is
    always the lower (ceil(n tau)-th) order statistic so the K -> infinity
    limit matches the exact region convention.
    """

    K: int
    tau: float

    def __post_init__(self):
        if int(self.K) != self.K or self.K < 3:
            raise ValueError(f"need at least 3 directions, got K={self.K}")
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "tau", validate_tau(self.tau))


def km_hyperplane(cloud: PointCloud, tau: float, u) -> np.ndarray:
    """u-orthogonal quantile hyperplane {z : u'z = q} as the row (u, q).

    q is the ceil(n tau)-th ascending order statistic of the projections
    u'z_i; the upper halfspace is {u'z >= q}.  The row is read-only; for
    k = 2 it is the (b_1, b_2, a) row intersect_halfplanes_2d reads.
    """
    if not isinstance(u, Direction):
        u = Direction(u)
    tau = validate_tau(tau, cloud.n)
    if u.k != cloud.k:
        raise DimensionMismatch(f"direction has k={u.k}, cloud has k={cloud.k}")
    m0 = math.ceil(cloud.n * tau)
    proj = cloud.points @ u.vector
    q = float(np.partition(proj, m0 - 1)[m0 - 1])
    row = np.append(u.vector, q)
    row.setflags(write=False)
    return row


def km_envelope(cloud: PointCloud, cfg: EnvelopeConfig) -> ConvexRegion2D:
    """Intersection of the K upper halfspaces; at most K facets."""
    if cloud.k != 2:
        raise DimensionMismatch("envelope construction expects a planar cloud")
    tau = validate_tau(cfg.tau, cloud.n)
    m0 = math.ceil(cloud.n * tau)
    angles = 2.0 * np.pi * np.arange(cfg.K) / cfg.K
    U = np.column_stack([np.cos(angles), np.sin(angles)])
    proj = cloud.points @ U.T
    q = np.partition(proj, m0 - 1, axis=0)[m0 - 1]
    return intersect_halfplanes_2d(np.column_stack([U, q]), method="eager")


@dataclass(frozen=True)
class RegionComparison:
    """Exact region vs envelope: sizes, area excess, distance, containment."""

    facets_exact: int
    facets_km: int
    area_gap: float
    hausdorff: float
    km_contains_exact: bool


def compare_regions(exact: ConvexRegion2D, km: ConvexRegion2D) -> RegionComparison:
    """Quantify how far the envelope is from the exact region.

    area_gap = area(km) - area(exact); nonnegative whenever the envelope
    really contains the exact region.  Both regions must be bounded.
    """
    if exact.status != BOUNDED or km.status != BOUNDED:
        raise NotBounded("comparison requires two bounded regions")
    contains = all(
        lab != OUTSIDE for lab in km.classify_many(np.asarray(exact.vertices))
    )
    return RegionComparison(
        facets_exact=len(exact.vertices),
        facets_km=len(km.vertices),
        area_gap=km.area() - exact.area(),
        hausdorff=hausdorff_distance(exact, km),
        km_contains_exact=contains,
    )
