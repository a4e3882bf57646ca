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
from .depth import _quantile_rows
from .errors import DimensionMismatch, NotBounded
from .geometry import (
    BOUNDED,
    OUTSIDE,
    ConvexRegion2D,
    hausdorff_distance,
    intersect_halfplanes_2d,
)
from .qr import validate_tau


def km_envelope(cloud: PointCloud, tau: float, K: int) -> ConvexRegion2D:
    """Intersection of the K upper halfspaces {u_j'z >= q_j}; at most K facets.

    The directions are u_j at angle 2 pi j / K, j = 0..K-1, for an integer
    K of at least 3, and q_j is the lower (ceil(n tau)-th) order statistic
    of the projections u_j'z_i, so the K -> infinity limit matches the
    exact region convention.  The rows come from the brute-force depth
    region's blocked order statistics (``depth._quantile_rows``), so a
    large n * K never holds all the projections at once.
    """
    if int(K) != K or K < 3:
        raise ValueError(f"need at least 3 directions, got K={K}")
    if cloud.k != 2:
        raise DimensionMismatch("envelope construction expects a planar cloud")
    tau = validate_tau(tau, cloud.n)
    m0 = math.ceil(cloud.n * tau)
    angles = 2.0 * np.pi * np.arange(K) / K
    U = np.column_stack([np.cos(angles), np.sin(angles)])
    q = _quantile_rows(cloud.points, m0, U)
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
