"""Halfspace (Tukey) depth oracles.

These are deliberately simple, brute-force computations used as ground
truth for the contour machinery: an O(n log n) angular-sweep point depth
in the plane, an O(n^3) depth-region construction from point-pair lines,
and a sampled-direction upper bound for higher dimensions.  None of them
share code with the quantile solver, which is the point.  The depth
region's blocked order-statistic rows, ``_quantile_rows``, also give
``km_envelope`` its halfplanes: both are checked against the sweep, not
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DimensionMismatch
from .geometry import ConvexRegion2D, _column_blocks, intersect_halfplanes_2d
from .qr import validate_tau

# residual tolerance: boundary ties count as inside the closed halfplane
BOUNDARY_TOL = 1e-9
# angular slack implementing the same tie rule in the sweep
ANGLE_SLACK = 1e-12
# most projections per block of _quantile_rows: 16 MB, and as much again
# for the partition
_BLOCK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class DepthValue:
    """Halfspace depth of a point: ``count`` of ``n`` observations."""

    count: int
    n: int

    def __post_init__(self):
        if not (0 <= self.count <= self.n):
            raise ValueError(f"count {self.count} outside 0..{self.n}")

    @property
    def normalized(self) -> float:
        return self.count / self.n


def depth_2d(cloud: PointCloud, x) -> DepthValue:
    """Exact halfspace depth of x by angular sweep, O(n log n).

    The minimizing closed halfplane has x on its boundary, so only
    directions orthogonal to x-to-point rays matter.  Equivalently the
    depth is n minus the largest number of points inside an open
    half-circle of the point angles around x; the half-open windows
    ending at each data angle realize that maximum.
    """
    if cloud.k != 2:
        raise DimensionMismatch("depth_2d expects a planar cloud")
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != 2:
        raise DimensionMismatch("depth_2d expects a planar point")
    if not np.isfinite(x).all():
        raise DimensionMismatch("depth_2d expects a finite point")
    d = cloud.points - x
    scale = 1.0 + float(np.abs(cloud.points).max())
    r = np.hypot(d[:, 0], d[:, 1])
    coincident = int(np.sum(r <= BOUNDARY_TOL * scale))
    far = d[r > BOUNDARY_TOL * scale]
    m = far.shape[0]
    if m == 0:
        return DepthValue(coincident, cloud.n)
    A = np.sort(np.arctan2(far[:, 1], far[:, 0]))
    B = np.concatenate([A, A + 2.0 * np.pi])
    hi = np.searchsorted(B, A + 2.0 * np.pi + ANGLE_SLACK, side="right")
    lo = np.searchsorted(B, A + np.pi + ANGLE_SLACK, side="right")
    deepest_open = int((hi - lo).max())
    return DepthValue(coincident + m - deepest_open, cloud.n)


def depth_region_bruteforce_2d(cloud: PointCloud, tau: float) -> ConvexRegion2D:
    """Depth region {x : depth >= ceil(n tau)} from point-pair lines.

    Every facet of a depth region lies on a line through two sample
    points, so intersecting, over all directed pair normals u, the
    halfplanes {x : u'x >= (ceil(n tau))-th smallest of u'z} is exact.
    O(n^3) work.  It is the test suite's independent oracle for the
    sweep's ``fixed_tau_region`` and also the production path of
    ``quantour depth --tau``; either way it stays independent of the
    sweep and the quantile solver and shares no code with them.
    """
    return intersect_halfplanes_2d(_pair_halfplanes(cloud, tau), method="lazy")


def _pair_halfplanes(cloud: PointCloud, tau: float) -> np.ndarray:
    """Rows (u_1, u_2, offset) of the depth_region_bruteforce_2d halfplanes."""
    if cloud.k != 2:
        raise DimensionMismatch("depth_region_bruteforce_2d expects a planar cloud")
    if cloud.n < 3:
        raise DimensionMismatch("need at least 3 points for a planar depth region")
    tau = validate_tau(tau, cloud.n)
    z = cloud.points
    n = z.shape[0]
    m0 = int(np.ceil(n * tau))

    ii, jj = np.triu_indices(n, k=1)
    w = z[jj] - z[ii]
    normals = np.column_stack([-w[:, 1], w[:, 0]])
    lengths = np.linalg.norm(normals, axis=1)
    good = lengths > 1e-12
    normals = normals[good] / lengths[good, None]
    normals = np.vstack([normals, -normals])
    return np.column_stack([normals, _quantile_rows(z, m0, normals)])


def _quantile_rows(z, m0: int, normals) -> np.ndarray:
    """The m0-th smallest projection u'z_i for each row u of ``normals``.

    Projects in ``geometry._column_blocks`` of about ``_BLOCK_ELEMENTS``,
    so at one BLAS thread each product rounds as unblocked.  Each block is
    then copied to one row per normal: a row holds its column's sequence, so
    selecting along contiguous memory returns the same element, in a third
    less time at n = 1000, K = 2001 (``normals[lo:hi] @ z.T`` would round
    some entries otherwise where m is 4 mod 8).  Shared by the brute-force
    region's pair normals and ``km_envelope``'s direction grid.
    """
    offsets = np.empty(len(normals))
    for cols in _column_blocks(z.shape[0], len(normals), _BLOCK_ELEMENTS):
        proj = z @ normals[cols].T
        proj = proj.T.copy()  # in two steps, at most two blocks are alive at once
        proj.partition(m0 - 1, axis=1)
        offsets[cols] = proj[:, m0 - 1]
    return offsets


def depth_kd_approx(cloud: PointCloud, x, K: int, seed: int = 0) -> DepthValue:
    """Upper bound on halfspace depth from K sampled directions.

    For each direction the one-sided count #{i : u'(z_i - x) >= -tol} is
    an upper bound on the depth; the minimum over directions tightens it.
    Deterministic given ``seed``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != cloud.k:
        raise DimensionMismatch(f"point has k={x.shape[0]}, cloud has k={cloud.k}")
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(int(K), cloud.k))
    U /= np.linalg.norm(U, axis=1)[:, None]
    scale = 1.0 + float(np.abs(cloud.points).max())
    side = (cloud.points - x) @ U.T >= -BOUNDARY_TOL * scale
    best = int(side.sum(axis=0).min())
    return DepthValue(best, cloud.n)
