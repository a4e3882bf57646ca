"""Exact fixed-tau hyperplane sweep over all planar directions.

As the direction u = (cos phi, sin phi) rotates, the optimal quantile
hyperplane changes only at finitely many breakpoints, and between
breakpoints the optimal fitted pair and side pattern are constant.  For a
fixed pair and orientation the dual weights are ratios of homogeneous
linear functions of u, so the set of directions where the basis stays
dual-feasible is the intersection of half-circles: a single arc computed
in closed form.  The sweep therefore either marches arc to arc with
warm-started pivots (primary) or enumerates every point pair's arc
(fallback oracle); both must tile the circle exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .directional import QuantileHyperplane
from .errors import (
    ArcGap,
    DegenerateData,
    DegenerateDesign,
    DimensionMismatch,
    NoConvergence,
)
from .geometry import (
    OUTSIDE,
    ConvexRegion2D,
    Direction,
    intersect_halfplanes_2d,
    orthocomplement_basis,
    vector_norm,
)
from .qr import QrProblem, check_loss, solve_qr, validate_tau
from .regression import _design, _location_stationarity_solve

TWO_PI = 2.0 * np.pi
# endpoint slack allowed when checking that arcs tile the circle
TILE_TOL = 1e-9
# minimum angular advance past an arc end before re-probing
MIN_ADVANCE = 1e-12
# arcs thinner than this are treated as empty (ties)
MIN_WIDTH = 1e-12


@dataclass(frozen=True)
class SweepArc:
    """Angular validity interval of one hyperplane.

    start is in [0, 2 pi); end may exceed 2 pi for the single arc that
    wraps through zero.  The hyperplane is the representative evaluated
    at the arc midpoint; its line and orientation are constant over the
    arc even though (a, b) renormalize with u.
    """

    start: float
    end: float
    hyperplane: QuantileHyperplane
    orientation: int

    @property
    def width(self) -> float:
        return self.end - self.start

    @property
    def fitted(self) -> tuple:
        return self.hyperplane.fitted


@dataclass(frozen=True)
class SweepResult:
    """Complete finite collection of tau-u hyperplanes over the circle."""

    tau: float
    arcs: tuple
    n_pivots: int
    method: str

    @property
    def hyperplanes(self) -> tuple:
        return tuple(arc.hyperplane for arc in self.arcs)


def _perp(v):
    """Rotate a planar vector by +90 degrees."""
    return np.array([-v[1], v[0]])


def _wrap_pi(x: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    y = np.remainder(x + np.pi, TWO_PI) - np.pi
    return np.where(y == -np.pi, np.pi, y)


def _side_pattern(z, i, j, tol_scale):
    """Signed pair-line evaluations; zero for a third collinear point."""
    w = z[j] - z[i]
    npr = _perp(w)
    proj = (z - z[i]) @ npr
    tol = 1e-12 * tol_scale * vector_norm(w)
    degenerate = np.nonzero(np.abs(proj) <= tol)[0]
    degenerate = [int(l) for l in degenerate if l not in (i, j)]
    if degenerate:
        raise DegenerateData(
            "three points on a common line", indices=[i, j] + degenerate
        )
    return npr, proj


def _arc_for_basis(z, tau, i, j, s):
    """Closed-form validity arc of basis (i, j) with orientation s.

    Returns (lo, hi) with 0 < hi - lo <= pi, in an arbitrary 2 pi frame,
    or None when the basis is never optimal with this orientation.  The
    five constraints (orientation sign and the four dual bounds) are all
    of the form q'u >= 0, so the arc is an intersection of half-circles.
    """
    scale = 1.0 + float(np.abs(z).max())
    npr, proj = _side_pattern(z, i, j, scale)
    sgn = s * proj
    psi = np.where(sgn > 0, tau, tau - 1.0)
    psi[[i, j]] = 0.0
    s0 = float(psi.sum())
    s1 = psi @ z
    a_i = s1 - s0 * z[j]
    a_j = s0 * z[i] - s1
    upper, lower = tau * npr, (tau - 1.0) * npr
    p_i, p_j = _perp(a_i), _perp(a_j)
    qs = s * np.array([upper - p_i, p_i - lower, upper - p_j, p_j - lower])
    ref_vec = s * npr
    ref = float(np.arctan2(ref_vec[1], ref_vec[0]))
    # row norms equal float(np.linalg.norm(q)) bit for bit
    nq = np.sqrt(np.vecdot(qs, qs))
    qscale = float(nq.max()) + vector_norm(npr)
    # a constraint whose q vanishes degenerates to an identity; skip it
    qs = qs[nq > 1e-13 * qscale]
    dc = _wrap_pi(np.arctan2(qs[:, 1], qs[:, 0]) - ref)
    lo_rel = float(np.max(dc - 0.5 * np.pi, initial=-0.5 * np.pi))
    hi_rel = float(np.min(dc + 0.5 * np.pi, initial=0.5 * np.pi))
    if hi_rel - lo_rel <= MIN_WIDTH:
        return None
    return ref + lo_rel, ref + hi_rel


def _hyperplane_at(z, tau, i, j, s, phi) -> QuantileHyperplane:
    """Representative hyperplane of basis (i, j, s) at direction angle phi.

    Rebuilds (a, b, c), the side counts, and the multiplier from the
    stationarity system, then verifies the multiplier identity and the
    coverage bound; any failure is a sweep bug, not a data problem.
    """
    n = z.shape[0]
    u = Direction.from_angle(phi)
    w = z[j] - z[i]
    npr = _perp(w)
    dn = float(npr @ u.vector)
    if s * dn <= 0.0:
        raise ArcGap(f"direction {phi:.9f} is outside the basis orientation cone")
    b = npr / dn
    a = float(b @ z[i])
    gamma = orthocomplement_basis(u)
    c = gamma.T @ (b - u.vector)
    proj = (z - z[i]) @ npr
    sgn = s * proj
    sgn[[i, j]] = 0.0  # exact zeros, not fp noise from the cross product
    psi = np.where(sgn > 0, tau, tau - 1.0)
    psi[[i, j]] = 0.0
    n_below = int(np.count_nonzero(sgn < 0))
    n_above = n - 2 - n_below

    mult, duals = _location_stationarity_solve(z, u.vector, (i, j), psi)
    if (duals > tau + 1e-9).any() or (duals < tau - 1.0 - 1e-9).any():
        raise ArcGap("representative direction is not inside the validity arc")
    r = z @ b - a
    objective = float(check_loss(tau, r).sum())
    if abs(mult - objective) > 1e-7 * (1.0 + abs(objective)):
        raise NoConvergence(
            f"multiplier {mult:.12g} disagrees with objective {objective:.12g}"
        )
    if not (n_below <= n * tau <= n_below + 2):
        raise NoConvergence("coverage bound violated by a sweep representative")
    return QuantileHyperplane(
        tau=tau,
        u=u,
        a=a,
        b=b,
        c=c,
        multiplier=mult,
        fitted=(int(i), int(j)),
        duals=duals,
        n_below=n_below,
        n_above=n_above,
    )


def _orientation(z, i, j, u_vec) -> int:
    npr = _perp(z[j] - z[i])
    return 1 if float(npr @ u_vec) > 0.0 else -1


def _align(lo: float, hi: float, anchor: float):
    """Shift (lo, hi) by a multiple of 2 pi so the arc contains anchor."""
    mid = 0.5 * (lo + hi)
    k = np.round((anchor - mid) / TWO_PI)
    return lo + k * TWO_PI, hi + k * TWO_PI


def sweep(cloud: PointCloud, tau: float, method: str = "parametric") -> SweepResult:
    """All tau-u quantile hyperplanes for u over the unit circle.

    method "parametric" solves once at phi = 0 and then advances breakpoint
    to breakpoint with warm-started pivots; "enumerate" scans every point
    pair and orientation for a nonempty validity arc (slower, used as the
    independent oracle).  Both verify that the arcs tile the circle and
    that no basis repeats, raising ArcGap otherwise.
    """
    if cloud.k != 2:
        raise DimensionMismatch("sweep expects a planar cloud")
    if cloud.n < 3:
        raise DimensionMismatch("sweep needs at least 3 points")
    tau = validate_tau(tau, cloud.n)
    if method == "parametric":
        raw, pivots = _march_arcs(cloud, tau)
    elif method == "enumerate":
        raw = _enumerate_arcs(cloud.points, tau)
        pivots = 0
    else:
        raise ValueError(f"unknown sweep method {method!r}")

    arcs = _finalize(cloud.points, tau, raw)
    return SweepResult(tau=tau, arcs=arcs, n_pivots=pivots, method=method)


def _march_arcs(cloud: PointCloud, tau: float):
    """Parametric traversal; returns ([(lo, hi, i, j, s)], pivots)."""
    z = cloud.points
    n = z.shape[0]
    no_regressors = np.empty((n, 0))

    def solve_at(phi, warm):
        u = Direction.from_angle(phi)
        y, X, _ = _design(z, no_regressors, u)
        try:
            sol = solve_qr(QrProblem(y, X, tau), initial_basis=warm)
        except DegenerateDesign as exc:
            raise DegenerateData(f"degenerate cloud at sweep angle {phi:.9f}: {exc}")
        i, j = sol.fitted
        return sol, (int(i), int(j), _orientation(z, i, j, u.vector))

    sol, key = solve_at(0.0, None)
    pivots = sol.pivots
    arc = _arc_for_basis(z, tau, *key)
    if arc is None:
        raise ArcGap("initial basis has an empty validity arc")
    lo0, hi0 = _align(*arc, anchor=0.0)
    records = [(lo0, hi0, *key)]
    cursor = hi0
    target = lo0 + TWO_PI
    advance = MIN_ADVANCE
    max_probes = 16 * n * n + 256

    for _probe_count in range(max_probes):
        if cursor >= target - TILE_TOL:
            break
        phi = min(cursor + advance, 0.5 * (cursor + target))
        prev = records[-1]
        sol, key = solve_at(phi, warm=prev[2:4])
        pivots += sol.pivots
        if key == tuple(prev[2:]):
            # arc end estimate was conservative; push further
            advance *= 10.0
            if advance > 0.5:
                raise ArcGap(f"sweep stalled near angle {cursor:.9f}")
            continue
        arc = _arc_for_basis(z, tau, *key)
        if arc is None:
            raise ArcGap(f"optimal basis at angle {phi:.9f} reports an empty arc")
        lo, hi = _align(*arc, anchor=phi)
        if lo > cursor + TILE_TOL:
            # a thinner arc hides between cursor and lo: bisect into the gap
            advance = max(0.5 * (lo - cursor), MIN_ADVANCE)
            continue
        records.append((lo, hi, *key))
        cursor = hi
        advance = MIN_ADVANCE
    else:
        raise ArcGap("sweep did not close the circle within its probe budget")

    if cursor > target + TILE_TOL:
        raise ArcGap("final arc overshoots the starting boundary")
    return records, pivots


def _enumerate_arcs(z, tau):
    """Oracle: nonempty validity arcs over all pairs and orientations."""
    n = z.shape[0]
    records = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            for s in (1, -1):
                arc = _arc_for_basis(z, tau, i, j, s)
                if arc is None:
                    continue
                lo, hi = arc
                start = float(np.remainder(lo, TWO_PI))
                records.append((start, start + (hi - lo), i, j, s))
    records.sort(key=lambda rec: rec[0])
    return records


def _finalize(z, tau, raw):
    """Normalize records, verify the tiling and key uniqueness, build arcs."""
    if not raw:
        raise ArcGap("no arcs produced")
    # normalize starts into [0, 2 pi) keeping widths
    norm = []
    for lo, hi, i, j, s in raw:
        start = float(np.remainder(lo, TWO_PI))
        norm.append((start, start + (hi - lo), i, j, s))
    norm.sort(key=lambda rec: rec[0])

    # merge a wrapped tail with its head (same basis split across 0)
    if len(norm) >= 2:
        first, last = norm[0], norm[-1]
        if first[2:] == last[2:] and abs(last[1] - TWO_PI - first[0]) <= TILE_TOL:
            merged = (last[0], last[1] + (first[1] - first[0]), *last[2:])
            norm = norm[1:-1] + [merged]
            norm.sort(key=lambda rec: rec[0])

    total = sum(rec[1] - rec[0] for rec in norm)
    if abs(total - TWO_PI) > TILE_TOL * max(4, len(norm)):
        raise ArcGap(f"arcs cover {total:.12f} rad instead of 2 pi")
    for cur, nxt in zip(norm, norm[1:]):
        if abs(cur[1] - nxt[0]) > TILE_TOL:
            raise ArcGap(
                f"gap or overlap of {nxt[0] - cur[1]:.3e} rad after angle {cur[1]:.9f}"
            )
    wrap_gap = norm[0][0] + TWO_PI - norm[-1][1]
    if abs(wrap_gap) > TILE_TOL:
        raise ArcGap(f"gap or overlap of {wrap_gap:.3e} rad at the wrap")
    keys = [rec[2:] for rec in norm]
    if len(set(keys)) != len(keys):
        raise ArcGap("a fitted pair + orientation occurs in two disjoint arcs")

    arcs = []
    for start, end, i, j, s in norm:
        mid = np.remainder(0.5 * (start + end), TWO_PI)
        h = _hyperplane_at(z, tau, i, j, s, float(mid))
        arcs.append(SweepArc(start=start, end=end, hyperplane=h, orientation=s))
    return tuple(arcs)


def fixed_tau_region(result: SweepResult) -> ConvexRegion2D:
    """Intersection of the upper halfspaces {z : b'z >= a} over the sweep.

    Equals the halfspace-depth region of order ceil(n tau)/n; Empty when
    tau exceeds the maximum depth.  Facets are a subset of the swept
    hyperplane lines.
    """
    H = np.array([(*arc.hyperplane.b, arc.hyperplane.a) for arc in result.arcs])
    return intersect_halfplanes_2d(H, method="lazy")


def probability_contents(region: ConvexRegion2D, cloud: PointCloud) -> float:
    """Fraction of cloud points inside or on the boundary of the region."""
    labels = region.classify_many(cloud.points)
    return float(sum(lab != OUTSIDE for lab in labels)) / cloud.n
