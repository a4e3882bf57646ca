"""Exact fixed-tau hyperplane sweep over all planar directions.

As the direction u = (cos phi, sin phi) rotates, the optimal quantile
hyperplane changes only at finitely many breakpoints, and between
breakpoints the optimal fitted pair and side pattern are constant.  For a
fixed pair and orientation the dual weights are ratios of homogeneous
linear functions of u, so the set of directions where the basis stays
dual-feasible is the intersection of half-circles: a single arc computed
in closed form.  The sweep marches arc to arc with warm-started pivots,
and the arcs must tile the circle exactly.  ``_enumerate_arcs``, which
scans every point pair's arc, is kept as the tests' independent oracle.

Each arc's representative hyperplane, taken at the arc midpoint, is
rebuilt from its basis and certified (orientation, dual box, multiplier
identity, coverage bound) in blocks of arcs: arrays of arcs x points, with
one stacked LAPACK solve per block for all the 3 x 3 stationarity systems.
Per arc, the block performs the floating-point operations of the one-arc
formulas through the same BLAS and LAPACK kernels, so every emitted bit is
the one a per-arc computation gives.  The blocks' columns are joined into
one table, SweepResult, with a row per arc.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .cloud import PointCloud
from .errors import (
    ArcGap,
    DegenerateData,
    DegenerateDesign,
    DimensionMismatch,
    NoConvergence,
    SingularSystem,
)
from .geometry import (
    OUTSIDE,
    ConvexRegion2D,
    intersect_halfplanes_2d,
    vector_norm,
)
from .qr import check_loss, solve_qr, validate_tau
from .regression import _reduced_problem

TWO_PI = 2.0 * np.pi
# endpoint slack allowed when checking that arcs tile the circle
TILE_TOL = 1e-9
# minimum angular advance past an arc end before re-probing
MIN_ADVANCE = 1e-12
# arcs thinner than this are treated as empty (ties)
MIN_WIDTH = 1e-12
# arcs x points certified together: the block's (arcs, n, 2) temporaries
# take 1 MB each; blocks of 2**18 elements and more measured slower
_CERT_BLOCK_ELEMENTS = 1 << 16
_UNIT = np.eye(2)


@dataclass(frozen=True)
class SweepResult:
    """Complete finite collection of tau-u hyperplanes over the circle.

    A table of read-only columns with one row per arc, in angular order:
    arcs (m, 2) holds the bounds (start, end), start in [0, 2 pi), end past
    2 pi only for the arc through zero; fitted (m, 2) the pair (i, j) on the
    arc's line; orientation (m,) the sign of perp(z_j - z_i)'u on the arc.
    The rest are the QuantileHyperplane fields of the arc-midpoint
    representative: u (m, 2), halfplanes (m, 3) rows (b_1, b_2, a) of
    {z : b'z >= a}, c (m, 1), multiplier (m,), duals (m, 2) and n_below (m,);
    n_above is n - 2 - n_below.  The line and orientation hold over the
    whole arc, while (a, b) renormalize with u.  n_pivots counts the
    march's pivots.
    """

    tau: float
    n_pivots: int
    arcs: np.ndarray
    fitted: np.ndarray
    orientation: np.ndarray
    u: np.ndarray
    halfplanes: np.ndarray
    c: np.ndarray
    multiplier: np.ndarray
    duals: np.ndarray
    n_below: np.ndarray

    def __post_init__(self):
        for column in fields(self)[2:]:  # the per-arc columns
            getattr(self, column.name).setflags(write=False)


def _perp(v):
    """Rotate a planar vector by +90 degrees."""
    return np.array([-v[1], v[0]])


def _complex_rows(z):
    """Planar points viewed as one complex number each.

    Subtracting or gathering these moves whole rows in one long inner loop
    with the same bits as the float arrays; a broadcast over the (n, 2)
    floats runs one two-element inner loop per row instead.
    """
    return np.ascontiguousarray(z).view(np.complex128)[:, 0]


def _side_pattern(z, i, j, tol_scale):
    """Signed pair-line evaluations; zero for a third collinear point."""
    w = z[j] - z[i]
    npr = _perp(w)
    zc = _complex_rows(z)
    # (z - z[i]) @ npr
    proj = (zc - zc[i]).view(np.float64).reshape(-1, 2) @ npr
    tol = 1e-12 * tol_scale * vector_norm(w)
    near = np.flatnonzero(np.abs(proj) <= tol).tolist()
    degenerate = [l for l in near if l != i and l != j]
    if degenerate:
        raise DegenerateData(
            "three points on a common line", indices=[i, j] + degenerate
        )
    return npr, proj


def _arc_for_basis(z, tau, i, j, s, scale):
    """Closed-form validity arc of basis (i, j) with orientation s.

    Returns (lo, hi) with 0 < hi - lo <= pi, in an arbitrary 2 pi frame,
    or None when the basis is never optimal with this orientation.  The
    five constraints (orientation sign and the four dual bounds) are all
    of the form q'u >= 0, so the arc is an intersection of half-circles.
    ``scale`` is the sweep's 1 + max|z|, which sets the collinearity
    tolerance.

    The four dual-bound vectors are formed in Python floats, term for term
    as the array formulas would, but their norms and angles stay numpy
    calls: numpy's dot of two 2-vectors uses a fused multiply-add, and
    np.arctan2 does not always round like math.atan2.
    """
    npr, proj = _side_pattern(z, i, j, scale)
    psi = np.where(proj > 0 if s > 0 else proj < 0, tau, tau - 1.0)
    psi[i] = psi[j] = 0.0
    s0 = float(psi.sum())
    s10, s11 = (psi @ z).tolist()
    (zi0, zi1), (zj0, zj1) = z[i].tolist(), z[j].tolist()
    n0, n1 = npr.tolist()
    # a_i = s1 - s0 z_j and a_j = s0 z_i - s1, each rotated by +90 degrees
    ai0, ai1 = s10 - s0 * zj0, s11 - s0 * zj1
    aj0, aj1 = s0 * zi0 - s10, s0 * zi1 - s11
    ri0, ri1, rj0, rj1 = -ai1, ai0, -aj1, aj0
    # the dual bounds tau * npr (upper) and (tau - 1) * npr (lower)
    up0, up1 = tau * n0, tau * n1
    lo0, lo1 = (tau - 1.0) * n0, (tau - 1.0) * n1
    qs = np.array(
        [
            [s * (up0 - ri0), s * (up1 - ri1)],
            [s * (ri0 - lo0), s * (ri1 - lo1)],
            [s * (up0 - rj0), s * (up1 - rj1)],
            [s * (rj0 - lo0), s * (rj1 - lo1)],
        ]
    )
    ref = float(np.arctan2(s * n1, s * n0))
    # row norms equal float(np.linalg.norm(q)) bit for bit
    nq = np.sqrt(np.vecdot(qs, qs))
    qscale = float(nq.max()) + vector_norm(npr)
    # a constraint whose q vanishes degenerates to an identity; skip it
    qs = qs[nq > 1e-13 * qscale]
    lo_rel, hi_rel = -0.5 * np.pi, 0.5 * np.pi
    for angle in np.arctan2(qs[:, 1], qs[:, 0]).tolist():
        # constraint angle relative to ref, wrapped into (-pi, pi]
        dc = (angle - ref + np.pi) % TWO_PI - np.pi
        if dc == -np.pi:
            dc = np.pi
        lo_rel = max(lo_rel, dc - 0.5 * np.pi)
        hi_rel = min(hi_rel, dc + 0.5 * np.pi)
    if hi_rel - lo_rel <= MIN_WIDTH:
        return None
    return ref + lo_rel, ref + hi_rel


def _planar_frame(phi: float):
    """Direction.from_angle(phi).vector and orthocomplement_basis, by their operations."""
    u = np.array([np.cos(phi), np.sin(phi)])
    u /= vector_norm(u)
    # Gram-Schmidt on the unit vector off the first largest |u_j|
    e = _UNIT[1 if abs(u[0]) >= abs(u[1]) else 0]
    gamma = e - (e @ u) * u
    gamma /= vector_norm(gamma)
    return u, gamma


def _align(lo: float, hi: float, anchor: float):
    """Shift (lo, hi) by a multiple of 2 pi so the arc contains anchor."""
    mid = 0.5 * (lo + hi)
    k = np.round((anchor - mid) / TWO_PI)
    return lo + k * TWO_PI, hi + k * TWO_PI


def sweep(cloud: PointCloud, tau: float) -> SweepResult:
    """All tau-u quantile hyperplanes for u over the unit circle.

    Solves once at phi = 0, then advances breakpoint to breakpoint with
    warm-started pivots.  Verifies that the arcs tile the circle and that
    no basis repeats, raising ArcGap otherwise.
    """
    if cloud.k != 2:
        raise DimensionMismatch("sweep expects a planar cloud")
    if cloud.n < 3:
        raise DimensionMismatch("sweep needs at least 3 points")
    tau = validate_tau(tau, cloud.n)
    # collinearity tolerance scale of every _arc_for_basis call
    scale = 1.0 + float(np.abs(cloud.points).max())
    raw, pivots = _march_arcs(cloud, tau, scale)
    return SweepResult(tau, pivots, *_finalize(cloud.points, tau, raw))


def _march_arcs(cloud: PointCloud, tau: float, scale: float):
    """Parametric traversal; returns ([(lo, hi, i, j, s)], pivots).

    Probes build [1, z gamma] as ``regression._design`` does.  As |u_i|,
    |gamma_i| <= 1, |z'u| and |z'gamma| are below 2 ``scale``: only if that
    overflows is each probe's design checked to be finite.
    """
    z = cloud.points
    n = z.shape[0]
    bounded = 2.0 * scale < np.inf

    def solve_at(phi, warm):
        u, gamma = _planar_frame(phi)
        X = np.ones((n, 2))
        X[:, 1] = z @ gamma
        problem = _reduced_problem(z @ u, X, tau, finite=bounded)
        try:
            sol = solve_qr(problem, initial_basis=warm)
        except DegenerateDesign as exc:
            raise DegenerateData(f"degenerate cloud at sweep angle {phi:.9f}: {exc}")
        i, j = sol.fitted
        return sol, (i, j, 1 if float(_perp(z[j] - z[i]) @ u) > 0.0 else -1)

    sol, key = solve_at(0.0, None)
    pivots = sol.pivots
    arc = _arc_for_basis(z, tau, *key, scale)
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
        arc = _arc_for_basis(z, tau, *key, scale)
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


def _enumerate_arcs(z, tau, scale):
    """Oracle: nonempty validity arcs over all pairs and orientations."""
    n = z.shape[0]
    records = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            for s in (1, -1):
                arc = _arc_for_basis(z, tau, i, j, s, scale)
                if arc is None:
                    continue
                lo, hi = arc
                start = float(np.remainder(lo, TWO_PI))
                records.append((start, start + (hi - lo), i, j, s))
    records.sort(key=lambda rec: rec[0])
    return records


def _finalize(z, tau, raw):
    """Normalize records, verify the tiling and key uniqueness, certify.

    Returns SweepResult's columns, in its field order.
    """
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

    per_block = max(1, _CERT_BLOCK_ELEMENTS // z.shape[0])
    blocks = [
        _certify_block(z, tau, norm[begin : begin + per_block])
        for begin in range(0, len(norm), per_block)
    ]
    return tuple(np.concatenate(col) for col in zip(*blocks))


def _certify_block(z, tau, recs):
    """SweepResult's columns for a run of normalized records.

    Each record (start, end, i, j, s) gets the hyperplane of basis (i, j)
    with orientation s at its arc midpoint: (a, b, c), the count below,
    and the multiplier and fitted duals of the stationarity system.  Every
    arc then passes, in this order, the orientation cone, the dual box,
    the multiplier identity and the coverage bound; any failure is a sweep
    bug, not a data problem, and the first failing arc in angular order
    raises.  Each array step is the scalar formula of one arc applied to a
    block: the same elementwise operations, and per arc the same ddot,
    gemv, pairwise sum and LAPACK gesv, so every bit matches a one-arc
    computation.
    """
    n, m = z.shape[0], len(recs)
    start, end, fi, fj, s = (np.array(col) for col in zip(*recs))
    phi = np.remainder(0.5 * (start + end), TWO_PI)
    u = _unit_rows(phi)
    zi = z[fi]
    w = z[fj] - zi
    npr = np.column_stack([-w[:, 1], w[:, 0]])
    dn = np.vecdot(npr, u)
    outside = s * dn <= 0.0
    if outside.any():
        k = int(outside.argmax())
        if k:
            _certify_block(z, tau, recs[:k])
        raise ArcGap(f"direction {phi[k]:.9f} is outside the basis orientation cone")
    b = npr / dn[:, None]
    a = np.vecdot(b, zi)
    c = np.vecdot(_complement_rows(u), b - u)

    # side signs of the n - 2 points off each arc's pair; the (arcs, n, 2)
    # arrays are C-contiguous, so each arc's product is the one-arc gemv
    zc = _complex_rows(z)
    rows = np.arange(m)
    off = np.ones((m, n), dtype=bool)
    off[rows, fi] = False
    off[rows, fj] = False
    d = (zc - zc[fi, None]).view(np.float64).reshape(m, n, 2)
    # d @ (s npr) is s (d @ npr) up to the sign of a zero
    sgn = (d @ (s[:, None] * npr)[:, :, None])[..., 0][off].reshape(m, n - 2)
    psi = np.where(sgn > 0, tau, tau - 1.0)
    n_below = np.count_nonzero(sgn < 0, axis=1)
    z_off = np.broadcast_to(zc, (m, n))[off].view(np.float64).reshape(m, n - 2, 2)
    s0 = psi.sum(axis=1)
    s1 = (z_off.transpose(0, 2, 1) @ psi[:, :, None])[..., 0]

    # stationarity: sum of fitted duals = -s0, lam u - dual-weighted z = s1
    M = np.zeros((m, 3, 3))
    M[:, 0, 1:] = 1.0
    M[:, 1:, 0] = -u
    M[:, 1:, 1] = zi
    M[:, 1:, 2] = z[fj]
    rhs = np.column_stack([-s0, -s1])
    try:
        sol = np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # the arcs before the first singular system are certified first
        for k in range(m):
            try:
                np.linalg.solve(M[k], rhs[k])
            except np.linalg.LinAlgError:
                break
        if k:
            _certify_block(z, tau, recs[:k])
        raise SingularSystem("stationarity system is singular")
    mult, duals = sol[:, 0], sol[:, 1:]

    r = (z @ b[:, :, None])[..., 0]
    r -= a[:, None]
    objective = check_loss(tau, r).sum(axis=1)
    dual_bad = ((duals > tau + 1e-9) | (duals < tau - 1.0 - 1e-9)).any(axis=1)
    mult_bad = np.abs(mult - objective) > 1e-7 * (1.0 + np.abs(objective))
    cover_bad = ~((n_below <= n * tau) & (n * tau <= n_below + 2))
    failed = dual_bad | mult_bad | cover_bad
    if failed.any():
        k = int(failed.argmax())
        if dual_bad[k]:
            raise ArcGap("representative direction is not inside the validity arc")
        if mult_bad[k]:
            raise NoConvergence(
                f"multiplier {mult[k]:.12g} disagrees with objective {objective[k]:.12g}"
            )
        raise NoConvergence("coverage bound violated by a sweep representative")

    return (
        np.column_stack([start, end]),
        np.column_stack([fi, fj]),
        s,
        u,
        np.column_stack([b, a]),
        c[:, None],
        mult,
        duals,
        n_below,
    )


def _unit_rows(phi):
    """Direction.from_angle(p).vector for each angle p of phi, as rows."""
    u = np.column_stack([np.cos(phi), np.sin(phi)])
    return u / np.sqrt(np.vecdot(u, u))[:, None]


def _complement_rows(u):
    """orthocomplement_basis of each planar unit row of u, as rows.

    The same Gram-Schmidt step in array form: the standard basis vector
    off the first largest |u_j|, minus its projection on u, normalized.
    """
    e = np.zeros_like(u)
    e[np.arange(u.shape[0]), 1 - np.abs(u).argmax(axis=1)] = 1.0
    v = e - np.vecdot(e, u)[:, None] * u
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def fixed_tau_region(result: SweepResult) -> ConvexRegion2D:
    """Intersection of the upper halfspaces {z : b'z >= a} over the sweep.

    Equals the halfspace-depth region of order ceil(n tau)/n; Empty when
    tau exceeds the maximum depth.  Facets are a subset of the swept
    hyperplane lines.
    """
    return intersect_halfplanes_2d(result.halfplanes, method="lazy")


def probability_contents(region: ConvexRegion2D, cloud: PointCloud) -> float:
    """Fraction of cloud points inside or on the boundary of the region."""
    labels = region.classify_many(cloud.points)
    return float(sum(lab != OUTSIDE for lab in labels)) / cloud.n
