"""Exact fixed-tau hyperplane sweep over all planar directions.

As the direction u = (cos phi, sin phi) rotates, the optimal quantile
hyperplane changes only at finitely many breakpoints, and between
breakpoints the optimal fitted pair and side pattern are constant.  For a
fixed pair and orientation the dual weights are ratios of homogeneous
linear functions of u, so the set of directions where the basis stays
dual-feasible is the intersection of half-circles: a single arc computed
in closed form.  ``sweep`` walks arc to arc in closed form from one cold
solve at phi = 0: the dual bound that ends an arc names the point that
leaves the basis, and the line turned about the point that stays meets
the one that enters (``_walk_arcs``).  Every arc record is built in
``_record``, and the arcs must tile the circle exactly.
``_enumerate_arcs``, which scans every point pair's arc, is kept as the
tests' independent oracle.

General position is guarded by the solver and by the walk's own step:
the cold solve's certificate raises DegenerateDesign when a row off the
basis lies on the fitted line, which the sweep re-raises as
DegenerateData with the same ``indices``; past phi = 0, the two points
the turning line would meet first must not lie on one line with the
turning point, and every point's turn must be a finite number.

``_marched_sweep`` is the former route to the same records: it marches
arc to arc with warm-started pivots (``_march_arcs``), from
_FORK_MIN_POINTS points on in angular chunks over forked children
(quantour._fork), joined at seam arcs, with the serial march's arcs,
pivot count and errors on any number of CPUs.  Only ``quantour
contour`` calls it, because its JSON reports the march's pivot count,
which the benchmark's committed digests pin.

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

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _fork
from .cloud import GENERAL_POSITION_TOL, PointCloud
from .errors import (
    ArcGap,
    DegenerateData,
    DegenerateDesign,
    DimensionMismatch,
    NoConvergence,
    QuantourError,
    SingularSystem,
)
from .geometry import (
    OUTSIDE,
    ConvexRegion2D,
    intersect_halfplanes_2d,
    vector_norm,
)
from .qr import solve_qr, validate_tau
from .regression import _reduced_problem

TWO_PI = 2.0 * np.pi
# the arc formula's constants as plain names, the same floats
_PI = np.pi
_HALF_PI = 0.5 * np.pi
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
# Fewest points for which the sweep marches in forked chunks.  On a 2-core
# Xeon, one BLAS thread, in a process that had run the n = 1000 contour and
# km jobs, two chunks saved -50 to +11 ms a sweep at n = 100, 3 to 22 ms at
# n = 130-140 and 50 to 70 ms (25-35 %) at n = 200; a fork and pipe round
# trip takes 2.5-4 ms and a seam's cold solve about 1 ms.
_FORK_MIN_POINTS = 200


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
    whole arc, while (a, b) renormalize with u.
    """

    tau: float
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
        for column in fields(self)[1:]:  # the per-arc columns
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


def _arc_for_basis(z, tau, i, j, s, rows=None, d=None):
    """Closed-form validity arc of basis (i, j) with orientation s.

    Returns (lo, hi, row) with 0 < hi - lo <= pi, in an arbitrary 2 pi
    frame, or None when the basis is never optimal with this orientation.
    The five constraints (orientation sign and the four dual bounds) are
    all of the form q'u >= 0, so the arc is an intersection of
    half-circles.  row names the dual bound that sets hi, the first of
    equals: 0 or 1 when i's dual leaves its box there, 2 or 3 when j's
    does, None when only the orientation sign ends the arc.
    No point is checked against the pair's line here: the first basis
    comes from ``solve_qr``, whose certificate raises DegenerateDesign,
    with its rows, when a third point lies on the fitted line, and the
    walk tests each step's entering point (so does the solver each of the
    march's bases).

    rows, when given, is (``_complex_rows(z)``, ``z.tolist()``), which the
    walk forms once; d, when given, is ``_complex_rows(z)`` minus its row
    i, which the walk has formed for its step.  Either gives the same bits
    as forming it here.  The pair's normal, the four dual-bound vectors and
    the arc's ends are formed in Python floats, term for term as the array
    formulas would, and so are the same IEEE operations.  What stays a
    numpy call is what numpy may round differently: the products with the
    cloud (a gemv), the pairwise sum of psi, the norms (numpy's dot of two
    2-vectors uses a fused multiply-add) and the angles (np.arctan2 does
    not always round like math.atan2; one call over the four bound vectors
    and the reference vector gives each the bits of a call of its own).
    """
    if rows is None:
        zc = _complex_rows(z)
        (zi0, zi1), (zj0, zj1) = z[i].tolist(), z[j].tolist()
    else:
        zc, zl = rows
        (zi0, zi1), (zj0, zj1) = zl[i], zl[j]
    # _perp(z[j] - z[i])
    n0, n1 = -(zj1 - zi1), zj0 - zi0
    npr = np.array((n0, n1))
    if d is None:
        d = zc - zc[i]
    # (z - z[i]) @ npr
    proj = d.view(np.float64).reshape(-1, 2) @ npr
    # psi = tau on s's strict side, else (NaN too) tau - 1: tau - True is tau - 1.0
    off = proj > 0 if s > 0 else proj < 0
    np.logical_not(off, out=off)
    psi = tau - off
    psi[i] = psi[j] = 0.0
    s0 = float(np.add.reduce(psi))
    s10, s11 = (psi @ z).tolist()
    # a_i = s1 - s0 z_j and a_j = s0 z_i - s1, each rotated by +90 degrees
    ai0, ai1 = s10 - s0 * zj0, s11 - s0 * zj1
    aj0, aj1 = s0 * zi0 - s10, s0 * zi1 - s11
    ri0, ri1, rj0, rj1 = -ai1, ai0, -aj1, aj0
    # the dual bounds tau * npr (upper) and (tau - 1) * npr (lower)
    up0, up1 = tau * n0, tau * n1
    lo0, lo1 = (tau - 1.0) * n0, (tau - 1.0) * n1
    # the four bound vectors q, then the reference vector s npr, as rows
    qs = np.array((
        s * (up0 - ri0), s * (up1 - ri1),
        s * (ri0 - lo0), s * (ri1 - lo1),
        s * (up0 - rj0), s * (up1 - rj1),
        s * (rj0 - lo0), s * (rj1 - lo1),
        s * n0, s * n1,
    )).reshape(5, 2)
    *angles, ref = np.arctan2(qs[:, 1], qs[:, 0]).tolist()
    # the bounds' norms, each equal to float(np.linalg.norm(q)) bit for bit
    q4 = qs[:4]
    nq = [math.sqrt(sq) for sq in np.vecdot(q4, q4).tolist()]
    top = nq[0] + nq[1] + nq[2] + nq[3]  # NaN when any norm is, as nq.max()
    qscale = (max(nq) if top == top else top) + vector_norm(npr)
    # a constraint whose q vanishes degenerates to an identity; skip it
    cut = 1e-13 * qscale
    lo_rel, hi_rel, row = -_HALF_PI, _HALF_PI, None
    for k in range(4):
        if not nq[k] > cut:
            continue
        # constraint angle relative to ref, wrapped into (-pi, pi]
        dc = (angles[k] - ref + _PI) % TWO_PI - _PI
        if dc == -_PI:
            dc = _PI
        lo_rel = max(lo_rel, dc - _HALF_PI)
        if dc + _HALF_PI < hi_rel:
            hi_rel, row = dc + _HALF_PI, k
    if hi_rel - lo_rel <= MIN_WIDTH:
        return None
    return ref + lo_rel, ref + hi_rel, row


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
    # round() is round-half-even, as np.round is; the ends are finite
    k = round((anchor - mid) / TWO_PI)
    return lo + k * TWO_PI, hi + k * TWO_PI


def sweep(cloud: PointCloud, tau: float) -> SweepResult:
    """All tau-u quantile hyperplanes for u over the unit circle.

    Traces the arcs with the rotating-line walk: one solve, at phi = 0,
    and one O(n) pass per arc.  Verifies that the arcs tile the circle and
    that no basis repeats, raising ArcGap otherwise; the walk also raises
    DegenerateData, with three rows, where its turning line would meet two
    points at once.

    Each step picks the entering point by one rule (``_entering``): the
    largest cotangent of the turn, one division per row, with an exact tie
    going to the lowest row index; a turn that is not a finite number
    raises DegenerateData with its rows.  The arc formula runs on Python
    floats wherever numpy would perform the same IEEE operations, so every
    record and output bit is the one the array formulas give.
    """
    tau = _sweep_tau(cloud, tau)
    return SweepResult(tau, *_finalize(cloud.points, tau, _walk_arcs(cloud, tau)))


def _marched_sweep(cloud: PointCloud, tau: float):
    """(SweepResult, pivots): the same table from the warm-started march.

    Solves once at phi = 0, then advances breakpoint to breakpoint with
    warm-started pivots: from _FORK_MIN_POINTS points on, in angular
    chunks over the allowed CPUs, with the serial march's arcs, pivot
    count and errors.  Wherever the march completes, its records have
    equalled the walk's on every cloud checked, so its table is
    ``sweep``'s, byte for byte.  Only ``quantour contour`` calls this,
    for the pivot count its JSON reports; ROADMAP item 2 deletes it, with
    the march, when the benchmark digests are re-recorded without that
    count.
    """
    tau = _sweep_tau(cloud, tau)
    raw, pivots = _march_arcs(cloud, tau)
    return SweepResult(tau, *_finalize(cloud.points, tau, raw)), pivots


def _sweep_tau(cloud: PointCloud, tau: float) -> float:
    """tau, validated for a sweep of cloud, which must be planar with 3 or more points."""
    if cloud.k != 2:
        raise DimensionMismatch("sweep expects a planar cloud")
    if cloud.n < 3:
        raise DimensionMismatch("sweep needs at least 3 points")
    return validate_tau(tau, cloud.n)


def _orientation(npr, u) -> int:
    """The sign of npr'u, npr = perp(z_j - z_i) for the pair (i, j), with 0 counted as -1."""
    return 1 if float(npr @ u) > 0.0 else -1


def _cold_start(cloud: PointCloud, tau: float):
    """The probe solver, its cold solve at phi = 0, and the first record.

    Returns (solve_at, sol, (record, row)), where solve_at(phi, warm)
    gives (solution, key) at angle phi and (record, row) is ``_record``'s
    for the key at phi = 0.  Probes build [1, z gamma] as
    ``regression._design`` does.  As |u_i|, |gamma_i| <= 1, |z'u| and
    |z'gamma| are below 2 (1 + max|z|): only if that overflows is each
    probe's design checked to be finite.
    """
    z = cloud.points
    n = z.shape[0]
    bounded = 2.0 * (1.0 + float(np.abs(z).max())) < np.inf

    def solve_at(phi, warm):
        u, gamma = _planar_frame(phi)
        X = np.ones((n, 2))
        X[:, 1] = z @ gamma
        problem = _reduced_problem(z @ u, X, tau, finite=bounded)
        try:
            sol = solve_qr(problem, initial_basis=warm)
        except DegenerateDesign as exc:
            raise DegenerateData(
                f"degenerate cloud at sweep angle {phi:.9f}: {exc}", indices=exc.indices
            )
        i, j = sol.fitted
        return sol, (i, j, _orientation(_perp(z[j] - z[i]), u))

    sol, key = solve_at(0.0, None)
    return solve_at, sol, _record(z, tau, key, 0.0)


def _walk_arcs(cloud: PointCloud, tau: float):
    """Closed-form arc-to-arc walk; returns the records [(lo, hi, i, j, s)].

    From ``_cold_start``'s first record, each step turns the pair's line about
    the point that stays in the basis: the dual bound that sets the arc's
    end names the point that leaves, and the point that enters is the
    first one the line meets as it turns counterclockwise from the leaving
    point: the largest cotangent of the turn, the lowest row of an exact
    tie (``_entering``).  The next arc must start where the last one
    ends, within TILE_TOL, and the walk closes the circle within n (n - 1)
    arcs, one per basis; otherwise it raises ArcGap.  No solve is made past
    the first.

    The runner-up candidate detects a tie: when it is collinear with the
    staying and the entering point, by ``collinear_triples``' test
    |d_1 x d_2| <= GENERAL_POSITION_TOL max|z|^2, the walk raises
    DegenerateData with the three rows.

    The complex rows and ``z.tolist()`` are formed once, and a step's
    z - z_stay serves the arc formula when the staying point is the new
    pair's first row.  Every decision and every bit is the one the
    per-step formulas give: the differences, cross products and normals
    taken from the lists are the same IEEE operations as the array ones,
    and the orientation's dot stays a numpy call.
    """
    z = cloud.points
    n = z.shape[0]
    rows = zc, zl = _complex_rows(z), z.tolist()
    scale = float(np.abs(z).max())
    area_tol = GENERAL_POSITION_TOL * scale * scale
    _, _, (rec, row) = _cold_start(cloud, tau)
    target = rec[0] + TWO_PI
    records = [rec]
    while rec[1] < target - TILE_TOL:
        if len(records) == n * (n - 1):
            raise ArcGap("sweep did not close the circle within n (n - 1) arcs")
        _, hi, i, j, s = rec
        if row is None:
            raise ArcGap(f"basis ({i}, {j}) with orientation {s} ends at {hi:.9f} "
                         "on its orientation bound")
        leave, stay = (i, j) if row < 2 else (j, i)
        (x0, y0), (xl, yl) = zl[stay], zl[leave]
        # d = z - z_stay, and d * conj(d[leave])
        d = zc - complex(x0, y0)
        l1, l2 = _entering(d * complex(xl - x0, -(yl - y0)), i, j, hi)
        x1, y1 = zl[l1]
        if n > 3:  # else there is no runner-up
            x2, y2 = zl[l2]
            # d[l1] x d[l2]
            if abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)) <= area_tol:
                raise DegenerateData(
                    f"the sweep's line meets two points at once at angle {hi:.9f}",
                    indices=sorted({stay, l1, l2}),
                )
        phi = hi + 1e-9
        # the new pair a < b, and _perp(z[b] - z[a])
        if stay < l1:
            a, b, npr = stay, l1, (-(y1 - y0), x1 - x0)
        else:
            a, b, npr = l1, stay, (-(y0 - y1), x0 - x1)
        key = (a, b, _orientation(np.array(npr), np.array([np.cos(phi), np.sin(phi)])))
        rec, row = _record(z, tau, key, phi, rows, d if a == stay else None)
        if abs(rec[0] - hi) > TILE_TOL:
            raise ArcGap(f"basis ({key[0]}, {key[1]}) with orientation {key[2]} starts at "
                         f"{rec[0]:.9f}, not where the arc before ends, {hi:.9f}")
        records.append(rec)
    if rec[1] > target + TILE_TOL:
        raise ArcGap("final arc overshoots the starting boundary")
    return records


# ranks the pair's own rows below every candidate
_LAST = -np.finfo(np.float64).max


def _entering(p, i, j, angle):
    """The first and second row that the walk's turning line meets.

    p holds (z_l - z_stay) conj(z_leave - z_stay) for every row l, and (i, j)
    is the pair.  The line turns counterclockwise about z_stay from z_leave
    and meets row l after the turn arg(p_l) mod pi, whose cotangent Re/Im
    decreases on (0, pi), so the first two rows are the two largest keys
    Re/Im.  argmax returns the first of equal keys, so an exact tie goes
    to the lowest row index, as ``solve_qr``'s ties in entering rows do.

    Every candidate's key must be a finite number above _LAST.  One that
    is not has no turn to order: Im = 0 (a row on the pair's line, or a
    duplicate of the staying point), an infinite or NaN product, or a
    quotient that overflows.  Then the walk raises DegenerateData at its
    angle, naming the pair and those rows.  The division's warnings are
    silenced here, where they are expected.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cot = p.real / p.imag
    cot[i] = cot[j] = math.inf
    # the least candidate key, or the first NaN; argmin and an index run
    # without min()'s wrapper
    above = cot[cot.argmin()] > _LAST
    cot[i] = cot[j] = _LAST
    l1 = int(cot.argmax())
    if not (above and cot[l1] < math.inf):
        cot[i] = cot[j] = 0.0
        bad = np.flatnonzero(~((cot > _LAST) & (cot < math.inf))).tolist()
        raise DegenerateData(
            f"the sweep's turn from pair ({i}, {j}) is not a finite number at angle {angle:.9f}",
            indices=sorted({i, j, *bad}),
        )
    cot[l1] = _LAST
    return l1, int(cot.argmax())


def _march_arcs(cloud: PointCloud, tau: float):
    """Parametric traversal; returns ([(lo, hi, i, j, s)], pivots).

    From n = _FORK_MIN_POINTS on, the circle past the first arc is cut at
    one seam per further allowed CPU.  Each chunk marches from its seam's
    record to the next seam's, the first in this process and each other
    in a forked child, and holds the serial march's records and pivots for
    its stretch.  A chunk that never meets its next seam (a tie there)
    marches on to the end of the circle, and the chunks after it are
    dropped.  From a chunk that fails, or would take the probes to the
    budget, this process marches the rest itself.
    """
    z = cloud.points
    n = z.shape[0]
    solve_at, sol, (first, _) = _cold_start(cloud, tau)
    target = first[0] + TWO_PI
    budget = 16 * n * n + 256

    def march(start, stop, budget):
        return _march(solve_at, z, tau, start, target, stop, budget)

    seams = []
    if n >= _FORK_MIN_POINTS:
        # angles that cut (end of the first arc, target) into equal chunks
        lo, chunks = first[1], _fork.workers()
        angles = [lo + (target - lo) * c / chunks for c in range(1, chunks)]
        seams = _seams(solve_at, z, tau, angles)
    starts, stops = [first] + seams, seams + [None]
    parts = _fork.fork_map([
        lambda a=a, b=b: march(a, b, budget) for a, b in zip(starts, stops)
    ])
    records, pivots, probes = [first], sol.pivots, 0
    for stop, part in zip(stops, parts):
        if part is _fork.FAILED or probes + part[2] >= budget:
            break
        records += part[0]
        pivots += part[1]
        probes += part[2]
        if part[0][-1:] != [stop]:  # the chunk closed the circle
            return records, pivots
    rest, more, _ = march(records[-1], None, budget - probes)
    return records + rest, pivots + more


def _seams(solve_at, z, tau, angles):
    """The record of the arc at each angle, from a cold solve there.

    Returns [] when a solve or an arc fails: the serial march makes no
    cold solve at these angles, so their errors are not the sweep's.
    """
    seams = []
    for theta in angles:
        try:
            _sol, key = solve_at(theta, None)
            seams.append(_record(z, tau, key, theta)[0])
        except (QuantourError, np.linalg.LinAlgError):
            return []
    return seams


def _record(z, tau, key, phi, *hoisted):
    """Record (lo, hi, i, j, s) of basis key = (i, j, s), its arc shifted to contain phi.

    Returns (record, row), row being ``_arc_for_basis``'s bound at hi;
    hoisted, the walk's (rows, d), passes through to it.
    """
    arc = _arc_for_basis(z, tau, *key, *hoisted)
    if arc is None:
        i, j, s = key
        raise ArcGap(f"basis ({i}, {j}) with orientation {s} has an empty arc at {phi:.9f}")
    lo, hi, row = arc
    return (*_align(lo, hi, anchor=phi), *key), row


def _march(solve_at, z, tau, start, target, stop, budget):
    """Arc-to-arc march from record ``start``; returns (records, pivots, probes).

    The records follow ``start``.  The march stops on appending the record
    ``stop``, or on closing the circle at ``target``.  Once it has made
    ``budget`` probes without stopping, it raises ArcGap.
    """
    cursor = start[1]
    advance = MIN_ADVANCE
    records, prev = [], start
    pivots = probes = 0
    while True:
        if probes == budget:
            raise ArcGap("sweep did not close the circle within its probe budget")
        if cursor >= target - TILE_TOL:
            break
        probes += 1
        phi = min(cursor + advance, 0.5 * (cursor + target))
        sol, key = solve_at(phi, warm=prev[2:4])
        pivots += sol.pivots
        if key == tuple(prev[2:]):
            # arc end estimate was conservative; push further
            advance *= 10.0
            if advance > 0.5:
                raise ArcGap(f"sweep stalled near angle {cursor:.9f}")
            continue
        rec, _ = _record(z, tau, key, phi)
        if rec[0] > cursor + TILE_TOL:
            # a thinner arc hides between cursor and this one: bisect into the gap
            advance = max(0.5 * (rec[0] - cursor), MIN_ADVANCE)
            continue
        records.append(rec)
        prev, cursor = rec, rec[1]
        advance = MIN_ADVANCE
        if prev == stop:
            return records, pivots, probes

    if cursor > target + TILE_TOL:
        raise ArcGap("final arc overshoots the starting boundary")
    return records, pivots, probes


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
                lo, hi, _ = arc
                start = float(np.remainder(lo, TWO_PI))
                records.append((start, start + (hi - lo), i, j, s))
    records.sort(key=lambda rec: rec[0])
    return records


def _finalize(z, tau, raw):
    """Normalize records, verify the tiling and key uniqueness, certify.

    Each arc must come as one record: the walk's and the march's first arc
    contains angle 0 and their last ends where the first starts, and the enumeration emits
    each arc once, so an arc split at 0 repeats its key and raises ArcGap.
    Returns SweepResult's columns, in its field order.
    """
    if not raw:
        raise ArcGap("no arcs produced")
    # normalize starts into [0, 2 pi) keeping widths; a float's % is
    # np.remainder's fmod and sign fix-up, bit for bit
    norm = []
    for lo, hi, i, j, s in raw:
        start = lo % TWO_PI
        norm.append((start, start + (hi - lo), i, j, s))
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
    work = _CertBuffers(z.shape[0], min(per_block, len(norm)))
    blocks = [
        _certify_block(z, tau, norm[begin : begin + per_block], work)
        for begin in range(0, len(norm), per_block)
    ]
    return tuple(np.concatenate(col) for col in zip(*blocks))


class _CertBuffers:
    """The (arcs, n)-sized arrays of ``_certify_block``, made once per ``_finalize``.

    Each block writes its differences, side products, residuals, losses
    and masks into the leading rows of these; only the two gathers of the
    n - 2 points off each pair are allocated per block.  Arrays of a
    block's size, allocated afresh for every block, cost a fresh zero
    page for each 4 kB written: about 30,000 page faults per n = 1000
    certification, more time than the arithmetic.  A block's rows have the
    strides of fresh C-ordered arrays of its shape, so every ufunc, gemv
    and reduction runs the same kernel on the same bits.
    """

    def __init__(self, n, rows):
        self.d = np.empty((rows, n), dtype=np.complex128)
        self.side = np.empty((rows, n, 1))
        self.off = np.empty((rows, n), dtype=bool)
        self.mask = np.empty((rows, n - 2), dtype=bool)
        self.r = np.empty((rows, n))
        self.neg = np.empty((rows, n), dtype=bool)


def _certify_block(z, tau, recs, work):
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
            _certify_block(z, tau, recs[:k], work)
        raise ArcGap(f"direction {phi[k]:.9f} is outside the basis orientation cone")
    b = npr / dn[:, None]
    a = np.vecdot(b, zi)
    c = np.vecdot(_complement_rows(u), b - u)

    # side signs of the n - 2 points off each arc's pair; the (arcs, n, 2)
    # arrays are C-contiguous, so each arc's product is the one-arc gemv
    zc = _complex_rows(z)
    rows = np.arange(m)
    off = work.off[:m]
    off[:] = True
    off[rows, fi] = False
    off[rows, fj] = False
    d = np.subtract(zc, zc[fi, None], out=work.d[:m])
    # d @ (s npr) is s (d @ npr) up to the sign of a zero
    side = np.matmul(d.view(np.float64).reshape(m, n, 2), (s[:, None] * npr)[:, :, None],
                     out=work.side[:m])[..., 0]
    sgn = side[off].reshape(m, n - 2)
    n_below = np.count_nonzero(np.less(sgn, 0, out=work.mask[:m]), axis=1)
    # psi = tau where sgn > 0, else tau - 1 (tau - True is tau - 1.0), over sgn
    pos = np.greater(sgn, 0, out=work.mask[:m])
    psi = np.subtract(tau, np.logical_not(pos, out=pos), out=sgn)
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
            _certify_block(z, tau, recs[:k], work)
        raise SingularSystem("stationarity system is singular")
    mult, duals = sol[:, 0], sol[:, 1:]

    # the residuals z b - a, which only the objective check reads, and
    # check_loss's r (tau - [r < 0]) over them
    r = np.divide(side, (s * dn)[:, None], out=work.r[:m])
    loss = np.subtract(tau, np.less(r, 0.0, out=work.neg[:m]), out=side)
    objective = np.multiply(r, loss, out=loss).sum(axis=1)
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
