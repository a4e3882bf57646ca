"""Point clouds and general-position checks.

The solvers in this package assume data in general position: no duplicate
points and, in the plane, no three points on a common line.  Degeneracies
are detected here and reported with offending row indices so they can be
repaired (for instance by :func:`jitter`).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateData, DimensionMismatch, StillDegenerate

# Times max|z|: two points closer in every coordinate count as duplicates;
# squared, a triple with a smaller |cross product| counts as collinear.
GENERAL_POSITION_TOL = 1e-12

# jitter's amplitude per unit of the cloud's extent
JITTER_SCALE = 1e-5

# The collinearity scan tests an anchor's candidate pairs in batches of
# about this many.
_SCAN_BATCH_PAIRS = 1_000_000
# The screen before the scan sorts the directions of blocks of anchors,
# about this many directions per block: 128 kB per float array, so a
# block's arrays stay in cache (at n = 1000 on a 2-core Xeon, 2**14 took
# about 60 % of the time of 2**16).
_SCREEN_BLOCK_ELEMENTS = 1 << 14

# Window arithmetic of _anchor_hits.  _EPS_SLACK (4 eps) bounds the rounding
# of a cross product relative to r_j * r_l and _AREA_FLOOR (4 times the
# smallest subnormal) its absolute error from underflow; squared lengths
# below _SMALLEST_NORMAL are not accurate enough to size a window.
# _ANGLE_MARGIN, thousands of ulps of pi, covers arctan2, the shift by pi
# and the window sums.
_EPS_SLACK = 4.0 * 2.0**-52
_AREA_FLOOR = 4.0 * 2.0**-1074
_SMALLEST_NORMAL = 2.0**-1022
_ANGLE_MARGIN = 1e-12


class PointCloud:
    """Immutable n x k array of observation points.

    Parameters
    ----------
    points : array_like, shape (n, k)
        One row per observation.  The array is copied in C order and
        frozen.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        # other layouts would round the solvers' BLAS products differently
        pts = np.array(points, dtype=float, order="C")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise DimensionMismatch(
                f"point cloud must be a nonempty 2-D array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            bad = np.nonzero(~np.isfinite(pts).all(axis=1))[0]
            raise DegenerateData("non-finite coordinates", indices=bad[:10])
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __setattr__(self, name, value):
        raise AttributeError("PointCloud is immutable")

    def __reduce__(self):
        # pickle and copy keep the stored array and skip the constructor's checks
        return (PointCloud._restore, (self.points,))

    @classmethod
    def _restore(cls, points):
        cloud = object.__new__(cls)
        points.setflags(write=False)
        object.__setattr__(cloud, "points", points)
        return cloud

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.points.shape[1]

    def __repr__(self):
        return f"PointCloud(n={self.n}, k={self.k})"

    def rows_with_duplicates(self, tol: float = GENERAL_POSITION_TOL):
        """Ascending rows with another row within ``tol * max|z|`` in every coordinate."""
        value, (u, v) = _close_values(self.points, tol)
        dup = np.bincount(value)[value] > 1
        dup |= np.isin(value, np.concatenate([u, v]))
        return np.flatnonzero(dup).tolist()

    def collinear_triples(self, tol: float = GENERAL_POSITION_TOL, limit: int = 32):
        """Triples (i, j, l), i < j < l, of collinear rows; planar clouds only.

        A triple counts as collinear when, with d = z[j] - z[i] and
        e = z[l] - z[i], |d_1 e_2 - d_2 e_1| <= tol * scale**2, where scale is
        max |z|, so scaling the cloud by a power of two leaves the triples
        unchanged: the test runs on the cloud over the power of two that puts
        max |z| in [0.5, 1), so neither the tolerance nor a cross product
        over- or underflows with the cloud's scale.  Triples come by
        ascending i, then ascending (j, l), and the scan stops after
        ``limit`` of them; ``limit`` < 1 raises ValueError.

        Every row is scanned, at a cost of O(n^2 log n) plus the work on
        near-collinear pairs: see :func:`_anchor_hits`.
        """
        if limit < 1:
            raise ValueError(f"limit must be at least 1, got {limit}")
        if self.k != 2:
            return []
        # z / 2**e, whose max |z| is scale, and the tolerance on twice the triangle area
        scale, e = np.frexp(np.abs(self.points).max())
        pts, scale = np.ldexp(self.points, -e), float(scale)
        area_tol = tol * scale * scale
        hits = _collinear_hits(pts, area_tol, limit)
        return [tuple(t) for t in hits.tolist()]

    def require_general_position(self):
        """Raise DegenerateData on duplicates or (planar) collinear triples.

        Collinearity is checked only for k == 2 clouds.
        """
        dup = self.rows_with_duplicates()
        if dup:
            raise DegenerateData("duplicate points", indices=dup)
        if self.k == 2 and self.n >= 3:
            triples = self.collinear_triples(limit=4)
            if triples:
                flat = sorted({i for t in triples for i in t})
                raise DegenerateData("collinear triples", indices=flat)


def _close_values(z, tol):
    """Distinct rows of ``z`` and the pairs of them within ``tol * max|z|``.

    Returns ``value``, the index of each row's distinct row, and arrays
    (u, v), u < v, of distinct rows within that in every coordinate.
    The values of one coordinate, sorted, fall into runs whose steps are at
    most tol; two values within tol share a run, as no step between them is
    longer than their distance.  Only rows that share a run in every
    coordinate are tested.
    """
    n, k = z.shape
    tol *= float(np.abs(z).max())
    order = np.lexsort(z.T[::-1])
    new = np.concatenate([[True], (z[order[1:]] != z[order[:-1]]).any(axis=1)])
    value = np.empty(n, dtype=np.intp)
    value[order] = np.cumsum(new) - 1
    rows = z[order[new]]
    m = len(rows)
    run = np.empty((k, m), dtype=np.intp)
    for c in range(k):
        order = np.argsort(rows[:, c])
        run[c, order] = np.concatenate([[0], np.cumsum(np.diff(rows[order, c]) > tol)])
    order = np.lexsort(run[::-1])
    key = run[:, order]
    new = np.concatenate([[True], (key[:, 1:] != key[:, :-1]).any(axis=0)])
    end = np.append(np.flatnonzero(new)[1:], m)[np.cumsum(new) - 1]
    first, step = _successor_steps(end - np.arange(m) - 1)
    u, v = order[first], order[first + step]
    close = (np.abs(rows[u] - rows[v]) <= tol).all(axis=1)
    u, v = u[close], v[close]
    return value, (np.minimum(u, v), np.maximum(u, v))


def _collinear_hits(pts, area_tol, limit):
    """The first ``limit`` collinear triples of rows of ``pts``.

    Returns an array of rows (i, j, l), i < j < l, in ascending order: by
    anchor i, then the anchor's pairs from :func:`_anchor_hits`.

    Blocks of anchors go through :func:`_cleared_anchors` first.  An
    anchor it clears has no candidate pair in :func:`_anchor_hits`, so
    no hit there; every other anchor is scanned by ``_anchor_hits`` as
    before, in ascending order.  So the triples, their order and where
    ``limit`` stops the scan do not depend on the screen.
    """
    m = len(pts)
    found, n_found = [], 0
    lo = 0
    while lo < m - 2 and n_found < limit:
        hi = min(m - 2, lo + max(1, _SCREEN_BLOCK_ELEMENTS // (m - lo - 1)))
        scan = lo + np.flatnonzero(~_cleared_anchors(pts, lo, hi, area_tol))
        with np.errstate(over="ignore", divide="ignore"):
            for i in scan.tolist():
                d = pts[i + 1 :] - pts[i]
                j, l = _anchor_hits(d[:, 0], d[:, 1], area_tol, limit - n_found)
                if j.size:
                    found.append(np.column_stack([np.full(j.size, i), i + 1 + j, i + 1 + l]))
                    n_found += j.size
                    if n_found == limit:
                        break
        lo = hi
    return np.concatenate(found) if found else np.empty((0, 3), dtype=np.intp)


def _cleared_anchors(pts, lo, hi, area_tol):
    """Which anchors lo..hi-1 certainly have no candidate pair in :func:`_anchor_hits`.

    For each anchor i the block forms what ``_anchor_hits`` forms, in the
    same way: the directions d = z[j] - z[i], j > i, their angles theta
    mod pi, r_min**2 and the window width w.  The anchor is cleared when
    r_min**2 is normal and finite, w < pi/4 and every cyclic gap between
    its sorted angles exceeds 2 w.  Then no angle lies within w of
    another, with a margin of w >= 1e-12 over the rounding of the angles
    and of the window sums, so ``_anchor_hits`` finds no candidate pair
    and, by its bound, no pair is collinear.  Columns start at lo + 1, so
    only the upper triangle of the block is formed; an anchor's earlier
    columns are masked out.
    """
    rows = pts[lo:hi]
    cols = pts[lo + 1 :]
    later = np.arange(len(cols)) >= np.arange(hi - lo)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dx = cols[:, 0] - rows[:, 0, None]
        dy = cols[:, 1] - rows[:, 1, None]
        theta = np.arctan2(dy, dx)
        theta[theta < 0.0] += np.pi
        theta[~later] = np.nan  # sorts last
        r2_min = np.where(later, dx * dx + dy * dy, np.inf).min(axis=1)
        w = 0.5 * np.pi * ((area_tol + _AREA_FLOOR) / r2_min + _EPS_SLACK) + _ANGLE_MARGIN
        s = np.sort(theta, axis=1)
        gap = np.fmin.reduce(np.diff(s, axis=1), axis=1)
        gap = np.fmin(gap, s[:, 0] + np.pi - np.fmax.reduce(s, axis=1))
        windowed = (_SMALLEST_NORMAL <= r2_min) & (r2_min < np.inf) & (w < 0.25 * np.pi)
        return windowed & (gap > 2.0 * w)


def _anchor_hits(dx, dy, area_tol, limit):
    """The first ``limit`` pairs (j, l), j < l, with |d_j x d_l| <= area_tol.

    ``dx``, ``dy`` hold one anchor's directions d; returns arrays j, l in
    row-major order.  Directions are sorted by angle mod pi.  If
    |d_j x d_l| <= area_tol as computed in floating point, the exact cross
    product is at most area_tol + 4 * 2**-1074 + 4 eps * r_j * r_l
    (r = |d|), and as |sin x| >= 2|x| / pi on [-pi/2, pi/2] the two angles
    differ mod pi by at most

        w = pi/2 * ((area_tol + 4 * 2**-1074) / r_min**2 + 4 eps) + 1e-12 ,

    r_min = min_j r_j.  Only pairs that close in angle are candidates, and
    each is decided by the same floating-point cross product test.  When
    the anchor has a zero-length direction, r_min**2 leaves the normal
    range or w reaches pi/4, or when the candidates are at least half of
    all pairs, every pair is tested instead, in row-major order, so that
    the test can stop at ``limit``.
    """
    size = dx.size
    theta = np.arctan2(dy, dx)
    theta[theta < 0.0] += np.pi
    r2_min = (dx * dx + dy * dy).min()
    w = 0.5 * np.pi * ((area_tol + _AREA_FLOOR) / r2_min + _EPS_SLACK) + _ANGLE_MARGIN
    windowed = _SMALLEST_NORMAL <= r2_min < np.inf and w < 0.25 * np.pi
    if windowed:
        # each direction pairs with its cyclic successors up to angle + w;
        # as w < pi/2, no pair is counted from both ends
        order = theta.argsort()
        s = theta[order]
        reach = s + w
        count = s.searchsorted(reach, side="right") - np.arange(size) - 1
        count += s.searchsorted(reach - np.pi, side="right")
        windowed = 4 * int(count.sum()) < size * (size - 1)
    if not windowed:
        order = np.arange(size)
        count = size - 1 - order
    total = count.cumsum()
    keys = np.empty(0, dtype=np.intp)
    start = 0 if total[-1] else size
    while start < size:
        done = total[start - 1] if start else 0
        stop = max(start + 1, int(total.searchsorted(done + _SCAN_BATCH_PAIRS, side="right")))
        first, step = _successor_steps(count[start:stop])
        first += start
        nxt = first + step
        nxt[nxt >= size] -= size
        j, l = order[first], order[nxt]
        j, l = np.minimum(j, l), np.maximum(j, l)
        hit = np.abs(dx[j] * dy[l] - dy[j] * dx[l]) <= area_tol
        keys = np.sort(np.concatenate([keys, j[hit] * size + l[hit]]))[:limit]
        start = stop
        if not windowed and keys.size == limit:
            break  # later batches hold only larger keys
    return np.divmod(keys, size)


def _successor_steps(count):
    """Pair each entry k with its steps 1..count[k]: (entry, step) arrays."""
    entry = np.repeat(np.arange(count.size), count)
    step = np.arange(entry.size) - (np.cumsum(count) - count)[entry] + 1
    return entry, step


def jitter(cloud: PointCloud, seed: int = 0) -> PointCloud:
    """Perturb each coordinate by U(-a, a) noise, a = JITTER_SCALE times the extent.

    The extent is the largest per-coordinate max - min, so the noise scales
    with the cloud.  Deterministic given ``seed``.  Raises StillDegenerate,
    with its rows, when the perturbed cloud fails the general-position check.
    """
    amplitude = _jitter_amplitude(cloud)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-amplitude, amplitude, size=cloud.points.shape)
    out = PointCloud(cloud.points + noise)
    try:
        out.require_general_position()
    except DegenerateData as exc:
        raise StillDegenerate(
            f"cloud remains degenerate after jitter of amplitude {amplitude:g}",
            indices=exc.indices,
        ) from exc
    return out


def _jitter_amplitude(cloud: PointCloud) -> float:
    # halved first, so that a range beyond the largest double stays finite
    return 2.0 * JITTER_SCALE * float(np.ptp(0.5 * cloud.points, axis=0).max())
