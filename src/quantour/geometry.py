"""Directions and exact planar halfplane intersection.

Conventions
-----------
A halfplane is a row (b_1, b_2, a) of a float array and stands for the
closed upper side b'x >= a.  Rows need not have unit b; the intersection
divides b and a by |b| and reports unit rows.  Region vertices are
counterclockwise.  All residual tests use the module tolerance GEOM_TOL
unless a caller passes something else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NotBounded,
    SingularSystem,
)

# absolute tolerance on halfplane residuals b'x - a
GEOM_TOL = 1e-9
# tolerance on unit norms and angle comparisons
UNIT_TOL = 1e-12
# initial bounding-box half-width factor for clipping
BOX_FACTOR = 1e6
# smallest normal double: a direction's v'v below it has lost bits
_TINY = np.finfo(float).tiny
# most vertex x halfplane residuals per block of _polish: 8 MB, as much
# again for their absolute values
_POLISH_BLOCK_ELEMENTS = 1 << 20

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
EMPTY = "empty"

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D array, as ``float(np.linalg.norm(v))``.

    The same dot product and a correctly rounded square root, so the
    result is bit for bit the same, without np.linalg.norm's dispatch.
    """
    return math.sqrt(v.dot(v))


class Direction:
    """Unit vector in R^k.

    Any nonzero vector is accepted and normalized, so ``Direction([3, 4])``
    has vector (0.6, 0.8).
    """

    __slots__ = ("vector",)

    def __init__(self, vector):
        v = np.array(vector, dtype=float).ravel()
        if v.size == 0 or not np.isfinite(v).all():
            raise DimensionMismatch("direction must be a finite vector")
        if not v.any():
            raise ValueError("direction must be nonzero")
        with np.errstate(over="ignore"):
            sq = v.dot(v)
        if sq == np.inf or sq < _TINY:
            # v'v overflows or underflows: scale max|v| to 1 first.  Every
            # other vector is divided by its norm alone, which keeps its bits.
            v /= np.abs(v).max()
            sq = v.dot(v)
        v /= math.sqrt(sq)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    def __setattr__(self, name, value):
        raise AttributeError("Direction is immutable")

    def __reduce__(self):
        # pickle and copy keep the stored bits: normalising again can move them
        return (Direction._restore, (self.vector,))

    @classmethod
    def _restore(cls, vector):
        d = object.__new__(cls)
        vector.setflags(write=False)
        object.__setattr__(d, "vector", vector)
        return d

    @classmethod
    def from_angle(cls, phi: float) -> "Direction":
        """Planar direction (cos phi, sin phi)."""
        return cls([np.cos(phi), np.sin(phi)])

    @property
    def k(self) -> int:
        return self.vector.shape[0]

    @property
    def angle(self) -> float:
        """Polar angle in (-pi, pi]; planar directions only."""
        if self.k != 2:
            raise DimensionMismatch("angle is defined for planar directions only")
        return float(np.arctan2(self.vector[1], self.vector[0]))

    def __repr__(self):
        return f"Direction({np.array2string(self.vector, precision=6)})"


def orthocomplement_basis(u: Direction) -> np.ndarray:
    """Canonical orthonormal basis of the complement of ``u``.

    Returns a read-only k x (k-1) array whose orthonormal columns are each
    orthogonal to ``u.vector`` within UNIT_TOL.  Gram-Schmidt applied to
    the standard basis vectors e_j in index order, skipping the coordinate
    where |u_j| is largest (first such index on ties).  Deterministic, so
    repeated calls agree exactly.
    """
    k = u.k
    if k < 2:
        raise DimensionTooSmall("orthogonal complement needs ambient dimension >= 2")
    skip = int(np.abs(u.vector).argmax())
    basis = [u.vector]
    m = np.empty((k, k - 1))
    for j in range(k):
        if j == skip:
            continue
        v = np.zeros(k)
        v[j] = 1.0
        for w in basis:
            v = v - (v @ w) * w
        norm = vector_norm(v)
        if norm <= UNIT_TOL:
            raise SingularSystem("orthogonalization breakdown")
        v /= norm
        m[:, len(basis) - 1] = v
        basis.append(v)
    m.setflags(write=False)
    return m


def _shoelace(v):
    """Twice the signed area of the polygon with (m, 2) vertices v; > 0 when ccw."""
    x, y = v[:, 0], v[:, 1]
    return x @ np.roll(y, -1) - y @ np.roll(x, -1)


def polygon_area(vertices) -> float:
    """Shoelace area of a simple polygon; 0.0 for fewer than 3 vertices."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3:
        return 0.0
    return float(abs(_shoelace(v))) / 2.0


@dataclass(frozen=True)
class ConvexRegion2D:
    """Closed convex planar region.

    vertices : (m, 2) counterclockwise array; empty for empty or unbounded
        regions.
    halfplanes : (f, 3) array of generating rows (b_1, b_2, a), each the
        halfplane b'x >= a with unit b.  For a bounded intersection these
        are exactly the facets (redundant members removed); for other
        statuses the deduplicated inputs.
    status : one of BOUNDED, UNBOUNDED, EMPTY.

    Both arrays are read-only copies.
    """

    vertices: np.ndarray
    halfplanes: np.ndarray
    status: str

    def __post_init__(self):
        for name, width in (("vertices", 2), ("halfplanes", 3)):
            a = np.array(getattr(self, name), dtype=float).reshape(-1, width)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def empty(cls) -> "ConvexRegion2D":
        return cls(np.empty((0, 2)), (), EMPTY)

    @classmethod
    def from_vertices(cls, vertices) -> "ConvexRegion2D":
        """Bounded region from its vertex list (either orientation).

        Requires at least 3 distinct vertices of a convex polygon; the
        stored copy is counterclockwise.  Each edge of nonzero length gives
        the row of the halfplane on its left.
        """
        v = np.array(vertices, dtype=float).reshape(-1, 2)
        if v.shape[0] < 3:
            raise DimensionMismatch("a bounded region needs at least 3 vertices")
        if _shoelace(v) < 0:
            v = v[::-1].copy()
        edges = np.roll(v, -1, axis=0) - v
        following = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * following[:, 1] - edges[:, 1] * following[:, 0]
        scale = float(np.abs(v).max()) + 1.0
        if np.any(cross < -GEOM_TOL * scale * scale):
            raise DimensionMismatch("vertices do not describe a convex polygon")
        N = np.column_stack([-edges[:, 1], edges[:, 0]])
        norms = np.sqrt(np.vecdot(N, N))
        keep = norms > UNIT_TOL * scale
        H = np.column_stack([N, np.vecdot(N, v)])[keep] / norms[keep, None]
        return cls(v, H, BOUNDED)

    def area(self) -> float:
        if self.status == EMPTY:
            return 0.0
        if self.status == UNBOUNDED:
            raise NotBounded("area of an unbounded region")
        return polygon_area(self.vertices)

    def contains(self, point) -> str:
        """Classify a point as INSIDE, BOUNDARY, or OUTSIDE within GEOM_TOL."""
        return self.classify_many(np.asarray(point, dtype=float).reshape(1, 2))[0]

    def classify_many(self, points):
        """Vectorized contains(): list of INSIDE/BOUNDARY/OUTSIDE labels."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DimensionMismatch("expected an array of planar points")
        if self.status == EMPTY:
            return [OUTSIDE] * pts.shape[0]
        H = self.halfplanes
        if H.shape[0] == 0:
            # whole plane
            return [INSIDE] * pts.shape[0]
        res = pts @ H[:, :2].T - H[:, 2]
        worst = res.min(axis=1)
        return [
            OUTSIDE if w < -GEOM_TOL else (BOUNDARY if w <= GEOM_TOL else INSIDE)
            for w in worst
        ]


def hausdorff_distance(a: ConvexRegion2D, b: ConvexRegion2D) -> float:
    """Hausdorff distance between two bounded nonempty convex regions.

    For convex polygons the directed distance is attained at a vertex of
    the source polygon, so scanning vertices against the other boundary
    is exact.
    """
    for r in (a, b):
        if r.status != BOUNDED:
            raise NotBounded("Hausdorff distance needs bounded nonempty regions")

    def directed(src: ConvexRegion2D, dst: ConvexRegion2D) -> float:
        labels = dst.classify_many(src.vertices)
        P = src.vertices[[lab == OUTSIDE for lab in labels]]
        if P.shape[0] == 0:
            return 0.0
        dv = dst.vertices
        m = dv.shape[0]
        best = np.full(P.shape[0], np.inf)
        for i in range(m):
            s, e = dv[i], dv[(i + 1) % m]
            d = e - s
            denom = float(d @ d)
            if denom == 0.0:
                t = np.zeros(P.shape[0])
            else:
                t = np.clip((P - s) @ d / denom, 0.0, 1.0)
            best = np.minimum(best, np.linalg.norm(P - (s + t[:, None] * d), axis=1))
        return float(best.max())

    return max(directed(a, b), directed(b, a))


def _dedupe_directions(B: np.ndarray, A: np.ndarray):
    """Merge halfplanes with the same unit normal, keeping the largest offset.

    Returns (B, A, angles) sorted by polar angle of the normal.  A row is
    dropped when within UNIT_TOL of the last kept row, which needs it within
    UNIT_TOL of its predecessor: the loop visits only such rows.
    """
    angles = np.arctan2(B[:, 1], B[:, 0])
    order = np.lexsort((-A, angles))
    B, A, angles = B[order], A[order], angles[order]
    keep = np.ones(A.shape[0], dtype=bool)
    kept = 0  # the last kept row before row i + 1
    for i in (np.abs(np.diff(angles)) <= UNIT_TOL).nonzero()[0].tolist():
        if keep[i]:
            kept = i
        # same direction as row `kept`: the earlier (larger A) entry dominates
        if abs(angles[i + 1] - angles[kept]) <= UNIT_TOL:
            keep[i + 1] = False
    B, A, angles = B[keep], A[keep], angles[keep]
    # wraparound: angles near -pi and near pi are the same direction
    if A.shape[0] >= 2 and (angles[0] + 2 * np.pi) - angles[-1] <= UNIT_TOL:
        if A[-1] > A[0]:
            B[0], A[0], angles[0] = B[-1], A[-1], angles[-1] - 2 * np.pi
        B, A, angles = B[:-1], A[:-1], angles[:-1]
    return B, A, angles


def _clip(V: np.ndarray, b: np.ndarray, a: float, eps: float) -> np.ndarray:
    """Clip CCW polygon V by the halfplane b'x >= a (Sutherland-Hodgman step).

    Each index i emits V[i] when kept (r_i = V[i]'b - a >= -eps), then,
    when exactly one of i and its cyclic successor j is kept, the crossing
    V[i] + t (V[j] - V[i]) with t = r_i / (r_i - r_j).  Returns V itself
    when every vertex is kept and V[:0] when none is.

    The residuals are the one numpy product, whose rows numpy forms with
    a fused multiply-add that Python cannot repeat.  Everything after it
    runs on Python floats: the comparison, subtractions, division,
    product and sum are the same single IEEE operations that numpy's
    elementwise ufuncs perform, in the same order, so the output has the
    bits of the vectorised form it replaced (``reference_clip`` in the
    tests) without a dozen array calls per step.
    """
    m = V.shape[0]
    if m == 0:
        return V
    r = (V @ b - a).tolist()
    lo = -eps
    keep = [x >= lo for x in r]
    if False not in keep:
        return V
    if True not in keep:
        return V[:0]
    xy = V.ravel().tolist()  # x_i, y_i at 2i, 2i + 1
    keep.append(keep[0])
    out = []
    start = 0  # the first vertex after the last crossing
    for i in [i for i in range(m) if keep[i] != keep[i + 1]]:
        # vertices start..i share i's side
        if keep[i]:
            out += xy[2 * start : 2 * i + 2]
        j = i + 1 if i + 1 < m else 0
        x0, y0, x1, y1 = xy[2 * i], xy[2 * i + 1], xy[2 * j], xy[2 * j + 1]
        t = r[i] / (r[i] - r[j])
        out += (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
        start = i + 1
    if keep[m - 1]:
        out += xy[2 * start :]
    return np.array(out).reshape(-1, 2)


def _dedupe_ring(V: np.ndarray, tol: float) -> np.ndarray:
    """Drop consecutive (cyclically) duplicate vertices."""
    if V.shape[0] < 2:
        return V
    d = np.abs(V - np.roll(V, -1, axis=0)).max(axis=1)
    return V[d > tol]


def intersect_halfplanes_2d(halfplanes, method: str = "lazy") -> ConvexRegion2D:
    """Intersection of closed halfplanes {x : b'x >= a}.

    Parameters
    ----------
    halfplanes : (m, 3) array
        One row (b_1, b_2, a) per halfplane b'x >= a; b need not be unit.
    method : {"lazy", "eager"}
        "lazy" (the default) repeatedly clips a bounding box by the
        currently most violated constraint and permanently drops satisfied
        ones; it is output sensitive.  "eager" clips by every constraint
        in normal-angle order.  Measured, eager is slower than lazy on
        every input it serves (the K-grid envelopes and regression cuts),
        and where the two differ in bytes it is by repeated vertices.  It
        stays only because the benchmark's recorded digests pin its
        bytes, until a single sort-and-deque intersection replaces both
        modes.

    Returns
    -------
    ConvexRegion2D
        For a bounded result, ``halfplanes`` holds exactly the facets and
        every vertex lies on two of them (within GEOM_TOL) while
        satisfying all inputs.  Lower-dimensional intersections (points,
        segments) are reported as EMPTY.  Every row is divided by |b| in
        one vectorised step, and the reported rows are such unit rows.

    Raises
    ------
    DimensionMismatch
        Input not of shape (m, 3), or a row with a zero or non-finite b
        or a non-finite a.
    SingularSystem
        If the numerical clipping cannot certify its result.
    """
    H = np.asarray(halfplanes, dtype=float)
    if H.ndim != 2 or H.shape[1] != 3:
        raise DimensionMismatch("halfplane arrays must have shape (m, 3)")
    if H.shape[0] == 0:
        return ConvexRegion2D(np.empty((0, 2)), H, UNBOUNDED)
    if method not in ("lazy", "eager"):
        raise ValueError(f"unknown method {method!r}")

    # bit for bit float(np.linalg.norm(b)) per row; np.linalg.norm(B, axis=1) rounds differently
    B = H[:, :2]
    norms = np.sqrt(np.vecdot(B, B))
    if not ((norms > 0.0) & (norms < np.inf)).all():
        raise DimensionMismatch("hyperplane normal must be finite and nonzero")
    if not np.isfinite(H[:, 2]).all():
        raise DimensionMismatch("halfplane offset must be finite")
    B, A, angles = _dedupe_directions(B / norms[:, None], H[:, 2] / norms)

    # recession analysis via cyclic gaps between normal angles
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    widest = int(np.argmax(gaps))
    max_gap = float(gaps[widest])
    if max_gap > np.pi + 1e-12:
        status = UNBOUNDED
    elif max_gap > np.pi - 1e-12:
        # normals span a closed half-circle; the two gap endpoints are
        # antipodal and decide feasibility of the resulting strip
        j = (widest + 1) % len(A)
        status = EMPTY if A[widest] + A[j] > GEOM_TOL else UNBOUNDED
    else:
        box_half = BOX_FACTOR * (1.0 + float(np.abs(A).max()))
        for _attempt in range(3):
            V = _bounded_clip(B, A, box_half, method)
            if V is None or np.abs(V).max() < 0.99 * box_half:
                break
            box_half *= 100.0
        else:
            raise SingularSystem("bounded region exceeds the largest clipping box")
        if V is not None:
            V = _dedupe_ring(V, 1e-9 * (1.0 + float(np.abs(V).max())))
            if V.shape[0] >= 3:
                return _polish(V, B, A)
        status = EMPTY
    # the deduplicated inputs
    return ConvexRegion2D(np.empty((0, 2)), np.column_stack([B, A]), status)


def _bounded_clip(B, A, box_half, method):
    """Clip a centered box of half-width box_half; None when empty."""
    V = np.array(
        [[-box_half, -box_half], [box_half, -box_half], [box_half, box_half], [-box_half, box_half]]
    )
    eps = 1e-11 * (1.0 + float(np.abs(A).max()))
    m = len(A)
    if method == "eager":
        for i in range(m):
            V = _clip(V, B[i], A[i], eps)
            if V.shape[0] == 0:
                return None
        return V
    # lazy: most-violated first, drop satisfied constraints for good
    active = np.ones(m, dtype=bool)
    for _ in range(m + 4):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            return V
        res = V @ B[idx].T - A[idx]
        min_res = res.min(axis=0)
        sat = min_res >= -eps
        active[idx[sat]] = False
        if np.all(sat):
            return V
        worst = idx[~sat][int(np.argmin(min_res[~sat]))]
        V = _clip(V, B[worst], A[worst], eps)
        active[worst] = False
        if V.shape[0] == 0:
            return None
    raise SingularSystem("halfplane clipping failed to terminate")


def _residual_blocks(V, B, A):
    """Yield (columns, V @ B[columns].T - A[columns]) over blocks of halfplanes.

    The blocks start on multiples of 64 columns, where BLAS tiles the
    whole product too, so at one BLAS thread each residual has the bits
    of the unblocked product.
    """
    m = len(A)
    step = max(64, _POLISH_BLOCK_ELEMENTS // V.shape[0] // 64 * 64)
    for lo in range(0, m, step):
        cols = slice(lo, min(lo + step, m))
        res = V @ B[cols].T
        res -= A[cols]
        yield cols, res


def _polish(V, B, A):
    """Identify facets, recompute vertices as exact line intersections."""
    vert_scale = 1.0 + float(np.abs(V).max())
    facet_tol = 1e-8 * vert_scale
    tight_counts = np.empty(len(A), dtype=int)
    raw_mins = []
    for cols, res in _residual_blocks(V, B, A):
        tight_counts[cols] = (np.abs(res) <= facet_tol).sum(axis=0)
        raw_mins.append(res.min())
    facet_idx = np.nonzero(tight_counts >= 2)[0]
    if facet_idx.size < 3:
        # should not happen for a genuine 2-D region
        raise SingularSystem("fewer than 3 facets found for a bounded region")

    # facets are already in normal-angle order; consecutive ones share a
    # vertex.  The stacked solve runs one LAPACK gesv per 2 x 2 system, so
    # each vertex has the bits of its own np.linalg.solve.
    fb, fa = B[facet_idx], A[facet_idx]
    M = np.stack([fb, np.roll(fb, -1, axis=0)], axis=1)
    rhs = np.column_stack([fa, np.roll(fa, -1)])
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    parallel = np.abs(det) < 1e-9
    new_vertices = np.empty((facet_idx.size, 2))
    new_vertices[~parallel] = np.linalg.solve(M[~parallel], rhs[~parallel, :, None])[:, :, 0]
    for i in np.flatnonzero(parallel).tolist():
        # nearly parallel adjacent facets: keep the clipped estimate
        d = np.abs(V @ M[i, 0] - rhs[i, 0]) + np.abs(V @ M[i, 1] - rhs[i, 1])
        new_vertices[i] = V[int(np.argmin(d))]

    check = np.min([res.min() for _, res in _residual_blocks(new_vertices, B, A)])
    tol = GEOM_TOL * (1.0 + float(np.abs(A).max()))
    facets = np.column_stack([fb, fa])
    if check >= -tol:
        return ConvexRegion2D(new_vertices, facets, BOUNDED)
    # fall back to the raw clipped polygon if the rebuild is worse
    if np.min(raw_mins) >= -tol:
        return ConvexRegion2D(V, facets, BOUNDED)
    raise SingularSystem("halfplane intersection failed verification")
