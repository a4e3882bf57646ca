"""Geometry primitives: directions, halfplane rows, halfplane intersection."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from quantour import (
    BOUNDARY,
    BOUNDED,
    EMPTY,
    INSIDE,
    OUTSIDE,
    UNBOUNDED,
    ConvexRegion2D,
    DimensionMismatch,
    Direction,
    NotBounded,
    RegressionProblem,
    depth_region_bruteforce_2d,
    fixed_tau_region,
    fixed_x_cut,
    hausdorff_distance,
    intersect_halfplanes_2d,
    km_envelope,
    orthocomplement_basis,
    polygon_area,
    regression_quantile,
    response_direction_grid,
    sweep,
)
from quantour import geometry as geometry_module
from quantour.depth import _pair_halfplanes
from conftest import make_cloud

RNG = np.random.default_rng


def test_direction_normalizes():
    u = Direction(np.array([3.0, 4.0]))
    assert np.allclose(u.vector, [0.6, 0.8])
    assert abs(np.linalg.norm(u.vector) - 1.0) <= 1e-12


def test_direction_rejects_zero():
    with pytest.raises(ValueError):
        Direction(np.zeros(2))
    with pytest.raises(DimensionMismatch):
        Direction(np.array([np.nan, 1.0]))


@pytest.mark.parametrize(
    "v, want",
    [((1e200, 0.0), (1.0, 0.0)), ((0.0, -1e300), (0.0, -1.0)), ((1e-200, 0.0), (1.0, 0.0)),
     ((0.0, 0.0, 5e-324), (0.0, 0.0, 1.0))],
)
def test_direction_scales_huge_and_tiny_vectors(v, want):
    # v'v overflows to inf, or underflows below the smallest normal double
    assert Direction(np.array(v)).vector.tolist() == list(want)


def test_direction_of_a_tiny_diagonal_is_within_an_ulp():
    half = np.sqrt(0.5)
    u = Direction(np.array([1e-200, 1e-200])).vector
    assert np.all(np.abs(u - half) <= np.spacing(half))


def test_direction_keeps_the_bits_of_ordinary_vectors():
    rng = RNG(14)
    for _ in range(500):
        v = rng.standard_normal(int(rng.integers(2, 6))) * 10.0 ** rng.uniform(-100, 100)
        # the normalisation before huge and tiny vectors were scaled first
        want = v / np.sqrt(v.dot(v))
        assert Direction(v).vector.tobytes() == want.tobytes()


def test_direction_from_angle():
    u = Direction.from_angle(np.pi / 2.0)
    assert np.allclose(u.vector, [0.0, 1.0], atol=1e-15)


CLONES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_direction_round_trip_keeps_bits(clone):
    directions = [Direction(v) for v in RNG(13).standard_normal((500, 2))]
    # normalising a stored vector again moves the last bits of some, so a
    # rebuild through the constructor would fail the comparison below
    assert any(Direction(d.vector).vector.tobytes() != d.vector.tobytes() for d in directions)
    for d, e in zip(directions, clone(directions)):
        assert type(e) is Direction
        assert e.vector.tobytes() == d.vector.tobytes()
        assert not e.vector.flags.writeable
        with pytest.raises(AttributeError):
            e.vector = d.vector


def test_orthocomplement_is_orthonormal():
    rng = RNG(3)
    for k in (2, 3, 5):
        for _ in range(20):
            v = rng.standard_normal(k)
            u = Direction(v)
            gamma = orthocomplement_basis(u)
            assert gamma.shape == (k, k - 1)
            assert np.allclose(gamma.T @ gamma, np.eye(k - 1), atol=1e-12)
            assert np.allclose(gamma.T @ u.vector, 0.0, atol=1e-12)


def test_orthocomplement_2d_is_rotation():
    u = Direction(np.array([0.0, -1.0]))
    gamma = orthocomplement_basis(u)
    # in the plane the complement is the 90 degree rotation, up to sign
    assert np.allclose(np.abs(gamma[:, 0]), [1.0, 0.0], atol=1e-12)


def test_hyperplane_residual_sign():
    # the row (b_1, b_2, a) is the halfplane b'x >= a: the side b points to
    region = intersect_halfplanes_2d(np.array([[0.0, 1.0, 0.5]]))
    assert region.status == UNBOUNDED
    labels = region.classify_many(np.array([[0.0, 1.0], [0.0, 0.0], [7.0, 0.5]]))
    assert labels == [INSIDE, OUTSIDE, BOUNDARY]


def test_polygon_area_square():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert abs(polygon_area(v) - 1.0) <= 1e-15


def test_intersect_unit_square():
    planes = np.array(
        [[1.0, 0.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, -1.0, -1.0]]
    )
    region = intersect_halfplanes_2d(planes)
    assert region.status == BOUNDED
    assert abs(region.area() - 1.0) <= 1e-12
    assert len(region.vertices) == 4
    got = sorted(map(tuple, np.round(region.vertices, 9)))
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_intersect_drops_redundant_plane():
    planes = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, -1.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, -1.0],
            [-1.0, 0.0, -5.0],  # redundant
        ]
    )
    region = intersect_halfplanes_2d(planes)
    assert region.status == BOUNDED
    assert len(region.halfplanes) == 4


def test_intersect_unbounded_strip():
    planes = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, -1.0]])
    region = intersect_halfplanes_2d(planes)
    assert region.status == UNBOUNDED
    assert region.vertices.shape[0] == 0
    with pytest.raises(NotBounded):
        region.area()


def test_intersect_empty_from_antipodal_pair():
    planes = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    region = intersect_halfplanes_2d(planes)
    assert region.status == EMPTY
    assert region.area() == 0.0


def test_lazy_and_eager_agree_on_random_inputs():
    rng = RNG(11)
    box = np.array(
        [
            [*Direction.from_angle(a).vector, -4.0]
            for a in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
        ]
    )
    for _ in range(50):
        m = int(rng.integers(4, 40))
        normals = rng.standard_normal((m, 2))
        # offsets keep the origin strictly inside so the region is nonempty;
        # the fixed triangle of far planes guarantees boundedness
        offsets = -rng.uniform(0.2, 2.0, size=m) * np.linalg.norm(normals, axis=1)
        planes = np.vstack([box, np.column_stack([normals, offsets])])
        lazy = intersect_halfplanes_2d(planes, method="lazy")
        eager = intersect_halfplanes_2d(planes, method="eager")
        assert lazy.status == eager.status == BOUNDED
        assert abs(lazy.area() - eager.area()) <= 1e-9 * (1.0 + lazy.area())
        assert hausdorff_distance(lazy, eager) <= 1e-9


def test_from_vertices_matches_halfplane_route():
    ang = np.arange(7) * 2.0 * np.pi / 7.0 + 0.4
    poly = np.column_stack([np.cos(ang), 0.7 * np.sin(ang)])
    region = ConvexRegion2D.from_vertices(poly[::-1])  # clockwise input is fine
    assert region.status == BOUNDED
    rebuilt = intersect_halfplanes_2d(region.halfplanes)
    assert hausdorff_distance(region, rebuilt) <= 1e-9
    assert abs(region.area() - rebuilt.area()) <= 1e-12


def test_from_vertices_rejects_nonconvex():
    dart = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.2], [0.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        ConvexRegion2D.from_vertices(dart)


def test_contains_classification():
    region = ConvexRegion2D.from_vertices(
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    )
    assert region.contains(np.array([1.0, 1.0])) == INSIDE
    assert region.contains(np.array([3.0, 1.0])) == OUTSIDE
    assert region.contains(np.array([2.0, 1.0])) == BOUNDARY
    labels = region.classify_many(
        np.array([[1.0, 1.0], [3.0, 1.0], [2.0, 1.0], [0.0, 0.0]])
    )
    assert list(labels) == [INSIDE, OUTSIDE, BOUNDARY, BOUNDARY]


def test_empty_region_contains_nothing():
    region = ConvexRegion2D.empty()
    assert region.status == EMPTY
    assert region.contains(np.array([0.0, 0.0])) == OUTSIDE


def test_hausdorff_translation():
    a = ConvexRegion2D.from_vertices(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    )
    b = ConvexRegion2D.from_vertices(
        np.array([[0.3, 0.0], [1.3, 0.0], [1.3, 1.0], [0.3, 1.0]])
    )
    assert abs(hausdorff_distance(a, b) - 0.3) <= 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        intersect_halfplanes_2d(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))


def test_array_route_matches_hyperplane_route():
    # depth_region_bruteforce_2d and fixed_tau_region hand (m, 3) arrays to
    # intersect_halfplanes_2d; the same rows again must give the same bytes,
    # and every reported row must be exactly (b, a) / |b| of an input row,
    # with |b| = float(np.linalg.norm(b))
    statuses = set()
    for seed, n, tau in ((11, 12, 0.178), (12, 30, 0.305), (13, 40, 0.101), (14, 9, 0.45)):
        cloud = make_cloud(seed, n)
        result = sweep(cloud, tau)
        swept = result.halfplanes
        for from_arrays, planes in (
            (fixed_tau_region(result), swept),
            (depth_region_bruteforce_2d(cloud, tau), _pair_halfplanes(cloud, tau)),
        ):
            again = intersect_halfplanes_2d(planes, method="lazy")
            statuses.add(from_arrays.status)
            assert again.status == from_arrays.status
            assert np.array_equal(again.vertices, from_arrays.vertices)
            assert np.array_equal(again.halfplanes, from_arrays.halfplanes)
            # facets (BOUNDED) and deduplicated inputs (EMPTY) are unit inputs
            units = {(row / float(np.linalg.norm(row[:2]))).tobytes() for row in planes}
            assert {row.tobytes() for row in from_arrays.halfplanes} <= units
    assert statuses == {BOUNDED, EMPTY}


def test_region_halfplanes_are_read_only_rows():
    square = np.array(
        [[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, -1.0]]
    )
    strip = np.array([[0.0, 2.0, 0.0], [0.0, -2.0, -2.0]])
    cases = (
        (square, BOUNDED, 4),
        # the direction (1, 0) appears twice; the larger offset stays
        (np.vstack([square, [[1.0, 0.0, 5.0]]]), EMPTY, 4),
        (strip, UNBOUNDED, 2),
        (np.empty((0, 3)), UNBOUNDED, 0),
    )
    for planes, status, rows in cases:
        region = intersect_halfplanes_2d(planes)
        assert region.status == status
        H = region.halfplanes
        assert isinstance(H, np.ndarray) and H.dtype == float and H.shape == (rows, 3)
        assert not H.flags.writeable
        with pytest.raises(ValueError):
            H[0:1, 2] = 1.0
        if rows:
            assert np.array_equal(np.hypot(H[:, 0], H[:, 1]), np.ones(rows))
    # the stored rows are copies: the caller's array stays writable and apart
    region = ConvexRegion2D(np.empty((0, 2)), strip, UNBOUNDED)
    assert strip.flags.writeable and not np.shares_memory(region.halfplanes, strip)
    assert ConvexRegion2D.empty().halfplanes.shape == (0, 3)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert ConvexRegion2D.from_vertices(corners).halfplanes.shape == (4, 3)


def test_array_input_validation():
    with pytest.raises(DimensionMismatch):
        intersect_halfplanes_2d(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        intersect_halfplanes_2d(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        intersect_halfplanes_2d(np.array([[np.inf, 0.0, 0.0]]))
    for a in (np.nan, np.inf, -np.inf):
        for method in ("lazy", "eager"):
            with pytest.raises(DimensionMismatch, match="offset must be finite"):
                intersect_halfplanes_2d(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, a]]), method)
    assert intersect_halfplanes_2d(np.empty((0, 3))).status == UNBOUNDED
    # two methods, lazy by default
    square = np.array(
        [[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, -1.0]]
    )
    assert intersect_halfplanes_2d(square).status == BOUNDED
    with pytest.raises(ValueError):
        intersect_halfplanes_2d(square, method="auto")


def reference_clip(V, b, a, eps):
    """The np.roll form of the clip, kept verbatim as the oracle."""
    m = V.shape[0]
    if m == 0:
        return V
    r = V @ b - a
    keep = r >= -eps
    if np.all(keep):
        return V
    if not np.any(keep):
        return V[:0]
    rn = np.roll(r, -1)
    keep_next = np.roll(keep, -1)
    crossing = keep != keep_next
    Vn = np.roll(V, -1, axis=0)
    t = r[crossing] / (r[crossing] - rn[crossing])
    P = V[crossing] + t[:, None] * (Vn[crossing] - V[crossing])
    counts = keep.astype(np.int64) + crossing.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.empty((int(counts.sum()), 2))
    out[starts[keep]] = V[keep]
    out[starts[crossing] + keep[crossing]] = P
    return out


def test_clip_matches_roll_reference():
    rng = RNG(96)
    seen = set()
    for trial in range(3000):
        m = int(rng.integers(0, 25))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        V = rng.uniform(0.5, 2.0, m)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        V = V * 10.0 ** rng.integers(-3, 4) + rng.standard_normal(2)
        b = rng.standard_normal(2)
        if m and trial % 5 == 0:
            a = float(V[int(rng.integers(m))] @ b)  # the line through a vertex
        else:
            a = float(rng.standard_normal() * np.abs(V).max(initial=1.0))
        eps = float(rng.choice([0.0, 1e-11, 1e-3]))
        got = geometry_module._clip(V, b, a, eps)
        want = reference_clip(V, b, a, eps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial
        seen.add("none" if got.shape[0] == 0 else "all" if got is V else "cut")
        seen |= clip_branches(V, b, a, eps)
    # rings with prescribed residuals: one or two vertices, and vertices
    # within eps of the line, on either side of -eps
    for trial in range(3000):
        m = int(rng.integers(1, 3)) if trial % 3 == 0 else int(rng.integers(3, 12))
        eps = float(rng.choice([1e-11, 1e-3]))
        levels = np.array([-1.0, -2.0 * eps, -eps, -0.5 * eps, 0.0, 0.5 * eps, 1.0])
        r = rng.choice(levels, m) * (1.0 + 0.1 * rng.random(m))
        b = rng.standard_normal(2)
        a = float(rng.standard_normal())
        along = np.sort(rng.uniform(-1.0, 1.0, m))
        V = ((a + r)[:, None] * b + along[:, None] * np.array([-b[1], b[0]])) / (b @ b)
        got = geometry_module._clip(V, b, a, eps)
        want = reference_clip(V, b, a, eps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial
        assert (got is V) == (want is V)
        seen |= clip_branches(V, b, a, eps)
    assert seen == {"none", "all", "cut", "empty", "m=1", "m=2", "wraps 0", "no wrap",
                    "closing edge", "more than two crossings"}


def clip_branches(V, b, a, eps):
    """The cases of a clip, read off the residuals as the reference forms them."""
    m = V.shape[0]
    if m == 0:
        return {"empty"}
    keep = V @ b - a >= -eps
    crossing = keep != np.roll(keep, -1)
    seen = {f"m={m}"} if m <= 2 else set()
    if keep.all() or not keep.any():
        return seen
    seen.add("wraps 0" if keep[0] and keep[-1] else "no wrap")
    if crossing[-1]:
        seen.add("closing edge")
    if crossing.sum() > 2:
        seen.add("more than two crossings")
    return seen


def every_intersection(cloud, tau, models):
    """Each caller's region: K-grid envelopes, a regression cut, depth and tau regions."""
    regions = [km_envelope(cloud, tau, K) for K in (3, 31, 201, 2001)]
    regions.append(fixed_x_cut(models, np.array([0.5])))
    regions.append(depth_region_bruteforce_2d(cloud, tau))
    regions.append(fixed_tau_region(sweep(cloud, tau)))
    return regions


def test_intersections_keep_their_bytes_with_the_reference_clip(monkeypatch):
    tau = 0.2013
    calls = []

    def counted(*args):
        calls.append(1)
        return reference_clip(*args)

    for seed, n in ((11, 6), (12, 9), (13, 14), (14, 23), (15, 37), (16, 60), (17, 400)):
        cloud = make_cloud(seed, n)
        X = RNG(seed).uniform(0.0, 1.0, (n, 1))
        models = [regression_quantile(RegressionProblem(X, cloud.points, tau, d))
                  for d in response_direction_grid(90)]
        got = every_intersection(cloud, tau, models)
        with monkeypatch.context() as patched:
            patched.setattr(geometry_module, "_clip", counted)
            want = every_intersection(cloud, tau, models)
        for g, w in zip(got, want):
            assert g.status == w.status, (seed, n)
            assert g.vertices.tobytes() == w.vertices.tobytes(), (seed, n)
            assert g.halfplanes.tobytes() == w.halfplanes.tobytes(), (seed, n)
    assert calls


def test_polish_vertices_solve_their_two_facets(monkeypatch):
    # each reported vertex is np.linalg.solve of its two consecutive facet
    # rows, bit for bit, or a vertex of the clipped polygon where the two
    # facets are within 1e-9 of parallel
    polish = geometry_module._polish
    polished = []

    def recorded(V, B, A):
        region = polish(V, B, A)
        polished.append((V, region))
        return region

    monkeypatch.setattr(geometry_module, "_polish", recorded)
    tau = 0.2013
    for seed, n in ((21, 8), (22, 20), (23, 45), (24, 60)):
        cloud = make_cloud(seed, n)
        fixed_tau_region(sweep(cloud, tau))  # sweep rows
        depth_region_bruteforce_2d(cloud, tau)  # brute-force depth rows
        km_envelope(cloud, tau, 201)  # K-grid rows
    # a box whose bottom side carries two facets 1e-11 rad apart
    intersect_halfplanes_2d([[0.0, 1.0, 0.0], [-1e-11, 1.0, 0.0], [-1.0, 0.0, -1.0],
                             [1.0, 0.0, -1.0], [0.0, -1.0, -1.0]])
    seen = set()
    for V, region in polished:
        assert region.status == BOUNDED
        H = region.halfplanes
        for i, vertex in enumerate(region.vertices):
            M = H[[i, (i + 1) % len(H)], :2]
            if abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) < 1e-9:
                assert any(vertex.tobytes() == v.tobytes() for v in V)
                seen.add("parallel")
            else:
                rhs = H[[i, (i + 1) % len(H)], 2]
                assert vertex.tobytes() == np.linalg.solve(M, rhs).tobytes()
                seen.add("solved")
    assert len(polished) == 13 and seen == {"solved", "parallel"}


def reference_dedupe_directions(B, A):
    """The former one-row-at-a-time dedupe, kept verbatim as the oracle."""
    UNIT_TOL = geometry_module.UNIT_TOL
    angles = np.arctan2(B[:, 1], B[:, 0])
    order = np.lexsort((-A, angles))
    B, A, angles = B[order], A[order], angles[order]
    keep_B, keep_A, keep_ang = [], [], []
    for i in range(len(A)):
        if keep_ang and abs(angles[i] - keep_ang[-1]) <= UNIT_TOL:
            # same direction: the earlier (larger A) entry dominates
            continue
        keep_B.append(B[i])
        keep_A.append(A[i])
        keep_ang.append(angles[i])
    # wraparound: angles near -pi and near pi are the same direction
    if len(keep_ang) >= 2 and (keep_ang[0] + 2 * np.pi) - keep_ang[-1] <= UNIT_TOL:
        if keep_A[-1] > keep_A[0]:
            keep_B[0], keep_A[0], keep_ang[0] = keep_B[-1], keep_A[-1], keep_ang[-1] - 2 * np.pi
        del keep_B[-1], keep_A[-1], keep_ang[-1]
    return np.array(keep_B), np.array(keep_A), np.array(keep_ang)


def test_dedupe_directions_matches_loop_reference():
    rng = RNG(97)
    tol = geometry_module.UNIT_TOL
    seen = set()
    for trial in range(2000):
        m = int(rng.integers(1, 40))
        angles = rng.uniform(-np.pi, np.pi, m)
        kind = trial % 4
        if kind == 1:
            # planted runs of near-equal angles, gaps around UNIT_TOL, so a
            # row may be dropped against a kept row that is not its predecessor
            for start in rng.integers(0, m, size=3):
                run = angles[start] + np.cumsum(rng.choice([0.0, 0.4, 0.6, 0.9, 1.1], 6)) * tol
                angles = np.concatenate([angles, run])
        elif kind == 2:
            # exact repeats
            angles = np.concatenate([angles, rng.choice(angles, m)])
        B = np.column_stack([np.cos(angles), np.sin(angles)])
        if kind == 3:
            # normals at +-pi, on both sides of the wraparound
            edge = np.array([[-1.0, 0.0], [-1.0, -0.0], [-1.0, 0.5 * tol], [-1.0, -0.5 * tol],
                             [-1.0, 2.0 * tol], [-1.0, -2.0 * tol]])
            B = np.concatenate([B, edge[rng.permutation(6)[: int(rng.integers(1, 7))]]])
        A = rng.standard_normal(B.shape[0])
        if trial % 3 == 0:
            A = np.round(A)  # ties in A too
        got = geometry_module._dedupe_directions(B, A)
        want = reference_dedupe_directions(B, A)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), trial
        if got[0].shape[0] < B.shape[0]:
            seen.add("merged")
        if got[2][0] < -np.pi:
            seen.add("wrapped")
    assert seen == {"merged", "wrapped"}


def test_polish_residuals_come_in_bounded_blocks(monkeypatch):
    # unblocked, _polish formed whole vertices x halfplanes residual arrays
    # and peaked at 197 MB on this cloud, above what it held on entry
    cloud = make_cloud(7, 400)
    polish = geometry_module._polish
    peaks = []

    def traced(V, B, A):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        region = polish(V, B, A)
        peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        return region

    monkeypatch.setattr(geometry_module, "_polish", traced)
    tracemalloc.start()
    try:
        whole = depth_region_bruteforce_2d(cloud, 0.2013)
    finally:
        tracemalloc.stop()
    assert whole.status == BOUNDED and len(peaks) == 1
    assert peaks[0] < 40e6
    # the facets and vertices do not depend on the block size
    monkeypatch.setattr(geometry_module, "_POLISH_BLOCK_ELEMENTS", 64)
    blocked = depth_region_bruteforce_2d(cloud, 0.2013)
    assert blocked.vertices.tobytes() == whole.vertices.tobytes()
    assert blocked.halfplanes.tobytes() == whole.halfplanes.tobytes()
