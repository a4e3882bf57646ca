"""Geometry primitives: directions, halfplane rows, halfplane intersection."""

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
    depth_region_bruteforce_2d,
    fixed_tau_region,
    hausdorff_distance,
    intersect_halfplanes_2d,
    orthocomplement_basis,
    polygon_area,
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


def test_direction_from_angle():
    u = Direction.from_angle(np.pi / 2.0)
    assert np.allclose(u.vector, [0.0, 1.0], atol=1e-15)


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
        swept = np.array([[*arc.hyperplane.b, arc.hyperplane.a] for arc in result.arcs])
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
    assert seen == {"none", "all", "cut"}
