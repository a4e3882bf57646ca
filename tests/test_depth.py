"""Halfspace depth: exact planar values and depth regions."""

import numpy as np
import pytest

from quantour import (
    BOUNDED,
    EMPTY,
    OUTSIDE,
    PointCloud,
    depth_2d,
    depth_kd_approx,
    depth_region_bruteforce_2d,
    hausdorff_distance,
)
from conftest import SQRT3, make_cloud

RNG = np.random.default_rng


def test_triangle_depths(triangle):
    inside = depth_2d(triangle, np.array([0.25, 0.25]))
    assert inside.count == 1
    assert inside.n == 3
    assert abs(inside.normalized - 1.0 / 3.0) <= 1e-15
    outside = depth_2d(triangle, np.array([2.0, 2.0]))
    assert outside.count == 0


def test_square_center_depth(square):
    center = depth_2d(square, np.array([0.5, 0.5]))
    assert center.count == 2
    edge_mid = depth_2d(square, np.array([0.5, 0.0]))
    assert edge_mid.count == 1


def test_data_point_has_positive_depth(hexagon):
    # a closed halfspace through a data point always contains it
    for row in hexagon.points:
        assert depth_2d(hexagon, row).count >= 1


def test_depth_affine_invariance():
    rng = RNG(50)
    cloud = make_cloud(51, 30)
    A = np.array([[1.4, 0.3], [-0.2, 0.9]])
    t = np.array([5.0, -2.0])
    mapped = PointCloud(cloud.points @ A.T + t)
    for _ in range(10):
        x = rng.standard_normal(2)
        d0 = depth_2d(cloud, x)
        d1 = depth_2d(mapped, A @ x + t)
        assert d0.count == d1.count


def test_hexagon_region_quarter_level(hexagon):
    region = depth_region_bruteforce_2d(hexagon, 0.25)
    assert region.status == BOUNDED
    assert len(region.halfplanes) == 6
    assert abs(region.area() - SQRT3 / 2.0) <= 1e-9
    target = np.array([0.5, SQRT3 / 6.0])
    dists = np.linalg.norm(region.vertices - target, axis=1)
    assert dists.min() <= 1e-9


def test_triangle_region_low_level(triangle):
    # below depth 1/3 every closed halfspace cut keeps the hull
    region = depth_region_bruteforce_2d(triangle, 0.3)
    hull_area = 0.5
    assert region.status == BOUNDED
    assert abs(region.area() - hull_area) <= 1e-12


def test_region_empty_beyond_max_depth(square):
    region = depth_region_bruteforce_2d(square, 0.7)
    assert region.status == EMPTY


def test_region_nesting():
    cloud = make_cloud(52, 40)
    shallow = depth_region_bruteforce_2d(cloud, 0.101)
    deep = depth_region_bruteforce_2d(cloud, 0.178)
    assert shallow.status == BOUNDED and deep.status == BOUNDED
    for v in deep.vertices:
        assert shallow.contains(v) != OUTSIDE


def test_centerpoint_region_nonempty():
    # a depth-n/3 point always exists in the plane
    for seed in range(5):
        cloud = make_cloud(60 + seed, 31)
        tau = np.ceil(cloud.n / 3.0) / cloud.n - 1e-9
        region = depth_region_bruteforce_2d(cloud, tau)
        assert region.status == BOUNDED


def test_region_points_have_claimed_depth():
    cloud = make_cloud(53, 25)
    tau = 0.178
    region = depth_region_bruteforce_2d(cloud, tau)
    assert region.status == BOUNDED
    # interior points meet the depth level, points far outside do not
    centroid = region.vertices.mean(axis=0)
    assert depth_2d(cloud, centroid).count >= int(np.ceil(cloud.n * tau))
    far = cloud.points.max(axis=0) + 10.0
    assert depth_2d(cloud, far).count < int(np.ceil(cloud.n * tau))


def test_kd_approx_upper_bounds_exact():
    # each sampled direction gives an upper bound, so the running minimum
    # is always >= the exact count and shrinks as K grows
    rng = RNG(54)
    cloud = make_cloud(55, 40)
    for _ in range(10):
        x = 0.5 * rng.standard_normal(2)
        exact = depth_2d(cloud, x).count
        a21 = depth_kd_approx(cloud, x, 21, seed=9).count
        a201 = depth_kd_approx(cloud, x, 201, seed=9).count
        assert a21 >= a201 >= exact


def test_kd_approx_matches_exact_in_plane_for_large_k():
    cloud = make_cloud(56, 20)
    x = cloud.points.mean(axis=0)
    exact = depth_2d(cloud, x).count
    approx = depth_kd_approx(cloud, x, 4001, seed=1).count
    assert approx == exact


def test_kd_approx_three_dimensional():
    rng = RNG(57)
    pts = rng.standard_normal((40, 3))
    cloud = PointCloud(pts)
    center = pts.mean(axis=0)
    val = depth_kd_approx(cloud, center, 501, seed=2)
    assert 1 <= val.count <= cloud.n
    far = depth_kd_approx(cloud, center + 50.0, 501, seed=2)
    assert far.count == 0
