"""Halfspace depth: exact planar values and depth regions."""

import tracemalloc

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
    km_envelope,
)
from quantour import depth as depth_module
from quantour import geometry as geometry_module
from quantour import km as km_module
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


def test_bruteforce_region_memory_is_bounded():
    # the projections on all n(n - 1) pair normals come in column blocks:
    # unblocked, n = 300 peaked at 436 MB (two n x n(n - 1) float arrays)
    cloud = make_cloud(3, 300)
    tracemalloc.start()
    try:
        region = depth_region_bruteforce_2d(cloud, 0.178)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.status == BOUNDED
    assert peak < 100e6


def km_rows(cloud, tau, K=4001):
    """The halfplane rows km_envelope hands to the intersection."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km_module, "intersect_halfplanes_2d", lambda H, method: seen.append(H))
        km_envelope(cloud, tau, K)
    return seen[0]


def test_blocked_projections_match_one_block(monkeypatch):
    # the brute-force region's pair rows and km's K-grid rows share the blocks
    cloud = make_cloud(5, 150)
    builders = (depth_module._pair_halfplanes, km_rows)
    whole = [rows(cloud, 0.178) for rows in builders]
    monkeypatch.setattr(depth_module, "_BLOCK_ELEMENTS", 1000 * cloud.n)
    # a BLAS product may round a block's edge columns another way: at most
    # an ulp of each of its two terms
    ulp = 2.0 * np.finfo(float).eps * np.abs(cloud.points).max()
    for rows, want in zip(builders, whole):
        blocked = rows(cloud, 0.178)
        assert np.array_equal(blocked[:, :2], want[:, :2])
        assert np.abs(blocked[:, 2] - want[:, 2]).max() <= ulp


def former_quantile_rows(z, m0, normals):
    """_quantile_rows as it was: column blocks of z @ normals.T, selected down each column."""
    n, m = z.shape[0], len(normals)
    blocks = -(-n * m // depth_module._BLOCK_ELEMENTS)
    cuts = [m * i // blocks // 64 * 64 for i in range(blocks)] + [m]
    offsets = np.empty(m)
    for lo, hi in zip(cuts, cuts[1:]):
        proj = z @ normals[lo:hi].T
        offsets[lo:hi] = np.partition(proj, m0 - 1, axis=0)[m0 - 1]
    return offsets


def unblocked_quantile_rows(z, m0, normals):
    """The m0-th smallest projection of each normal, from one whole product."""
    return np.partition(z @ normals.T, m0 - 1, axis=0)[m0 - 1]


@pytest.mark.parametrize("n, m", [(3, 5), (20, 1), (36, 1260), (57, 129), (150, 401), (1000, 2001)])
def test_row_blocks_select_the_former_column_blocks(n, m, monkeypatch):
    # each block's product, copied to one row per normal, selects the
    # former offsets: in one block and across block edges; at m = 1260 the
    # product normals @ z.T would round some entries differently.  At one
    # normal per block the former cuts end (57, 129) in a one-column block,
    # which rounds otherwise, so there the unblocked product is expected
    rng = RNG(60 + n)
    z = rng.standard_normal((n, 2)) * rng.uniform(0.01, 100.0)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
    normals = np.column_stack([np.cos(phi), np.sin(phi)])
    for per_block in (m, 130, 64, 1):
        monkeypatch.setattr(depth_module, "_BLOCK_ELEMENTS", per_block * n)
        for m0 in sorted({1, (n + 1) // 3, n}):
            tail = (n, m, per_block) == (57, 129, 1)
            want = (unblocked_quantile_rows if tail else former_quantile_rows)(z, m0, normals)
            got = depth_module._quantile_rows(z, m0, normals)
            assert got.tobytes() == want.tobytes(), (per_block, m0)


@pytest.mark.parametrize("n", [3, 20, 57, 400])
def test_a_one_column_tail_joins_the_block_before_it(n, monkeypatch):
    # blocks of 64 columns over 65 or 129 columns would end in one column,
    # whose matrix-vector product rounds otherwise than the whole product
    rng = RNG(70 + n)
    z = rng.standard_normal((n, 2)) * rng.uniform(0.01, 100.0)
    monkeypatch.setattr(depth_module, "_BLOCK_ELEMENTS", n)
    monkeypatch.setattr(geometry_module, "_POLISH_BLOCK_ELEMENTS", 64)
    for m in (65, 129):
        phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
        normals = np.column_stack([np.cos(phi), np.sin(phi)])
        for m0 in sorted({1, (n + 1) // 3, n}):
            want = unblocked_quantile_rows(z, m0, normals)
            got = depth_module._quantile_rows(z, m0, normals)
            assert got.tobytes() == want.tobytes(), (m, m0)
        A = rng.standard_normal(m)
        res = np.empty((n, m))
        for cols, block in geometry_module._residual_blocks(z, normals, A):
            res[:, cols] = block
        assert res.tobytes() == (z @ normals.T - A).tobytes(), m
    assert [(c.start, c.stop) for c in geometry_module._column_blocks(5, 129, 320)] == [(0, 64), (64, 129)]
    assert geometry_module._column_blocks(5, 0, 320) == []


def test_envelope_memory_is_bounded():
    # km projects on its K-grid in the depth region's column blocks:
    # unblocked, n = 2000 and K = 4001 peaked at 133 MB (two n x K arrays)
    cloud = make_cloud(6, 2000)
    tracemalloc.start()
    try:
        region = km_envelope(cloud, 0.2017, 4001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.status == BOUNDED
    assert peak < 48e6
