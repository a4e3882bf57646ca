"""General-position checks: duplicate rows and collinear triples.

The angular-window scan in ``PointCloud.collinear_triples`` must return
exactly what the dense O(n^3) scan it replaced returns: the same triples,
in the same order, cut at the same limit.  ``dense_collinear_triples`` below
is that scan, kept as the independent oracle; its tolerance is relative to
the cloud's largest coordinate, with no floor at 1.
"""

import copy
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantour import DegenerateData, PointCloud, StillDegenerate, jitter
from quantour import cloud as cloud_module
from conftest import make_cloud

RNG = np.random.default_rng
LIMITS = (4, 32, 10**9)


def dense_collinear_triples(z, tol=1e-12, limit=32):
    """Dense reference scan: one (n - i)^2 cross-product matrix per anchor i."""
    m = len(z)
    found = []
    # scale-aware tolerance on twice the triangle area
    scale = float(np.abs(z).max())
    area_tol = tol * scale * scale
    for ai in range(m - 2):
        a = z[ai]
        d = z[ai + 1 :] - a
        # cross(d_j, d_l) == 0 <=> triple (a, j, l) collinear
        cross = np.abs(d[:, 0][:, None] * d[:, 1][None, :] - d[:, 1][:, None] * d[:, 0][None, :])
        ji, li = np.nonzero(np.triu(cross <= area_tol, k=1))
        for j, l in zip(ji, li):
            found.append((ai, ai + 1 + int(j), ai + 1 + int(l)))
            if len(found) >= limit:
                return found
    return found


def brute_duplicate_rows(z, tol=1e-12):
    """All pairs within tol times the largest |coordinate|, by the dense test."""
    z = np.asarray(z, dtype=float).reshape(len(z), -1)
    close = (np.abs(z[:, None, :] - z[None, :, :]) <= tol * np.abs(z).max()).all(axis=2)
    return [tuple(p) for p in np.argwhere(np.triu(close, k=1)).tolist()]


def assert_same_duplicates(z, tol=1e-12):
    """rows_with_duplicates lists the rows of the brute-force pairs, which are returned."""
    pairs = brute_duplicate_rows(z, tol=tol)
    assert PointCloud(z).rows_with_duplicates(tol=tol) == sorted({i for p in pairs for i in p})
    return pairs


def assert_same_triples(z, tol=1e-12):
    z = np.asarray(z, dtype=float)
    cloud = PointCloud(z)
    for limit in LIMITS:
        got = cloud.collinear_triples(tol=tol, limit=limit)
        assert got == dense_collinear_triples(z, tol=tol, limit=limit), limit
        assert all(type(i) is int for t in got for i in t)


def gaussian_with_midpoint(seed, n):
    rng = RNG(seed)
    z = rng.standard_normal((n, 2))
    i, j = rng.choice(n, size=2, replace=False)
    at = int(rng.integers(0, n + 1))
    return np.insert(z, at, 0.5 * (z[i] + z[j]), axis=0)


GRID8 = np.array([(float(a), float(b)) for a in range(8) for b in range(8)])


@pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_point_cloud_round_trip_keeps_bits(clone):
    cloud = PointCloud(np.random.default_rng(14).standard_normal((50, 3)) * 1e-300)
    other = clone(cloud)
    assert type(other) is PointCloud
    assert other.points.tobytes() == cloud.points.tobytes()
    assert other.points.shape == cloud.points.shape
    assert other.points.flags.c_contiguous and not other.points.flags.writeable
    with pytest.raises(AttributeError):
        other.points = cloud.points


def test_collinear5_matches_dense(collinear5):
    assert_same_triples(collinear5)
    assert PointCloud(collinear5).collinear_triples(limit=4) == [
        (0, 1, 2),
        (0, 1, 3),
        (0, 1, 4),
        (0, 2, 3),
    ]


def test_grid_and_lattices_match_dense():
    assert_same_triples(GRID8)
    assert_same_triples(GRID8[RNG(1).permutation(64)])
    for seed in range(6):
        rng = RNG(10 + seed)
        lattice = np.unique(rng.integers(-4, 5, size=(40, 2)), axis=0)
        assert_same_triples(lattice[rng.permutation(len(lattice))])


def test_duplicates_match_dense():
    rng = RNG(20)
    z = rng.standard_normal((30, 2))
    exact = np.vstack([z, z[[3, 17]]])
    assert_same_triples(exact)
    for eps in (1e-13, 1e-9, 1e-6):
        near = np.vstack([z[:12], z[5] + eps, z[12:], z[20] - [eps, 2 * eps]])
        assert_same_triples(near)


def test_midpoint_in_gaussian_cloud_matches_dense():
    for seed, n in ((30, 20), (31, 60), (32, 150)):
        z = gaussian_with_midpoint(seed, n)
        assert PointCloud(z).collinear_triples(limit=10**9)
        assert_same_triples(z)


@pytest.mark.parametrize("scale", [1e-6, 1e8])
def test_scaled_clouds_match_dense(scale):
    assert_same_triples(scale * RNG(40).standard_normal((60, 2)))
    assert_same_triples(scale * gaussian_with_midpoint(41, 40))
    assert_same_triples(scale * GRID8)


def test_power_of_two_scaling_keeps_triples():
    # scaling by 2**e is exact, so every cross product and the tolerance
    # scale by 4**e and each triple is decided as in the unscaled cloud,
    # also where the squares over- or underflow (a RuntimeWarning fails:
    # pyproject.toml makes it an error)
    clean = RNG(42).standard_normal((60, 2))
    planted = gaussian_with_midpoint(43, 40)
    for z in (clean, planted, GRID8, make_cloud(44, 300).points):
        want = PointCloud(z).collinear_triples(limit=10**9)
        for e in (-1000, -600, -300, -40, -20, 20, 300, 600):
            assert PointCloud(2.0**e * z).collinear_triples(limit=10**9) == want, e
    assert PointCloud(clean).collinear_triples(limit=10**9) == []
    assert PointCloud(planted).collinear_triples(limit=10**9)
    assert PointCloud(1e200 * clean).collinear_triples() == []
    # the duplicate tolerance scales with the cloud too
    for e in (-40, -20, 20):
        PointCloud(2.0**e * clean).require_general_position()
        with pytest.raises(DegenerateData):
            PointCloud(2.0**e * planted).require_general_position()


def test_generic_cloud_has_no_triples():
    z = make_cloud(50, 300).points
    assert dense_collinear_triples(z, limit=4) == []
    assert PointCloud(z).collinear_triples(limit=4) == []


def test_other_tolerances_match_dense():
    z = gaussian_with_midpoint(60, 40)
    for tol in (0.0, 1e-6, 1e-2):
        assert_same_triples(z, tol=tol)
    # squared lengths below the normal range: no window, every pair tested;
    # the anchor is the first of two rows 1e-160 apart
    assert_same_triples(np.vstack([[[1e-160, 2e-160], [3e-160, -1e-160]], z]), tol=0.0)
    # a whole cloud that small is tested in its power-of-two frame, where
    # no cross product underflows to 0 as the dense scan's do
    assert dense_collinear_triples(2.0**-540 * z, tol=0.0)
    tiny = PointCloud(2.0**-540 * z)
    assert tiny.collinear_triples(tol=0.0) == PointCloud(z).collinear_triples(tol=0.0)


def test_many_batches_match_dense(monkeypatch):
    # tiny batches split the candidates of one anchor into many; a huge one
    # takes them all at once
    rng = RNG(70)
    clouds = [GRID8, gaussian_with_midpoint(71, 30), rng.integers(-2, 3, size=(25, 2))]
    for pairs in (1, 13, 200, 10**8):
        monkeypatch.setattr(cloud_module, "_SCAN_BATCH_PAIRS", pairs)
        for z in clouds:
            assert_same_triples(z)


def test_scan_covers_every_row_above_5000():
    # row 2000 is one of the three rows that a seeded subsample of 5000 of
    # these 5003 rows (default_rng(0)) leaves out; its triple must be found
    z = RNG(82).standard_normal((5003, 2))
    z[2000] = 0.5 * (z[10] + z[4000])
    assert PointCloud(z).collinear_triples(limit=10**9) == [(10, 2000, 4000)]


def screen_cases(rng, count):
    """Clouds with n = 3..69: Gaussian, planted triples at offsets 0 to 1e-9,
    integer grids, duplicates, scales 2**-60 and 2**60, a shift by 1e4."""
    for case in range(count):
        n = int(rng.integers(3, 70))
        z = rng.standard_normal((n, 2))
        kind = case % 6
        if kind == 1:
            i, j, l = rng.choice(n, size=3, replace=False)
            offset = rng.choice([0.0, 1e-15, 1e-13, 1e-11, 1e-9])
            z[l] = z[i] + rng.uniform(-2.0, 3.0) * (z[j] - z[i]) + offset * rng.standard_normal(2)
        elif kind == 2:
            z = rng.integers(-4, 5, size=(n, 2)).astype(float)
        elif kind == 3:
            z[rng.integers(n)] = z[rng.integers(n)]
        elif kind == 4:
            z *= 2.0 ** rng.choice([-60, 60])
        elif kind == 5:
            z += 1e4
        yield z, float(rng.choice([1e-12, 1e-9, 1e-6])), int(rng.choice([1, 4, 32]))


@pytest.mark.parametrize("block", [cloud_module._SCREEN_BLOCK_ELEMENTS, 37])
def test_screen_keeps_the_unscreened_triples(monkeypatch, block):
    # the screen only skips anchors that the per-anchor scan would find
    # nothing for: with it and with every anchor scanned, the same triples,
    # order and limit
    monkeypatch.setattr(cloud_module, "_SCREEN_BLOCK_ELEMENTS", block)
    screen = cloud_module._cleared_anchors
    cleared, with_triples = 0, 0
    for z, tol, limit in screen_cases(RNG(90), 1200):
        cloud = PointCloud(z)
        got = cloud.collinear_triples(tol=tol, limit=limit)
        with monkeypatch.context() as unscreened:
            unscreened.setattr(cloud_module, "_cleared_anchors",
                               lambda pts, lo, hi, area_tol: np.zeros(hi - lo, dtype=bool))
            assert got == cloud.collinear_triples(tol=tol, limit=limit), (z, tol, limit)
        scale = float(np.abs(z).max())
        cleared += int(screen(z, 0, len(z) - 2, tol * scale * scale).sum())
        with_triples += bool(got)
    assert cleared > 10_000 and 400 < with_triples < 1000


def test_jitter_is_seeded():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.1]]))
    a = jitter(cloud, seed=1)
    b = jitter(cloud, seed=1)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, cloud.points)
    assert np.abs(a.points - cloud.points).max() <= 1e-5 * 4.1
    assert not np.array_equal(jitter(cloud, seed=2).points, a.points)


def test_jitter_scales_with_the_cloud():
    # the amplitude is JITTER_SCALE times the extent, so for a power of two
    # s the healed copy of s z is exactly s times that of z
    z = gaussian_with_midpoint(43, 40)
    healed = jitter(PointCloud(z), seed=3).points
    for e in (-40, -20, 26):
        assert np.array_equal(jitter(PointCloud(2.0**e * z), seed=3).points, 2.0**e * healed)
    shift = np.abs(healed - z).max()
    extent = np.ptp(z, axis=0).max()
    assert 0.5 * cloud_module.JITTER_SCALE * extent < shift <= cloud_module.JITTER_SCALE * extent
    # a range beyond the largest double still gives a finite amplitude
    wide = PointCloud([[1e308, 0.0], [-1e308, 1.0]])
    assert cloud_module._jitter_amplitude(wide) == 2.0 * cloud_module.JITTER_SCALE * 1e308


def test_jitter_refuses_a_cloud_of_zero_extent():
    # zero extent means zero noise, so repeated rows stay repeated
    with pytest.raises(StillDegenerate, match="amplitude 0 ") as info:
        jitter(PointCloud(np.full((4, 2), 3.0)))
    assert isinstance(info.value, DegenerateData)
    assert info.value.indices == (0, 1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=3,
        max_size=25,
    )
)
def test_small_integer_clouds_match_dense(rows):
    assert_same_triples(rows)


def test_duplicate_rows_beyond_sort_neighbours():
    # rows 0 and 2 coincide within tol but row 1 sorts between them
    cloud = PointCloud([[0, 0], [0, 1], [1e-13, 0], [3, -2], [-1, 5]])
    assert cloud.rows_with_duplicates() == [0, 2]
    with pytest.raises(DegenerateData, match="duplicate points") as info:
        cloud.require_general_position()
    assert list(info.value.indices) == [0, 2]


def test_duplicate_rows_match_all_pairs():
    rng = RNG(90)
    z = rng.integers(0, 3, size=(40, 2)).astype(float)
    z[::3] += 1e-13 * rng.standard_normal((14, 2))
    assert_same_duplicates(z)
    w = rng.standard_normal((50, 3))
    w[7] = w[31] + 5e-13
    assert assert_same_duplicates(w) == [(7, 31)]
    assert assert_same_duplicates(rng.standard_normal((50, 2))) == []
    # 1-D cloud: 100 integer values, 20 copies each, in random order
    ties = RNG(91).permutation(np.repeat(np.arange(100.0), 20))
    assert len(assert_same_duplicates(ties)) == 100 * 20 * 19 // 2
    # chains of values 0.6 tol * max|z| apart: neighbours are duplicates,
    # rows two steps apart are not
    chain = 1.0 + 0.6e-12 * np.arange(30.0)
    assert assert_same_duplicates(chain) == [(i, i + 1) for i in range(29)]
    assert_same_duplicates(np.column_stack([chain, np.zeros(30)]))
    assert_same_duplicates(np.column_stack([chain, chain[::-1]]))
    for tol in (0.0, 0.5, 1.5):
        assert_same_duplicates(z, tol=tol)
    # steps of exactly tol * max|z|
    assert np.abs(np.round(z)).max() == 2.0
    assert_same_duplicates(np.round(z), tol=0.5)


@pytest.mark.parametrize("e", [-40, 0, 20])
def test_duplicate_tolerance_scales_with_the_cloud(e):
    # 60 Gaussian rows plus a copy of row 7 moved by 1e-13 * max|z|: at
    # every scale the planted pair alone is reported, with no row merged
    # by an absolute floor (at 2**-40, 1e-12 would merge 59 of the rows)
    z = RNG(94).standard_normal((60, 2))
    z = np.vstack([z, z[7] + 1e-13 * np.abs(z).max()])
    cloud = PointCloud(2.0**e * z)
    assert cloud.rows_with_duplicates() == [7, 60]
    assert assert_same_duplicates(2.0**e * z) == [(7, 60)]
    with pytest.raises(DegenerateData, match="duplicate points") as info:
        cloud.require_general_position()
    assert list(info.value.indices) == [7, 60]


def test_all_zero_cloud_reports_exact_duplicates():
    cloud = PointCloud(np.zeros((4, 2)))
    assert cloud.rows_with_duplicates() == [0, 1, 2, 3]
    assert len(assert_same_duplicates(cloud.points)) == 6
    assert PointCloud(np.zeros((1, 2))).rows_with_duplicates() == []


def test_duplicate_rows_on_shared_coordinates_are_fast():
    # Rows that share a first coordinate must not all become candidate
    # pairs: 20,000 rows on a vertical line would make 2e8 of them.
    y = RNG(92).permutation(20_000).astype(float)
    line = PointCloud(np.column_stack([np.zeros_like(y), y]))
    ties = PointCloud(RNG(93).permutation(np.repeat(np.arange(100.0), 200)))
    t0 = time.perf_counter()
    assert line.rows_with_duplicates() == []
    assert ties.rows_with_duplicates() == list(range(20_000))
    assert time.perf_counter() - t0 < 2.0


def test_long_line_stops_at_limit():
    # Every pair of anchor 0 is a candidate; the scan tests them in
    # row-major order and stops at the limit.
    x = np.arange(2000.0)
    z = np.column_stack([x, 2.0 * x + 1.0])
    cloud = PointCloud(z)
    t0 = time.perf_counter()
    assert cloud.collinear_triples(limit=4) == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)]
    assert time.perf_counter() - t0 < 2.0
    assert cloud.collinear_triples(limit=32) == dense_collinear_triples(z, limit=32)


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_raises(limit):
    with pytest.raises(ValueError, match="limit"):
        PointCloud(np.column_stack([np.arange(5.0), np.arange(5.0)])).collinear_triples(
            limit=limit
        )
    with pytest.raises(ValueError, match="limit"):
        PointCloud(RNG(3).standard_normal((6, 3))).collinear_triples(limit=limit)
