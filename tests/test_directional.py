"""Directional quantile hyperplanes and the multiplier diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantour import (
    DegenerateTau,
    Direction,
    EllOutOfRange,
    EmptyHalfspace,
    PointCloud,
    check_loss,
    directional_quantile,
    lagrange_multiplier,
    mass_center_gap,
    multiplier_scan,
    outlier_scenario,
)
from certify import quantile_failures
from conftest import make_cloud

RNG = np.random.default_rng


def test_triangle_fixture(triangle):
    h = directional_quantile(triangle, 0.2, Direction([0.0, 1.0]))
    assert abs(h.a) <= 1e-12
    assert np.allclose(h.b, [0.0, 1.0], atol=1e-12)
    assert abs(h.multiplier - 0.2) <= 1e-12
    assert h.fitted == (0, 1)
    assert np.allclose(h.duals, [-0.2, 0.0], atol=1e-12)
    assert h.n_below == 0 and h.n_above == 1
    assert h.counts == (0, 2, 1)


def test_scalar_cloud_is_sample_quantile():
    # k = 1 reduces to the ceil(n tau)-th order statistic
    cloud = PointCloud(np.array([[1.0], [2.0], [3.0]]))
    h = directional_quantile(cloud, 0.4, Direction([1.0]))
    assert h.a == 2.0
    assert np.allclose(h.b, [1.0])
    assert abs(h.multiplier - 1.0) <= 1e-12
    assert h.fitted == (1,)


def test_normalization_constraint():
    rng = RNG(31)
    for _ in range(30):
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), int(rng.integers(5, 30)))
        u = Direction(rng.standard_normal(2))
        tau = float(rng.uniform(0.1, 0.9))
        if abs(cloud.n * tau - round(cloud.n * tau)) < 1e-3:
            tau += 2e-3
        h = directional_quantile(cloud, tau, u)
        assert abs(h.b @ u.vector - 1.0) <= 1e-9
        # exactly two fitted points in the plane
        assert len(h.fitted) == 2
        r = h.residual(cloud.points)
        assert np.all(np.abs(r[list(h.fitted)]) <= 1e-9)


def test_multiplier_equals_objective():
    rng = RNG(32)
    for _ in range(30):
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), 20)
        tau = 0.305
        u = Direction(rng.standard_normal(2))
        h = directional_quantile(cloud, tau, u)
        obj = float(np.sum(check_loss(tau, h.residual(cloud.points))))
        assert abs(h.multiplier - obj) <= 1e-7 * (1.0 + obj)
        # independent recomputation from the stationarity system
        assert abs(lagrange_multiplier(h, cloud) - h.multiplier) <= 1e-7


def test_subgradient_identity():
    # multiplier * u = sum(psi_i z_i) coordinatewise, sum(psi) = 0
    rng = RNG(33)
    for _ in range(20):
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), 15)
        u = Direction(rng.standard_normal(2))
        h = directional_quantile(cloud, 0.178, u)
        r = h.residual(cloud.points)
        psi = np.where(r > 0, 0.178, 0.178 - 1.0)
        psi[list(h.fitted)] = h.duals
        assert abs(float(np.sum(psi))) <= 1e-7
        lhs = h.multiplier * u.vector
        rhs = psi @ cloud.points
        assert np.allclose(lhs, rhs, atol=1e-7)


def test_translation_equivariance():
    cloud = make_cloud(40, 18)
    u = Direction([0.3, -1.0])
    h0 = directional_quantile(cloud, 0.25 + 1e-3, u)
    t = np.array([2.5, -1.25])
    h1 = directional_quantile(PointCloud(cloud.points + t), 0.25 + 1e-3, u)
    assert np.allclose(h1.b, h0.b, atol=1e-9)
    assert abs(h1.a - (h0.a + h0.b @ t)) <= 1e-9
    assert abs(h1.multiplier - h0.multiplier) <= 1e-9
    assert h1.fitted == h0.fitted


def test_rotation_equivariance():
    cloud = make_cloud(41, 18)
    u = Direction([1.0, 0.4])
    tau = 0.305
    h0 = directional_quantile(cloud, tau, u)
    ang = 0.7
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    h1 = directional_quantile(
        PointCloud(cloud.points @ R.T), tau, Direction(R @ u.vector)
    )
    assert np.allclose(h1.b, R @ h0.b, atol=1e-9)
    assert abs(h1.a - h0.a) <= 1e-9
    assert abs(h1.multiplier - h0.multiplier) <= 1e-9
    assert h1.fitted == h0.fitted


def test_relabeling_identity():
    # the (1 - tau)-quantile against -u is the same hyperplane with
    # (b, a) negated; fitted set and multiplier are preserved
    rng = RNG(34)
    for _ in range(50):
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), int(rng.integers(5, 25)))
        tau = float(rng.uniform(0.1, 0.9))
        if abs(cloud.n * tau - round(cloud.n * tau)) < 1e-3:
            tau += 2e-3
        u = Direction(rng.standard_normal(2))
        h1 = directional_quantile(cloud, tau, u)
        h2 = directional_quantile(cloud, 1.0 - tau, Direction(-u.vector))
        assert np.allclose(h2.b, -h1.b, atol=1e-9)
        assert abs(h2.a + h1.a) <= 1e-9
        assert abs(h2.multiplier - h1.multiplier) <= 1e-9
        assert set(h2.fitted) == set(h1.fitted)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 60), st.floats(0.0, 2.0 * np.pi), st.data())
def test_every_quantile_passes_the_exact_verifier(seed, n, phi, data):
    # in rational arithmetic: the pair is an optimal basis at u, the counts
    # are exact and (a, b) is the line through the pair; a wrong pair and a
    # wrong count fail
    cloud = make_cloud(seed, n)
    tau = (data.draw(st.integers(0, n // 2 - 1)) + 0.5) / n
    h = directional_quantile(cloud, tau, Direction.from_angle(phi))
    (i, j), (below, on, above) = h.fitted, h.counts
    other = next(r % n for r in range(j + 1, j + n) if r % n != i)
    for fitted, counts, ok in ((h.fitted, h.counts, True), ((i, other), h.counts, False),
                               (h.fitted, (below + 1, on, above - 1), False)):
        failures = quantile_failures(cloud.points, tau, h.u.vector, fitted, counts, h.a, h.b)
        assert (failures == []) == ok, (fitted, counts, failures)


def test_degenerate_tau_propagates():
    cloud = make_cloud(42, 10)
    with pytest.raises(DegenerateTau):
        directional_quantile(cloud, 0.3, Direction([0.0, 1.0]))


def test_mass_center_gap_consistency():
    cloud = make_cloud(43, 25)
    u = Direction([0.0, -1.0])
    h = directional_quantile(cloud, 0.305, u)
    mu_plus, mu_minus, gap = mass_center_gap(h, cloud)
    r = h.residual(cloud.points)
    assert np.allclose(mu_plus, cloud.points[r > 0].mean(axis=0))
    assert np.allclose(mu_minus, cloud.points[r < 0].mean(axis=0))
    assert abs(gap - u.vector @ (mu_plus - mu_minus)) <= 1e-12


def test_mass_center_gap_empty_side(triangle):
    h = directional_quantile(triangle, 0.2, Direction([0.0, 1.0]))
    # no point strictly below the bottom side
    with pytest.raises(EmptyHalfspace):
        mass_center_gap(h, triangle)


def test_outlier_scenario_shape_and_determinism():
    a = outlier_scenario(7, 0)
    b = outlier_scenario(7, 14)
    assert a.points.shape == (99, 2)
    # base rows shared across steps, only the last row moves
    assert np.array_equal(a.points[:98], b.points[:98])
    assert np.allclose(a.points[98], [0.0, 0.5])
    assert np.allclose(b.points[98], [0.0, 4.0])
    with pytest.raises(EllOutOfRange):
        outlier_scenario(7, 15)
    with pytest.raises(EllOutOfRange):
        outlier_scenario(7, -1)


def test_multiplier_grows_with_outlier_distance():
    # multiplier of the (0, -1)-direction quantile is strictly increasing
    # in the outlier step and affine with slope (1 - tau) / 4 once the
    # outlier has left the main mass
    tau = 2.5 / 99.0
    u = Direction([0.0, -1.0])
    lam = [
        directional_quantile(outlier_scenario(7, step), tau, u).multiplier
        for step in range(6)
    ]
    assert all(b > a for a, b in zip(lam, lam[1:]))
    diffs = np.diff(lam[1:])
    assert np.allclose(diffs, (1.0 - tau) / 4.0, atol=1e-9)


def test_multiplier_scan_flags_outlier_direction():
    cloud = outlier_scenario(7, 14)
    dirs = [Direction.from_angle(2.0 * np.pi * j / 16.0) for j in range(16)]
    series = multiplier_scan(cloud, 2.5 / 99.0, dirs)
    assert len(series.entries) == 16
    assert series.flagged  # something must stand out
    values = [v for _, v in series.entries]
    top_label = series.entries[int(np.argmax(values))][0]
    # outlier sits straight up, so the top multiplier points straight down
    assert abs(top_label - (-np.pi / 2.0)) <= 1e-9
    # flagged: more than 3 MAD above the median
    above = [i for i, v in enumerate(values) if v > series.median + 3.0 * series.mad]
    assert list(series.flagged) == above


def test_multiplier_scan_quiet_without_outlier():
    cloud = make_cloud(44, 60)
    dirs = [Direction.from_angle(2.0 * np.pi * j / 16.0) for j in range(16)]
    series = multiplier_scan(cloud, 0.101, dirs)
    # a plain Gaussian cloud has no 3-MAD spikes
    assert series.flagged == ()
