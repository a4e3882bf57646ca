"""Equispaced-direction envelopes versus the exact contour."""

import numpy as np
import pytest

from quantour import (
    BOUNDED,
    OUTSIDE,
    NotBounded,
    PointCloud,
    QrProblem,
    TauOutOfRange,
    compare_regions,
    fixed_tau_region,
    km_envelope,
    solve_qr,
    sweep,
)
from conftest import make_cloud

RNG = np.random.default_rng

# hexagon at tau = 1/4: envelope excess area per direction count.
# the deficit is kink dominated, so it shrinks like 1/K, not 1/K^2
HEX_GAPS = {
    21: 0.17404059379456926,
    201: 0.019396509681703478,
    2001: 0.0019610913392036355,
}


def test_config_validation(square):
    for K in (2, 2.5, -1):
        with pytest.raises(ValueError, match="need at least 3 directions"):
            km_envelope(square, 0.3, K)
    with pytest.raises(TauOutOfRange):
        km_envelope(square, 1.2, 4)
    assert km_envelope(square, 0.3, 4.0).status == BOUNDED


def grid_facets(cloud, tau, K):
    """The envelope's facet rows (b, a), each checked to lie on the K-direction grid."""
    env = km_envelope(cloud, tau, K)
    assert env.status == BOUNDED and len(env.halfplanes) >= 3
    assert not env.halfplanes.flags.writeable
    j = np.arctan2(env.halfplanes[:, 1], env.halfplanes[:, 0]) * K / (2.0 * np.pi)
    assert np.abs(j - np.round(j)).max() <= 1e-9
    return env.halfplanes


def test_directional_level_is_order_statistic():
    cloud = make_cloud(80, 21)
    tau = 0.178
    m0 = int(np.ceil(cloud.n * tau))
    tol = 1e-12 * (1.0 + np.abs(cloud.points).max())
    for b1, b2, a in grid_facets(cloud, tau, 7):
        proj = cloud.points @ np.array([b1, b2])
        assert abs(a - np.sort(proj)[m0 - 1]) <= tol


def test_directional_level_matches_intercept_only_fit():
    # each facet's level solves the same one dimensional problem the
    # exact engine would solve with b pinned to the facet's direction
    cloud = make_cloud(81, 17)
    tau = 0.305
    for b1, b2, a in grid_facets(cloud, tau, 9):
        proj = cloud.points @ np.array([b1, b2])
        sol = solve_qr(QrProblem(proj, np.ones((cloud.n, 1)), tau))
        assert abs(a - sol.beta[0]) <= 1e-12


def test_vertical_line_fixture():
    # five points on a grid: the (1,0)-direction level at tau = 0.3 is
    # the second smallest x, and the halfspace is x >= that level
    pts = np.array([[0.0, 0.1], [1.0, 0.9], [2.0, 0.4], [3.0, 0.7], [4.0, 0.2]])
    rows = grid_facets(PointCloud(pts), 0.3, 4)
    assert [1.0, 0.0, 1.0] in rows.tolist()


def test_square_envelope_with_axis_directions(square):
    env = km_envelope(square, 0.3, 4)
    assert env.status == BOUNDED
    assert abs(env.area() - 1.0) <= 1e-12


def test_envelope_facets_at_most_k():
    cloud = make_cloud(82, 30)
    for K in (3, 8, 21):
        env = km_envelope(cloud, 0.178, K)
        assert env.status == BOUNDED
        assert len(env.halfplanes) <= K


def test_envelope_contains_exact_region():
    rng = RNG(83)
    for _ in range(15):
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), int(rng.integers(10, 40)))
        tau = float(rng.choice([0.101, 0.178, 0.305]))
        exact = fixed_tau_region(sweep(cloud, tau))
        if exact.status != BOUNDED:
            continue
        for K in (21, 64):
            env = km_envelope(cloud, tau, K)
            cmp = compare_regions(exact, env)
            assert cmp.km_contains_exact
            assert cmp.area_gap >= 0.0


def test_hexagon_gap_shrinks_like_one_over_k(hexagon):
    exact = fixed_tau_region(sweep(hexagon, 0.25))
    gaps = {}
    for K, expect in HEX_GAPS.items():
        env = km_envelope(hexagon, 0.25, K)
        cmp = compare_regions(exact, env)
        assert cmp.km_contains_exact
        assert cmp.facets_exact == 6
        assert abs(cmp.area_gap - expect) <= 1e-12
        gaps[K] = cmp.area_gap
    assert gaps[2001] < gaps[201] < gaps[21]
    # kink dominated decay: gap ~ c / K, two decades apart within 15 percent
    assert abs(gaps[21] * 21 / (gaps[2001] * 2001) - 1.0) <= 0.15


def test_refinement_is_monotone():
    # doubling the direction set, keeping the phase, can only cut mass
    cloud = make_cloud(84, 25)
    tau = 0.178
    coarse = km_envelope(cloud, tau, 16)
    fine = km_envelope(cloud, tau, 32)
    assert fine.area() <= coarse.area() + 1e-12
    for v in fine.vertices:
        assert coarse.contains(v) != OUTSIDE


def test_exact_facets_do_not_depend_on_k(hexagon):
    exact = fixed_tau_region(sweep(hexagon, 0.25))
    counts = set()
    for K in (21, 201, 2001):
        env = km_envelope(hexagon, 0.25, K)
        counts.add(compare_regions(exact, env).facets_exact)
    assert counts == {6}


def test_phase_changes_envelope_not_exact(hexagon):
    # turning the cloud by -0.2 turns the fixed directions by +0.2 relative to it
    c, s = np.cos(0.2), np.sin(0.2)
    turned = PointCloud(hexagon.points @ np.array([[c, -s], [s, c]]))
    for cloud in (hexagon, turned):
        exact = fixed_tau_region(sweep(cloud, 0.25))
        envelope = km_envelope(cloud, 0.25, 7)
        assert compare_regions(exact, envelope).km_contains_exact
    a = km_envelope(hexagon, 0.25, 7)
    b = km_envelope(turned, 0.25, 7)
    assert abs(a.area() - b.area()) > 1e-6  # coarse K is phase sensitive


def test_compare_requires_bounded():
    cloud = make_cloud(85, 12)
    env = km_envelope(cloud, 0.178, 21)
    from quantour import ConvexRegion2D

    with pytest.raises(NotBounded):
        compare_regions(ConvexRegion2D.empty(), env)
