"""Equispaced-direction envelopes versus the exact contour."""

import numpy as np
import pytest

from quantour import (
    BOUNDED,
    OUTSIDE,
    Direction,
    EnvelopeConfig,
    NotBounded,
    PointCloud,
    QrProblem,
    compare_regions,
    fixed_tau_region,
    km_envelope,
    km_hyperplane,
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


def test_config_validation():
    with pytest.raises(ValueError):
        EnvelopeConfig(K=2, tau=0.25)
    cfg = EnvelopeConfig(K=4, tau=0.3)
    assert cfg.K == 4


def test_directional_level_is_order_statistic():
    cloud = make_cloud(80, 21)
    tau = 0.178
    u = Direction([0.3, 1.0])
    h = km_hyperplane(cloud, tau, u)
    proj = cloud.points @ u.vector
    m0 = int(np.ceil(cloud.n * tau))
    assert np.array_equal(h[:2], u.vector)
    assert h[2] == float(np.sort(proj)[m0 - 1])
    assert h.shape == (3,) and not h.flags.writeable


def test_directional_level_matches_intercept_only_fit():
    # the envelope level solves the same one dimensional problem the
    # exact engine would solve with b pinned to u
    cloud = make_cloud(81, 17)
    tau = 0.305
    u = Direction([1.0, -0.7])
    h = km_hyperplane(cloud, tau, u)
    proj = cloud.points @ u.vector
    sol = solve_qr(QrProblem(proj, np.ones((cloud.n, 1)), tau))
    assert abs(h[2] - sol.beta[0]) <= 1e-12


def test_vertical_line_fixture():
    # five points on a grid: the (1,0)-direction level at tau = 0.3 is
    # the second smallest x, and the halfspace is x >= that level
    pts = np.array([[0.0, 0.1], [1.0, 0.9], [2.0, 0.4], [3.0, 0.7], [4.0, 0.2]])
    h = km_hyperplane(PointCloud(pts), 0.3, Direction([1.0, 0.0]))
    assert np.allclose(h[:2], [1.0, 0.0])
    assert h[2] == 1.0


def test_square_envelope_with_axis_directions(square):
    env = km_envelope(square, EnvelopeConfig(K=4, tau=0.3))
    assert env.status == BOUNDED
    assert abs(env.area() - 1.0) <= 1e-12


def test_envelope_facets_at_most_k():
    cloud = make_cloud(82, 30)
    for K in (3, 8, 21):
        env = km_envelope(cloud, EnvelopeConfig(K=K, tau=0.178))
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
            env = km_envelope(cloud, EnvelopeConfig(K=K, tau=tau))
            cmp = compare_regions(exact, env)
            assert cmp.km_contains_exact
            assert cmp.area_gap >= 0.0


def test_hexagon_gap_shrinks_like_one_over_k(hexagon):
    exact = fixed_tau_region(sweep(hexagon, 0.25))
    gaps = {}
    for K, expect in HEX_GAPS.items():
        env = km_envelope(hexagon, EnvelopeConfig(K=K, tau=0.25))
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
    coarse = km_envelope(cloud, EnvelopeConfig(K=16, tau=tau))
    fine = km_envelope(cloud, EnvelopeConfig(K=32, tau=tau))
    assert fine.area() <= coarse.area() + 1e-12
    for v in fine.vertices:
        assert coarse.contains(v) != OUTSIDE


def test_exact_facets_do_not_depend_on_k(hexagon):
    exact = fixed_tau_region(sweep(hexagon, 0.25))
    counts = set()
    for K in (21, 201, 2001):
        env = km_envelope(hexagon, EnvelopeConfig(K=K, tau=0.25))
        counts.add(compare_regions(exact, env).facets_exact)
    assert counts == {6}


def test_phase_changes_envelope_not_exact(hexagon):
    # turning the cloud by -0.2 turns the fixed directions by +0.2 relative to it
    c, s = np.cos(0.2), np.sin(0.2)
    turned = PointCloud(hexagon.points @ np.array([[c, -s], [s, c]]))
    for cloud in (hexagon, turned):
        exact = fixed_tau_region(sweep(cloud, 0.25))
        envelope = km_envelope(cloud, EnvelopeConfig(K=7, tau=0.25))
        assert compare_regions(exact, envelope).km_contains_exact
    a = km_envelope(hexagon, EnvelopeConfig(K=7, tau=0.25))
    b = km_envelope(turned, EnvelopeConfig(K=7, tau=0.25))
    assert abs(a.area() - b.area()) > 1e-6  # coarse K is phase sensitive


def test_compare_requires_bounded():
    cloud = make_cloud(85, 12)
    env = km_envelope(cloud, EnvelopeConfig(K=21, tau=0.178))
    from quantour import ConvexRegion2D

    with pytest.raises(NotBounded):
        compare_regions(ConvexRegion2D.empty(), env)
