"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Run with -v to get one pass/fail line per criterion.  Each test is
self-contained and derives its expectations independently of the code
under test (enumeration oracles, hand arithmetic, order statistics).
"""

import time
from itertools import combinations

import numpy as np
import pytest

from quantour import (
    BOUNDED,
    EMPTY,
    OUTSIDE,
    DegenerateData,
    Direction,
    PointCloud,
    QrProblem,
    RegressionProblem,
    check_loss,
    compare_regions,
    depth_region_bruteforce_2d,
    directional_quantile,
    fixed_tau_region,
    intersect_halfplanes_2d,
    jitter,
    km_envelope,
    outlier_scenario,
    regression_quantile,
    response_direction_grid,
    solve_qr,
    sweep,
    tau_region,
)
from conftest import SQRT3, make_cloud

RNG = np.random.default_rng


def symmetric_area_difference(a, b):
    """Exact symmetric difference of two convex regions via A intersect B."""
    if a.status == EMPTY and b.status == EMPTY:
        return 0.0
    if a.status == EMPTY or b.status == EMPTY:
        return (a if b.status == EMPTY else b).area()
    both = intersect_halfplanes_2d(np.vstack([a.halfplanes, b.halfplanes]))
    return a.area() + b.area() - 2.0 * both.area()


def test_criterion_1_outlier_figure_replication():
    # seeded n = 99 cloud, outlier walking up the y axis in 15 steps
    t0 = time.perf_counter()
    tau_q = 2.5 / 99.0
    tau_hull = 0.5 / 99.0
    u0 = Direction([0.0, -1.0])
    planes = []
    lam = []
    for step in range(15):
        cloud = outlier_scenario(7, step)
        outlier = cloud.points[-1]
        # (a) hull-regime depth region never excludes the outlier
        hull = fixed_tau_region(sweep(cloud, tau_hull))
        assert hull.status == BOUNDED
        assert hull.contains(outlier) != OUTSIDE
        h = directional_quantile(cloud, tau_q, u0)
        planes.append((h.a, h.b.copy()))
        lam.append(h.multiplier)
    # (b) hyperplane frozen from step 1 on
    a1, b1 = planes[1]
    for a, b in planes[2:]:
        assert abs(a - a1) <= 1e-9
        assert np.allclose(b, b1, atol=1e-9)
    # (c) multiplier strictly increasing, exactly affine past step 1,
    # slope (1 - tau) / 4 under the sum convention
    assert all(y > x for x, y in zip(lam, lam[1:]))
    slope = (1.0 - tau_q) / 4.0
    diffs = np.diff(lam[1:])
    assert np.max(np.abs(diffs - slope)) <= 1e-6
    assert abs(slope - 0.2437) <= 5e-4
    assert time.perf_counter() - t0 < 2.0


def test_criterion_2_contour_equivalence():
    # sweep region == brute-force depth region on 200 seeded clouds
    t0 = time.perf_counter()
    rng = RNG(200)
    taus = (0.101, 0.178, 0.305)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(5, 51))
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), n)
        for tau in taus:
            region = fixed_tau_region(sweep(cloud, tau))
            oracle = depth_region_bruteforce_2d(cloud, tau)
            assert region.status == oracle.status
            assert symmetric_area_difference(region, oracle) < 1e-9
            if region.status == BOUNDED:
                # every vertex on either side has a partner on the other;
                # the oracle may carry fp-thin sliver facets, so counts
                # can differ while the vertex sets still coincide
                rv, ov = region.vertices, oracle.vertices
                d = np.linalg.norm(rv[:, None, :] - ov[None, :, :], axis=2)
                assert np.all(d.min(axis=1) <= 1e-7)
                assert np.all(d.min(axis=0) <= 1e-7)
            checked += 1
    assert checked == 600
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_solver_optimality():
    # 1000 random instances against full vertex enumeration
    rng = RNG(300)
    for _ in range(1000):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(1, min(3, n - 1) + 1))
        X = np.column_stack(
            [np.ones(n)] + [rng.standard_normal(n) for _ in range(p - 1)]
        )
        y = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        tau = float(rng.uniform(0.05, 0.95))
        if abs(n * tau - round(n * tau)) < 1e-3:
            tau += 1.7e-3
        sol = solve_qr(QrProblem(y, X, tau))
        best = np.inf
        for rows in combinations(range(n), p):
            sub = X[list(rows)]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            beta = np.linalg.solve(sub, y[list(rows)])
            r = y - X @ beta
            best = min(best, float(np.sum(r * (tau - (r < 0.0)))))
        assert abs(sol.objective - best) <= 1e-9 * (1.0 + abs(best))
        assert np.all(sol.duals <= tau + 1e-10)
        assert np.all(sol.duals >= tau - 1.0 - 1e-10)
        assert sol.n_below <= n * tau <= sol.n_below + p


def test_criterion_4_multiplier_identity():
    # |lambda - sum of check losses| < 1e-7 and lambda u = sum psi_i z_i
    # per coordinate.  The same certificates are enforced inside every
    # solve of every suite; this test re-derives them externally.
    rng = RNG(400)
    for _ in range(200):
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), int(rng.integers(5, 40)))
        tau = float(rng.uniform(0.05, 0.95))
        if abs(cloud.n * tau - round(cloud.n * tau)) < 1e-3:
            tau += 1.7e-3
        u = Direction(rng.standard_normal(2))
        h = directional_quantile(cloud, tau, u)
        r = h.residual(cloud.points)
        assert abs(h.multiplier - float(np.sum(check_loss(tau, r)))) < 1e-7 * (
            1.0 + abs(h.multiplier)
        )
        psi = np.where(r > 0, tau, tau - 1.0)
        psi[list(h.fitted)] = h.duals
        gap = h.multiplier * u.vector - psi @ cloud.points
        assert np.all(np.abs(gap) < 1e-7 * (1.0 + abs(h.multiplier)))
    # the regression engine carries the same identity on u'y
    for _ in range(25):
        n = 80
        rng2 = RNG(int(rng.integers(1, 1 << 30)))
        X = rng2.standard_normal((n, 1))
        Y = rng2.standard_normal((n, 2))
        u = Direction(rng2.standard_normal(2))
        rp = RegressionProblem(X, Y, 0.3015, u)
        q = regression_quantile(rp)
        r = q.residual(X, Y)
        assert abs(q.multiplier - float(np.sum(check_loss(0.3015, r)))) < 1e-7 * (
            1.0 + abs(q.multiplier)
        )
        psi = np.where(r > 0, 0.3015, 0.3015 - 1.0)
        psi[list(q.fitted)] = q.duals
        gap = q.multiplier * u.vector - Y.T @ psi
        assert np.all(np.abs(gap) < 1e-7 * (1.0 + abs(q.multiplier)))


def test_criterion_5_envelope_comparison():
    # envelope(K) contains the exact region, area gap strictly decreasing
    # in K (ties only by exact equality), facet bounds hold
    rng = RNG(500)
    ks = (21, 201, 2001)
    done = 0
    while done < 50:
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), int(rng.integers(10, 41)))
        tau = float(rng.choice([0.101, 0.178, 0.305]))
        exact = fixed_tau_region(sweep(cloud, tau))
        if exact.status != BOUNDED:
            continue
        gaps = []
        exact_facets = set()
        for K in ks:
            env = km_envelope(cloud, tau, K)
            cmp = compare_regions(exact, env)
            assert cmp.km_contains_exact
            assert cmp.facets_km <= K
            exact_facets.add(cmp.facets_exact)
            gaps.append(cmp.area_gap)
        assert len(exact_facets) == 1  # exact region independent of K
        for g0, g1 in zip(gaps, gaps[1:]):
            assert g1 < g0 or g1 == g0
        assert gaps[-1] < gaps[0]  # strict overall decrease
        done += 1


def test_criterion_6_hand_derived_fixtures():
    # hexagon contour: 6 facets, vertex at (1/2, sqrt(3)/6)
    ang = np.arange(6) * np.pi / 3.0
    hexagon = PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]))
    region = fixed_tau_region(sweep(hexagon, 0.25))
    assert len(region.halfplanes) == 6
    target = np.array([0.5, SQRT3 / 6.0])
    assert np.linalg.norm(region.vertices - target, axis=1).min() <= 1e-9
    # 3-point fixture: multiplier is exactly tau
    tri = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    h = directional_quantile(tri, 0.2, Direction([0.0, 1.0]))
    assert abs(h.multiplier - 0.2) <= 1e-12
    # intercept-only {1, 2, 3} at tau = 0.4: quantile 2, multiplier 1
    scalar = PointCloud(np.array([[1.0], [2.0], [3.0]]))
    g = directional_quantile(scalar, 0.4, Direction([1.0]))
    assert g.a == 2.0
    assert abs(g.multiplier - 1.0) <= 1e-12


def test_criterion_7_performance():
    rng = RNG(700)
    # regression: n = 10000, k = 2, p = 2, one direction, < 5 s
    n = 10_000
    X = rng.standard_normal((n, 1))
    Y = np.column_stack(
        [
            1.0 + 2.0 * X[:, 0] + rng.standard_normal(n),
            -X[:, 0] + rng.standard_normal(n),
        ]
    )
    t0 = time.perf_counter()
    q = regression_quantile(RegressionProblem(X, Y, 0.30005, Direction([1.0, 0.0])))
    t_regress = time.perf_counter() - t0
    assert abs(q.b @ np.array([1.0, 0.0]) - 1.0) <= 1e-9
    assert t_regress < 5.0
    # full planar location sweep on n = 1000, < 30 s
    cloud = make_cloud(701, 1000)
    t0 = time.perf_counter()
    result = sweep(cloud, 0.2505)
    t_sweep = time.perf_counter() - t0
    assert len(result.arcs) >= 3
    assert t_sweep < 30.0
    # exhaustive general-position check on n = 2000, < 5 s
    cloud = make_cloud(702, 2000)
    t0 = time.perf_counter()
    cloud.require_general_position()
    t_check = time.perf_counter() - t0
    assert t_check < 5.0
    # regression cut grid: n = 2000, q = 3, k = 2, 90 directions, < 5 s
    n = 2000
    X = rng.uniform(0.0, 1.0, size=(n, 3))
    Y = X @ rng.standard_normal((3, 2)) + rng.standard_normal((n, 2)) * (
        0.5 + 0.5 * X[:, :1]
    )
    t0 = time.perf_counter()
    models = [
        regression_quantile(RegressionProblem(X, Y, 0.20005, d))
        for d in response_direction_grid(90)
    ]
    t_grid = time.perf_counter() - t0
    assert all(len(m.fitted) == 5 for m in models)
    assert t_grid < 5.0


def test_criterion_7_km_traces_its_region_with_one_solve(tmp_path, monkeypatch):
    # a deterministic work count next to the wall-clock gates above: km's
    # exact region is walked from one cold solve, and it is contour's region
    import json

    import quantour.contour as contour_module
    from quantour.cli import main

    solve = contour_module.solve_qr
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(contour_module, "solve_qr", counted)
    src = tmp_path / "cloud.csv"
    z = make_cloud(703, 40).points
    src.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in z.tolist()))
    km_out, contour_out = tmp_path / "km.json", tmp_path / "contour.json"
    args = ["-i", str(src), "--tau", "0.178", "--no-jitter"]
    assert main(["km", *args, "--K", "41", "-o", str(km_out)]) == 0
    assert len(calls) == 1
    assert main(["contour", *args, "-o", str(contour_out)]) == 0
    exact = json.loads(km_out.read_text())["result"]["exact"]
    assert exact == json.loads(contour_out.read_text())["result"]["region"]
    assert exact["status"] == BOUNDED


def test_criterion_7_tau_region_forms_each_arc_once(monkeypatch):
    # a deterministic work count: the walk forms one closed-form arc per
    # record it emits, and none for the steps it rejects
    import quantour.contour as contour_module

    cloud, tau = make_cloud(704, 60), 0.305
    arcs = len(contour_module._walk_arcs(cloud, tau))
    arc_for_basis = contour_module._arc_for_basis
    calls = []

    def counted(*args):
        calls.append(args[2:5])
        return arc_for_basis(*args)

    monkeypatch.setattr(contour_module, "_arc_for_basis", counted)
    tau_region(cloud, tau)
    assert len(calls) == arcs
    assert len(set(calls)) == arcs  # one per basis


def test_criterion_7_general_position_check_screens_every_anchor(monkeypatch):
    # a deterministic work count next to the wall-clock gates above: on a
    # Gaussian cloud the batched screen clears every anchor, so no
    # per-anchor scan runs (a scan per anchor made 38 calls here)
    import quantour.cloud as cloud_module

    scan = cloud_module._anchor_hits
    calls = []

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(cloud_module, "_anchor_hits", counted)
    z = make_cloud(704, 40).points.copy()
    PointCloud(z).require_general_position()
    assert calls == []
    # a planted collinear triple is still found, by the scan, with its rows
    z[[7, 19, 33]] = z[7], z[19], 0.25 * z[7] + 0.75 * z[19]
    with pytest.raises(DegenerateData) as err:
        PointCloud(z).require_general_position()
    assert list(err.value.indices) == [7, 19, 33]
    assert calls


def test_criterion_8_degeneracy_and_jitter(tmp_path):
    from quantour.cli import main

    collinear = np.array([[float(i), 2.0 * float(i)] for i in range(5)])
    # untreated: every engine refuses
    with pytest.raises(DegenerateData):
        sweep(PointCloud(collinear), 0.305)
    with pytest.raises(DegenerateData):
        directional_quantile(PointCloud(collinear), 0.305, Direction([0.0, 1.0]))
    # jitter at 1e-5 times the cloud's extent with a fixed seed heals the cloud
    healed = jitter(PointCloud(collinear), seed=0)
    healed.require_general_position()
    # criterion-3 invariants on the healed cloud
    for phi in np.linspace(0.0, 2.0 * np.pi, 9)[:-1]:
        h = directional_quantile(healed, 0.305, Direction.from_angle(phi))
        assert np.all(h.duals <= 0.305 + 1e-10)
        assert np.all(h.duals >= 0.305 - 1.0 - 1e-10)
        assert h.n_below <= healed.n * 0.305 <= h.n_below + 2
    # every command completes on the degenerate fixture via the CLI path
    src = tmp_path / "collinear.csv"
    src.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in collinear) + "\n")
    out = str(tmp_path / "out.json")
    commands = [
        ["quantile", "-i", str(src), "--tau", "0.305", "--u", "0,1", "-o", out],
        ["contour", "-i", str(src), "--tau", "0.305", "-o", out],
        ["depth", "-i", str(src), "--x", "1.0,2.0", "--tau", "0.305", "-o", out],
        ["km", "-i", str(src), "--tau", "0.305", "--K", "21", "-o", out],
        ["scan", "-i", str(src), "--tau", "0.305", "--K", "8", "-o", out],
        ["regress", "-i", str(src), "--tau", "0.305", "--u", "0,1", "-o", out],
        ["fig2", "--seed", "7", "--output-dir", str(tmp_path)],
    ]
    for argv in commands:
        assert main(argv) == 0, f"command failed: {argv[0]}"
    # without jitter the degenerate input is refused with the data code
    assert main(["contour", "-i", str(src), "--tau", "0.305", "--no-jitter"]) == 3
