"""Fixed-tau directional sweep and the resulting contour regions."""

import numpy as np
import pytest

import quantour.contour as contour_module
from quantour import (
    BOUNDED,
    EMPTY,
    ArcGap,
    DegenerateData,
    DegenerateTau,
    DimensionMismatch,
    NoConvergence,
    PointCloud,
    QuantourError,
    SingularSystem,
    depth_region_bruteforce_2d,
    fixed_tau_region,
    hausdorff_distance,
    probability_contents,
    sweep,
)
from quantour.contour import MIN_WIDTH, SweepResult, _perp
from quantour.directional import QuantileHyperplane
from quantour.geometry import Direction, orthocomplement_basis, vector_norm
from quantour.qr import check_loss
from quantour.regression import _location_stationarity_solve
from conftest import SQRT3, make_cloud

RNG = np.random.default_rng
TWO_PI = 2.0 * np.pi

# hexagon at tau = 1/4: six narrow arcs fit a polygon side, six wide arcs
# fit a vertex-skipping chord; the two widths tile the circle in pairs
HEX_SIDE_WIDTH = 0.380251206693
HEX_SKIP_WIDTH = 0.666946344504


def chord_objective(z, tau, pair, phi):
    """Check loss of the two-point hyperplane at direction angle phi.

    Independent of the sweep internals: build b from the pair's edge
    normal, normalize b'u = 1, accumulate the loss directly.
    """
    i, j = pair
    u = np.array([np.cos(phi), np.sin(phi)])
    w = z[j] - z[i]
    npr = np.array([-w[1], w[0]])
    dn = float(npr @ u)
    b = npr / dn
    r = z @ b - float(b @ z[i])
    return float(np.sum(r * (tau - (r < 0.0))))


def assert_tiling(result):
    arcs = result.arcs
    starts = np.array([a.start for a in arcs])
    ends = np.array([a.end for a in arcs])
    assert np.all(np.diff(starts) > 0)
    assert np.allclose(ends[:-1], starts[1:], atol=1e-9)
    assert abs((ends[-1] - TWO_PI) - starts[0]) <= 1e-9
    assert abs(sum(a.width for a in arcs) - TWO_PI) <= 1e-9


def test_hexagon_arc_structure(hexagon):
    result = sweep(hexagon, 0.25)
    assert len(result.arcs) == 12
    assert_tiling(result)
    widths = np.array([a.width for a in result.arcs])
    side = np.isclose(widths, HEX_SIDE_WIDTH, atol=1e-9)
    skip = np.isclose(widths, HEX_SKIP_WIDTH, atol=1e-9)
    assert side.sum() == 6 and skip.sum() == 6
    for arc, is_side in zip(result.arcs, side):
        i, j = arc.fitted
        gap = min((j - i) % 6, (i - j) % 6)
        if is_side:
            # polygon side: adjacent vertices, nothing strictly below
            assert gap == 1
            assert arc.hyperplane.n_below == 0
        else:
            # skip chord: one vertex strictly below
            assert gap == 2
            assert arc.hyperplane.n_below == 1


def test_hexagon_specific_arcs(hexagon):
    result = sweep(hexagon, 0.25)
    by_angle = {}
    for probe in (0.0, np.pi / 6.0):
        for a in result.arcs:
            if a.start - 1e-12 <= probe < a.end or (
                a.end > TWO_PI and probe + TWO_PI < a.end
            ):
                by_angle[probe] = a
    # direction (1, 0) fits the vertical chord x = -1/2
    assert set(by_angle[0.0].fitted) == {2, 4}
    # direction at 30 degrees fits the lower-left side
    assert set(by_angle[np.pi / 6.0].fitted) == {3, 4}


def test_hexagon_methods_agree(hexagon):
    par = sweep(hexagon, 0.25, method="parametric")
    enu = sweep(hexagon, 0.25, method="enumerate")
    assert len(par.arcs) == len(enu.arcs)
    for a, b in zip(par.arcs, enu.arcs):
        assert abs(a.start - b.start) <= 1e-9
        assert abs(a.end - b.end) <= 1e-9
        assert set(a.fitted) == set(b.fitted)
        assert a.orientation == b.orientation


def test_hexagon_region(hexagon):
    region = fixed_tau_region(sweep(hexagon, 0.25))
    assert region.status == BOUNDED
    assert len(region.halfplanes) == 6
    assert abs(region.area() - SQRT3 / 2.0) <= 1e-9
    target = np.array([0.5, SQRT3 / 6.0])
    assert np.linalg.norm(region.vertices - target, axis=1).min() <= 1e-9
    # region lies strictly inside the data hull: no sample point reaches it
    assert probability_contents(region, hexagon) == 0.0


def test_triangle_sweep(triangle):
    result = sweep(triangle, 0.3)
    # every arc fits a triangle side with nothing below
    assert len(result.arcs) == 3
    assert all(a.hyperplane.n_below == 0 for a in result.arcs)
    region = fixed_tau_region(result)
    assert region.status == BOUNDED
    assert abs(region.area() - 0.5) <= 1e-12
    assert probability_contents(region, triangle) == 1.0


def test_boundary_objective_ties(hexagon):
    # at an arc boundary the incoming and outgoing chords tie exactly
    z = hexagon.points
    result = sweep(hexagon, 0.25)
    arcs = list(result.arcs)
    for a, b in zip(arcs, arcs[1:] + [arcs[0]]):
        phi = a.end if a.end < TWO_PI else a.end - TWO_PI
        fa = chord_objective(z, 0.25, a.fitted, phi)
        fb = chord_objective(z, 0.25, b.fitted, phi)
        assert abs(fa - fb) <= 1e-9 * (1.0 + abs(fa))


def test_midpoint_global_optimality():
    # spot check against the all-pairs oracle at each arc midpoint
    rng = RNG(70)
    for _ in range(5):
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), 10)
        tau = 0.305
        z = cloud.points
        n = cloud.n
        result = sweep(cloud, tau)
        for arc in result.arcs:
            mid = 0.5 * (arc.start + arc.end)
            u = np.array([np.cos(mid), np.sin(mid)])
            best = np.inf
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    w = z[j] - z[i]
                    dn = float(-w[1] * u[0] + w[0] * u[1])
                    if abs(dn) < 1e-12:
                        continue
                    best = min(best, chord_objective(z, tau, (i, j), mid))
            got = chord_objective(z, tau, arc.fitted, mid)
            assert abs(got - best) <= 1e-9 * (1.0 + abs(best))


def test_parametric_matches_enumeration():
    # the spec for this sweep: both routes produce identical arc systems
    rng = RNG(71)
    for _ in range(200):
        n = int(rng.integers(5, 31))
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), n)
        tau = float(rng.choice([0.101, 0.178, 0.305, 0.404]))
        if abs(n * tau - round(n * tau)) < 1e-6:
            tau += 1.3e-3
        par = sweep(cloud, tau, method="parametric")
        enu = sweep(cloud, tau, method="enumerate")
        assert len(par.arcs) == len(enu.arcs)
        for a, b in zip(par.arcs, enu.arcs):
            assert abs(a.start - b.start) <= 1e-9
            assert abs(a.end - b.end) <= 1e-9
            assert set(a.fitted) == set(b.fitted)
        assert_tiling(par)


def test_region_matches_depth_oracle():
    rng = RNG(72)
    for _ in range(25):
        n = int(rng.integers(8, 40))
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), n)
        tau = float(rng.choice([0.101, 0.178, 0.305]))
        region = fixed_tau_region(sweep(cloud, tau))
        oracle = depth_region_bruteforce_2d(cloud, tau)
        assert region.status == oracle.status
        if region.status == BOUNDED:
            assert hausdorff_distance(region, oracle) <= 1e-7
            assert abs(region.area() - oracle.area()) <= 1e-9 * (1 + oracle.area())


def test_region_facets_come_from_swept_lines():
    cloud = make_cloud(73, 30)
    result = sweep(cloud, 0.178)
    region = fixed_tau_region(result)
    assert region.status == BOUNDED
    lines = [(h.b, h.a) for h in result.hyperplanes]
    for facet in region.halfplanes:
        hit = False
        for b, a in lines:
            nb = np.linalg.norm(b)
            if (
                np.allclose(facet[:2], np.asarray(b) / nb, atol=1e-7)
                and abs(facet[2] - a / nb) <= 1e-7
            ):
                hit = True
                break
        assert hit


def test_region_nesting():
    cloud = make_cloud(74, 35)
    inner = fixed_tau_region(sweep(cloud, 0.305))
    outer = fixed_tau_region(sweep(cloud, 0.101))
    assert inner.status == BOUNDED and outer.status == BOUNDED
    from quantour import OUTSIDE

    for v in inner.vertices:
        assert outer.contains(v, tol=1e-9) != OUTSIDE


def test_region_affine_equivariance():
    cloud = make_cloud(75, 24)
    A = np.array([[1.3, 0.4], [-0.1, 0.8]])
    t = np.array([0.7, -2.0])
    mapped = PointCloud(cloud.points @ A.T + t)
    tau = 0.178
    r0 = fixed_tau_region(sweep(cloud, tau))
    r1 = fixed_tau_region(sweep(mapped, tau))
    assert r0.status == r1.status == BOUNDED
    from quantour import ConvexRegion2D

    pushed = ConvexRegion2D.from_vertices(r0.vertices @ A.T + t)
    assert hausdorff_distance(pushed, r1) <= 1e-7


def test_empty_region_at_high_level(square):
    result = sweep(square, 0.7)
    region = fixed_tau_region(result)
    assert region.status == EMPTY
    assert probability_contents(region, square) == 0.0


def test_arc_and_pivot_economy():
    for seed, n in ((76, 50), (77, 120)):
        cloud = make_cloud(seed, n)
        result = sweep(cloud, 0.178)
        assert len(result.arcs) <= n * (n - 1)  # 2 * C(n, 2)
        assert result.n_pivots <= 2 * len(result.arcs) + 16


def test_sweep_input_validation(collinear5):
    with pytest.raises(DegenerateData):
        sweep(PointCloud(collinear5), 0.305)
    cloud = make_cloud(78, 10)
    with pytest.raises(DegenerateTau):
        sweep(cloud, 0.3)
    with pytest.raises(ValueError):
        sweep(cloud, 0.305, method="bogus")
    with pytest.raises(DimensionMismatch):
        sweep(PointCloud(np.eye(3)), 0.305)


def test_sweep_determinism():
    cloud = make_cloud(79, 40)
    a = sweep(cloud, 0.101)
    b = sweep(cloud, 0.101)
    assert len(a.arcs) == len(b.arcs)
    for x, y in zip(a.arcs, b.arcs):
        assert x.start == y.start and x.end == y.end and x.fitted == y.fitted


# ------------------------------------ the former per-arc routines, verbatim
# The sweep builds its arcs with a Python-float tail per key and certifies
# them in array blocks.  These one-arc routines are the formulas that both
# replace, kept as they were so every emitted bit can be compared.

def reference_wrap_pi(x: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    y = np.remainder(x + np.pi, TWO_PI) - np.pi
    return np.where(y == -np.pi, np.pi, y)


def reference_side_pattern(z, i, j, tol_scale):
    """Signed pair-line evaluations; zero for a third collinear point."""
    w = z[j] - z[i]
    npr = _perp(w)
    proj = (z - z[i]) @ npr
    tol = 1e-12 * tol_scale * vector_norm(w)
    degenerate = np.nonzero(np.abs(proj) <= tol)[0]
    degenerate = [int(l) for l in degenerate if l not in (i, j)]
    if degenerate:
        raise DegenerateData(
            "three points on a common line", indices=[i, j] + degenerate
        )
    return npr, proj


def reference_arc_for_basis(z, tau, i, j, s):
    """Closed-form validity arc of basis (i, j) with orientation s.

    Returns (lo, hi) with 0 < hi - lo <= pi, in an arbitrary 2 pi frame,
    or None when the basis is never optimal with this orientation.  The
    five constraints (orientation sign and the four dual bounds) are all
    of the form q'u >= 0, so the arc is an intersection of half-circles.
    """
    scale = 1.0 + float(np.abs(z).max())
    npr, proj = reference_side_pattern(z, i, j, scale)
    sgn = s * proj
    psi = np.where(sgn > 0, tau, tau - 1.0)
    psi[[i, j]] = 0.0
    s0 = float(psi.sum())
    s1 = psi @ z
    a_i = s1 - s0 * z[j]
    a_j = s0 * z[i] - s1
    upper, lower = tau * npr, (tau - 1.0) * npr
    p_i, p_j = _perp(a_i), _perp(a_j)
    qs = s * np.array([upper - p_i, p_i - lower, upper - p_j, p_j - lower])
    ref_vec = s * npr
    ref = float(np.arctan2(ref_vec[1], ref_vec[0]))
    # row norms equal float(np.linalg.norm(q)) bit for bit
    nq = np.sqrt(np.vecdot(qs, qs))
    qscale = float(nq.max()) + vector_norm(npr)
    # a constraint whose q vanishes degenerates to an identity; skip it
    qs = qs[nq > 1e-13 * qscale]
    dc = reference_wrap_pi(np.arctan2(qs[:, 1], qs[:, 0]) - ref)
    lo_rel = float(np.max(dc - 0.5 * np.pi, initial=-0.5 * np.pi))
    hi_rel = float(np.min(dc + 0.5 * np.pi, initial=0.5 * np.pi))
    if hi_rel - lo_rel <= MIN_WIDTH:
        return None
    return ref + lo_rel, ref + hi_rel


def reference_hyperplane_at(z, tau, i, j, s, phi) -> QuantileHyperplane:
    """Representative hyperplane of basis (i, j, s) at direction angle phi.

    Rebuilds (a, b, c), the side counts, and the multiplier from the
    stationarity system, then verifies the multiplier identity and the
    coverage bound; any failure is a sweep bug, not a data problem.
    """
    n = z.shape[0]
    u = Direction.from_angle(phi)
    w = z[j] - z[i]
    npr = _perp(w)
    dn = float(npr @ u.vector)
    if s * dn <= 0.0:
        raise ArcGap(f"direction {phi:.9f} is outside the basis orientation cone")
    b = npr / dn
    a = float(b @ z[i])
    gamma = orthocomplement_basis(u)
    c = gamma.T @ (b - u.vector)
    proj = (z - z[i]) @ npr
    sgn = s * proj
    sgn[[i, j]] = 0.0  # exact zeros, not fp noise from the cross product
    psi = np.where(sgn > 0, tau, tau - 1.0)
    psi[[i, j]] = 0.0
    n_below = int(np.count_nonzero(sgn < 0))
    n_above = n - 2 - n_below

    mult, duals = _location_stationarity_solve(z, u.vector, (i, j), psi)
    if (duals > tau + 1e-9).any() or (duals < tau - 1.0 - 1e-9).any():
        raise ArcGap("representative direction is not inside the validity arc")
    r = z @ b - a
    objective = float(check_loss(tau, r).sum())
    if abs(mult - objective) > 1e-7 * (1.0 + abs(objective)):
        raise NoConvergence(
            f"multiplier {mult:.12g} disagrees with objective {objective:.12g}"
        )
    if not (n_below <= n * tau <= n_below + 2):
        raise NoConvergence("coverage bound violated by a sweep representative")
    return QuantileHyperplane(
        tau=tau,
        u=u,
        a=a,
        b=b,
        c=c,
        multiplier=mult,
        fitted=(int(i), int(j)),
        duals=duals,
        n_below=n_below,
        n_above=n_above,
    )


def reference_finalize_arcs(z, tau, raw):
    """The one-call-per-arc loop over _finalize's normalized records."""
    arcs = []
    for start, end, i, j, s in raw:
        mid = np.remainder(0.5 * (start + end), TWO_PI)
        h = reference_hyperplane_at(z, tau, i, j, s, float(mid))
        arcs.append((start, end, s, h))
    return arcs


def same_bits(x, y):
    """Equal shapes and bytes: unlike ==, tells -0.0 from 0.0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_hyperplane(got, want):
    assert got.tau == want.tau
    for name in ("a", "b", "c", "multiplier", "duals"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(got.u.vector, want.u.vector)
    assert got.fitted == want.fitted
    assert (got.n_below, got.n_above) == (want.n_below, want.n_above)


def assert_matches_reference(cloud, result):
    z = cloud.points
    raw = [(a.start, a.end, *a.fitted, a.orientation) for a in result.arcs]
    want = reference_finalize_arcs(z, result.tau, raw)
    assert len(want) == len(result.arcs)
    for arc, (start, end, s, h) in zip(result.arcs, want):
        assert same_bits((arc.start, arc.end), (start, end)) and arc.orientation == s
        assert_same_hyperplane(arc.hyperplane, h)


def normalized(raw):
    """_finalize's normalization: starts into [0, 2 pi), widths kept, sorted."""
    norm = []
    for lo, hi, i, j, s in raw:
        start = float(np.remainder(lo, TWO_PI))
        norm.append((start, start + (hi - lo), i, j, s))
    return sorted(norm, key=lambda rec: rec[0])


def first_reference_error(z, tau, raw):
    try:
        reference_finalize_arcs(z, tau, normalized(raw))
    except QuantourError as exc:
        return exc
    raise AssertionError("the reference loop certified every record")


SWEEP_CASES = [
    (3, 1e-3, 0.34, 80),
    (4, 1.0, 0.34, 81),
    (9, 1e6, 0.178, 82),
    (40, 1e-3, 0.101, 83),
    (120, 1e3, 0.305, 84),
    (700, 1.0, 0.1785, 85),
    (2000, 1e6, 0.0508, 86),
]


@pytest.mark.parametrize("n, scale, tau, seed", SWEEP_CASES)
def test_block_certification_matches_per_arc_loop(n, scale, tau, seed):
    cloud = make_cloud(seed, n, scale=scale)
    assert_matches_reference(cloud, sweep(cloud, tau))
    if n <= 120:
        assert_matches_reference(cloud, sweep(cloud, tau, method="enumerate"))


def test_block_certification_matches_on_hexagon_and_small_blocks(hexagon, monkeypatch):
    for method in ("parametric", "enumerate"):
        assert_matches_reference(hexagon, sweep(hexagon, 0.25, method=method))
    # blocks of 1, 3 and 7 arcs, so records straddle block boundaries
    cloud = make_cloud(87, 35)
    for per_block in (1, 3, 7):
        monkeypatch.setattr(contour_module, "_CERT_BLOCK_ELEMENTS", per_block * cloud.n)
        assert_matches_reference(cloud, sweep(cloud, 0.178))


def test_wrap_merged_arc_matches_per_arc_loop():
    cloud = make_cloud(88, 50)
    tau = 0.178
    result = sweep(cloud, tau)
    raw = [(a.start, a.end, *a.fitted, a.orientation) for a in result.arcs]
    k = next(k for k, rec in enumerate(raw) if rec[1] > TWO_PI)
    start, end, *key = raw[k]
    # the arc through zero, split at zero: _finalize merges the halves
    split = raw[:k] + raw[k + 1 :] + [(start, TWO_PI, *key), (0.0, end - TWO_PI, *key)]
    arcs = contour_module._finalize(cloud.points, tau, split)
    assert len(arcs) == len(raw)
    merged = [a for a in arcs if a.end > TWO_PI]
    assert len(merged) == 1 and merged[0].fitted == tuple(key[:2])
    assert_matches_reference(cloud, SweepResult(tau, arcs, 0, "parametric"))


def test_fortran_ordered_input_gives_same_sweep():
    # the cloud copies its input in C order, so the caller's memory layout
    # cannot move a bit of the sweep
    z = make_cloud(90, 300).points
    tau = 0.2017
    want = sweep(PointCloud(z), tau)
    got = sweep(PointCloud(np.asfortranarray(z)), tau)
    assert got.n_pivots == want.n_pivots and len(got.arcs) == len(want.arcs)
    for g, w in zip(got.arcs, want.arcs):
        assert same_bits((g.start, g.end), (w.start, w.end))
        assert g.orientation == w.orientation
        assert_same_hyperplane(g.hyperplane, w.hyperplane)


def test_block_certification_error_parity(monkeypatch):
    cloud = make_cloud(89, 30)
    z, tau = cloud.points, 0.178
    result = sweep(cloud, tau)
    raw = [(a.start, a.end, *a.fitted, a.orientation) for a in result.arcs]
    monkeypatch.setattr(contour_module, "_CERT_BLOCK_ELEMENTS", 4 * cloud.n)

    def check(records):
        want = first_reference_error(z, tau, records)
        with pytest.raises(type(want)) as err:
            contour_module._finalize(z, tau, records)
        assert str(err.value) == str(want)
        return want

    # a flipped orientation leaves the direction outside the cone
    flipped = list(raw)
    flipped[6] = (*raw[6][:4], -raw[6][4])
    want = check(flipped)
    assert isinstance(want, ArcGap) and "orientation cone" in str(want)
    # swapped neighbours keep the tiling but not the validity arcs
    monkeypatch.setattr(contour_module, "_CERT_BLOCK_ELEMENTS", 1 << 17)
    for k in range(len(raw) - 4):
        swapped = list(raw)
        swapped[k], swapped[k + 1] = (*raw[k][:2], *raw[k + 1][2:]), (*raw[k + 1][:2], *raw[k][2:])
        want = check(swapped)
        if "validity arc" in str(want):
            break
    else:
        raise AssertionError("no swap of neighbours leaves the dual box")
    # in the same block, a later cone failure does not preempt it
    swapped[k + 3] = (*raw[k + 3][:4], -raw[k + 3][4])
    assert str(check(swapped)) == str(want)

    monkeypatch.setattr(contour_module, "_CERT_BLOCK_ELEMENTS", 4 * cloud.n)
    # a singular stationarity system at arc 10, seen by both routes
    real_solve = np.linalg.solve
    start, end, i, j, _ = normalized(raw)[10]
    u = Direction.from_angle(float(np.remainder(0.5 * (start + end), TWO_PI))).vector
    singular = np.array([[0.0, 1.0, 1.0], [-u[0], *z[[i, j], 0]], [-u[1], *z[[i, j], 1]]])

    def solve(a, b):
        if (np.asarray(a).reshape(-1, 3, 3) == singular).all(axis=(1, 2)).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    want = check(raw)
    assert isinstance(want, SingularSystem)
    # a failure earlier in the singular arc's block still comes first
    swapped = list(raw)
    swapped[8], swapped[9] = (*raw[8][:2], *raw[9][2:]), (*raw[9][:2], *raw[8][2:])
    assert isinstance(check(swapped), ArcGap)


def test_finalize_solves_once_per_block(monkeypatch):
    cloud = make_cloud(90, 400)
    z, tau = cloud.points, 0.178
    result = sweep(cloud, tau)
    raw = [(a.start, a.end, *a.fitted, a.orientation) for a in result.arcs]
    per_block = max(1, contour_module._CERT_BLOCK_ELEMENTS // cloud.n)
    blocks = -(-len(raw) // per_block)
    assert len(raw) > per_block  # more than one block
    calls = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(np.shape(a))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    arcs = contour_module._finalize(z, tau, raw)
    assert len(arcs) == len(raw)
    assert len(calls) <= blocks


def test_arc_for_basis_matches_reference():
    rng = RNG(91)
    for n, scale in ((12, 1e-3), (80, 1.0), (300, 1e5)):
        z = make_cloud(int(rng.integers(1, 1 << 30)), n, scale=scale).points
        scale_z = 1.0 + float(np.abs(z).max())
        for _ in range(700):
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            s = int(rng.choice([1, -1]))
            tau = float(rng.uniform(0.02, 0.98))
            got = contour_module._arc_for_basis(z, tau, i, j, s, scale_z)
            assert got == reference_arc_for_basis(z, tau, i, j, s)
