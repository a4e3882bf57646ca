"""Fixed-tau directional sweep and the resulting contour regions."""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import threading
import time
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantour.contour as contour_module
from quantour import (
    BOUNDED,
    EMPTY,
    OUTSIDE,
    ArcGap,
    DegenerateData,
    DegenerateTau,
    DimensionMismatch,
    NoConvergence,
    PointCloud,
    QuantourError,
    SingularSystem,
    depth_region_bruteforce_2d,
    directional_quantile,
    fixed_tau_region,
    hausdorff_distance,
    km_envelope,
    probability_contents,
    sweep,
)
from quantour import cli
from quantour.contour import MIN_WIDTH, SweepResult, _perp
from quantour.directional import QuantileHyperplane
from quantour.errors import DegenerateDesign
from quantour.geometry import Direction, orthocomplement_basis, vector_norm
from quantour.qr import QrProblem, check_loss, solve_qr
from quantour.regression import _design, _stationarity_solve
from certify import arc_failures, region_failures
from conftest import SQRT3, assert_reaped, make_cloud

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


def widths(result):
    return result.arcs[:, 1] - result.arcs[:, 0]


def assert_tiling(result):
    starts, ends = result.arcs.T
    assert np.all(np.diff(starts) > 0)
    assert np.allclose(ends[:-1], starts[1:], atol=1e-9)
    assert abs((ends[-1] - TWO_PI) - starts[0]) <= 1e-9
    assert abs(sum(widths(result).tolist()) - TWO_PI) <= 1e-9


def assert_same_arcs(a, b):
    """Equal arc counts and bounds within 1e-9, the same fitted pairs."""
    assert len(a.arcs) == len(b.arcs)
    assert np.abs(a.arcs - b.arcs).max() <= 1e-9
    assert np.array_equal(np.sort(a.fitted, axis=1), np.sort(b.fitted, axis=1))


def assert_same_region(got, want):
    """Equal status, and vertices and facets equal byte for byte."""
    assert got.status == want.status
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.halfplanes.tobytes() == want.halfplanes.tobytes()


def test_hexagon_arc_structure(hexagon):
    result = sweep(hexagon, 0.25)
    assert len(result.arcs) == 12
    assert_tiling(result)
    side = np.isclose(widths(result), HEX_SIDE_WIDTH, atol=1e-9)
    skip = np.isclose(widths(result), HEX_SKIP_WIDTH, atol=1e-9)
    assert side.sum() == 6 and skip.sum() == 6
    for (i, j), n_below, is_side in zip(result.fitted.tolist(), result.n_below, side):
        gap = min((j - i) % 6, (i - j) % 6)
        if is_side:
            # polygon side: adjacent vertices, nothing strictly below
            assert gap == 1
            assert n_below == 0
        else:
            # skip chord: one vertex strictly below
            assert gap == 2
            assert n_below == 1


def test_hexagon_specific_arcs(hexagon):
    result = sweep(hexagon, 0.25)
    by_angle = {}
    for probe in (0.0, np.pi / 6.0):
        for (start, end), fitted in zip(result.arcs.tolist(), result.fitted.tolist()):
            if start - 1e-12 <= probe < end or (end > TWO_PI and probe + TWO_PI < end):
                by_angle[probe] = fitted
    # direction (1, 0) fits the vertical chord x = -1/2
    assert set(by_angle[0.0]) == {2, 4}
    # direction at 30 degrees fits the lower-left side
    assert set(by_angle[np.pi / 6.0]) == {3, 4}


def test_hexagon_methods_agree(hexagon):
    par = sweep(hexagon, 0.25)
    enu = enumerated(hexagon, 0.25)
    assert_same_arcs(par, enu)
    assert np.array_equal(par.orientation, enu.orientation)


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
    assert (result.n_below == 0).all()
    region = fixed_tau_region(result)
    assert region.status == BOUNDED
    assert abs(region.area() - 0.5) <= 1e-12
    assert probability_contents(region, triangle) == 1.0


def test_boundary_objective_ties(hexagon):
    # at an arc boundary the incoming and outgoing chords tie exactly
    z = hexagon.points
    result = sweep(hexagon, 0.25)
    fitted = result.fitted.tolist()
    for end, a, b in zip(result.arcs[:, 1].tolist(), fitted, fitted[1:] + fitted[:1]):
        phi = end if end < TWO_PI else end - TWO_PI
        fa = chord_objective(z, 0.25, a, phi)
        fb = chord_objective(z, 0.25, b, phi)
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
        for (start, end), fitted in zip(result.arcs.tolist(), result.fitted.tolist()):
            mid = 0.5 * (start + end)
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
            got = chord_objective(z, tau, fitted, mid)
            assert abs(got - best) <= 1e-9 * (1.0 + abs(best))


def test_parametric_matches_enumeration():
    # the spec for this sweep: the walk and the oracle produce identical arc systems
    rng = RNG(71)
    for _ in range(200):
        n = int(rng.integers(5, 31))
        cloud = make_cloud(int(rng.integers(1, 1 << 30)), n)
        tau = float(rng.choice([0.101, 0.178, 0.305, 0.404]))
        if abs(n * tau - round(n * tau)) < 1e-6:
            tau += 1.3e-3
        par = sweep(cloud, tau)
        enu = enumerated(cloud, tau)
        assert_same_arcs(par, enu)
        assert_tiling(par)
        assert np.array_equal(par.orientation, enu.orientation)


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
    lines = [(h[:2], h[2]) for h in result.halfplanes]
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
        assert outer.contains(v) != OUTSIDE


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


@st.composite
def no_three_in_line(draw):
    """(points, tau): n in 6..60 distinct x in 0..p-1 at (x, x^2 mod p), p prime.

    No three such points are collinear (the modular parabola), and every
    coordinate is a small integer, so the cloud is in general position
    exactly.  tau = (k + 1/2) / n keeps n tau off the integers.
    """
    n = draw(st.integers(6, 60))
    p = draw(st.sampled_from([61, 101, 1009]))
    x = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True)))
    k = draw(st.integers(0, n // 2 - 1))
    return np.column_stack([x, x * x % p]).astype(float), (k + 0.5) / n


def arcs_by_key(result, relabel=None):
    """{(i, j, s): (start, width)}, (i, j) mapped through relabel if given, i < j."""
    out = {}
    for (lo, hi), (i, j), s in zip(result.arcs.tolist(), result.fitted.tolist(), result.orientation):
        if relabel is not None:
            i, j = relabel[i], relabel[j]
        key = (i, j, int(s)) if i < j else (j, i, -int(s))
        out[key] = (lo, hi - lo)
    return out


def assert_same_arcs_shifted(got, want, shift):
    """Equal keys, starts equal mod 2 pi after the shift, widths within 1e-12."""
    assert got.keys() == want.keys()
    for key, (lo, width) in want.items():
        glo, gwidth = got[key]
        assert abs((glo - lo - shift + np.pi) % TWO_PI - np.pi) <= 1e-12, key
        assert abs(gwidth - width) <= 1e-12, key


def vertex_gap(got, want):
    """Largest distance from a vertex of either list to the nearest of the other.

    Equal as point sets: where three facets meet at a data point, the
    intersection may keep that vertex more times in one frame.
    """
    gap = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    return max(gap.min(axis=0).max(), gap.min(axis=1).max())


@settings(max_examples=15, deadline=None)
@given(no_three_in_line(), st.data())
def test_relabelled_rows_relabel_the_arc_keys(case, data):
    # a row relabelling maps the arc keys (the orientation flips where the
    # pair's order does), keeps the region and maps the quantile fit: the
    # lowest-row rule for ties never acts on a cloud in general position
    z, tau = case
    perm = data.draw(st.permutations(range(len(z))))
    base = sweep(PointCloud(z), tau)
    # row k of the relabelled cloud is row perm[k] of z
    relabelled = sweep(PointCloud(z[perm]), tau)
    assert_same_arcs_shifted(arcs_by_key(relabelled, relabel=perm), arcs_by_key(base), 0.0)
    region, got_region = fixed_tau_region(base), fixed_tau_region(relabelled)
    assert got_region.status == region.status
    if region.status == BOUNDED:
        assert vertex_gap(got_region.vertices, region.vertices) <= 1e-12 * np.abs(region.vertices).max()
    # an arc's midpoint direction has one optimal pair
    u = base.u[data.draw(st.integers(0, len(base.u) - 1))]
    want = directional_quantile(PointCloud(z), tau, u)
    got = directional_quantile(PointCloud(z[perm]), tau, u)
    assert sorted(perm[k] for k in got.fitted) == sorted(want.fitted)
    assert abs(got.a - want.a) <= 1e-12 * np.abs(z).max()
    assert np.abs(got.b - want.b).max() <= 1e-12 * np.abs(want.b).max()


@settings(max_examples=15, deadline=None)
@given(no_three_in_line(), st.integers(1, 3))
def test_a_quarter_turn_shifts_every_arc(case, turns):
    z, tau = case
    rotated = z.copy()
    for _ in range(turns):  # (x, y) -> (-y, x), exact
        rotated = np.column_stack([-rotated[:, 1], rotated[:, 0]])
    base, turned = sweep(PointCloud(z), tau), sweep(PointCloud(rotated), tau)
    assert_same_arcs_shifted(arcs_by_key(turned), arcs_by_key(base), turns * 0.5 * np.pi)
    region, turned_region = fixed_tau_region(base), fixed_tau_region(turned)
    assert turned_region.status == region.status
    if region.status == BOUNDED:
        want = region.vertices
        for _ in range(turns):
            want = np.column_stack([-want[:, 1], want[:, 0]])
        assert vertex_gap(turned_region.vertices, want) <= 1e-12 * np.abs(want).max()


@st.composite
def two_levels(draw):
    """(points, tau_1, tau_2): a no_three_in_line cloud at two levels (k + 1/2) / n."""
    z, _ = draw(no_three_in_line())
    n = len(z)
    levels = st.lists(st.integers(0, n // 2 - 1), min_size=2, max_size=2, unique=True)
    k_1, k_2 = sorted(draw(levels))
    return z, (k_1 + 0.5) / n, (k_2 + 0.5) / n


REGIONS = {
    "sweep": lambda cloud, tau: fixed_tau_region(sweep(cloud, tau)),
    "bruteforce": depth_region_bruteforce_2d,
    "km": lambda cloud, tau: km_envelope(cloud, tau, 64),
}


@pytest.mark.parametrize("construction", REGIONS)
@settings(max_examples=25, deadline=None)
@given(two_levels())
def test_regions_nest_in_tau(construction, case):
    # no vertex of the tau_2 region lies outside the tau_1 region
    z, tau_1, tau_2 = case
    cloud = PointCloud(z)
    outer, inner = (REGIONS[construction](cloud, tau) for tau in (tau_1, tau_2))
    assert OUTSIDE not in outer.classify_many(inner.vertices)


def test_empty_region_at_high_level(square):
    result = sweep(square, 0.7)
    region = fixed_tau_region(result)
    assert region.status == EMPTY
    assert probability_contents(region, square) == 0.0


def test_arc_and_pivot_economy():
    for seed, n in ((76, 50), (77, 120)):
        cloud = make_cloud(seed, n)
        result, pivots = contour_module._marched_sweep(cloud, 0.178)
        assert len(result.arcs) <= n * (n - 1)  # 2 * C(n, 2)
        assert pivots <= 2 * len(result.arcs) + 16
    # quantour contour prints these counts, which the benchmark digests pin
    z = np.loadtxt(resources.files("quantour") / "fixtures" / "hexagon.csv",
                   delimiter=",", skiprows=1)
    for tau, pivots in ((0.3, 12), (0.25, 11)):
        assert contour_module._marched_sweep(PointCloud(z), tau)[1] == pivots


def test_sweep_input_validation(collinear5):
    cloud = make_cloud(78, 10)
    with pytest.raises(DegenerateData):
        sweep(PointCloud(collinear5), 0.305)
    with pytest.raises(DegenerateTau):
        sweep(cloud, 0.3)
    with pytest.raises(DimensionMismatch):
        sweep(PointCloud(np.eye(3)), 0.305)
    with pytest.raises(DimensionMismatch):
        sweep(PointCloud(np.eye(2)), 0.305)


def planted_cloud(seed, rel):
    """Gaussian cloud of 8 to 39 rows; row 2 lies rel |z_1 - z_0| off the line of rows 0, 1."""
    rng = RNG(seed)
    z = rng.standard_normal((int(rng.integers(8, 40)), 2))
    w = z[1] - z[0]
    z[2] = z[0] + rng.uniform(-1.5, 2.5) * w + rel * _perp(w)
    return PointCloud(z)


def test_a_planted_collinear_triple_is_named_by_the_solver():
    # the solver's certificate is the march's one collinearity guard, the
    # tie test the walk's: each certifies or raises, a degeneracy names the
    # planted rows, and the walk never leaves a gap
    taus = (0.101, 0.178, 0.305)
    named = Counter()
    for seed in range(60):
        for rel in (0.0, 1e-13, 1e-11):
            cloud, tau = planted_cloud(seed, rel), taus[seed % 3]
            regions = {}
            for name, trace in (
                ("march", lambda: fixed_tau_region(contour_module._marched_sweep(cloud, tau)[0])),
                ("walk", lambda: fixed_tau_region(sweep(cloud, tau))),
            ):
                try:
                    regions[name] = trace()
                except DegenerateData as exc:
                    assert set(exc.indices) == {0, 1, 2}, str(exc)
                    assert f"(rows {list(exc.indices)})" in str(exc)
                    named[name] += 1
                except ArcGap as exc:
                    assert name != "walk", f"seed {seed}, rel {rel}: {exc}"
                except QuantourError:
                    pass
            if "march" in regions:
                assert "walk" in regions, f"seed {seed}, rel {rel}"
                assert_same_region(regions["walk"], regions["march"])
    assert named["march"] > 0 and named["walk"] > 0


def test_sweep_determinism():
    cloud = make_cloud(79, 40)
    a = sweep(cloud, 0.101)
    b = sweep(cloud, 0.101)
    assert np.array_equal(a.arcs, b.arcs) and np.array_equal(a.fitted, b.fitted)
    # one read-only column per arc field, one row per arc
    for column in fields(SweepResult)[1:]:
        col = getattr(a, column.name)
        assert len(col) == len(a.arcs) and not col.flags.writeable, column.name


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

    mult, duals = _stationarity_solve(np.ones((n, 1)), z, u.vector, (i, j), psi)
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


def records(result):
    """The table's rows as the records (start, end, i, j, s) it was built from."""
    return [
        (start, end, i, j, s)
        for (start, end), (i, j), s in zip(
            result.arcs.tolist(), result.fitted.tolist(), result.orientation.tolist()
        )
    ]


def table(z, tau, raw):
    """_finalize's columns for raw records, as a SweepResult."""
    return SweepResult(tau, *contour_module._finalize(z, tau, raw))


def enumerated(cloud, tau):
    """The oracle's table: _finalize over every pair's validity arc."""
    return table(cloud.points, tau, contour_module._enumerate_arcs(cloud.points, tau))


def assert_same_hyperplane(result, k, want, n):
    """Row k of a sweep table on n points holds hyperplane want's fields, bit for bit."""
    assert result.tau == want.tau
    b1, b2, a = result.halfplanes[k]
    assert same_bits(a, want.a), "a"
    assert same_bits((b1, b2), want.b), "b"
    for name in ("c", "multiplier", "duals"):
        assert same_bits(getattr(result, name)[k], getattr(want, name)), name
    assert same_bits(result.u[k], want.u.vector)
    assert tuple(result.fitted[k].tolist()) == want.fitted
    below = int(result.n_below[k])
    assert (below, n - 2 - below) == (want.n_below, want.n_above)


def assert_same_table(got, want):
    assert got.tau == want.tau
    for column in fields(SweepResult)[1:]:
        name = column.name
        assert same_bits(getattr(got, name), getattr(want, name)), name


def assert_matches_reference(cloud, result):
    z = cloud.points
    want = reference_finalize_arcs(z, result.tau, records(result))
    assert len(want) == len(result.arcs)
    for k, (start, end, s, h) in enumerate(want):
        assert same_bits(result.arcs[k], (start, end)) and result.orientation[k] == s
        assert_same_hyperplane(result, k, h, cloud.n)


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
        assert_matches_reference(cloud, enumerated(cloud, tau))


def assert_walk_is_the_march(cloud, tau):
    assert contour_module._walk_arcs(cloud, tau) == contour_module._march_arcs(cloud, tau)[0]


def test_walk_matches_the_march(hexagon, triangle):
    # every record, bounds and key, equal under ==
    assert_walk_is_the_march(hexagon, 0.25)
    assert_walk_is_the_march(triangle, 0.3)
    for n, scale, tau, seed in SWEEP_CASES:
        assert_walk_is_the_march(make_cloud(seed, n, scale=scale), tau)


@settings(max_examples=25, deadline=None)
@given(no_three_in_line())
def test_walk_matches_the_march_with_no_three_in_line(case):
    z, tau = case
    assert_walk_is_the_march(PointCloud(z), tau)


def failures(cloud, tau, result, u=None, fitted=None, n_below=None):
    """tests/certify.py's exact check of every arc of a sweep table."""
    return arc_failures(cloud.points, tau, result.fitted if fitted is None else fitted,
                        result.orientation, result.u if u is None else u,
                        result.n_below if n_below is None else n_below)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 60), st.data())
def test_every_arc_passes_the_exact_verifier(seed, n, data):
    # each arc's pair is an optimal basis at its emitted u, checked in
    # rational arithmetic: the sweep's and the march's tables alike
    cloud = make_cloud(seed, n)
    tau = (data.draw(st.integers(0, n // 2 - 1)) + 0.5) / n
    swept = sweep(cloud, tau)
    marched, _ = contour_module._marched_sweep(cloud, tau)
    assert failures(cloud, tau, swept) == []
    assert failures(cloud, tau, marched) == []


def test_the_exact_verifier_rejects_a_wrong_pair_the_next_arcs_u_and_a_wrong_count():
    cloud, tau = make_cloud(94, 40), 0.178
    result = sweep(cloud, tau)
    m = len(result.arcs)
    assert failures(cloud, tau, result) == []
    # each arc checked at the next arc's representative direction
    assert len(failures(cloud, tau, result, u=np.roll(result.u, -1, axis=0))) == m
    # each arc's second row replaced by the next row off its pair
    fitted = result.fitted.copy()
    for k, (i, j) in enumerate(fitted.tolist()):
        fitted[k, 1] = next(r for r in range(j + 1, j + cloud.n) if r % cloud.n != i) % cloud.n
    assert len(failures(cloud, tau, result, fitted=fitted)) == m
    # each arc's count below off by one
    assert len(failures(cloud, tau, result, n_below=result.n_below + 1)) == m


def km_exact_region(cloud, tau):
    """The exact region as ``quantour km`` prints it: (vertices, facets)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.csv")
        rows = (f"{x!r},{y!r}" for x, y in cloud.points.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("z1,z2\n" + "\n".join(rows) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["km", "-i", path, "--tau", repr(tau), "--K", "31"]) == 0
    exact = json.loads(out.getvalue())["result"]["exact"]
    assert exact["status"] == BOUNDED
    return exact["vertices"], [[*h["b"], h["a"]] for h in exact["halfplanes"]]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 60), st.data())
def test_every_region_passes_the_exact_verifier(seed, n, data):
    # fixed_tau_region(sweep()) and the exact region km prints are the
    # intersection of the arcs' halfplanes, checked in rational arithmetic;
    # depth ceil(n tau) <= n / 3 keeps the region bounded and nonempty
    cloud = make_cloud(seed, n)
    tau = (data.draw(st.integers(0, n // 3 - 1)) + 0.5) / n
    result = sweep(cloud, tau)
    region = fixed_tau_region(result)
    assert region.status == BOUNDED
    assert region_failures(result.halfplanes, region.vertices, region.halfplanes) == []
    assert region_failures(result.halfplanes, *km_exact_region(cloud, tau)) == []


def test_the_exact_verifier_rejects_a_moved_vertex_and_a_dropped_facet():
    cloud, tau = make_cloud(94, 40), 0.178
    result = sweep(cloud, tau)
    region = fixed_tau_region(result)
    H, V, F = result.halfplanes, region.vertices, region.halfplanes
    assert region_failures(H, V, F) == []
    for k in range(len(V)):
        # a vertex moved along one of its facets, or off both
        for step in ((1e-7, 0.0), (0.0, 1e-7), (-1e-6, 1e-6)):
            moved = V.copy()
            moved[k] += step
            assert region_failures(H, moved, F), (k, step)
    for k in range(len(F)):
        assert region_failures(H, V, np.delete(F, k, axis=0)), k
    # a facet that no arc's line carries
    shifted = F.copy()
    shifted[0, 2] -= 1e-9
    assert "facet 0 is no arc's line" in region_failures(H, V, shifted)


def reference_entering(p, i, j):
    """The walk's former entering rule: the two least turns arg(p) mod pi, by partition."""
    turn = np.angle(p)
    turn += np.pi * (turn < 0.0)
    turn[i] = turn[j] = np.inf
    l1, l2 = np.argpartition(turn, 1)[:2].tolist()
    return l1, l2


def edge_products(rng, n):
    """Products p for _entering: regular ones, then the inputs where Re/Im is not finite.

    Rows 0 and 1 are the pair (p = 0 and a real |d|^2, as in the walk).
    The others hold cross products of +0.0 and -0.0 with Re of either sign,
    Re = Im = 0 with every sign of the zeros (a duplicate of the staying
    point), exact ties (equal products, and products scaled by 2 and 3),
    turns a few ulp apart, infinities and NaN.
    """
    p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p[0], p[1] = 0.0, float(rng.uniform(0.5, 2.0))
    specials = [complex(re, im) for re in (1.5, -1.5, 0.0, -0.0) for im in (0.0, -0.0)]
    specials += [p[2], 2.0 * p[n - 1], 3.0 * p[n - 1], complex(1.0, 1e-300), complex(-1.0, 1e-300),
                 complex(1.0, 5e-324), complex(-1.0, -5e-324), complex(np.inf, 1.0),
                 complex(-np.inf, 1.0), complex(1.0, np.inf), complex(np.inf, np.inf),
                 complex(np.nan, 1.0), complex(1.0, 2.0), complex(1.0 + 2.0 ** -52, 2.0),
                 complex(-np.finfo(float).max, 1.0)]
    k = int(rng.integers(0, 4))
    rows = rng.choice(np.arange(2, n), size=min(k, n - 2), replace=False)
    for row in rows:
        p[row] = specials[int(rng.integers(len(specials)))]
    return p


def test_entering_picks_the_former_rows():
    # the cotangent key against the former atan2 partition wherever every
    # candidate key is finite and no two of the first three turns tie; an
    # exact tie goes to the lowest rows, and a key that is not a finite
    # number above the pair's rank raises, naming the pair and those rows
    rng = RNG(92)
    seen = Counter()
    for trial in range(3000):
        n = int(rng.integers(3, 12)) if trial % 2 else int(rng.integers(12, 200))
        p = edge_products(rng, n)
        i, j = (0, 1) if trial % 3 else (1, 0)
        rows = [row for row in range(n) if row not in (i, j)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            key = (p.real / p.imag).tolist()
        bad = [row for row in rows if not -np.finfo(float).max < key[row] < np.inf]
        if bad:
            with pytest.raises(DegenerateData, match="at angle 1.250000000") as info:
                contour_module._entering(p.copy(), i, j, 1.25)
            assert info.value.indices == tuple(sorted({i, j, *bad})), (trial, p)
            seen["not finite"] += 1
            continue
        got = contour_module._entering(p.copy(), i, j, 1.25)
        # with one candidate there is no runner-up, and the walk reads none
        k = 1 if n == 3 else 2
        ranked = sorted(rows, key=lambda row: (-key[row], row))
        assert list(got[:k]) == ranked[:k], (trial, p)
        turn = np.angle(p)
        turn += np.pi * (turn < 0.0)
        first = sorted(rows, key=lambda row: turn[row])[:3]
        if len({key[row] for row in first}) < len(first) or len(set(turn[first])) < len(first):
            seen["tie"] += 1
        else:
            assert got[:k] == reference_entering(p.copy(), i, j)[:k], (trial, p)
            seen["regular"] += 1
    assert seen["not finite"] > 500 and seen["tie"] > 20 and seen["regular"] > 1000, seen


def tied_clouds():
    """Clouds whose walk meets exact ties: lattice points and duplicated rows."""
    rng = RNG(93)
    clouds = []
    while len(clouds) < 60:
        if len(clouds) % 2:
            z = np.unique(rng.integers(0, 6, (int(rng.integers(8, 20)), 2)).astype(float), axis=0)
        else:
            z = rng.standard_normal((int(rng.integers(8, 20)), 2))
            z = np.vstack([z, z[rng.integers(0, len(z), 2)]])
        clouds.append((z, (int(rng.integers(0, len(z) // 2)) + 0.5) / len(z)))
    return clouds


def walk_outcome(z, tau):
    try:
        return contour_module._walk_arcs(PointCloud(z), tau)
    except QuantourError as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)


def exact_cross(z, a, b, c):
    """(z_b - z_a) x (z_c - z_a) in Fractions: every float is a dyadic rational."""
    (xa, ya), (xb, yb), (xc, yc) = ([Fraction(v) for v in z[row]] for row in (a, b, c))
    return (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)


def is_lowest_tie(z, named):
    """named is a turning point and the two lowest other rows on one line with it."""
    # two of the rows are distinct points: a duplicate of the turning point
    # has no finite turn, and raises otherwise
    a, b = next((a, b) for a in named for b in named if z[a].tolist() != z[b].tolist())
    line = [row for row in range(len(z)) if exact_cross(z, a, b, row) == 0]
    return any(sorted(set(named) - {stay}) == [row for row in line if row != stay][:2]
               for stay in named)


def test_the_walk_keeps_its_rows_at_exact_ties(monkeypatch):
    # lattice clouds and duplicated rows put exact ties among the first
    # turns: the walk gives the records it gives with the former entering
    # rule, and where that rule raised, the same error at the same angle;
    # each triple the walk names is exactly collinear, the turning point
    # and the two lowest rows on its line
    clouds = tied_clouds()
    got = [walk_outcome(z, tau) for z, tau in clouds]
    monkeypatch.setattr(contour_module, "_entering",
                        lambda p, i, j, angle: reference_entering(p, i, j))
    want = [walk_outcome(z, tau) for z, tau in clouds]
    moved = 0
    for (z, _), mine, former in zip(clouds, got, want):
        if mine != former:
            # the former partition named other rows of the same tie
            assert mine[0] is former[0] is DegenerateData, (mine, former)
            assert mine[1].split(" (rows")[0] == former[1].split(" (rows")[0]
            moved += 1
        if isinstance(mine, tuple) and "meets two points at once" in mine[1]:
            assert exact_cross(z, *mine[2]) == 0 and is_lowest_tie(z, mine[2]), mine
    named = [out for out in got if isinstance(out, tuple) and out[0] is DegenerateData]
    assert len(named) > 20 and any(isinstance(out, list) for out in got)
    assert 0 < moved < len(named)


def test_block_certification_matches_on_hexagon_and_small_blocks(hexagon, monkeypatch):
    for result in (sweep(hexagon, 0.25), enumerated(hexagon, 0.25)):
        assert_matches_reference(hexagon, result)
    # blocks of 1, 3 and 7 arcs, so records straddle block boundaries
    cloud = make_cloud(87, 35)
    for per_block in (1, 3, 7):
        monkeypatch.setattr(contour_module, "_CERT_BLOCK_ELEMENTS", per_block * cloud.n)
        assert_matches_reference(cloud, sweep(cloud, 0.178))


def test_arc_split_at_zero_raises_arc_gap():
    # the walk emits the arc through zero as one record, so _finalize has
    # no merge: the halves of a split repeat the arc's key, which raises
    cloud = make_cloud(88, 50)
    tau = 0.178
    raw = records(sweep(cloud, tau))
    (k,) = [k for k, rec in enumerate(raw) if rec[1] > TWO_PI]
    start, end, *key = raw[k]
    split = raw[:k] + raw[k + 1 :] + [(start, TWO_PI, *key), (0.0, end - TWO_PI, *key)]
    with pytest.raises(ArcGap, match="occurs in two disjoint arcs"):
        table(cloud.points, tau, split)


def test_fortran_ordered_input_gives_same_sweep():
    # the cloud copies its input in C order, so the caller's memory layout
    # cannot move a bit of the sweep
    z = make_cloud(90, 300).points
    tau = 0.2017
    want, want_pivots = contour_module._marched_sweep(PointCloud(z), tau)
    got, got_pivots = contour_module._marched_sweep(PointCloud(np.asfortranarray(z)), tau)
    assert got_pivots == want_pivots
    assert_same_table(got, want)
    assert_same_table(sweep(PointCloud(np.asfortranarray(z)), tau), want)


def test_block_certification_error_parity(monkeypatch):
    cloud = make_cloud(89, 30)
    z, tau = cloud.points, 0.178
    result = sweep(cloud, tau)
    raw = records(result)
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
    raw = records(result)
    per_block = max(1, contour_module._CERT_BLOCK_ELEMENTS // cloud.n)
    blocks = -(-len(raw) // per_block)
    assert len(raw) > per_block  # more than one block
    calls = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(np.shape(a))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    assert len(table(z, tau, raw).arcs) == len(raw)
    assert len(calls) <= blocks


def test_arc_for_basis_matches_reference():
    rng = RNG(91)
    for n, scale in ((12, 1e-3), (80, 1.0), (300, 1e5)):
        z = make_cloud(int(rng.integers(1, 1 << 30)), n, scale=scale).points
        for _ in range(700):
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            s = int(rng.choice([1, -1]))
            tau = float(rng.uniform(0.02, 0.98))
            got = contour_module._arc_for_basis(z, tau, i, j, s)
            want = reference_arc_for_basis(z, tau, i, j, s)
            # (lo, hi) as the reference gives them, then the bound that sets hi
            assert (None if got is None else got[:2]) == want
            assert got is None or got[2] in (None, 0, 1, 2, 3)


# ------------------------------------------- the former probe path, verbatim
# Each sweep probe now builds its design in place and hands solve_qr an
# unchecked QrProblem.  This is the march with the probe it replaces
# (Direction.from_angle, regression._design, the checking QrProblem), kept
# as it was so that every probe, the pivot count and every arc bit can be
# compared.

def reference_orientation(z, i, j, u_vec) -> int:
    npr = _perp(z[j] - z[i])
    return 1 if float(npr @ u_vec) > 0.0 else -1


def reference_march_arcs(cloud, tau, scale, solve):
    """Parametric traversal; returns ([(lo, hi, i, j, s)], pivots)."""
    z = cloud.points
    n = z.shape[0]
    no_regressors = np.empty((n, 0))

    def solve_at(phi, warm):
        u = Direction.from_angle(phi)
        y, X, _ = _design(z, no_regressors, u)
        try:
            sol = solve(QrProblem(y, X, tau), initial_basis=warm)
        except DegenerateDesign as exc:
            raise DegenerateData(f"degenerate cloud at sweep angle {phi:.9f}: {exc}")
        i, j = sol.fitted
        return sol, (int(i), int(j), reference_orientation(z, i, j, u.vector))

    sol, key = solve_at(0.0, None)
    pivots = sol.pivots
    arc = contour_module._arc_for_basis(z, tau, *key)
    if arc is None:
        raise ArcGap("initial basis has an empty validity arc")
    lo0, hi0 = contour_module._align(*arc[:2], anchor=0.0)
    records = [(lo0, hi0, *key)]
    cursor = hi0
    target = lo0 + TWO_PI
    advance = contour_module.MIN_ADVANCE
    max_probes = 16 * n * n + 256

    for _probe_count in range(max_probes):
        if cursor >= target - contour_module.TILE_TOL:
            break
        phi = min(cursor + advance, 0.5 * (cursor + target))
        prev = records[-1]
        sol, key = solve_at(phi, warm=prev[2:4])
        pivots += sol.pivots
        if key == tuple(prev[2:]):
            # arc end estimate was conservative; push further
            advance *= 10.0
            if advance > 0.5:
                raise ArcGap(f"sweep stalled near angle {cursor:.9f}")
            continue
        arc = contour_module._arc_for_basis(z, tau, *key)
        if arc is None:
            raise ArcGap(f"optimal basis at angle {phi:.9f} reports an empty arc")
        lo, hi = contour_module._align(*arc[:2], anchor=phi)
        if lo > cursor + contour_module.TILE_TOL:
            # a thinner arc hides between cursor and lo: bisect into the gap
            advance = max(0.5 * (lo - cursor), contour_module.MIN_ADVANCE)
            continue
        records.append((lo, hi, *key))
        cursor = hi
        advance = contour_module.MIN_ADVANCE
    else:
        raise ArcGap("sweep did not close the circle within its probe budget")

    if cursor > target + contour_module.TILE_TOL:
        raise ArcGap("final arc overshoots the starting boundary")
    return records, pivots


def recording_solve(log):
    """solve_qr, logging each probe's problem bits, warm start and answer."""

    def solve(problem, initial_basis=None):
        sol = solve_qr(problem, initial_basis=initial_basis)
        data = hashlib.sha256(problem.y.tobytes() + problem.X.tobytes()).hexdigest()
        log.append((data, problem.X.shape, problem.tau, initial_basis, sol.fitted, sol.pivots))
        return sol

    return solve


def reference_sweep(cloud, tau):
    """(table, n_pivots, probe log) of the sweep through the former probe path."""
    log = []
    scale = 1.0 + float(np.abs(cloud.points).max())
    raw, pivots = reference_march_arcs(cloud, tau, scale, recording_solve(log))
    return table(cloud.points, tau, raw), pivots, log


@pytest.mark.parametrize("n, scale, tau, seed", SWEEP_CASES)
def test_probe_path_matches_former_solve_at(n, scale, tau, seed, monkeypatch):
    cloud = make_cloud(seed, n, scale=scale)
    want, want_pivots, want_log = reference_sweep(cloud, tau)
    got_log = []
    # the march must call solve_qr through contour's module-level name,
    # where the benchmark tracer counts every probe
    monkeypatch.setattr(contour_module, "solve_qr", recording_solve(got_log))
    # one allowed CPU, so every probe runs in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    result, pivots = contour_module._marched_sweep(cloud, tau)
    assert got_log == want_log
    assert pivots == want_pivots
    assert_same_table(result, want)


def frame_angles(seed):
    """10**5 angles: uniform ones, and the nearest doubles around every k pi / 4.

    Near k pi / 4, |u_1| and |u_2| come within an ulp of a tie (no angle
    within 20,000 ulps of k pi / 4 makes them equal).
    """
    rng = RNG(seed)
    near = []
    for k in range(-8, 17):
        lo = hi = k * np.pi / 4.0
        near.append(lo)
        for _ in range(200):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            near += [lo, hi]
    return np.concatenate([near, rng.uniform(-TWO_PI, 2.0 * TWO_PI, 100_000 - len(near))])


def test_planar_frame_matches_direction_and_complement():
    for phi in frame_angles(95).tolist():
        u, gamma = contour_module._planar_frame(phi)
        d = Direction.from_angle(phi)
        assert same_bits(u, d.vector), phi
        assert same_bits(gamma, orthocomplement_basis(d)[:, 0]), phi


def test_u_column_matches_direction_from_angle():
    # the sweep's u column is _unit_rows of the arc midpoints, in blocks of
    # any length; each row must be Direction.from_angle(mid).vector
    phis = frame_angles(96)
    want = np.array([Direction.from_angle(phi).vector for phi in phis.tolist()])
    assert same_bits(contour_module._unit_rows(phis), want)
    for size in (1, 3, 7, 65, 1000):
        got = [contour_module._unit_rows(phis[b : b + size]) for b in range(0, 5000, size)]
        assert same_bits(np.concatenate(got)[:5000], want[:5000]), size


GAUSS30 = RNG(0).standard_normal((30, 2))
SPIKE30 = GAUSS30.copy()
SPIKE30[4, 0] = 1.7e308
SPIKE30_BOTH = GAUSS30.copy()
SPIKE30_BOTH[4] = (1.7e308, 1.7e308)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "z, error, message",
    [
        (1e12 * GAUSS30, DegenerateData,
         "degenerate cloud at sweep angle 0.000000000: design matrix is rank deficient (rank < 2)"),
        (1e300 * GAUSS30, DegenerateData,
         "degenerate cloud at sweep angle 0.000000000: design matrix is rank deficient (rank < 2)"),
        (SPIKE30, NoConvergence, "no optimum after 1500 pivots"),
        (SPIKE30_BOTH, NoConvergence, "no optimum after 1500 pivots"),
        (1e-8 * GAUSS30, NoConvergence, "no optimum after 1500 pivots"),
    ],
)
def test_extreme_scale_errors_are_unchanged(z, error, message):
    # the errors the march raised while every probe was validated on its
    # own, and the walk's from the same cold solve; 2 * 1.7e308 overflows,
    # so the spiked clouds take the checked path
    cloud = PointCloud(z)
    for run in (contour_module._marched_sweep, reference_sweep, sweep):
        with pytest.raises(error) as info:
            run(cloud, 0.2017)
        assert type(info.value) is error and str(info.value) == message


# ------------------------------------------------------------ forked chunks

FORK_N = contour_module._FORK_MIN_POINTS


marched = contour_module._marched_sweep


def one_cpu_sweep(monkeypatch, cloud, tau):
    """The serial march's table: one allowed CPU."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        return marched(cloud, tau)


def allow_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_same_sweep(got, want):
    """Equal (table, pivots) pairs of the march."""
    assert got[1] == want[1]
    assert_same_table(got[0], want[0])


@pytest.mark.parametrize(
    "cpus, n, tau, seed",
    [(2, FORK_N, 0.1785, 90), (3, FORK_N, 0.0505, 91), (2, 333, 0.3051, 92), (3, 333, 0.1785, 93)],
)
def test_forked_sweep_matches_the_serial_march(monkeypatch, forks, cpus, n, tau, seed):
    cloud = make_cloud(seed, n)
    calls = []
    solve = contour_module.solve_qr

    def counted_solve(problem, initial_basis=None):
        calls.append(os.getpid())
        return solve(problem, initial_basis=initial_basis)

    monkeypatch.setattr(contour_module, "solve_qr", counted_solve)
    want = one_cpu_sweep(monkeypatch, cloud, tau)
    serial_calls = len(calls)
    allow_cpus(monkeypatch, cpus)
    got = marched(cloud, tau)
    assert len(forks) == cpus - 1
    assert_reaped(forks)
    assert_same_sweep(got, want)
    # the children took their chunks' probes: this process made about 1/cpus
    assert len(calls) - serial_calls < 0.75 * serial_calls


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("side", [0, 1], ids=["start", "end"])
def test_seams_on_arc_boundaries_give_the_serial_bytes(monkeypatch, forks, cpus, side):
    cloud = make_cloud(94, FORK_N)
    want = one_cpu_sweep(monkeypatch, cloud, 0.1785)
    arcs = want[0].arcs
    m = len(arcs)
    # the start of a serial arc, or the end of the one before it
    bounds = [float(arcs[m * c // cpus - side, side]) for c in range(1, cpus)]
    seams = contour_module._seams
    monkeypatch.setattr(contour_module, "_seams",
                        lambda solve_at, z, tau, angles: seams(solve_at, z, tau, bounds))
    allow_cpus(monkeypatch, cpus)
    assert_same_sweep(marched(cloud, 0.1785), want)
    assert len(forks) == cpus - 1


def test_a_seam_the_march_never_meets_gives_the_serial_bytes(monkeypatch, forks):
    cloud = make_cloud(95, FORK_N)
    want = one_cpu_sweep(monkeypatch, cloud, 0.1785)
    # the seam's arc under the key of the arc at angle 0, about pi away: the
    # march never appends that record, so the first chunk marches the whole
    # circle, and the child's chunk, warm-started from that key, is dropped
    far = (*want[0].fitted[0].tolist(), int(want[0].orientation[0]))
    seams = contour_module._seams
    monkeypatch.setattr(contour_module, "_seams",
                        lambda *args: [(lo, hi, *far) for lo, hi, *_ in seams(*args)])
    assert_same_sweep(marched(cloud, 0.1785), want)
    assert len(forks) == 1


def fail_between(monkeypatch, lo, hi, message):
    """Make the sweep's frame raise at every angle in [lo, hi)."""
    frame = contour_module._planar_frame

    def failing(phi):
        if lo <= phi < hi:
            raise NoConvergence(f"{message} at angle {phi!r}")
        return frame(phi)

    monkeypatch.setattr(contour_module, "_planar_frame", failing)


@pytest.mark.parametrize("lo", [1.0, 2.8], ids=["parent", "child"])
def test_a_failing_chunk_gives_the_serial_error(monkeypatch, forks, lo):
    # on three CPUs the seams lie near 2 pi / 3 and 4 pi / 3, outside both
    # windows; the second one fails the middle chunk, which a child marches
    cloud = make_cloud(96, FORK_N)
    fail_between(monkeypatch, lo, lo + 0.5, "injected failure")
    allow_cpus(monkeypatch, 3)
    with pytest.raises(NoConvergence) as forked:
        marched(cloud, 0.1785)
    assert len(forks) == 2
    assert_reaped(forks)
    with pytest.raises(NoConvergence) as serial:
        one_cpu_sweep(monkeypatch, cloud, 0.1785)
    assert len(forks) == 2
    assert str(forked.value) == str(serial.value)
    assert str(serial.value).startswith("injected failure at angle ")


def test_an_empty_arc_names_its_basis_and_angle(monkeypatch, forks, tmp_path):
    cloud = make_cloud(101, FORK_N)
    want, _ = one_cpu_sweep(monkeypatch, cloud, 0.1785)
    # the arc through 3 pi / 2: in the second chunk on two CPUs, whose seam
    # lies near pi
    k = int(np.searchsorted(want.arcs[:, 0], 1.5 * np.pi)) - 1
    key = (*want.fitted[k].tolist(), int(want.orientation[k]))
    hits = tmp_path / "pids"
    arc_for_basis = contour_module._arc_for_basis

    def empty_at_key(z, tau, i, j, s):
        if (i, j, s) == key:
            with open(hits, "a") as log:
                log.write(f"{os.getpid()}\n")
            return None
        return arc_for_basis(z, tau, i, j, s)

    monkeypatch.setattr(contour_module, "_arc_for_basis", empty_at_key)
    with pytest.raises(ArcGap) as serial:
        one_cpu_sweep(monkeypatch, cloud, 0.1785)
    prefix = f"basis ({key[0]}, {key[1]}) with orientation {key[2]} has an empty arc at "
    message = str(serial.value)
    assert message.startswith(prefix)
    lo, hi = want.arcs[k].tolist()
    assert lo - contour_module.TILE_TOL <= float(message[len(prefix):]) <= hi
    assert hits.read_text().split() == [str(os.getpid())]

    hits.unlink()
    with pytest.raises(ArcGap) as forked:
        marched(cloud, 0.1785)
    assert str(forked.value) == message
    # the child's chunk failed there, and this process marched it again
    assert len(forks) == 1
    assert_reaped(forks)
    assert hits.read_text().split() == [str(forks[0]), str(os.getpid())]


def test_a_failure_in_the_parent_chunk_kills_every_child(monkeypatch, forks):
    parent = os.getpid()
    frame = contour_module._planar_frame

    def sleepy_frame(phi):
        if os.getpid() != parent and not slept:  # each child's first probe
            slept.append(phi)
            time.sleep(30)
        return frame(phi)

    slept = []

    monkeypatch.setattr(contour_module, "_planar_frame", sleepy_frame)
    # on three CPUs the seams lie near 2 pi / 3 and 4 pi / 3
    fail_between(monkeypatch, 1.0, 1.5, "the parent's chunk failed")
    allow_cpus(monkeypatch, 3)
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="the parent's chunk failed"):
        marched(make_cloud(97, FORK_N), 0.1785)
    assert time.perf_counter() - start < 10
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_chunk_with_no_process_is_marched_in_this_process(monkeypatch, call):
    # fork_map gives FAILED for the child's chunk; the march goes on from
    # the end of the parent's chunk and closes the circle here
    cloud = make_cloud(100, 220)
    want = one_cpu_sweep(monkeypatch, cloud, 0.1785)

    def refuse():
        raise OSError(f"no {call} to spare")

    monkeypatch.setattr(os, call, refuse)
    allow_cpus(monkeypatch, 2)
    assert_same_sweep(marched(cloud, 0.1785), want)


def test_the_sweep_stays_serial_below_the_minimum_n(forks):
    marched(make_cloud(98, FORK_N - 1), 0.1785)
    # the walk runs in this process at any n
    sweep(make_cloud(98, FORK_N), 0.1785)
    assert forks == []


def test_the_sweep_stays_serial_while_another_thread_runs(forks):
    cloud = make_cloud(99, FORK_N)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        serial = marched(cloud, 0.1785)
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert forks == []
    assert_same_sweep(marched(cloud, 0.1785), serial)
    assert len(forks) == 1
