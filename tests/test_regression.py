"""Multiple-output regression quantiles, cuts, and coverage checks."""

import numpy as np
import pytest

from quantour import (
    DegenerateData,
    DimensionMismatch,
    Direction,
    MixedModels,
    NoConvergence,
    PointCloud,
    QrProblem,
    RegressionProblem,
    SingularSystem,
    TooFewPointsPerBin,
    check_loss,
    coverage_diagnostic,
    directional_quantile,
    fixed_tau_region,
    fixed_x_cut,
    hausdorff_distance,
    orthocomplement_basis,
    regression_quantile,
    response_direction_grid,
    solve_qr,
    sweep,
)
from quantour import directional as directional_module
from quantour import regression as regression_module

RNG = np.random.default_rng

# ---------------------------------------------------------------- oracles
#
# The location and regression fits once kept separate reductions.  The
# code below is that pair, kept verbatim (orthocomplement_basis now
# returns the basis array itself, so ``.matrix`` is gone) as the oracle
# the shared reduction must reproduce bit for bit.

MULT_TOL = 1e-7
KKT_TOL = 1e-7


def _reduce(cloud: PointCloud, u: Direction):
    """Responses and design of the equivalent unconstrained regression."""
    z = cloud.points
    n, k = z.shape
    if u.k != k:
        raise DimensionMismatch(f"direction has k={u.k}, cloud has k={k}")
    if n <= k:
        raise DimensionMismatch(f"need n > k observations, got n={n}, k={k}")
    y = z @ u.vector
    if k == 1:
        return y, np.ones((n, 1)), None
    gamma = orthocomplement_basis(u)
    X = np.ones((n, k))
    X[:, 1:] = z @ gamma
    return y, X, gamma


def _assemble(cloud, tau, u, gamma, sol):
    """Lift a reduced-problem solution back to hyperplane form and verify it."""
    a = float(sol.beta[0])
    c = -sol.beta[1:]
    b = u.vector if gamma is None else u.vector + gamma @ c
    if abs(b @ u.vector - 1.0) > 1e-9:
        raise NoConvergence("normalization b'u = 1 failed")

    mult, duals = _location_stationarity_solve(cloud.points, u.vector, tau, sol.fitted, sol.psi)
    if abs(mult - sol.objective) > MULT_TOL * (1.0 + abs(sol.objective)):
        raise NoConvergence(
            f"multiplier {mult:.12g} does not match objective {sol.objective:.12g}"
        )
    if mult < -1e-9:
        raise NoConvergence(f"negative multiplier {mult:.12g}")
    if float(np.abs(duals - sol.duals).max()) > MULT_TOL:
        raise NoConvergence("stationarity duals disagree with exchange duals")
    psi_full = sol.psi.copy()
    psi_full[list(sol.fitted)] = duals
    kkt_gap = mult * u.vector - cloud.points.T @ psi_full
    if float(np.abs(kkt_gap).max()) > KKT_TOL * (1.0 + abs(mult)):
        raise NoConvergence("stationarity reconstruction failed")
    return a, b, c, mult, sol.fitted, duals


def _location_stationarity_solve(z, u_vec, tau, fitted, psi):
    n, k = z.shape
    fitted = list(fitted)
    m = len(fitted)
    mask = np.zeros(n, dtype=bool)
    mask[fitted] = True
    s0 = float(psi[~mask].sum())
    s1 = z[~mask].T @ psi[~mask]
    M = np.zeros((k + 1, m + 1))
    M[0, 1:] = 1.0
    M[1:, 0] = -u_vec
    M[1:, 1:] = z[fitted].T
    rhs = np.concatenate([[-s0], -s1])
    if M.shape[0] != M.shape[1]:
        raise SingularSystem(
            f"stationarity system is not square: {m} fitted points, k={k}"
        )
    try:
        w = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("stationarity system is singular")
    return float(w[0]), w[1:]


def reference_directional_quantile(cloud, tau, u):
    y, X, gamma = _reduce(cloud, u)
    sol = solve_qr(QrProblem(y, X, tau))
    return _assemble(cloud, tau, u, gamma, sol)


def _design(rp: RegressionProblem):
    """Responses and design of the reduced unconstrained regression."""
    t = rp.Y @ rp.u.vector
    cols = [np.ones(rp.n), rp.X]
    if rp.k == 1:
        return t, np.column_stack(cols), None
    gamma = orthocomplement_basis(rp.u)
    cols.append(rp.Y @ gamma)
    return t, np.column_stack(cols), gamma


def reference_regression_quantile(rp: RegressionProblem):
    t, X, gamma = _design(rp)
    sol = solve_qr(QrProblem(t, X, rp.tau))
    q = rp.p - 1
    a = float(sol.beta[0])
    c = np.array(sol.beta[1 : 1 + q])
    if rp.k == 1:
        # b = u gives b'u = u^2 = 1 and b*y - c'x - a = the reduced residual
        b = rp.u.vector.copy()
    else:
        d = sol.beta[1 + q :]
        b = rp.u.vector - gamma @ d
    if abs(b @ rp.u.vector - 1.0) > 1e-9:
        raise NoConvergence("direction normalization lost in reconstruction")

    psi = _psi_full(rp, sol)
    mult, duals = _regression_stationarity_solve(rp, sol.fitted, psi)
    objective = sol.objective
    if abs(mult - objective) > MULT_TOL * (1.0 + abs(objective)):
        raise NoConvergence(
            f"multiplier {mult:.12g} disagrees with objective {objective:.12g}"
        )
    if mult < -1e-9:
        raise NoConvergence(f"negative multiplier {mult:.3e}")
    if np.max(np.abs(duals - sol.duals)) > KKT_TOL:
        raise NoConvergence("stationarity duals disagree with the solver duals")
    psi_chk = psi.copy()
    psi_chk[list(sol.fitted)] = duals
    gap = np.abs(mult * rp.u.vector - rp.Y.T @ psi_chk)
    if np.max(gap) > KKT_TOL * (1.0 + abs(mult)):
        raise NoConvergence("response-space stationarity failed")
    return a, b, c, mult, sol.fitted, duals


def _psi_full(rp: RegressionProblem, sol):
    """Subgradient weights: tau / tau-1 by residual sign, 0 on fitted rows."""
    psi = np.where(sol.residuals > 0, rp.tau, rp.tau - 1.0)
    psi[list(sol.fitted)] = 0.0
    return psi


def _regression_stationarity_solve(rp: RegressionProblem, fitted, psi):
    m = len(fitted)
    if m + 1 != rp.k + rp.p:
        raise SingularSystem(f"stationarity system is not square (m={m})")
    rows = list(fitted)
    mask = np.ones(rp.n, dtype=bool)
    mask[rows] = False
    xa = np.column_stack([np.ones(rp.n), rp.X])
    M = np.zeros((m + 1, m + 1))
    M[: rp.p, 1:] = xa[rows].T
    M[rp.p :, 0] = -rp.u.vector
    M[rp.p :, 1:] = rp.Y[rows].T
    rhs = np.concatenate([-(xa[mask].T @ psi[mask]), -(rp.Y[mask].T @ psi[mask])])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("regression stationarity system is singular")
    return float(sol[0]), sol[1:]


def assert_same_fit(got, want):
    a, b, c, mult, fitted, duals = want
    assert got.a == a
    assert np.array_equal(got.b, b)
    assert np.array_equal(got.c, c)
    assert got.multiplier == mult
    assert got.fitted == fitted
    assert np.array_equal(got.duals, duals)


def make_problem(seed, n, p_minus_1, k, tau, u=None):
    rng = RNG(seed)
    X = rng.standard_normal((n, p_minus_1))
    Y = rng.standard_normal((n, k))
    if u is None:
        u = Direction(rng.standard_normal(k))
    return RegressionProblem(X, Y, tau, u)


def test_exactly_collinear_rows_are_degenerate():
    # a third point on the fitted line violates general position
    X = np.array([[0.0], [1.0], [2.0]])
    Y = np.array([[0.0], [2.0], [4.0]])
    with pytest.raises(DegenerateData):
        regression_quantile(RegressionProblem(X, Y, 0.4, Direction([1.0])))


def test_perturbed_line_fixture():
    # lift the third response off the line: the tau = 0.4 fit pins rows
    # 0 and 2, leaving the middle row below
    X = np.array([[0.0], [1.0], [2.0]])
    Y = np.array([[0.0], [2.0], [4.3]])
    q = regression_quantile(RegressionProblem(X, Y, 0.4, Direction([1.0])))
    assert abs(q.a) <= 1e-12
    assert np.allclose(q.b, [1.0])
    assert np.allclose(q.c, [2.15])
    assert abs(q.multiplier - 0.09) <= 1e-12
    assert q.fitted == (0, 2)
    assert q.counts == (1, 2, 0)
    # row 1 residual: 2 - 2.15 = -0.15, check loss 0.6 * 0.15 = 0.09
    r = q.residual(X, Y)
    assert abs(r[1] + 0.15) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [10, 57, 300, 2000])
def test_shared_reduction_matches_parent(k, n):
    # the shared design, lift and certificates give the bits of the two
    # separate reductions they replaced, in the location and regression fits
    rng = RNG(1000 * k + n)
    for q in range(4):
        for _ in range(1 if n == 2000 else 2):
            X = rng.standard_normal((n, q))
            Y = rng.standard_normal((n, k))
            u = Direction(rng.standard_normal(k))
            tau = float(rng.uniform(0.05, 0.95))
            if abs(n * tau - round(n * tau)) < 1e-3:
                tau += 2e-3 / n
            rp = RegressionProblem(X, Y, tau, u)
            assert_same_fit(regression_quantile(rp), reference_regression_quantile(rp))
            if q == 0:
                cloud = PointCloud(Y)
                assert_same_fit(
                    directional_quantile(cloud, tau, u),
                    reference_directional_quantile(cloud, tau, u),
                )


def test_location_case_matches_directional_engine():
    # with no regressors the model reduces to the directional quantile; the
    # engines sum the stationarity system's intercept row in different
    # orders, so they agree to the last bit on these 20 cases, not always
    rng = RNG(91)
    for _ in range(20):
        n = int(rng.integers(6, 25))
        z = rng.standard_normal((n, 2))
        tau = float(rng.uniform(0.1, 0.9))
        if abs(n * tau - round(n * tau)) < 1e-3:
            tau += 2e-3
        u = Direction(rng.standard_normal(2))
        h = directional_quantile(PointCloud(z), tau, u)
        q = regression_quantile(RegressionProblem(np.empty((n, 0)), z, tau, u))
        assert q.a == h.a
        assert np.array_equal(q.b, h.b)
        assert q.multiplier == h.multiplier
        assert q.fitted == h.fitted


def test_scalar_response_matches_classical_fit():
    # k = 1: b is pinned to u and the model is ordinary quantile
    # regression of u'y on x, for either sign of u
    rng = RNG(92)
    n = 40
    x = rng.standard_normal((n, 2))
    y = (1.5 + x @ np.array([2.0, -1.0]) + rng.standard_normal(n))[:, None]
    tau = 0.305
    for sign in (1.0, -1.0):
        u = Direction([sign])
        q = regression_quantile(RegressionProblem(x, y, tau, u))
        sol = solve_qr(QrProblem(sign * y[:, 0], np.column_stack([np.ones(n), x]), tau))
        assert np.allclose(q.b, [sign])
        assert abs(q.a - sol.beta[0]) <= 1e-9
        assert np.allclose(q.c, sol.beta[1:], atol=1e-9)
        assert abs(q.multiplier - sol.objective) <= 1e-7


def test_multiplier_is_objective():
    rng = RNG(93)
    for _ in range(15):
        rp = make_problem(int(rng.integers(1, 1 << 30)), 60, 2, 2, 0.3015)
        q = regression_quantile(rp)
        r = q.residual(rp.X, rp.Y)
        obj = float(np.sum(check_loss(rp.tau, r)))
        assert abs(q.multiplier - obj) <= 1e-7 * (1.0 + obj)
        assert abs(q.b @ rp.u.vector - 1.0) <= 1e-9
        # vertex fit pins one row per free parameter: (p - 1) + k
        assert len(q.fitted) == rp.X.shape[1] + rp.Y.shape[1]


def test_regressor_shift_equivariance():
    rng = RNG(94)
    rp = make_problem(95, 50, 2, 2, 0.178)
    shift = np.array([3.0, -1.5])
    moved = RegressionProblem(rp.X + shift, rp.Y, rp.tau, rp.u)
    q0 = regression_quantile(rp)
    q1 = regression_quantile(moved)
    assert np.allclose(q1.c, q0.c, atol=1e-9)
    assert np.allclose(q1.b, q0.b, atol=1e-9)
    assert abs(q1.a - (q0.a - q0.c @ shift)) <= 1e-9
    assert abs(q1.multiplier - q0.multiplier) <= 1e-7
    assert q1.fitted == q0.fitted


def test_identified_combination_for_coupled_responses():
    # generator y = (x + e1, -x + e2): only c + b2 is identified at the
    # population level, and it equals 1 for the direction (1, 0)
    rng = RNG(96)
    n = 500
    x = rng.uniform(-2.0, 2.0, n)
    Y = np.column_stack(
        [x + 0.01 * rng.standard_normal(n), -x + 0.01 * rng.standard_normal(n)]
    )
    rp = RegressionProblem(x[:, None], Y, 0.3015, Direction([1.0, 0.0]))
    q = regression_quantile(rp)
    assert abs((q.c[0] + q.b[1]) - 1.0) <= 0.05


def test_clean_linear_generator_recovers_slope():
    rng = RNG(97)
    n = 500
    x = rng.uniform(0.0, 4.0, n)
    Y = np.column_stack(
        [1.0 + 2.0 * x + 0.2 * rng.standard_normal(n), 0.2 * rng.standard_normal(n)]
    )
    q = regression_quantile(
        RegressionProblem(x[:, None], Y, 0.3015, Direction([1.0, 0.0]))
    )
    assert abs(q.c[0] - 2.0) <= 0.1


def test_direction_grid():
    grid = response_direction_grid(K=8)
    assert len(grid) == 8
    angles = np.array([d.angle for d in grid])
    assert abs(angles[0]) <= 1e-12
    with pytest.raises(ValueError):
        response_direction_grid(K=2)


def test_location_cut_equals_sweep_region():
    # with no regressors, cutting the model family at the empty x0
    # reproduces the exact fixed-tau region when the directions are the
    # sweep arc midpoints
    rng = RNG(98)
    z = rng.standard_normal((20, 2))
    tau = 0.305
    res = sweep(PointCloud(z), tau)
    mids = [Direction.from_angle(0.5 * (start + end)) for start, end in res.arcs.tolist()]
    models = [
        regression_quantile(RegressionProblem(np.empty((20, 0)), z, tau, d))
        for d in mids
    ]
    cut = fixed_x_cut(models, np.empty(0))
    region = fixed_tau_region(res)
    assert cut.status == region.status == "bounded"
    assert hausdorff_distance(cut, region) <= 1e-9


def test_cut_translates_with_x():
    # pure location shift in x moves the cut by the slope matrix
    rng = RNG(99)
    n = 300
    x = rng.uniform(-1.0, 1.0, n)
    base = rng.standard_normal((n, 2))
    Y = base + np.column_stack([2.0 * x, -x])
    tau = 0.3015
    dirs = response_direction_grid(K=48)
    models = [
        regression_quantile(RegressionProblem(x[:, None], Y, tau, d)) for d in dirs
    ]
    cut0 = fixed_x_cut(models, np.array([0.0]))
    cut1 = fixed_x_cut(models, np.array([0.5]))
    assert cut0.status == cut1.status == "bounded"
    # the model is linear in x, so the cut moves by (2, -1) * 0.5
    from quantour import ConvexRegion2D

    moved = ConvexRegion2D.from_vertices(cut0.vertices + np.array([1.0, -0.5]))
    assert hausdorff_distance(moved, cut1) <= 0.2


def test_cut_rejects_mixed_models():
    rng = RNG(100)
    z = rng.standard_normal((15, 2))
    m1 = regression_quantile(
        RegressionProblem(np.empty((15, 0)), z, 0.305, Direction([1.0, 0.0]))
    )
    m2 = regression_quantile(
        RegressionProblem(np.empty((15, 0)), z, 0.178, Direction([0.0, 1.0]))
    )
    with pytest.raises(MixedModels):
        fixed_x_cut([m1, m2], np.empty(0))
    with pytest.raises(MixedModels):
        fixed_x_cut([], np.empty(0))


def test_coverage_diagnostic_linear_generator():
    rng = RNG(90)
    n = 400
    x = rng.uniform(0, 4, n)
    Y = np.column_stack(
        [
            1.0 + 2.0 * x + rng.standard_normal(n) * 0.5,
            -x + rng.standard_normal(n) * 0.5,
        ]
    )
    rp = RegressionProblem(x[:, None], Y, 0.3015, Direction([1.0, 0.0]))
    q = regression_quantile(rp)
    cov = coverage_diagnostic(rp, q, bins=5)
    assert abs(cov.global_fraction - 0.3015) <= 2.0 * np.sqrt(0.3015 * 0.6985 / n)
    # a correctly specified model keeps every bin within 3 binomial sds
    assert np.all(
        np.abs(cov.deviations) <= 3.0 * np.asarray(cov.binomial_scale())
    )
    assert sum(cov.bin_counts) == n


def test_coverage_diagnostic_flags_curvature():
    rng = RNG(101)
    n = 400
    x = rng.uniform(0, 4, n)
    Y = np.column_stack(
        [
            1.0 + 0.8 * (x - 2.0) ** 2 + rng.standard_normal(n) * 0.3,
            x + rng.standard_normal(n) * 0.3,
        ]
    )
    rp = RegressionProblem(x[:, None], Y, 0.3015, Direction([1.0, 0.0]))
    q = regression_quantile(rp)
    cov = coverage_diagnostic(rp, q, bins=5)
    # a linear fit to a parabola misses badly in the outer bins
    assert np.any(np.abs(cov.deviations) > 3.0 * np.asarray(cov.binomial_scale()))


def test_coverage_needs_enough_points_per_bin():
    rp = make_problem(102, 12, 1, 2, 0.33)
    q = regression_quantile(rp)
    with pytest.raises(TooFewPointsPerBin):
        coverage_diagnostic(rp, q, bins=4)


def test_coverage_needs_regressors():
    rng = RNG(103)
    z = rng.standard_normal((15, 2))
    rp = RegressionProblem(np.empty((15, 0)), z, 0.305, Direction([1.0, 0.0]))
    q = regression_quantile(rp)
    with pytest.raises(DimensionMismatch):
        coverage_diagnostic(rp, q, bins=2)


def test_problem_validation():
    rng = RNG(104)
    with pytest.raises(DimensionMismatch):
        RegressionProblem(
            rng.standard_normal((5, 1)),
            rng.standard_normal((6, 2)),
            0.3,
            Direction([1.0, 0.0]),
        )
    with pytest.raises(DimensionMismatch):
        RegressionProblem(
            rng.standard_normal((10, 1)),
            rng.standard_normal((10, 2)),
            0.33,
            Direction([1.0, 0.0, 0.0]),
        )


def public_reduced_problem(t, design, tau, finite=False):
    """The former hand-off: the public, copying and checking QrProblem."""
    return QrProblem(t, design, tau)


def fit_fields(fit):
    """Every field of a fitted hyperplane, with arrays as bytes."""
    return {
        k: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
        for k, v in fit.__dict__.items()
        if k != "u"
    } | {"u": fit.u.vector.tobytes()}


def fit_or_error(fn, *args):
    try:
        return fit_fields(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def test_uncopied_problem_gives_the_public_problem_results(monkeypatch):
    rng = RNG(94)
    cases = []
    for n, q, k in ((6, 0, 2), (40, 0, 2), (40, 0, 3), (300, 2, 2), (300, 1, 3), (2000, 3, 2)):
        X = rng.standard_normal((n, q))
        Y = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 7)
        u = Direction(rng.standard_normal(k))
        tau = float(rng.uniform(0.05, 0.95))
        if abs(n * tau - round(n * tau)) < 1e-3:
            tau += 2e-3 / n
        cases.append((X, Y, tau, u))
    # u'y overflows on finite data: both hand-offs refuse it the same way
    big = np.array([[1.7e308, 1.7e308], [0.0, 1.0], [1.0, 0.0], [2.0, 3.0]])
    cases.append((np.empty((4, 0)), big, 0.3001, Direction([1.0, 1.0])))
    cases.append((np.ones((4, 1)), big, 0.3001, Direction([1.0, 1.0])))

    def run():
        out = []
        for X, Y, tau, u in cases:
            out.append(fit_or_error(regression_quantile, RegressionProblem(X, Y, tau, u)))
            if X.shape[1] == 0:
                out.append(fit_or_error(directional_quantile, PointCloud(Y), tau, u))
        return out

    with np.errstate(over="ignore"):
        got = run()
        monkeypatch.setattr(regression_module, "_reduced_problem", public_reduced_problem)
        monkeypatch.setattr(directional_module, "_reduced_problem", public_reduced_problem)
        want = run()
    assert got == want
    assert want[-1] == want[-2] == want[-3] == (DimensionMismatch, "inputs must be finite")
