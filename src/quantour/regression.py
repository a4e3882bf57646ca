"""Multiple-output regression quantiles.

Directions are restricted to the response subspace: the hyperplane
b'y = c'x + a with b'u = 1 minimizes the check loss of b'y_i - c'x_i - a.
The location case is the special case with no regressors, so this
module holds the one fit, ``_fit`` (design, solve, lift, stationarity
solve and certificates), that the directional quantile and the
regression fit both call, and the direction sweep uses its problem
hand-off.  One exact solve handles any (p, k), and with no regressors
the regression fit returns the directional quantile's bits.  Fixed-x
cuts assemble a response-space region from a grid of fitted directions,
and the coverage diagnostic turns the lower-halfspace fractions into a
binned linearity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateData,
    DegenerateDesign,
    DimensionMismatch,
    MixedModels,
    NoConvergence,
    SingularSystem,
    TooFewPointsPerBin,
)
from .geometry import (
    ConvexRegion2D,
    Direction,
    intersect_halfplanes_2d,
    orthocomplement_basis,
)
from .qr import QrProblem, _off_basis_gradient, solve_qr, validate_tau

# in-solve verification tolerances for the multiplier identity and the
# stationarity reconstruction, shared by the location and regression fits
MULT_TOL = 1e-7
KKT_TOL = 1e-7


@dataclass(frozen=True)
class RegressionProblem:
    """Design for one tau-u regression quantile.

    X : (n, p-1) regressors, intercept added internally (p-1 may be 0).
    Y : (n, k) responses.
    tau : level in (0, 1) with n * tau not an integer.
    u : direction in response space (R^k).
    """

    X: np.ndarray
    Y: np.ndarray
    tau: float
    u: Direction

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        Y = np.array(self.Y, dtype=float)
        if Y.ndim != 2:
            raise DimensionMismatch("Y must be 2-D (n, k)")
        n, k = Y.shape
        if X.ndim != 2 or X.shape[0] != n:
            raise DimensionMismatch("X must be 2-D (n, p-1) with the same n as Y")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DimensionMismatch("inputs must be finite")
        u = self.u if isinstance(self.u, Direction) else Direction(self.u)
        if u.k != k:
            raise DimensionMismatch(f"direction has k={u.k}, responses have k={k}")
        m = k + X.shape[1]  # fit dimension: intercept + regressors + k-1 slopes
        if n <= m:
            raise DimensionMismatch(f"need n > {m} observations, got n={n}")
        tau = validate_tau(self.tau, n)
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def k(self) -> int:
        return self.Y.shape[1]

    @property
    def p(self) -> int:
        return self.X.shape[1] + 1


@dataclass(frozen=True)
class RegressionQuantile:
    """Fitted tau-u regression hyperplane b'y = c'x + a in response space."""

    tau: float
    u: Direction
    a: float
    b: np.ndarray
    c: np.ndarray
    multiplier: float
    fitted: tuple
    duals: np.ndarray
    n_below: int
    n_above: int
    n: int

    @property
    def n_on(self) -> int:
        return len(self.fitted)

    @property
    def counts(self) -> tuple:
        return (self.n_below, self.n_on, self.n_above)

    def residual(self, x, y) -> np.ndarray:
        """Signed offsets b'y - c'x - a; negative in the lower halfspace."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return y @ self.b - x @ self.c - self.a


def _design(Y, X, u: Direction):
    """Response u'y and design [1, X, Y Gamma] of the reduced regression.

    The constrained fit b'y_i - c'x_i - a with b'u = 1 becomes the
    unconstrained regression of u'y_i on (1, x_i, Gamma'y_i), where Gamma
    is the canonical orthocomplement basis of u.  The location case passes
    X with no columns.  Returns (t, design, gamma); gamma has no columns
    when k = 1.
    """
    n, k = Y.shape
    q = X.shape[1]
    t = Y @ u.vector
    design = np.ones((n, q + k))
    design[:, 1 : 1 + q] = X
    if k == 1:
        return t, design, np.empty((1, 0))
    gamma = orthocomplement_basis(u)
    design[:, 1 + q :] = Y @ gamma
    return t, design, gamma


def _reduced_problem(t, design, tau: float, finite: bool = False) -> QrProblem:
    """Uncopied QrProblem over ``_design``'s arrays; checks them unless vouched ``finite``."""
    # finite data can still overflow in u'y and Y Gamma
    if not (finite or (np.isfinite(t).all() and np.isfinite(design).all())):
        raise DimensionMismatch("inputs must be finite")
    return QrProblem._trusted(t, design, tau)


def _fit(Y, X, tau: float, u: Direction, what: str):
    """Solve, lift and certify the tau-u fit of Y on [1, X]; X may have no columns.

    The one fit of the location and regression cases.  A degenerate design
    raises DegenerateData naming its rows, its message led by
    ``what.format(u=u)`` (formatted on that path only).  The multiplier
    must equal the optimal objective and be nonnegative, the stationarity
    duals must agree with the exchange duals, and multiplier * u =
    sum(psi_i y_i) must hold per coordinate; off the basis ``sol.psi`` is
    tau / tau-1 by residual sign, as solve_qr rejects off-basis rows with
    |r| < ztol.  Returns (sol, a, d, b, multiplier, duals): intercept a,
    response coefficients d and normal b = u - Gamma d.
    """
    t, design, gamma = _design(Y, X, u)
    try:
        sol = solve_qr(_reduced_problem(t, design, tau))
    except DegenerateDesign as exc:
        raise DegenerateData(f"{what.format(u=u)}: {exc}", indices=exc.indices)
    q = X.shape[1]
    a = float(sol.beta[0])
    d = sol.beta[1 + q :]
    b = u.vector - gamma @ d
    if abs(b @ u.vector - 1.0) > 1e-9:
        raise NoConvergence("normalization b'u = 1 failed")
    mult, duals = _stationarity_solve(design[:, : 1 + q], Y, u.vector, sol.fitted, sol.psi)
    objective = sol.objective
    if abs(mult - objective) > MULT_TOL * (1.0 + abs(objective)):
        raise NoConvergence(
            f"multiplier {mult:.12g} does not match objective {objective:.12g}"
        )
    if mult < -1e-9:
        raise NoConvergence(f"negative multiplier {mult:.12g}")
    if float(np.abs(duals - sol.duals).max()) > MULT_TOL:
        raise NoConvergence("stationarity duals disagree with exchange duals")
    psi = sol.psi.copy()
    psi[list(sol.fitted)] = duals
    gap = mult * u.vector - Y.T @ psi
    if float(np.abs(gap).max()) > KKT_TOL * (1.0 + abs(mult)):
        raise NoConvergence("stationarity reconstruction failed")
    return sol, a, d, b, mult, duals


def regression_quantile(rp: RegressionProblem) -> RegressionQuantile:
    """Exact minimizer of sum rho_tau(b'y_i - c'x_i - a) with b'u = 1.

    Verifies in-solve that the Lagrange multiplier from the stationarity
    system matches the optimal objective and that the response-space KKT
    condition multiplier * u = sum(psi_i y_i) holds per coordinate.
    """
    sol, a, _, b, mult, duals = _fit(rp.Y, rp.X, rp.tau, rp.u, "degenerate regression design")
    return RegressionQuantile(
        tau=rp.tau,
        u=rp.u,
        a=a,
        b=b,
        c=np.array(sol.beta[1 : rp.p]),
        multiplier=mult,
        fitted=sol.fitted,
        duals=duals,
        n_below=sol.n_below,
        n_above=sol.n_above,
        n=rp.n,
    )


def _stationarity_solve(xa, Y, u_vec, fitted, psi):
    """Multiplier and fitted duals from the KKT system of a fit.

    ``xa`` is the (n, p) block [1, X] of the design; the location case
    passes the intercept column alone.  Unknowns (lam, v_1..v_m) solve
        sum_i psi_i = 0
        sum_i psi_i x_i = 0        (per regressor)
        lam * u = sum_i psi_i y_i  (per response coordinate)
    with non-fitted psi fixed.  Square of size m + 1 = k + p.  With no
    regressors the intercept entry is the pairwise sum of psi_N, as in the
    sweep's block certifier, so the location fit and the regression fit
    at p = 1 round alike.
    """
    n, p = xa.shape
    k = Y.shape[1]
    m = len(fitted)
    if m + 1 != k + p:
        raise SingularSystem(f"stationarity system is not square (m={m})")
    rows = list(fitted)
    in_basis = np.zeros(n, dtype=bool)
    in_basis[rows] = True
    M = np.zeros((m + 1, m + 1))
    M[:p, 1:] = xa[rows].T
    M[p:, 0] = -u_vec
    M[p:, 1:] = Y[rows].T
    # the products over the rows off the basis, on qr's row runs: the
    # arrays that boolean gathers give, with the same bits, and cheaper
    head = [psi[~in_basis].sum()] if p == 1 else _off_basis_gradient(xa, psi, in_basis)
    rhs = -np.concatenate([head, _off_basis_gradient(Y, psi, in_basis)])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("stationarity system is singular")
    return float(sol[0]), sol[1:]


def response_direction_grid(K: int = 360) -> tuple:
    """K equispaced planar response directions for cut assembly."""
    if K < 3:
        raise ValueError(f"need at least 3 directions, got K={K}")
    return tuple(Direction.from_angle(2.0 * np.pi * j / K) for j in range(K))


def fixed_x_cut(models, x0) -> ConvexRegion2D:
    """Response-space cut at regressor value x0.

    Intersects {y : b'y >= c'x0 + a} over a grid of fitted directions;
    Empty is a valid outcome when tau exceeds the attainable depth.
    All models must share (tau, n, p); disagreement raises MixedModels.
    """
    models = list(models)
    if not models:
        raise MixedModels("no models given")
    first = models[0]
    if first.b.shape[0] != 2:
        raise DimensionMismatch("cuts are defined for k=2 response spaces")
    for q in models[1:]:
        if (
            abs(q.tau - first.tau) > 1e-12
            or q.n != first.n
            or q.c.shape != first.c.shape
            or q.b.shape != first.b.shape
        ):
            raise MixedModels("models disagree on (tau, n, p)")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != first.c.shape[0]:
        raise DimensionMismatch(
            f"x0 has {x0.shape[0]} coordinates, models have {first.c.shape[0]}"
        )
    H = np.array([(*q.b, float(q.c @ x0 + q.a)) for q in models])
    return intersect_halfplanes_2d(H, method="eager")


@dataclass(frozen=True)
class CoverageDiagnostic:
    """Global and binned lower-halfspace fractions against tau."""

    tau: float
    global_fraction: float
    deviations: tuple
    bin_edges: tuple
    bin_counts: tuple

    def binomial_scale(self) -> tuple:
        """Per-bin std-dev scale sqrt(tau (1-tau) / n_bin)."""
        return tuple(
            float(np.sqrt(self.tau * (1.0 - self.tau) / c)) for c in self.bin_counts
        )


def coverage_diagnostic(
    rp: RegressionProblem, q: RegressionQuantile, bins: int
) -> CoverageDiagnostic:
    """Binned coverage deviations; a linearity check on the fit.

    Bins are equal-count quantile bins on the first regressor.  Each
    deviation is (fraction of bin strictly below the hyperplane) - tau;
    under a correct linear model every deviation is binomial noise, so
    values far beyond sqrt(tau (1-tau) / n_bin) flag curvature.
    """
    if rp.p < 2:
        raise DimensionMismatch("coverage diagnostic needs at least one regressor")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    r = (rp.Y @ q.b) - (rp.X @ q.c) - q.a
    ztol = 1e-9 * (1.0 + float(np.abs(rp.Y).max()))
    below = r < -ztol
    x1 = rp.X[:, 0]
    edges = np.quantile(x1, np.linspace(0.0, 1.0, bins + 1))
    # right-closed last bin; searchsorted puts ties of interior edges left
    idx = np.clip(np.searchsorted(edges, x1, side="right") - 1, 0, bins - 1)
    counts, devs = [], []
    for bin_ in range(bins):
        sel = idx == bin_
        n_bin = int(sel.sum())
        if n_bin < 5:
            raise TooFewPointsPerBin(
                f"bin {bin_} has {n_bin} points, need at least 5"
            )
        counts.append(n_bin)
        devs.append(float(below[sel].mean() - rp.tau))
    return CoverageDiagnostic(
        tau=rp.tau,
        global_fraction=float(below.mean()),
        deviations=tuple(devs),
        bin_edges=tuple(float(e) for e in edges),
        bin_counts=tuple(counts),
    )
