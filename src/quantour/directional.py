"""Directional quantile hyperplanes with multiplier diagnostics.

For a direction u and level tau, the hyperplane {x : b'x = a} with
b'u = 1 minimizes the total check loss of b'z_i - a.  The constraint's
Lagrange multiplier equals that optimal objective (sum convention) and
measures how far apart the mass centers on the two sides of the
hyperplane are, which is what makes it an outlier diagnostic: depth
contours ignore interior points, the multiplier does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import (
    DimensionMismatch,
    EllOutOfRange,
    EmptyHalfspace,
    QuantourError,
    SingularSystem,
)
from .geometry import Direction
# solve_qr stays bound here for the benchmark tracer; the fit solves in regression
from .qr import solve_qr, validate_tau
from .regression import _fit, _stationarity_solve

# multiplier_scan flags multipliers more than FLAG_C MADs above the median
FLAG_C = 3.0


@dataclass(frozen=True)
class QuantileHyperplane:
    """Directional quantile hyperplane {x : b'x = a}.

    tau : level in (0, 1).
    u : defining direction (unit).
    a : intercept.
    b : normal with b'u = 1; equals u + Gamma c for the canonical
        orthocomplement basis Gamma of u.
    c : coefficients of b - u in that basis, shape (k-1,).
    multiplier : Lagrange multiplier of the constraint b'u = 1; equals the
        optimal check-loss sum.
    fitted : sorted indices of the k observations on the hyperplane.
    duals : their dual weights, inside [tau-1, tau].
    n_below : observations strictly in the lower halfspace {b'z < a}.
    n_above : observations strictly above.
    """

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

    def __post_init__(self):
        for name in ("b", "c", "duals"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "fitted", tuple(int(i) for i in self.fitted))

    def residual(self, points) -> np.ndarray:
        """Signed evaluations b'x - a; negative means lower halfspace."""
        return np.asarray(points, dtype=float) @ self.b - self.a

    @property
    def n_on(self) -> int:
        return len(self.fitted)

    @property
    def counts(self) -> tuple:
        """(N_below, N_on, N_above)."""
        return (self.n_below, self.n_on, self.n_above)


def directional_quantile(cloud: PointCloud, tau: float, u) -> QuantileHyperplane:
    """Exact tau-quantile hyperplane in direction u.

    Runs ``regression._fit`` with no regressors: it solves the reduced
    quantile regression of u'z on the orthocomplement coordinates, rebuilds
    (a, b), and verifies in-solve that the Lagrange multiplier from the
    stationarity system matches the optimal objective (within 1e-7) and
    that multiplier * u = sum(psi_i z_i) holds per coordinate.

    Raises
    ------
    DegenerateTau, TauOutOfRange : bad level.
    DegenerateData : cloud not in general position for this direction.
    NoConvergence : an internal certificate failed (bug signal).
    """
    if not isinstance(u, Direction):
        u = Direction(u)
    z = cloud.points
    n, k = z.shape
    if u.k != k:
        raise DimensionMismatch(f"direction has k={u.k}, cloud has k={k}")
    if n <= k:
        raise DimensionMismatch(f"need n > k observations, got n={n}, k={k}")
    what = "cloud is degenerate along direction {u!r}"
    sol, a, d, b, mult, duals = _fit(z, np.empty((n, 0)), validate_tau(tau, n), u, what)
    return QuantileHyperplane(
        tau=tau,
        u=u,
        a=a,
        b=b,
        c=-d,
        multiplier=mult,
        fitted=sol.fitted,
        duals=duals,
        n_below=sol.n_below,
        n_above=sol.n_above,
    )


def lagrange_multiplier(h: QuantileHyperplane, cloud: PointCloud) -> float:
    """Recompute the multiplier from a hyperplane and its cloud.

    Independent of the solver's duals: the psi signs are reread from the
    hyperplane residuals before solving the stationarity system.  The
    result is nonnegative (within 1e-9) for an optimal hyperplane.
    """
    r = h.residual(cloud.points)
    ztol = 1e-9 * (1.0 + float(np.abs(cloud.points).max()))
    psi = np.where(r <= -ztol, h.tau - 1.0, h.tau)
    ones = np.ones((cloud.n, 1))
    mult, _ = _stationarity_solve(ones, cloud.points, h.u.vector, h.fitted, psi)
    if mult < -1e-9:
        raise SingularSystem(f"negative multiplier {mult:.12g} for a claimed optimum")
    return mult


def mass_center_gap(h: QuantileHyperplane, cloud: PointCloud):
    """Mass centers of the two open halfspaces and their u-gap.

    Returns (mu_plus, mu_minus, gap): the sample means of the points
    strictly above (b'z > a) and strictly below, and
    gap = u'(mu_plus - mu_minus).  With the lower halfspace holding the
    outlying mass, a large positive gap accompanies a large multiplier.

    Raises EmptyHalfspace when either open side has no observations.
    """
    r = h.residual(cloud.points)
    above = cloud.points[r > 0]
    below = cloud.points[r < 0]
    if above.shape[0] == 0 or below.shape[0] == 0:
        raise EmptyHalfspace(
            f"strict sides hold {above.shape[0]} / {below.shape[0]} points; both must be nonempty"
        )
    mu_plus = above.mean(axis=0)
    mu_minus = below.mean(axis=0)
    gap = float(h.u.vector @ (mu_plus - mu_minus))
    return mu_plus, mu_minus, gap


@dataclass(frozen=True)
class MultiplierSeries:
    """Multiplier process sampled over a list of directions.

    entries : tuple of (label, multiplier), ordered as the input
        directions; labels are polar angles for planar clouds and list
        indices otherwise.
    median, mad : robust location/scatter of the multipliers.
    flagged : indices into ``entries`` whose multiplier exceeds
        median + FLAG_C * MAD; empty when fewer than 2 entries (MAD
        undefined).
    """

    entries: tuple
    median: float
    mad: float
    flagged: tuple


def multiplier_scan(cloud: PointCloud, tau: float, directions) -> MultiplierSeries:
    """Multiplier per direction, flagging unusually large values.

    Directions pointing away from an outlying mass produce large
    multipliers, so the flagged entries localize outliers by angle: those
    more than FLAG_C = 3 MAD above the median.  Any per-direction error
    propagates with the direction recorded in its notes; no direction at
    all raises ValueError.
    """
    entries = []
    for idx, d in enumerate(directions):
        u = d if isinstance(d, Direction) else Direction(d)
        label = u.angle if u.k == 2 else float(idx)
        try:
            h = directional_quantile(cloud, tau, u)
        except QuantourError as exc:
            note = f"while scanning direction {idx} (label {label:.6g})"
            if hasattr(exc, "add_note"):
                exc.add_note(note)
            raise
        entries.append((float(label), h.multiplier))
    if not entries:
        raise ValueError("multiplier scan needs at least one direction")
    values = np.array([v for _, v in entries])
    med = float(np.median(values))
    mad = float(np.median(np.abs(values - med)))
    if values.size >= 2:
        flagged = tuple(i for i, (_, v) in enumerate(entries) if v > med + FLAG_C * mad)
    else:
        flagged = ()
    return MultiplierSeries(tuple(entries), med, mad, flagged)


def outlier_scenario(seed: int, step: int) -> PointCloud:
    """Benchmark cloud: 98 uniform points plus one receding outlier.

    98 points are drawn iid from U([-0.5, 0.5]^2) with the given seed;
    the last row is the outlier (0, 0.5 + step/4) for integer step in
    0..14.  The draw depends only on ``seed``, so different steps share
    the same base points.
    """
    step = int(step)
    if not (0 <= step <= 14):
        raise EllOutOfRange(f"step must be in 0..14, got {step}")
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.5, 0.5, size=(98, 2))
    outlier = np.array([[0.0, 0.5 + step / 4.0]])
    return PointCloud(np.vstack([base, outlier]))
