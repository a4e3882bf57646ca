"""Exact linear quantile regression by basis exchange.

The minimizer of the asymmetric absolute loss is attained at a vertex
fitting exactly p observations.  The solver walks vertex to vertex along
descent edges, choosing the step length by weighted median, and certifies
optimality through the dual weights of the fitted rows.  Everything is
deterministic: ties in entering rows break toward the smallest row index,
and optima with non-unique bases are canonicalized toward the
lexicographically smallest fitted set.

``QrProblem(...)`` copies and validates its inputs; internal callers that
ensure its checks themselves use ``QrProblem._trusted``, which does neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateDesign,
    DegenerateTau,
    DimensionMismatch,
    NoConvergence,
    SingularSystem,
    TauOutOfRange,
)

# dual weights may overshoot their box by this much before a pivot fires
DUAL_TOL = 1e-10
# duals within this of a box edge mark alternative optima (tie handling)
TIE_TOL = 1e-12
# certificate tolerances
CERT_DUAL_TOL = 1e-9
CERT_GRAD_TOL = 1e-7


def validate_tau(tau: float, n: int | None = None) -> float:
    """Check 0 < tau < 1 and, when n is given, that n*tau is not an integer."""
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise TauOutOfRange(tau)
    if n is not None and abs(n * tau - round(n * tau)) < 1e-9:
        raise DegenerateTau(tau, n)
    return tau


def check_loss(tau: float, r) -> np.ndarray:
    """Asymmetric absolute loss r * (tau - 1[r < 0]), vectorized."""
    if not (0.0 < float(tau) < 1.0):
        raise TauOutOfRange(tau)
    r = np.asarray(r, dtype=float)
    return r * (tau - (r < 0.0))


@dataclass(frozen=True)
class QrProblem:
    """Quantile regression instance.

    y : (n,) responses.
    X : (n, p) design, first column identically 1 (the intercept).
    tau : level in (0, 1) with n * tau not an integer.
    """

    y: np.ndarray
    X: np.ndarray
    tau: float

    def __post_init__(self):
        y = np.array(self.y, dtype=float).ravel()
        X = np.array(self.X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch("design matrix must be 2-D")
        n, p = X.shape
        if y.shape[0] != n:
            raise DimensionMismatch(f"y has {y.shape[0]} rows, X has {n}")
        if not (n > p >= 1):
            raise DimensionMismatch(f"need n > p >= 1, got n={n}, p={p}")
        if not (np.isfinite(y).all() and np.isfinite(X).all()):
            raise DimensionMismatch("inputs must be finite")
        if not (np.abs(X[:, 0] - 1.0) <= 1e-12).all():
            raise DimensionMismatch("first design column must be the intercept (all ones)")
        tau = validate_tau(self.tau, n)
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "tau", tau)

    @classmethod
    def _trusted(cls, y, X, tau) -> "QrProblem":
        """Instance over the caller's y, X and tau as given: no copy, no check."""
        self = object.__new__(cls)
        self.__dict__.update(y=y, X=X, tau=tau)
        return self

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class QrSolution:
    """Vertex solution with optimality certificate; solve_qr freezes its arrays.

    beta : (p,) coefficients.
    fitted : sorted row indices with zero residual (the basis), length p.
    residuals : (n,) with residuals of fitted rows set to exact zero.
    objective : sum of check losses at beta.
    duals : (p,) dual weights of the fitted rows, inside [tau-1, tau].
    psi : (n,) full subgradient weights; tau / tau-1 off the basis, duals on it.
    n_below, n_above : strict residual sign counts.
    pivots : basis exchanges performed.
    tau, ztol : level and residual tolerance of the solve; objective, n_below
        and n_above are computed from them on access (sweep probes never read them).
    """

    beta: np.ndarray
    fitted: tuple
    residuals: np.ndarray
    duals: np.ndarray
    psi: np.ndarray
    pivots: int
    tau: float
    ztol: float

    @property
    def objective(self) -> float:
        return float((self.residuals * (self.tau - (self.residuals < 0.0))).sum())

    @property
    def n_below(self) -> int:
        return int(np.count_nonzero(self.residuals <= -self.ztol))

    @property
    def n_above(self) -> int:
        return int(np.count_nonzero(self.residuals >= self.ztol))


def _lapack(gufunc, signature, message):
    """gufunc(*args) under np.linalg's error state, raising its LinAlgError.

    As a decorator, np.errstate sets the state per call (a thread-safe
    token) without building an errstate object: about 1 us less a call.
    """
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    @np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")
    def call(*args):
        return gufunc(*args, signature=signature)
    return call


# np.linalg.solve(a, b) for float (p, p) a and (p,) b, without its checks
_solve = _lapack(_umath_linalg.solve1, "dd->d", "Singular matrix")
# np.linalg.svd(a, compute_uv=False) for a float (p, p) a, without its checks
_singular_values = _lapack(_umath_linalg.svd, "d->d", "SVD did not converge")


def _stable_prefixes(values: np.ndarray, k: int):
    """Yield growing starts of ``values.argsort(kind="stable")``.

    Each yielded index array holds every index whose value is at most the
    k-th smallest, in stable ascending order.  That set is closed under
    ties (every index outside it has a larger value), so for any k it is
    exactly the head of the full stable order, and a ``cumsum`` over it has
    the full one's bits; it costs an O(m) partial selection, not an
    O(m log m) sort.  A caller that reads past one prefix gets the next,
    four times as long; the last one is the full order.
    """
    m = values.shape[0]
    while k < m:
        cut = np.partition(values, k - 1)[k - 1]
        if cut != cut:  # NaN sorts last: fewer than k numbers, sort everything
            break
        sel = (values <= cut).nonzero()[0]
        yield sel[values[sel].argsort(kind="stable")]
        if sel.size == m:
            return
        k = 4 * sel.size
    yield values.argsort(kind="stable")


def _initial_basis(y: np.ndarray, X: np.ndarray, requested) -> np.ndarray:
    """Starting basis: caller's rows when usable, else an OLS-guided pick.

    The cold pick takes the first p linearly independent rows in stable
    order of absolute OLS residual; it sorts only as far as it reads.
    """
    n, p = X.shape
    if requested is not None:
        B = np.asarray(list(requested), dtype=int)
        if B.shape[0] == p and len(set(rows := B.tolist())) == p and all(0 <= i < n for i in rows):
            # reject singular warm starts, fall through to the cold start;
            # np.linalg.matrix_rank's rule: every singular value above
            # max * p * eps (LAPACK returns them in descending order)
            S = _singular_values(X[B])
            if S[-1] > S[0] * (p * np.finfo(float).eps):
                return B.copy()
    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    r0 = np.abs(y - X @ beta0)
    chosen: list[int] = []
    ortho: list[np.ndarray] = []
    seen = 0
    for order in _stable_prefixes(r0, p):
        # each prefix extends the last one: read only the new rows
        for idx in order[seen:]:
            v = X[idx].astype(float)
            for w in ortho:
                v = v - (v @ w) * w
            norm = float(np.linalg.norm(v))
            if norm > 1e-9 * (1.0 + float(np.linalg.norm(X[idx]))):
                ortho.append(v / norm)
                chosen.append(int(idx))
                if len(chosen) == p:
                    return np.array(chosen, dtype=int)
        seen = order.size
    raise DegenerateDesign(f"design matrix is rank deficient (rank < {p})")


# breakpoints the first prefix sorts past the weight estimate, which the
# turning rank exceeded by at most 4 on the regression cuts (seeds 3, 11)
_LINE_SEARCH_PREFIX = 64


def _off_basis_gradient(X, psi, in_basis):
    """X_N' psi_N over the rows outside the basis.

    X_N and psi_N are the runs of rows between the sorted basis rows, put
    end to end: the same contiguous arrays as ``X[~in_basis]`` and
    ``psi[~in_basis]``, so the product has the same bits.  p + 1 block
    copies replace a row-by-row gather, about three times faster at
    n = 5000.
    """
    ends = in_basis.nonzero()[0].tolist()
    starts = [0] + [e + 1 for e in ends]
    ends.append(psi.shape[0])
    runs = [slice(a, b) for a, b in zip(starts, ends)]
    return np.concatenate([X[r] for r in runs]).T @ np.concatenate([psi[r] for r in runs])


def _eligible(r, s, in_basis, ztol):
    """``np.where(r > -ztol, s > 0.0, s < 0.0) & ~in_basis``, without np.where.

    Rows on or above the plane cross when the edge lowers them, rows below
    it when it raises them.  s > 0 and s < 0 are never both true, so their
    xor is "s nonzero, not NaN"; masked by r > -ztol and xor-ed with s < 0
    again, it is s > 0 where r > -ztol and s < 0 elsewhere, NaN r included:
    np.where's own comparisons, so the same mask on every float.
    """
    below = s < 0.0
    eligible = s > 0.0
    eligible ^= below
    eligible &= r > -ztol
    eligible ^= below
    eligible &= ~in_basis
    return eligible


def _line_search(r, s, in_basis, ztol, slope0):
    """Weighted-median step along an edge.

    Returns (t_star, entering_row) or (None, None) when the objective is
    unbounded below along the edge (a rank defect).  Breakpoints are the
    positive residual-crossing times r_i / s_i; crossing row i raises the
    slope by |s_i|.  Zero-residual rows moving toward the negative side
    cross at t = 0, which makes degenerate pivots come out naturally.

    The walk visits breakpoints in (t, row) order and stops at the first
    one where the running slope slope0 + |s_1| + ... turns non-negative,
    so only a prefix of that order is sorted (``_stable_prefixes``).  The
    running slope is a ``cumsum``, which adds in sequence, so every partial
    sum, and the (t, row) found, is the same for any first prefix.  It
    holds the weight the slope must gain, -slope0, in mean steps sum|s| / m,
    plus ``_LINE_SEARCH_PREFIX``; if the slope does not turn inside, it
    widens fourfold, finally to every breakpoint, which a NaN or infinite
    estimate sorts at once.
    """
    rows = _eligible(r, s, in_basis, ztol).nonzero()[0]
    m = rows.size
    if m == 0:
        return None, None
    steps = s[rows]
    t = r[rows]
    t /= steps
    np.maximum(t, 0.0, out=t)  # zero-residual rows cross immediately
    steps = np.abs(steps, out=steps)
    need = -float(slope0) * m / float(steps.sum())
    k = int(need) + _LINE_SEARCH_PREFIX if 0.0 <= need < m else m
    for order in _stable_prefixes(t, k):
        slope = steps[order]
        slope[0] += slope0
        turned = np.cumsum(slope, out=slope) >= -1e-15
        j = turned.argmax()
        if turned[j]:
            i = order[j]
            return float(t[i]), int(rows[i])
    return None, None


def solve_qr(problem: QrProblem, initial_basis=None) -> QrSolution:
    """Minimize the check loss exactly; see module docstring.

    Parameters
    ----------
    problem : QrProblem
    initial_basis : optional sequence of p row indices to warm start from.

    Raises
    ------
    DegenerateDesign
        Rank-deficient design, or a non-fitted observation with zero
        residual at the optimum (no unique p-point vertex); the latter
        carries the sorted basis and those rows as ``indices``.
    NoConvergence
        More than max(500, 50 n) pivots, or an optimality certificate failed.
    """
    y, X, tau = problem.y, problem.X, problem.tau
    n, p = X.shape
    max_pivots = max(500, 50 * n)
    ztol = 1e-10 * (1.0 + float(np.abs(y).max()))

    B = _initial_basis(y, X, initial_basis)
    in_basis = np.zeros(n, dtype=bool)
    in_basis[B] = True

    pivots = 0
    use_bland = False
    while True:
        beta, r, psi, v = _vertex(y, X, tau, B, in_basis, ztol)
        # test and choose on Python floats: float64 rounding, no optimum on NaN
        vl = v.tolist()
        if not any(x - tau > DUAL_TOL or (tau - 1.0) - x > DUAL_TOL for x in vl):
            break
        if pivots >= max_pivots:
            raise NoConvergence(f"no optimum after {pivots} pivots")
        over = [x - tau for x in vl]
        under = [(tau - 1.0) - x for x in vl]
        # over and under are NaN together, so max keeps NaN as np.maximum does
        amount = [max(a, b) for a, b in zip(over, under)]

        if use_bland:
            violated = [i for i, a in enumerate(amount) if a > DUAL_TOL]
            pos = min(violated, key=B.tolist().__getitem__)
        else:
            # np.argmax's choice: the first NaN, else the first maximum
            nans = [i for i, a in enumerate(amount) if a != a]
            pos = nans[0] if nans else amount.index(max(amount))
        sigma = -1.0 if over[pos] > under[pos] else 1.0
        e = np.zeros(p)
        e[pos] = sigma
        delta = _solve(X[B], e)
        s = X @ delta
        slope0 = (tau - vl[pos]) if sigma < 0 else (vl[pos] + 1.0 - tau)
        t_star, enter = _line_search(r, s, in_basis, ztol, slope0)
        if enter is None:
            raise DegenerateDesign("objective unbounded along an edge (rank defect)")
        in_basis[B[pos]] = False
        in_basis[enter] = True
        B[pos] = enter
        use_bland = t_star <= 1e-12
        pivots += 1

    B, beta, r, psi, v, in_basis = _canonicalize(y, X, tau, B, ztol, (beta, r, psi, v, in_basis))

    # certificates: dual box, zero gradient, and vertex uniqueness; NaN fails both
    if not all(tau - 1.0 - CERT_DUAL_TOL <= x <= tau + CERT_DUAL_TOL for x in v.tolist()):
        raise NoConvergence("dual feasibility certificate failed")
    psi_full = psi.copy()
    psi_full[B] = v
    grad = X.T @ psi_full
    scale = 1.0 + float(np.abs(X).max())
    if not float(np.abs(grad).max()) <= CERT_GRAD_TOL * scale:
        raise NoConvergence("zero-gradient certificate failed")
    stray = ((np.abs(r) < ztol) & ~in_basis).nonzero()[0]
    if stray.size:
        raise DegenerateDesign(
            f"rows {stray.tolist()} lie on the fitted hyperplane but are not in the "
            "basis; general position fails",
            indices=sorted(B.tolist()) + stray.tolist(),
        )

    order = B.argsort(kind="stable")
    duals = v[order]
    for arr in (beta, r, duals, psi_full):  # this call's own: freeze, not copy
        arr.setflags(write=False)
    return QrSolution(
        beta=beta,
        fitted=tuple(B[order].tolist()),
        residuals=r,
        duals=duals,
        psi=psi_full,
        pivots=pivots,
        tau=tau,
        ztol=ztol,
    )


def _vertex(y, X, tau, B, in_basis, ztol):
    """State (beta, r, psi, v) of the vertex fitting rows B.

    beta fits y on X_B, r are the residuals (0 on B), psi their check-loss
    slopes, and v solves X_B' v = -X_N' psi_N for the fitted-row duals.
    psi = tau - (r <= -ztol) forms tau - 1.0 or tau - 0.0 from the same
    comparison, the values of ``np.where(r <= -ztol, tau - 1.0, tau)``.
    """
    XB = X[B]
    try:
        beta = _solve(XB, y[B])
        r = y - X @ beta
        r[B] = 0.0
        psi = tau - (r <= -ztol)
        v = _solve(XB.T, -_off_basis_gradient(X, psi, in_basis))
    except np.linalg.LinAlgError:
        raise DegenerateDesign("fitted rows became singular during exchange")
    return beta, r, psi, v


def _canonicalize(y, X, tau, B, ztol, current):
    """Among tied optimal bases, walk to the lexicographically smallest.

    A dual weight sitting exactly on the box edge marks a zero-slope edge
    whose other endpoint is an equally optimal vertex; move there whenever
    it has a smaller sorted fitted set.  ``current`` is the exchange
    loop's final (beta, r, psi, v, mask) for B, exactly what ``_vertex``
    would recompute.
    """
    n, p = X.shape
    beta, r, psi, v, mask = current
    for _ in range(16):
        best = None
        for pos, vp in enumerate(v.tolist()):
            if abs(vp - tau) <= TIE_TOL:
                sigma = -1.0
            elif abs(vp - (tau - 1.0)) <= TIE_TOL:
                sigma = 1.0
            else:
                continue
            e = np.zeros(p)
            e[pos] = sigma
            delta = _solve(X[B], e)
            s = X @ delta
            t_star, enter = _line_search(r, s, mask, ztol, 0.0)
            if enter is None or t_star <= 1e-12:
                continue
            cand = B.copy()
            cand[pos] = enter
            key = tuple(sorted(cand.tolist()))
            if key < tuple(sorted(B.tolist())) and (best is None or key < best[0]):
                best = (key, cand)
        if best is None:
            break
        B = best[1]
        mask = np.zeros(n, dtype=bool)
        mask[B] = True
        beta, r, psi, v = _vertex(y, X, tau, B, mask, ztol)
    return B, beta, r, psi, v, mask


def dual_weights(solution: QrSolution, problem: QrProblem) -> np.ndarray:
    """Recompute the fitted-row dual weights from scratch.

    Solves X_B' v = -X_N' psi_N with psi taken from the residual signs of
    ``solution``.  Useful as an independent certificate check.
    """
    B = np.asarray(solution.fitted, dtype=int)
    mask = np.zeros(problem.n, dtype=bool)
    mask[B] = True
    r = solution.residuals
    psi = np.where(r < 0.0, problem.tau - 1.0, problem.tau)
    g = _off_basis_gradient(problem.X, psi, mask)
    try:
        return _solve(problem.X[B].T, -g)
    except np.linalg.LinAlgError:
        raise SingularSystem("fitted block is singular")
