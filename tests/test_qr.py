"""Exact quantile regression core: exchange solver vs vertex enumeration.

The exchange's line search and cold start sort only the prefix they read.
``reference_line_search`` and ``reference_initial_basis`` below are the
full-sort versions they replaced, kept verbatim as oracles: the solver
must take the same pivot path, bit for bit.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantour import (
    DegenerateDesign,
    DegenerateTau,
    DimensionMismatch,
    QrProblem,
    TauOutOfRange,
    check_loss,
    dual_weights,
    solve_qr,
    validate_tau,
)
from quantour import qr as qr_module

RNG = np.random.default_rng


def oracle_objective(y, X, tau):
    """Independent optimum: try every p-row vertex, keep the best loss.

    Deliberately avoids package helpers so it cannot share a bug with
    the solver under test.
    """
    n, p = X.shape
    best = np.inf
    for rows in combinations(range(n), p):
        sub = X[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        beta = np.linalg.solve(sub, y[list(rows)])
        r = y - X @ beta
        obj = float(np.sum(r * (tau - (r < 0.0))))
        best = min(best, obj)
    return best


def random_instance(rng, n_max=12, p_max=3):
    n = int(rng.integers(4, n_max + 1))
    p = int(rng.integers(1, min(p_max, n - 1) + 1))
    X = np.column_stack([np.ones(n)] + [rng.standard_normal(n) for _ in range(p - 1)])
    y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    # keep n * tau off the integer lattice
    tau = float(rng.uniform(0.05, 0.95))
    if abs(n * tau - round(n * tau)) < 1e-3:
        tau += 1.7e-3
    return y, X, tau


def test_validate_tau_bounds():
    with pytest.raises(TauOutOfRange):
        validate_tau(0.0)
    with pytest.raises(TauOutOfRange):
        validate_tau(1.0)
    with pytest.raises(TauOutOfRange):
        validate_tau(-0.2)
    assert validate_tau(0.25) == 0.25


def test_validate_tau_integer_lattice():
    with pytest.raises(DegenerateTau) as err:
        validate_tau(0.25, n=8)
    assert err.value.nearest == ((2 - 0.5) / 8, (2 + 0.5) / 8)
    # off-lattice passes with the same n
    assert validate_tau(0.26, n=8) == 0.26


def test_check_loss_values():
    r = np.array([-2.0, 0.0, 3.0])
    got = check_loss(0.3, r)
    assert np.allclose(got, [2.0 * 0.7, 0.0, 3.0 * 0.3])
    with pytest.raises(TauOutOfRange):
        check_loss(1.2, r)


def test_problem_requires_intercept_column():
    y = np.arange(4.0)
    X = np.column_stack([np.arange(4.0), np.ones(4)])
    with pytest.raises(DimensionMismatch):
        QrProblem(y, X, 0.3)


def test_sample_quantile_special_case():
    # p = 1: the tau-quantile hyperplane of a scalar sample is its
    # ceil(n tau)-th order statistic
    y = np.array([3.0, 1.0, 2.0])
    sol = solve_qr(QrProblem(y, np.ones((3, 1)), 0.4))
    assert sol.beta[0] == 2.0
    assert abs(sol.objective - 1.0) <= 1e-12
    assert sol.fitted == (2,)
    assert sol.n_below == 1 and sol.n_above == 1


def test_two_point_line():
    # p = 2 through 2 of 3 points
    y = np.array([0.0, 1.0, 5.0])
    X = np.column_stack([np.ones(3), np.array([0.0, 1.0, 2.0])])
    sol = solve_qr(QrProblem(y, X, 0.7))
    # tau = 0.7 puts weight above: optimal line through (0,0) and (2,5)
    assert sol.fitted == (0, 2)
    assert np.allclose(sol.beta, [0.0, 2.5])
    assert abs(sol.objective - check_loss(0.7, np.array([1.0 - 2.5])).sum()) <= 1e-12


def test_matches_enumeration_oracle():
    rng = RNG(20)
    for _ in range(300):
        y, X, tau = random_instance(rng)
        sol = solve_qr(QrProblem(y, X, tau))
        assert abs(sol.objective - oracle_objective(y, X, tau)) <= 1e-9 * (
            1.0 + abs(sol.objective)
        )


def test_dual_box_and_coverage():
    rng = RNG(21)
    for _ in range(300):
        y, X, tau = random_instance(rng)
        n, p = X.shape
        sol = solve_qr(QrProblem(y, X, tau))
        assert np.all(sol.duals <= tau + 1e-10)
        assert np.all(sol.duals >= tau - 1.0 - 1e-10)
        assert sol.n_below <= n * tau <= sol.n_below + p
        assert sol.n_below + sol.n_above + p == n
        # psi matches tau / tau - 1 off the basis
        off = np.setdiff1d(np.arange(n), sol.fitted)
        expect = np.where(sol.residuals[off] > 0, tau, tau - 1.0)
        assert np.allclose(sol.psi[off], expect)


def test_zero_gradient_certificate():
    rng = RNG(22)
    for _ in range(100):
        y, X, tau = random_instance(rng)
        sol = solve_qr(QrProblem(y, X, tau))
        grad = X.T @ sol.psi
        assert float(np.abs(grad).max()) <= 1e-7 * (1.0 + float(np.abs(X).max()))


def test_residuals_exact_zero_on_fitted_rows():
    rng = RNG(23)
    y, X, tau = random_instance(rng, n_max=10)
    sol = solve_qr(QrProblem(y, X, tau))
    assert all(sol.residuals[i] == 0.0 for i in sol.fitted)


def test_scale_equivariance():
    rng = RNG(24)
    y, X, tau = random_instance(rng)
    base = solve_qr(QrProblem(y, X, tau))
    scaled = solve_qr(QrProblem(3.0 * y, X, tau))
    assert np.allclose(scaled.beta, 3.0 * base.beta, atol=1e-10)
    assert abs(scaled.objective - 3.0 * base.objective) <= 1e-9


def test_warm_start_agrees_with_cold():
    rng = RNG(25)
    for _ in range(40):
        y, X, tau = random_instance(rng)
        cold = solve_qr(QrProblem(y, X, tau))
        n, p = X.shape
        start = tuple(range(p))
        if abs(np.linalg.det(X[list(start)])) < 1e-8:
            continue
        warm = solve_qr(QrProblem(y, X, tau), initial_basis=start)
        assert abs(cold.objective - warm.objective) <= 1e-9 * (1 + abs(cold.objective))
        assert warm.fitted == cold.fitted


def test_deterministic_repeat():
    rng = RNG(26)
    y, X, tau = random_instance(rng)
    a = solve_qr(QrProblem(y, X, tau))
    b = solve_qr(QrProblem(y, X, tau))
    assert a.fitted == b.fitted
    assert np.array_equal(a.beta, b.beta)
    assert a.objective == b.objective


def test_rank_deficient_design_raises():
    y = np.arange(5.0)
    x = np.linspace(0.0, 1.0, 5)
    X = np.column_stack([np.ones(5), x, 2.0 * x])  # third column dependent
    with pytest.raises(DegenerateDesign):
        solve_qr(QrProblem(y, X, 0.33))


def test_dual_weights_recomputation():
    rng = RNG(27)
    y, X, tau = random_instance(rng)
    prob = QrProblem(y, X, tau)
    sol = solve_qr(prob)
    v = dual_weights(sol, prob)
    assert np.allclose(v, sol.duals, atol=1e-9)


def reference_line_search(r, s, in_basis, ztol, slope0):
    """Full-sort weighted-median step: lexsort every breakpoint, then walk."""
    positive = r >= ztol
    zeroish = np.abs(r) < ztol
    eligible = (~in_basis) & (
        ((positive | zeroish) & (s > 0.0)) | ((r <= -ztol) & (s < 0.0))
    )
    rows = np.nonzero(eligible)[0]
    if rows.size == 0:
        return None, None
    t = r[rows] / s[rows]
    t = np.maximum(t, 0.0)  # zero-residual rows cross immediately
    order = np.lexsort((rows, t))
    slope = slope0
    for oi in order:
        slope += abs(s[rows[oi]])
        if slope >= -1e-15:
            return float(t[oi]), int(rows[oi])
    return None, None


def reference_initial_basis(y, X, requested):
    """Cold start by a full stable argsort of the absolute OLS residuals."""
    n, p = X.shape
    if requested is not None:
        B = np.asarray(list(requested), dtype=int)
        if B.shape[0] == p and len(set(B.tolist())) == p and ((0 <= B) & (B < n)).all():
            S = np.linalg.svd(X[B], compute_uv=False)
            if S[-1] > S[0] * (p * np.finfo(float).eps):
                return B.copy()
    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    r0 = np.abs(y - X @ beta0)
    order = np.argsort(r0, kind="stable")
    chosen = []
    ortho = []
    for idx in order:
        v = X[idx].astype(float)
        for w in ortho:
            v = v - (v @ w) * w
        norm = float(np.linalg.norm(v))
        if norm > 1e-9 * (1.0 + float(np.linalg.norm(X[idx]))):
            ortho.append(v / norm)
            chosen.append(int(idx))
            if len(chosen) == p:
                return np.array(chosen, dtype=int)
    raise DegenerateDesign(f"design matrix is rank deficient (rank < {p})")


def reference_off_basis_gradient(X, psi, in_basis):
    """X_N' psi_N by boolean-mask indexing."""
    return X[~in_basis].T @ psi[~in_basis]


def assert_line_search_matches(r, s, in_basis, ztol, slope0):
    got = qr_module._line_search(r, s, in_basis, ztol, slope0)
    want = reference_line_search(r, s, in_basis, ztol, slope0)
    assert got == want
    return want


def test_stable_prefixes_are_heads_of_the_stable_order():
    rng = RNG(40)
    values = rng.integers(0, 7, size=300).astype(float)
    full = values.argsort(kind="stable")
    for k in (1, 2, 5, 64, 299, 300, 1000):
        prefixes = list(qr_module._stable_prefixes(values, k))
        for order in prefixes:
            assert order.size >= min(k, values.size)
            assert np.array_equal(order, full[: order.size])
        assert np.array_equal(prefixes[-1], full)
        # each step widens fourfold until one covers every value
        assert all(a.size < b.size for a, b in zip(prefixes, prefixes[1:]))


def test_line_search_matches_reference_on_seeded_inputs():
    rng = RNG(41)
    ztol = 1e-10
    for trial in range(200):
        n = int(rng.integers(2, 3000))
        r = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        s = rng.standard_normal(n)
        # exact zeros, exactly +-ztol residuals, zero and repeated slopes
        r[rng.random(n) < 0.05] = 0.0
        r[rng.random(n) < 0.03] = ztol
        r[rng.random(n) < 0.03] = -ztol
        s[rng.random(n) < 0.05] = 0.0
        s[rng.random(n) < 0.1] = 0.5
        in_basis = rng.random(n) < 0.01
        total = float(np.abs(s).sum())
        for frac in (0.0, 0.01, 0.1, 0.5, 0.9, 0.999, 1.0, 2.0):
            assert_line_search_matches(r, s, in_basis, ztol, -frac * total)


def test_line_search_ties_straddle_the_partition_value():
    # 500 rows share t = 1 around the 64th smallest breakpoint; the walk
    # must take the smallest row among them, as the full lexsort does
    rng = RNG(42)
    n = 2000
    s = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    t = rng.uniform(0.0, 10.0, size=n)
    tied = rng.choice(n, size=500, replace=False)
    t[tied] = 1.0
    t[:30] = rng.uniform(0.0, 0.5, size=30)
    r = t * s
    r[tied] = s[tied]  # exactly t = 1.0
    in_basis = np.zeros(n, dtype=bool)
    assert np.count_nonzero(np.abs(r / s) <= 1.0) > 64
    hits = set()
    for slope0 in np.linspace(-0.0, -float(np.abs(s).sum()), 97):
        hits.add(assert_line_search_matches(r, s, in_basis, 1e-10, slope0)[0])
    assert 1.0 in hits


def test_line_search_zero_residual_rows_at_ztol():
    ztol = 0.25
    r = np.array([ztol, -ztol, ztol, -ztol, 0.0, -0.0, 0.1, -0.1, 3.0, -3.0])
    for s_val in (-1.0, 1.0):
        for slope0 in (-0.5, -1.5, -3.0, -100.0):
            s = np.full(r.size, s_val)
            assert_line_search_matches(r, s, np.zeros(r.size, dtype=bool), ztol, slope0)
    s = np.array([1.0, -1.0, -1.0, 1.0, 2.0, -2.0, 0.5, -0.5, 1.0, -1.0])
    for slope0 in (-0.5, -2.5, -6.0, -10.0):
        assert_line_search_matches(r, s, np.zeros(r.size, dtype=bool), ztol, slope0)


def test_line_search_without_crossing_returns_none():
    rng = RNG(43)
    r = rng.standard_normal(200)
    s = rng.standard_normal(200)
    in_basis = np.zeros(200, dtype=bool)
    # nothing eligible: every row fitted, or every slope zero
    assert assert_line_search_matches(r, s, ~in_basis, 1e-10, -1.0) == (None, None)
    assert assert_line_search_matches(r, 0.0 * s, in_basis, 1e-10, -1.0) == (None, None)
    # eligible rows, but their slopes never make up the deficit
    deficit = -2.0 * float(np.abs(s).sum())
    assert assert_line_search_matches(r, s, in_basis, 1e-10, deficit) == (None, None)


def test_line_search_turns_at_the_slope_tolerance():
    # a step of 1e-300 is absorbed, so the slope sits exactly at -1e-15
    r, s = np.array([0.5e-300, 2.0]), np.array([1e-300, 1.0])
    got = assert_line_search_matches(r, s, np.zeros(2, dtype=bool), 1e-10, -1e-15)
    assert got == (0.5, 0)


@pytest.mark.parametrize("n, cross", [(1000, 100), (1000, 301), (1000, 999), (5000, 2000)])
def test_line_search_widens_past_the_first_prefix(n, cross):
    # unit slopes at distinct times: the walk turns at the cross-th breakpoint
    rng = RNG(44)
    r = rng.permutation(n).astype(float) + 1.0
    s = np.ones(n)
    got = assert_line_search_matches(r, s, np.zeros(n, dtype=bool), 1e-10, -(cross - 0.5))
    assert got == (float(cross), int(np.flatnonzero(r == cross)[0]))
    assert cross > qr_module._LINE_SEARCH_PREFIX


ZTOL = 0.25
R_VALUES = [-3.0, -1.0, -ZTOL, -0.1, -0.0, 0.0, 0.1, ZTOL, 0.5, 1.0, 2.0, 3.5]
S_VALUES = [-2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 3.0]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(R_VALUES), st.sampled_from(S_VALUES), st.booleans()),
        min_size=1,
        max_size=40,
    ),
    st.floats(-30.0, 0.0),
    st.integers(1, 8),
)
def test_line_search_matches_reference_hypothesis(rows, slope0, k):
    r, s, fitted = (np.array(col) for col in zip(*rows))
    in_basis = fitted.astype(bool) & (np.arange(r.size) % 3 == 0)
    # a small first prefix makes the selection widen on short inputs
    with mock.patch.object(qr_module, "_LINE_SEARCH_PREFIX", k):
        assert_line_search_matches(r, s, in_basis, ZTOL, slope0)


def regression_design(rng, n, p):
    X = np.column_stack([np.ones(n), rng.uniform(0.0, 1.0, size=(n, p - 1))])
    y = X @ rng.standard_normal(p) + rng.standard_normal(n) * (0.5 + 0.5 * X[:, 1])
    return y, X


def solve_pair(problem, monkeypatch):
    """solve_qr as shipped, then with the reference steps patched in."""
    fast = solve_qr(problem)
    with monkeypatch.context() as m:
        m.setattr(qr_module, "_line_search", reference_line_search)
        m.setattr(qr_module, "_initial_basis", reference_initial_basis)
        m.setattr(qr_module, "_off_basis_gradient", reference_off_basis_gradient)
        slow = solve_qr(problem)
    return fast, slow


def test_cold_start_matches_reference():
    rng = RNG(45)
    for p in (3, 4, 5):
        # few distinct integer rows and responses: tied residuals, and
        # the smallest ones fall on dependent rows
        X = np.column_stack([np.ones(400), rng.integers(0, 3, size=(400, p - 1))])
        y = rng.integers(0, 4, size=400).astype(float)
        assert np.array_equal(
            qr_module._initial_basis(y, X, None), reference_initial_basis(y, X, None)
        )
        # rows fitted exactly by the OLS plane span only a line
        X = np.column_stack([np.ones(400), rng.standard_normal((400, p - 1))])
        X[:100, 1:] = np.outer(rng.standard_normal(100), rng.standard_normal(p - 1))
        y = rng.standard_normal(400)
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        y[:100] = X[:100] @ beta
        assert np.array_equal(
            qr_module._initial_basis(y, X, None), reference_initial_basis(y, X, None)
        )


@pytest.mark.parametrize("n, p, seed", [(2000, 3, 50), (2000, 4, 51), (2000, 5, 52), (5000, 5, 53)])
def test_prefix_selection_keeps_the_pivot_path(n, p, seed, monkeypatch):
    rng = RNG(seed)
    y, X = regression_design(rng, n, p)
    for tau in (0.20005, 0.5003, 0.8001)[: 1 if n > 2000 else 3]:
        fast, slow = solve_pair(QrProblem(y, X, tau), monkeypatch)
        assert fast.fitted == slow.fitted
        assert fast.pivots == slow.pivots > 0
        for name in ("beta", "duals", "residuals", "psi"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        assert fast.objective == slow.objective


# ------------------------------------------ the former solve_qr, verbatim
# solve_qr now tests optimality and dual ties on Python floats, computes
# the objective inline and freezes its own arrays instead of copying them.
# These are the exchange loop, tie walk and output they replace, kept as
# they were; both versions look up the same _vertex, so a patched _vertex
# feeds both the same dual weights, NaN included.

def reference_solve_qr(problem, initial_basis=None, max_pivots=None):
    y, X, tau = problem.y, problem.X, problem.tau
    n, p = X.shape
    if max_pivots is None:
        max_pivots = max(500, 50 * n)
    ztol = 1e-10 * (1.0 + float(np.abs(y).max()))

    B = qr_module._initial_basis(y, X, initial_basis)
    in_basis = np.zeros(n, dtype=bool)
    in_basis[B] = True

    pivots = 0
    use_bland = False
    while True:
        beta, r, psi, v = qr_module._vertex(y, X, tau, B, in_basis, ztol)
        over = v - tau
        under = (tau - 1.0) - v
        amount = np.maximum(over, under)
        violated = amount > qr_module.DUAL_TOL
        if not violated.any():
            break
        if pivots >= max_pivots:
            raise qr_module.NoConvergence(f"no optimum after {pivots} pivots")

        if use_bland:
            slots = np.nonzero(violated)[0]
            pos = int(slots[np.argmin(B[slots])])
        else:
            pos = int(np.argmax(amount))
        sigma = -1.0 if over[pos] > under[pos] else 1.0
        e = np.zeros(p)
        e[pos] = sigma
        delta = np.linalg.solve(X[B], e)
        s = X @ delta
        slope0 = (tau - v[pos]) if sigma < 0 else (v[pos] + 1.0 - tau)
        t_star, enter = qr_module._line_search(r, s, in_basis, ztol, slope0)
        if enter is None:
            raise DegenerateDesign("objective unbounded along an edge (rank defect)")
        in_basis[B[pos]] = False
        in_basis[enter] = True
        B[pos] = enter
        use_bland = t_star <= 1e-12
        pivots += 1

    B, beta, r, psi, v, in_basis = reference_canonicalize(
        y, X, tau, B, ztol, (beta, r, psi, v, in_basis)
    )

    if (v > tau + qr_module.CERT_DUAL_TOL).any() or (v < tau - 1.0 - qr_module.CERT_DUAL_TOL).any():
        raise qr_module.NoConvergence("dual feasibility certificate failed")
    psi_full = psi.copy()
    psi_full[B] = v
    grad = X.T @ psi_full
    scale = 1.0 + float(np.abs(X).max())
    if float(np.abs(grad).max()) > qr_module.CERT_GRAD_TOL * scale:
        raise qr_module.NoConvergence("zero-gradient certificate failed")
    stray = ((np.abs(r) < ztol) & ~in_basis).nonzero()[0]
    if stray.size:
        raise DegenerateDesign(
            f"rows {stray.tolist()} lie on the fitted hyperplane but are not in the "
            "basis; general position fails"
        )

    objective = float(check_loss(tau, r).sum())
    order = B.argsort(kind="stable")
    return dict(
        beta=np.array(beta, dtype=float),
        fitted=tuple(int(i) for i in B[order].tolist()),
        residuals=np.array(r, dtype=float),
        objective=objective,
        duals=np.array(v[order], dtype=float),
        psi=np.array(psi_full, dtype=float),
        n_below=int(np.count_nonzero(r <= -ztol)),
        n_above=int(np.count_nonzero(r >= ztol)),
        pivots=pivots,
    )


def reference_canonicalize(y, X, tau, B, ztol, current):
    n, p = X.shape
    beta, r, psi, v, mask = current
    for _ in range(16):
        best = None
        for pos in range(p):
            if abs(v[pos] - tau) <= qr_module.TIE_TOL:
                sigma = -1.0
            elif abs(v[pos] - (tau - 1.0)) <= qr_module.TIE_TOL:
                sigma = 1.0
            else:
                continue
            e = np.zeros(p)
            e[pos] = sigma
            delta = np.linalg.solve(X[B], e)
            s = X @ delta
            t_star, enter = qr_module._line_search(r, s, mask, ztol, 0.0)
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
        beta, r, psi, v = qr_module._vertex(y, X, tau, B, mask, ztol)
    return B, beta, r, psi, v, mask


def outcome(solve, *args, **kwargs):
    """Every output field as bytes, or the exception's type and message."""
    try:
        sol = solve(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    fields = sol if isinstance(sol, dict) else sol.__dict__
    return {
        k: (np.asarray(f).dtype, np.asarray(f).tobytes()) if isinstance(f, np.ndarray) else f
        for k, f in fields.items()
    }


def test_solve_qr_matches_former_loop_and_output():
    rng = RNG(46)
    for n, p in ((7, 2), (40, 2), (300, 3), (2000, 5)):
        for tau in (0.1013, 0.5003, 0.8997):
            y, X = regression_design(rng, n, p)
            problem = QrProblem(y, X, tau)
            want = outcome(reference_solve_qr, problem)
            assert outcome(solve_qr, problem) == want
            assert isinstance(want, dict)
            start = list(rng.choice(n, p, replace=False))
            assert outcome(solve_qr, problem, start) == outcome(reference_solve_qr, problem, start)
    # tied optima: integer data, so _canonicalize walks between bases
    for seed in range(6):
        y, X, tau = random_instance(RNG(460 + seed), n_max=30, p_max=3)
        problem = QrProblem(np.round(2 * y), X.round(), tau)
        assert outcome(solve_qr, problem) == outcome(reference_solve_qr, problem)


def test_solution_arrays_are_frozen_results_of_the_call():
    y, X = regression_design(RNG(47), 200, 3)
    sol = solve_qr(QrProblem(y, X, 0.3001))
    arrays = [sol.beta, sol.residuals, sol.duals, sol.psi]
    for arr in arrays:
        assert arr.dtype == float and not arr.flags.writeable
    for a, b in combinations(arrays + [y, X], 2):
        assert not np.shares_memory(a, b)


def test_trusted_problem_neither_copies_nor_checks():
    y, X = regression_design(RNG(48), 50, 2)
    trusted = QrProblem._trusted(y, X, 0.3001)
    assert trusted.y is y and trusted.X is X and trusted.tau == 0.3001
    assert outcome(solve_qr, trusted) == outcome(solve_qr, QrProblem(y, X, 0.3001))
    # the public constructor still copies and checks
    public = QrProblem(y, X, 0.3001)
    assert not np.shares_memory(public.X, X) and not public.X.flags.writeable
    y[3] = np.inf
    with pytest.raises(DimensionMismatch, match="inputs must be finite"):
        QrProblem(y, X, 0.3001)


def dual_edges(tau):
    """Dual weights exactly on and just past the DUAL_TOL and TIE_TOL edges."""
    out = []
    for edge in (tau, tau - 1.0):
        sign = 1.0 if edge == tau else -1.0
        for tol in (qr_module.DUAL_TOL, qr_module.TIE_TOL):
            x = edge + sign * tol
            out += [x, np.nextafter(x, sign * np.inf), np.nextafter(x, -sign * np.inf)]
        out.append(edge)
    return out


@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, 0.0, -0.0, "edges"])
@pytest.mark.parametrize("warm", [False, True])
def test_optimality_and_tie_tests_mirror_numpy(special, warm, monkeypatch):
    # dual weights that are NaN, infinite, or on the DUAL_TOL and TIE_TOL
    # edges, put into one slot of the dual vector at one _vertex call of
    # both loops: the same pivots, certificates and errors come out.  A
    # warm start at the optimum makes call 0 the optimal vertex, where
    # the other duals lie inside the box.
    tau = 0.3001
    y, X = regression_design(RNG(49), 60, 3)
    problem = QrProblem(y, X, tau)
    start = solve_qr(problem).fitted if warm else None
    values = dual_edges(tau) if special == "edges" else [special]
    real_vertex = qr_module._vertex
    for value in values:
        for call in range(3):
            for slot in range(3):
                outcomes = []
                for solve in (solve_qr, reference_solve_qr):
                    calls = [0]

                    def vertex(*args):
                        beta, r, psi, v = real_vertex(*args)
                        if calls[0] == call:
                            v = v.copy()
                            v[slot] = value
                        calls[0] += 1
                        return beta, r, psi, v

                    monkeypatch.setattr(qr_module, "_vertex", vertex)
                    with np.errstate(invalid="ignore", over="ignore"):
                        outcomes.append(outcome(solve, problem, start))
                assert outcomes[0] == outcomes[1], (value, call, slot)
