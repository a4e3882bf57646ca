"""Exact verifier of swept arcs and directional quantiles, independent of quantour.

Every float is a dyadic rational, so the checks below are exact: the
points go onto one integer grid (z = Z / 2**e), side tests are integer
cross products, and the stationarity system is solved in
``fractions.Fraction``.  For each arc, given the points, tau, the fitted
pair (i, j), the orientation s, the emitted direction u and the emitted
count below, the pair must be an optimal basis at u (Koenker & Bassett,
1978, Theorem 3.3):

- s perp(z_j - z_i)'u > 0, so b = perp(z_j - z_i) / (perp(z_j - z_i)'u)
  is the normal with b'u = 1;
- no third point lies on the pair's line;
- the exact side pattern gives psi_l = tau above the line and tau - 1
  below, and the 3 x 3 stationarity system
  [[0, 1, 1], [-u, z_i, z_j]] (lambda, d_i, d_j) = -(sum psi, sum psi z)
  is regular, with both duals d_i, d_j in [tau - 1, tau];
- the emitted count below equals the exact count.

A planar directional quantile passes the same check, with s the sign of
perp(z_j - z_i)'u, and its emitted a and b must lie within 1e-12
relative of the exact line through its pair.

Only numpy and the standard library are used; nothing is imported from
quantour.
"""

from fractions import Fraction

import numpy as np


def _on_grid(values):
    """Integers N and e with values[k] == N[k] / 2**e exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    e = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (e - den.bit_length() + 1) for num, den in ratios], e


def _det3(m):
    (a, b, c), (d, e, f), (g, h, k) = m
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


def _solve3(m, rhs):
    """Cramer's rule in Fractions; None when the system is singular."""
    det = _det3(m)
    if det == 0:
        return None
    out = []
    for col in range(3):
        mc = [[rhs[r] if c == col else m[r][c] for c in range(3)] for r in range(3)]
        out.append(_det3(mc) / det)
    return out


def arc_failures(points, tau, fitted, orientation, u, n_below):
    """[(arc, reason)] for every arc that is not an optimal basis at its u.

    points (n, 2) and tau as given to the sweep; fitted (m, 2), orientation
    (m,), u (m, 2) and n_below (m,) as emitted for the m arcs.  An empty
    list certifies every arc.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    grid, e = _on_grid(points.ravel().tolist())
    Z = [(grid[2 * k], grid[2 * k + 1]) for k in range(n)]
    scale = Fraction(1, 1 << e)
    t = Fraction(float(tau))
    failures = []
    for k, ((i, j), s, (u0, u1), below) in enumerate(
        zip(np.asarray(fitted).tolist(), np.asarray(orientation).tolist(),
            np.asarray(u, dtype=float).tolist(), np.asarray(n_below).tolist())
    ):
        (xi, yi), (xj, yj) = Z[i], Z[j]
        n0, n1 = yi - yj, xj - xi  # perp(z_j - z_i), on the grid
        dn = n0 * Fraction(u0) + n1 * Fraction(u1)
        if not s * dn > 0:
            failures.append((k, "u is outside the orientation cone"))
            continue
        count, sx, sy, bx, by = 0, 0, 0, 0, 0
        degenerate = False
        for l, (x, y) in enumerate(Z):
            if l in (i, j):
                continue
            side = s * (n0 * (x - xi) + n1 * (y - yi))
            if side == 0:
                degenerate = True
                break
            sx, sy = sx + x, sy + y
            if side < 0:
                count, bx, by = count + 1, bx + x, by + y
        if degenerate:
            failures.append((k, "a third point lies on the pair's line"))
            continue
        # sum psi = tau (n - 2) - below; sum psi z = tau sum z - sum of z below
        s0 = t * (n - 2) - count
        s1 = ((t * sx - bx) * scale, (t * sy - by) * scale)
        m = [
            [0, 1, 1],
            [-Fraction(u0), xi * scale, xj * scale],
            [-Fraction(u1), yi * scale, yj * scale],
        ]
        sol = _solve3(m, [-s0, -s1[0], -s1[1]])
        if sol is None:
            failures.append((k, "the stationarity system is singular"))
            continue
        if not all(t - 1 <= dual <= t for dual in sol[1:]):
            failures.append((k, "a fitted dual leaves [tau - 1, tau]"))
            continue
        if count != below:
            failures.append((k, f"n_below is {below}, the exact count {count}"))
    return failures


def quantile_failures(points, tau, u, fitted, counts, a, b):
    """[reason] for a planar directional quantile that is not the exact fit at u.

    u, the fitted pair, counts (below, on, above), a and b as emitted.  With
    b* = perp(z_j - z_i) / (perp(z_j - z_i)'u) and a* = b*'z_i, b must lie
    within 1e-12 max|b*| of b* in each coordinate and a within 1e-12 of
    |b*_1 z_i1| + |b*_2 z_i2|.  An empty list certifies the fit.
    """
    (xi, yi), (xj, yj) = (map(Fraction, row) for row in np.asarray(points)[list(fitted)].tolist())
    n0, n1 = yi - yj, xj - xi
    dn = n0 * Fraction(float(u[0])) + n1 * Fraction(float(u[1]))
    if dn == 0:
        return ["the pair's line is parallel to u"]
    below, on, above = counts
    failures = [reason for _, reason in
                arc_failures(points, tau, [fitted], [1 if dn > 0 else -1], [u], [below])]
    if (on, above) != (2, len(points) - 2 - below):
        failures.append(f"counts {tuple(counts)} do not add up to n with 2 on the line")
    bx, by = n0 / dn, n1 / dn
    b0, b1 = (Fraction(float(v)) for v in b)
    rel = Fraction(1e-12)
    if max(abs(b0 - bx), abs(b1 - by)) > rel * max(abs(bx), abs(by)):
        failures.append("b is off the exact line through the pair")
    if abs(Fraction(float(a)) - bx * xi - by * yi) > rel * (abs(bx * xi) + abs(by * yi)):
        failures.append("a is off the exact line through the pair")
    return failures
