"""Independent checks of CLI outputs, computed from the benchmark's inputs.

Nothing here imports ``quantour``: regions are clipped, measured and
tested with the plain polygon and depth arithmetic below, and every
objective is recomputed from the data the benchmark generated.  A check
returns an error string, or None when the output passes.
"""

from __future__ import annotations

import math

import numpy as np

SYM_AREA_TOL = 1e-9
VERTEX_PAIR_TOL = 1e-7
MULT_REL_TOL = 1e-7
FIG2_SLOPE_TOL = 1e-6
# angular slack in the depth count: a point exactly on a halfplane
# boundary through the query point counts as inside that closed halfplane
ANGLE_SLACK = 1e-11


def check_loss_sum(tau: float, r: np.ndarray) -> float:
    return float(np.sum(r * (tau - (r < 0.0))))


def _mult_error(label: str, mult: float, loss: float):
    if abs(mult - loss) > MULT_REL_TOL * max(1.0, abs(loss)):
        return f"{label}: multiplier {mult!r} != check-loss sum {loss!r}"
    return None


def polygon_area(V: np.ndarray) -> float:
    if V.shape[0] < 3:
        return 0.0
    x, y = V[:, 0], V[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def clip_to_halfplanes(P: np.ndarray, halfplanes: list) -> np.ndarray:
    """Convex polygon P cut by each closed halfplane {x : b'x >= a}.

    Clipping by the halfplanes, not by edges between vertices, keeps the
    cut exact when a region carries near-duplicate vertices.
    """
    out = [tuple(p) for p in P]
    for h in halfplanes:
        if not out:
            break
        b, a = np.array(h["b"], dtype=float), float(h["a"])
        src, out = out, []
        for i, cur in enumerate(src):
            prev = src[i - 1]
            sc, sp = b @ cur - a, b @ prev - a
            if sc >= 0:
                if sp < 0:
                    out.append(_cut(prev, cur, sp, sc))
                out.append(cur)
            elif sp >= 0:
                out.append(_cut(prev, cur, sp, sc))
    return np.array(out, dtype=float).reshape(-1, 2)


def _cut(p, q, sp, sq):
    t = sp / (sp - sq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _vertices(region: dict) -> np.ndarray:
    return np.array(region["vertices"], dtype=float).reshape(-1, 2)


def compare_regions(label: str, a: dict, b: dict):
    """Criterion-2 equality: same status, area, and paired vertices."""
    if a["status"] != b["status"]:
        return f"{label}: status {a['status']} != {b['status']}"
    if a["status"] != "bounded":
        return None
    Va, Vb = _vertices(a), _vertices(b)
    both = polygon_area(clip_to_halfplanes(Va, b["halfplanes"]))
    sym = polygon_area(Va) + polygon_area(Vb) - 2.0 * both
    if sym >= SYM_AREA_TOL:
        return f"{label}: symmetric area difference {sym:.3e}"
    d = np.linalg.norm(Va[:, None, :] - Vb[None, :, :], axis=2)
    worst = max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))
    if worst > VERTEX_PAIR_TOL:
        return f"{label}: unpaired vertex at distance {worst:.3e}"
    return None


def halfspace_depth(z: np.ndarray, x: np.ndarray) -> int:
    """Tukey depth of x: fewest points in a closed halfplane through x.

    n minus the most points inside an open half-circle of directions seen
    from x; an optimal open half-circle can start just before a point.
    """
    d = z - x
    r = np.hypot(d[:, 0], d[:, 1])
    on = r <= 1e-12 * (1.0 + float(np.abs(z).max()))
    A = np.sort(np.arctan2(d[~on, 1], d[~on, 0]))
    if A.size == 0:
        return int(z.shape[0])
    B = np.concatenate([A - 2.0 * math.pi, A, A + 2.0 * math.pi])
    start = A - ANGLE_SLACK
    inside = np.searchsorted(B, start + math.pi) - np.searchsorted(B, start)
    return int(z.shape[0]) - int(inside.max())


def depth_region_certificate(label: str, z: np.ndarray, tau: float, region: dict):
    """A bounded region equals {x : depth(x) >= ceil(n tau)} when every
    facet is the ceil(n tau)-th order-statistic halfplane of its normal
    (so the region contains the depth region) and every vertex has that
    depth (so the convex depth region contains the region)."""
    if region["status"] != "bounded":
        return f"{label}: region is {region['status']}, expected bounded"
    n = z.shape[0]
    m0 = math.ceil(n * tau)
    tol = 1e-9 * (1.0 + float(np.abs(z).max()))
    for h in region["halfplanes"]:
        b = np.array(h["b"], dtype=float)
        q = float(np.partition(z @ b, m0 - 1)[m0 - 1]) / float(np.hypot(*b))
        a = float(h["a"]) / float(np.hypot(*b))
        if abs(q - a) > tol:
            return f"{label}: facet offset {a!r} is not the order statistic {q!r}"
    for v in _vertices(region):
        depth = halfspace_depth(z, v)
        if depth < m0:
            return f"{label}: vertex {v.tolist()} has depth {depth} < {m0}"
    return None


def check_job(job, payload: dict, seen: dict):
    """Check one job's JSON payload; ``seen`` holds earlier regions by input.

    Returns an error string or None.
    """
    res = payload["result"]
    key = job.argv[2]  # the input path: every cloud job's argv starts CMD -i PATH
    cmd = job.command
    if cmd == "contour":
        region = res["region"]
        seen[key] = region
        if region["status"] == "bounded" or job.extra.get("bounded"):
            return depth_region_certificate(job.label, job.points, job.tau, region)
        return None
    if cmd == "depth":
        count = res["depth"]["count"]
        want = halfspace_depth(job.points, job.extra["x"])
        if count != want:
            return f"{job.label}: depth count {count} != {want}"
        if key in seen:
            return compare_regions(job.label, seen[key], res["region"])
        return None
    if cmd == "km":
        cmp_ = res["comparison"]
        if cmp_["km_contains_exact"] is not True:
            return f"{job.label}: envelope does not contain the exact region"
        if not cmp_["area_gap"] >= 0.0:
            return f"{job.label}: negative area gap {cmp_['area_gap']!r}"
        if key in seen:
            return compare_regions(job.label, seen[key], res["exact"])
        return None
    if cmd == "quantile":
        r = job.points @ np.array(res["b"]) - res["a"]
        return _mult_error(job.label, res["multiplier"], check_loss_sum(job.tau, r))
    if cmd == "regress":
        X, Y = job.design
        r = Y @ np.array(res["b"]) - X @ np.array(res["c"]) - res["a"]
        return _mult_error(job.label, res["multiplier"], check_loss_sum(job.tau, r))
    if cmd == "scan":
        mults = [e["multiplier"] for e in res["entries"]]
        if len(mults) != int(job.argv[job.argv.index("--K") + 1]):
            return f"{job.label}: {len(mults)} directions scanned"
        if min(mults) < 0.0:
            return f"{job.label}: negative multiplier {min(mults)!r}"
        return None
    if cmd == "fig2":
        lam = np.array([row["multiplier"] for row in res["table"]])
        slope = (1.0 - payload["meta"]["tau"]) / 4.0
        worst = float(np.abs(np.diff(lam[1:]) - slope).max())
        if worst > FIG2_SLOPE_TOL:
            return f"{job.label}: multiplier steps miss slope {slope!r} by {worst:.3e}"
        return None
    return f"{job.label}: no check for command {cmd!r}"
