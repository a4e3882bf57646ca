"""Seeded CLI job lists for the benchmark workloads.

Every workload is a fixed list of ``quantour`` command lines whose input
files are written from ``--seed`` alone.  A :class:`Job` carries its argv
together with the inputs an independent check needs (the points, the
design, the level), so checks never read anything back from the program.

Sizes are held fixed across seeds where they set the amount of work (the
cloud sizes of ``small-batch`` are a stratified grid, not random draws),
so that a different seed changes the data but not the work per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIG2_SEED = 7
SMALL_TAUS = (0.101, 0.178, 0.305)
SMALL_CLOUDS = 30


@dataclass
class Job:
    """One CLI invocation and what its check needs to know."""

    label: str
    command: str
    argv: list
    tau: float | None = None
    points: np.ndarray | None = None
    design: tuple | None = None
    extra: dict = field(default_factory=dict)


def nudge_tau(tau: float, n: int) -> float:
    """Move tau off the degenerate levels where n * tau is an integer.

    The CLI runs the general-position check before it rejects such a
    level, so a degenerate tau would measure that check and an error path.
    """
    m = n * tau
    if abs(m - round(m)) < 1e-6:
        tau += 0.25 / n
    return tau


def _write_csv(path: Path, header: list, rows: np.ndarray) -> str:
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _cloud_file(workdir: Path, name: str, points: np.ndarray) -> str:
    return _write_csv(workdir / f"{name}.csv", ["z1", "z2"], points)


def _vec(values) -> str:
    # passed as --flag=value: a leading minus sign would read as a flag
    return ",".join(repr(float(v)) for v in values)


def large_cloud(seed: int, workdir: Path, fig2_dir: Path) -> list:
    """One n = 1000 Gaussian cloud: contour, km --K 2001, scan --K 64."""
    rng = np.random.default_rng([seed, 1])
    n = 1000
    z = rng.standard_normal((n, 2))
    path = _cloud_file(workdir, "large", z)
    tau = nudge_tau(0.1785, n)
    tau_scan = nudge_tau(0.0505, n)
    return [
        Job("contour", "contour",
            ["contour", "-i", path, "--tau", repr(tau)], tau, z,
            extra={"bounded": True}),
        Job("km", "km",
            ["km", "-i", path, "--tau", repr(tau), "--K", "2001"], tau, z),
        Job("scan", "scan",
            ["scan", "-i", path, "--tau", repr(tau_scan), "--K", "64"], tau_scan, z),
    ]


def small_batch(seed: int, workdir: Path, fig2_dir: Path) -> list:
    """30 clouds with n in [20, 60], four jobs each, plus one fig2 job."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for c in range(SMALL_CLOUDS):
        n = 20 + (40 * c) // (SMALL_CLOUDS - 1)
        z = rng.standard_normal((n, 2))
        tau = nudge_tau(SMALL_TAUS[c % len(SMALL_TAUS)], n)
        x = z.mean(axis=0) + 0.25 * rng.standard_normal(2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        path = _cloud_file(workdir, f"small{c:02d}", z)
        t = repr(tau)
        jobs += [
            Job(f"c{c:02d}.contour", "contour",
                ["contour", "-i", path, "--tau", t], tau, z),
            Job(f"c{c:02d}.depth", "depth",
                ["depth", "-i", path, "--tau", t, "--x=" + _vec(x)], tau, z,
                extra={"x": x}),
            Job(f"c{c:02d}.km", "km",
                ["km", "-i", path, "--tau", t, "--K", "201"], tau, z),
            Job(f"c{c:02d}.quantile", "quantile",
                ["quantile", "-i", path, "--tau", t,
                 "--u=" + _vec((math.cos(phi), math.sin(phi)))], tau, z),
        ]
    jobs.append(Job("fig2", "fig2",
                    ["fig2", "--seed", str(FIG2_SEED), "--output-dir", str(fig2_dir)]))
    return jobs


def _design(rng, n: int, q: int) -> tuple:
    X = rng.uniform(0.0, 1.0, size=(n, q))
    coef = rng.normal(size=(q, 2))
    Y = X @ coef + rng.standard_normal((n, 2)) * (0.5 + 0.5 * X[:, :1])
    return X, Y


def regression_cuts(seed: int, workdir: Path, fig2_dir: Path) -> list:
    """Two designs with k = 2 responses; each job assembles a cut."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for name, n, q, grid, extra_args in (
        ("q1", 5000, 1, 360, ["--bins", "5"]),
        ("q3", 2000, 3, 90, []),
    ):
        X, Y = _design(rng, n, q)
        header = [f"x{i}" for i in range(1, q + 1)] + ["y1", "y2"]
        path = _write_csv(workdir / f"design_{name}.csv", header, np.column_stack([X, Y]))
        tau = nudge_tau(0.2, n)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        jobs.append(Job(
            f"{name}.regress", "regress",
            ["regress", "-i", path, "--tau", repr(tau),
             "--u=" + _vec((math.cos(phi), math.sin(phi))),
             "--x0=" + _vec([0.5] * q), "--grid", str(grid), *extra_args],
            tau, design=(X, Y)))
    return jobs


WORKLOADS = {
    "large-cloud": large_cloud,
    "small-batch": small_batch,
    "regression-cuts": regression_cuts,
}
