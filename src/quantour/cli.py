"""Batch command line interface.

Subcommands map one to one onto library operations: quantile (one
directional hyperplane), contour (full sweep + region), depth (point
depth or oracle region), km (envelope + comparison), scan (multiplier
process over directions), regress (regression quantile, cuts,
coverage), fig2 (the seeded outlier benchmark across all 15 steps).

Artifacts are deterministic: the same flags and seed produce byte
identical JSON and CSV, and SVG identical up to the version comment
line.  A subcommand returns its JSON payload, its CSV rows and, for a
planar cloud, a deferred SVG drawing; one writer per format emits them,
and fig2's artifacts too.  JSON payloads are {"meta": ..., "result":
...}; regions carry vertex arrays plus their generating halfplanes {b,
a}.  The RNG is numpy's default_rng seeded from --seed, a non-negative
integer; OS randomness is never used.  A numeric flag (--u, --x, --x0,
--tau, --K, --bins, --grid, --seed) takes a leading minus with or
without "=".
regress --x0 solves its direction grid, and contour marches its sweep's
circle on clouds of 200 points or more, over the CPUs the process may
use, in forked children (quantour._fork); the bytes do not depend on how
many.  contour marches (contour._marched_sweep) only because its JSON
reports the march's pivot count; km and fig2 take the library sweep,
the serial rotating-line walk (contour.sweep).

Exit codes: 0 success, 2 degenerate tau (message names the nearest
admissible levels), 3 degenerate data that --no-jitter refused or that
cloud.jitter did not fix (message carries the offending rows), 1
anything else.  With --json-errors the stderr diagnostic is JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, _fork
from .cloud import PointCloud, _jitter_amplitude, jitter
from .contour import _marched_sweep, fixed_tau_region, probability_contents, sweep
from .depth import depth_2d, depth_region_bruteforce_2d
from .directional import (
    directional_quantile,
    multiplier_scan,
    outlier_scenario,
)
from .errors import (
    DegenerateData,
    DegenerateTau,
    DimensionMismatch,
    EmptyInput,
    HeaderMismatch,
    ParseError,
    QuantourError,
)
from .geometry import BOUNDED, OUTSIDE, ConvexRegion2D, Direction
from .km import compare_regions, km_envelope
from .qr import validate_tau
from .regression import (
    RegressionProblem,
    coverage_diagnostic,
    fixed_x_cut,
    regression_quantile,
    response_direction_grid,
)

FIG2_TAU_NUM = 2.5  # tau = 2.5/n for the quantile, 0.5/n for the hull regime
# Fewest grid directions worth a forked child.  On a 2-core Xeon a fork,
# pickle and waitpid round trip takes 5-7 ms and one cold regression solve
# at least 0.5 ms (n = 8 to 40), so a 16-direction chunk repays its fork.
_FORK_MIN_CHUNK = 16


# ---------------------------------------------------------------------------
# ingestion


def _regression_layout(header):
    """(q, k) for a fully tagged x1..xq, y1..yk header, else None."""
    names = [h.strip().lower() for h in header]
    tagged = all(
        len(nm) >= 2 and nm[0] in "xy" and nm[1:].isdigit() for nm in names
    )
    if not tagged:
        return None
    xs = [nm for nm in names if nm[0] == "x"]
    ys = [nm for nm in names if nm[0] == "y"]
    q, k = len(xs), len(ys)
    if k == 0:
        raise HeaderMismatch("tagged header has no y columns")
    want = [f"x{i}" for i in range(1, q + 1)] + [f"y{i}" for i in range(1, k + 1)]
    if names != want:
        raise HeaderMismatch(
            f"tagged header must read x1..x{q}, y1..y{k} in order, got {names}"
        )
    return q, k


def _finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def ingest_csv(path):
    """Parse a CSV file into a cloud or a regression design.

    Returns (kind, data) with kind "cloud" (data: PointCloud) or
    "regression" (data: (X, Y) arrays).  Regression mode is chosen
    when every header name matches x<i>/y<j>; the tags must then read
    x1..xq, y1..yk in order.  Non-finite or non-numeric cells and ragged
    rows are rejected with their 1-based line number, and so is a first
    row of numbers, which would otherwise be taken for the header.  A
    byte-order mark (Excel's "CSV UTF-8") is dropped.  Duplicate rows are
    left to the general-position check, which names them.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    rows = list(csv.reader(io.StringIO(text)))
    rows = [(idx + 1, row) for idx, row in enumerate(rows)]
    rows = [(ln, row) for ln, row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyInput("input file is empty")
    header_line, header = rows[0]
    if all(_finite_number(cell) for cell in header):
        raise ParseError("missing header: the first row is all numbers", line=header_line)
    layout = _regression_layout(header)
    data = []
    for ln, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(row)}", line=ln
            )
        try:
            vals = [float(cell) for cell in row]
        except ValueError:
            raise ParseError(f"non-numeric cell in {row}", line=ln)
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("non-finite value", line=ln)
        data.append(vals)
    if not data:
        raise EmptyInput()
    M = np.array(data, dtype=float)
    if layout is not None:
        q, k = layout
        return "regression", (M[:, :q], M[:, q:])
    return "cloud", PointCloud(M)


def _heal_cloud(args, data: PointCloud) -> PointCloud:
    """Jitter a degenerate cloud (seeded), or re-raise under --no-jitter."""
    try:
        data.require_general_position()
    except DegenerateData as exc:
        if args.no_jitter:
            raise
        args.warnings.append(
            f"degenerate input ({exc}); applied jitter "
            f"{_jitter_amplitude(data):g} with seed {args.seed}"
        )
        data = jitter(data, seed=args.seed)
    return data


def _read_cloud(args) -> PointCloud:
    """Ingest a plain coordinate file, without the general-position check."""
    kind, data = ingest_csv(args.input)
    if kind != "cloud":
        raise HeaderMismatch(
            f"the {args.command} command expects plain coordinate columns"
        )
    return data


def _load_cloud(args) -> PointCloud:
    return _heal_cloud(args, _read_cloud(args))


# ---------------------------------------------------------------------------
# payload builders


def region_payload(region: ConvexRegion2D) -> dict:
    """JSON-ready region: status, vertices, generating halfplanes, area."""
    payload = {
        "status": region.status,
        "vertices": region.vertices.tolist(),
        "halfplanes": [{"b": [b1, b2], "a": a} for b1, b2, a in region.halfplanes.tolist()],
    }
    payload["area"] = region.area() if region.status == BOUNDED else None
    return payload


def region_from_payload(payload: dict) -> ConvexRegion2D:
    """Rebuild a region from its JSON payload: status, vertices, halfplane rows."""
    rows = [[*h["b"], h["a"]] for h in payload["halfplanes"]]
    return ConvexRegion2D(payload["vertices"], rows, payload["status"])


def _hyperplane_payload(tau, u, a, b, c, multiplier, fitted, duals, counts) -> dict:
    """JSON-ready hyperplane; vectors come as lists of Python numbers."""
    return {"tau": tau, "u": u, "a": a, "b": b, "c": c, "multiplier": multiplier,
            "fitted": fitted, "duals": duals, "counts": counts}


def _field_rows(fields: dict) -> list:
    """CSV rows: a field,value header, then each field with its JSON value."""
    return [["field", "value"]] + [[k, json.dumps(v)] for k, v in fields.items()]


def _meta(args, cloud=None, **extra) -> dict:
    meta = {"command": args.command, "seed": args.seed}
    if args.tau is not None:
        meta["tau"] = args.tau
    if cloud is not None:
        meta["n"] = cloud.n
        meta["k"] = cloud.k
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# SVG emission


def _fmt(v: float) -> str:
    return format(float(v), ".6f")


class _SvgCanvas:
    """Fixed 640x480 canvas over the points' box, 10 % margins, with a y-flip."""

    w, h = 640, 480

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-6)
        self.lo, self.hi = lo - 0.1 * span, hi + 0.1 * span
        span = self.hi - self.lo
        self.scale = min(self.w / span[0], self.h / span[1])
        self.elements = []

    def map(self, p):
        x = (p[0] - self.lo[0]) * self.scale
        y = self.h - (p[1] - self.lo[1]) * self.scale
        return x, y

    def circle(self, p, r, fill):
        x, y = self.map(p)
        self.elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{fill}"/>'
        )

    def polyline(self, pts, stroke, width=1.5, closed=False, fill="none"):
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (self.map(p) for p in pts)
        )
        tag = "polygon" if closed else "polyline"
        self.elements.append(
            f'<{tag} points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def text(self, p, s):
        x, y = self.map(p)
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="14">{s}</text>'
        )

    def line_segment(self, b, a, stroke):
        """Clip the line {z : b'z = a} to the data window and draw it."""
        seg = _clip_line(np.asarray(b, dtype=float), float(a), self.lo, self.hi)
        if seg is not None:
            self.polyline(seg, stroke=stroke, width=2.0)

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
            f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">'
        )
        comment = f"<!-- quantour {__version__} -->"
        bg = f'<rect width="{self.w}" height="{self.h}" fill="white"/>'
        return "\n".join([head, comment, bg, *self.elements, "</svg>"]) + "\n"


def _clip_line(b, a, lo, hi):
    """Endpoints of {b'z = a} inside the [lo, hi] box, or None."""
    pts = []
    for axis in (0, 1):
        other = 1 - axis
        if abs(b[other]) < 1e-300:
            continue
        for bound in (lo[axis], hi[axis]):
            t = (a - b[axis] * bound) / b[other]
            if lo[other] - 1e-9 <= t <= hi[other] + 1e-9:
                p = np.empty(2)
                p[axis] = bound
                p[other] = t
                pts.append(p)
    uniq = []
    for p in pts:
        if not any(np.allclose(p, q, atol=1e-12) for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort(key=lambda p: (p[0], p[1]))
    return uniq[0], uniq[-1]


# polygon (stroke, stroke-width, fill) of an exact region and of km's envelope
_REGION_STYLE = ("#1f77b4", 2.0, "#1f77b433")
_ENVELOPE_STYLE = ("#2ca02c", 1.5, "none")


def _svg_cloud_region(cloud, regions=(), hyperplanes=(), marks=()):
    """The cloud, each bounded region of the (region, style) pairs, lines and marks."""
    canvas = _SvgCanvas(cloud.points)
    for region, (stroke, width, fill) in regions:
        if region is not None and region.status == BOUNDED:
            canvas.polyline(list(region.vertices), stroke=stroke, width=width,
                            closed=True, fill=fill)
    for b, a in hyperplanes:
        canvas.line_segment(b, a, stroke="#d62728")
    for p in cloud.points:
        canvas.circle(p, 3, "#444444")
    for p in marks:
        canvas.circle(p, 5, "#d62728")
    return canvas.render()


# ---------------------------------------------------------------------------
# subcommands


def _parse_vector(text, k=None):
    vals = tuple(float(v) for v in text.split(","))
    if k is not None and len(vals) != k:
        raise ValueError(f"expected {k} comma-separated floats, got {text!r}")
    return vals


def _cmd_quantile(args):
    cloud = _read_cloud(args)
    if args.fmt == "svg" and cloud.k != 2:
        raise DimensionMismatch(f"SVG output draws planar clouds only, got k={cloud.k}")
    u = Direction(np.array(_parse_vector(args.u, cloud.k), dtype=float))
    cloud = _heal_cloud(args, cloud)
    h = directional_quantile(cloud, args.tau, u)
    result = _hyperplane_payload(
        h.tau, h.u.vector.tolist(), h.a, h.b.tolist(), h.c.tolist(), h.multiplier,
        list(h.fitted), h.duals.tolist(), list(h.counts),
    )
    payload = {"meta": _meta(args, cloud), "result": result}
    rows = _field_rows(result)
    return payload, rows, functools.partial(_svg_cloud_region, cloud, hyperplanes=[(h.b, h.a)])


def _cmd_contour(args):
    cloud = _load_cloud(args)
    res, n_pivots = _marched_sweep(cloud, args.tau)
    region = fixed_tau_region(res)
    prob = probability_contents(region, cloud)
    rows = [["start", "end", "orientation", "i", "j", "a", "b1", "b2",
             "multiplier", "n_below"]]
    arcs = []
    table = zip(res.arcs.tolist(), res.orientation.tolist(), res.u.tolist(),
                res.halfplanes.tolist(), res.c.tolist(), res.multiplier.tolist(),
                res.fitted.tolist(), res.duals.tolist(), res.n_below.tolist())
    for (start, end), s, u, (b1, b2, a), c, mult, (i, j), duals, below in table:
        hyperplane = _hyperplane_payload(res.tau, u, a, [b1, b2], c, mult, [i, j], duals,
                                         [below, 2, cloud.n - 2 - below])
        arcs.append({"start": start, "end": end, "orientation": s,
                     "hyperplane": hyperplane})
        rows.append([repr(start), repr(end), s, i, j, repr(a), repr(b1),
                     repr(b2), repr(mult), below])
    # "method" and "n_pivots" name the march; they stay so the JSON keeps its bytes
    payload = {
        "meta": _meta(args, cloud, method="parametric", n_pivots=n_pivots),
        "result": {
            "arcs": arcs,
            "region": region_payload(region),
            "probability": prob,
        },
    }
    return payload, rows, functools.partial(
        _svg_cloud_region, cloud, regions=[(region, _REGION_STYLE)]
    )


def _cmd_depth(args):
    x = None if args.x is None else _parse_vector(args.x, 2)
    if x is None and args.tau is None:
        raise ValueError("depth needs --x for a point or --tau for a region")
    # depth_2d counts duplicates and collinear points itself, so the point
    # depth is taken on the cloud as read; the brute-force region bounds
    # itself by lines through point pairs, which a collinear cloud does
    # not supply, so the region is taken on the healed cloud
    cloud = _read_cloud(args)
    result = {}
    rows = [["field", "value"]]
    region = None
    if x is not None:
        d = depth_2d(cloud, np.array(x, dtype=float))
        result["depth"] = {"count": d.count, "n": d.n, "normalized": d.normalized}
        rows += [["count", d.count], ["n", d.n], ["normalized", repr(d.normalized)]]
    if args.tau is not None:
        region = depth_region_bruteforce_2d(_heal_cloud(args, cloud), args.tau)
        result["region"] = region_payload(region)
        rows.append(["region_status", region.status])
    payload = {"meta": _meta(args, cloud), "result": result}
    marks = [np.array(x)] if x is not None else []
    return payload, rows, functools.partial(
        _svg_cloud_region, cloud, regions=[(region, _REGION_STYLE)], marks=marks
    )


def _cmd_km(args):
    if args.K < 3:
        raise ValueError(f"need at least 3 directions, got K={args.K}")
    validate_tau(args.tau)
    cloud = _load_cloud(args)
    envelope = km_envelope(cloud, args.tau, args.K)
    exact = fixed_tau_region(sweep(cloud, args.tau))
    comparison = compare_regions(exact, envelope)
    result = {
        "envelope": region_payload(envelope),
        "exact": region_payload(exact),
        "comparison": {
            "facets_exact": comparison.facets_exact,
            "facets_km": comparison.facets_km,
            "area_gap": comparison.area_gap,
            "hausdorff": comparison.hausdorff,
            "km_contains_exact": comparison.km_contains_exact,
        },
    }
    payload = {"meta": _meta(args, cloud, K=args.K), "result": result}
    rows = _field_rows(result["comparison"])
    return payload, rows, functools.partial(
        _svg_cloud_region, cloud, regions=[(envelope, _ENVELOPE_STYLE), (exact, _REGION_STYLE)]
    )


def _cmd_scan(args):
    if args.K < 1:
        raise ValueError(f"scan needs at least one direction, got --K {args.K}")
    cloud = _load_cloud(args)
    directions = [
        Direction.from_angle(2.0 * np.pi * j / args.K) for j in range(args.K)
    ]
    series = multiplier_scan(cloud, args.tau, directions)
    flagged = set(series.flagged)
    result = {
        "entries": [
            {"label": float(lab), "multiplier": float(m), "flagged": i in flagged}
            for i, (lab, m) in enumerate(series.entries)
        ],
        "median": series.median,
        "mad": series.mad,
        "flagged": list(series.flagged),
    }
    payload = {"meta": _meta(args, cloud, K=args.K), "result": result}
    rows = [["label", "multiplier", "flagged"]]
    for i, (lab, m) in enumerate(series.entries):
        rows.append([repr(float(lab)), repr(float(m)), int(i in flagged)])
    return payload, rows, None


def _cmd_regress(args):
    x0 = None if args.x0 is None else _parse_vector(args.x0)
    kind, data = ingest_csv(args.input)
    X, Y = (np.zeros((data.n, 0)), data.points) if kind == "cloud" else data
    k = Y.shape[1]
    if x0 is not None:
        if k != 2:
            raise ValueError("cuts are defined for k=2 response spaces")
        if len(x0) != X.shape[1]:
            raise ValueError(f"--x0 has {len(x0)} coordinates, the design has {X.shape[1]} regressors")
        if not all(map(math.isfinite, x0)):
            raise ValueError(f"--x0 must be finite, got {args.x0!r}")
        directions = response_direction_grid(args.grid)
    u = Direction(np.array(_parse_vector(args.u, k), dtype=float))
    if kind == "cloud":
        Y = _heal_cloud(args, data).points
    rp = RegressionProblem(X, Y, args.tau, u)
    q = regression_quantile(rp)
    result = {
        "a": q.a,
        "b": [float(v) for v in q.b],
        "c": [float(v) for v in q.c],
        "multiplier": q.multiplier,
        "fitted": list(q.fitted),
        "counts": list(q.counts),
    }
    if args.bins:
        diag = coverage_diagnostic(rp, q, args.bins)
        result["coverage"] = {
            "global_fraction": diag.global_fraction,
            "deviations": list(diag.deviations),
            "bin_edges": list(diag.bin_edges),
            "bin_counts": list(diag.bin_counts),
        }
    rows = _field_rows(result)
    if x0 is not None:
        models = _fan_out(
            lambda d: regression_quantile(RegressionProblem(X, Y, args.tau, d)),
            directions,
        )
        cut = fixed_x_cut(models, np.array(x0, dtype=float))
        result["cut"] = region_payload(cut)
    payload = {"meta": _meta(args, n=Y.shape[0], k=k, p=X.shape[1] + 1),
               "result": result}
    return payload, rows, None


def _fan_out(solve, items):
    """``[solve(x) for x in items]``, in contiguous chunks over the allowed CPUs.

    The parent solves the first chunk and forked children one more each
    (_fork.fork_map).  The parent solves a failed child's chunk again
    itself, so an error is the one a serial loop raises.  Serial when
    _fork.workers() allows one process, or when a chunk would hold fewer
    than _FORK_MIN_CHUNK items.
    """
    chunks = min(_fork.workers(), len(items) // _FORK_MIN_CHUNK)
    if chunks < 2:
        return [solve(x) for x in items]
    cuts = [len(items) * i // chunks for i in range(chunks + 1)]
    parts = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    done = _fork.fork_map([lambda part=part: [solve(x) for x in part] for part in parts])
    return [y for part, got in zip(parts, done)
            for y in ([solve(x) for x in part] if got is _fork.FAILED else got)]


def _cmd_fig2(args):
    n = 99
    tau_q = FIG2_TAU_NUM / n
    tau_hull = 0.5 / n
    u0 = Direction([0.0, -1.0])
    table = []
    inside = 0
    last = None
    for ell in range(15):
        cloud = outlier_scenario(args.seed, ell)
        h = directional_quantile(cloud, tau_q, u0)
        hull = fixed_tau_region(sweep(cloud, tau_hull))
        outlier = cloud.points[-1]
        if hull.contains(outlier) != OUTSIDE:
            inside += 1
        table.append((ell, h.multiplier))
        last = (cloud, h, hull)
    rows = [["ell", "lambda"]] + [[ell, repr(lam)] for ell, lam in table]
    cloud, h, hull = last
    lams = np.array([lam for _, lam in table])
    series = np.column_stack([np.arange(15.0), lams])
    canvas = _SvgCanvas(series)
    canvas.polyline(series, stroke="#1f77b4", width=2.0)
    for p in series:
        canvas.circle(p, 3, "#1f77b4")
    canvas.text((0.0, float(lams.max())), "multiplier vs outlier step")
    artifacts = {
        "fig2_lambda.csv": _csv_text(rows),
        "fig2_points.svg": _svg_cloud_region(
            cloud, regions=[(hull, _REGION_STYLE)], hyperplanes=[(h.b, h.a)],
            marks=[cloud.points[-1]],
        ),
        "fig2_multiplier.svg": canvas.render(),
    }
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (out_dir / name).write_text(text, encoding="utf-8")

    payload = {
        "meta": {"command": "fig2", "seed": args.seed, "tau": tau_q, "n": n},
        "result": {
            "table": [{"ell": ell, "multiplier": lam} for ell, lam in table],
            "outlier_inside_hull": inside,
            "artifacts": [str(out_dir / name) for name in artifacts],
        },
    }
    return payload, rows, None


_COMMANDS = {
    "quantile": _cmd_quantile,
    "contour": _cmd_contour,
    "depth": _cmd_depth,
    "km": _cmd_km,
    "scan": _cmd_scan,
    "regress": _cmd_regress,
    "fig2": _cmd_fig2,
}


# ---------------------------------------------------------------------------
# dispatch and emission


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _emit(args, payload, rows, draw) -> None:
    for w in args.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.fmt == "json":
        # strict JSON: a NaN or an infinity raises ValueError (exit 1)
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif args.fmt == "csv":
        text = _csv_text(rows)
    else:  # svg: the parser allows it only where the command returns a drawing
        text = draw()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_error(args, exc: Exception, code: int) -> None:
    suggestion = None
    if code == 3 and getattr(args, "no_jitter", False):
        suggestion = "rerun without --no-jitter to perturb the degenerate rows (seeded with --seed)"
    if args.json_errors:
        doc = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit": code,
        }
        indices = getattr(exc, "indices", None)
        if indices:
            doc["indices"] = [int(i) for i in indices]
        line = getattr(exc, "line", None)
        if line is not None:
            doc["line"] = line
        if suggestion:
            doc["suggestion"] = suggestion
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
        if suggestion:
            print(f"suggestion: {suggestion}", file=sys.stderr)


def run(args) -> int:
    """Execute one parsed command line; returns the process exit code."""
    try:
        handler = _COMMANDS[args.command]
        _emit(args, *handler(args))
        return 0
    except DegenerateTau as exc:
        _emit_error(args, exc, 2)
        return 2
    except DegenerateData as exc:
        _emit_error(args, exc, 3)
        return 3
    except (QuantourError, OSError, ValueError) as exc:
        _emit_error(args, exc, 1)
        return 1


class _UsageError(Exception):
    """A command line the parser rejects; its text is usage plus message."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error by raising it, so main can exit 1, not 2."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    def seed(text):
        """numpy's generators take non-negative integers only."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
        return value

    parser = _Parser(
        prog="quantour",
        description="Directional quantile hyperplanes, depth contours, and "
        "envelope comparisons.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_tau=False, formats=("json", "csv", "svg")):
        p.add_argument("--input", "-i", required=True, help="CSV data file")
        p.add_argument("--tau", type=float, required=needs_tau,
                       default=None, help="quantile level in (0, 1)")
        p.add_argument("--format", dest="fmt", choices=formats, default="json")
        p.add_argument("--output", "-o", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--seed", type=seed, default=0)
        p.add_argument("--no-jitter", action="store_true",
                       help="refuse degenerate data (exit 3) instead of jittering it")
        p.add_argument("--json-errors", action="store_true")

    p = sub.add_parser("quantile", help="one directional quantile hyperplane")
    common(p, needs_tau=True)
    p.add_argument("--u", required=True, help="direction, e.g. 0,1")

    p = sub.add_parser("contour", help="full direction sweep and region")
    common(p, needs_tau=True)

    p = sub.add_parser("depth", help="point depth and oracle region")
    common(p)
    p.add_argument("--x", default=None, help="query point, e.g. 0.1,0.2")

    p = sub.add_parser("km", help="directional envelope vs exact region")
    common(p, needs_tau=True)
    p.add_argument("--K", type=int, default=201, help="number of directions")

    p = sub.add_parser("scan", help="multiplier process over directions")
    common(p, needs_tau=True, formats=("json", "csv"))
    p.add_argument("--K", type=int, default=64)

    p = sub.add_parser("regress", help="regression quantile, cut, coverage")
    common(p, needs_tau=True, formats=("json", "csv"))
    p.add_argument("--u", required=True, help="response direction")
    p.add_argument("--bins", type=int, default=0,
                   help="coverage diagnostic bins (0 skips)")
    p.add_argument("--x0", default=None, help="regressor point for a cut")
    p.add_argument("--grid", type=int, default=360,
                   help="directions for cut assembly")

    p = sub.add_parser("fig2", help="seeded outlier benchmark, 15 steps")
    p.add_argument("--seed", type=seed, default=7)
    p.add_argument("--output-dir", dest="output_dir", default=".")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                   default="json")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--json-errors", action="store_true")
    return parser


_NUMERIC_FLAGS = ("--u", "--x", "--x0", "--tau", "--K", "--bins", "--grid", "--seed")


def _attach_vectors(argv) -> list:
    """Write ``--u -0.6,0.8`` as ``--u=-0.6,0.8``, and so for every numeric flag.

    argparse takes a token that starts with a minus for an option unless it
    is a plain decimal such as -3 or -0.5 (and reads ``-inf`` as ``-i nf``),
    so ``-1e-3``, ``-inf`` or a vector would not reach its flag.
    """
    out = []
    for token in argv:
        try:
            vector = token.startswith("-") and bool(_parse_vector(token))
        except ValueError:
            vector = False
        if vector and out and out[-1] in _NUMERIC_FLAGS:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    """Run one command line (default sys.argv[1:]) and return its exit code.

    The parser is built once per process; every call gets a fresh Namespace.
    A usage error prints the usage and exits 1; --help and --version exit 0.
    """
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_attach_vectors(argv))
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return 1
    args.warnings = []
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
