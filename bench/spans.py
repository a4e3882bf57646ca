"""Spans around the calls into each quantour module, and the layer metrics.

The tracer replaces a public function at the place where it is looked
up (``cli`` imports names directly; ``contour``, ``directional`` and
``regression`` each import ``solve_qr``; four modules import
``intersect_halfplanes_2d``) and restores every original on exit.  Each
call records one span: name, start, end, parent span and job.  Self time
is a span's duration minus its children's.  ``cli.other_s`` is the job
wall time outside every top-level span, so the self times plus
``cli.other_s`` add up to the traced job wall time by construction.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "cloud", "qr", "directional", "contour", "geometry",
          "depth", "km", "regression")

# span name -> (self-time metric, [(module, attribute), ...]).  A module of
# "cloud.PointCloud" means a method looked up on that class.
SPANS = {
    "cli.ingest_csv": ("cli.ingest_s", [("cli", "ingest_csv")]),
    "cloud.require_general_position": (
        "cloud.gp_check_s", [("cloud.PointCloud", "require_general_position")]),
    "qr.solve_qr": ("qr.solve_s", [("contour", "solve_qr"), ("directional", "solve_qr"),
                                   ("regression", "solve_qr")]),
    "contour.sweep": ("contour.sweep_self_s", [("cli", "sweep")]),
    "contour.fixed_tau_region": ("contour.region_self_s", [("cli", "fixed_tau_region")]),
    "contour.probability_contents": ("contour.probability_s",
                                     [("cli", "probability_contents")]),
    "geometry.intersect_halfplanes_2d": (
        "geometry.intersect_s", [("contour", "intersect_halfplanes_2d"),
                                 ("depth", "intersect_halfplanes_2d"),
                                 ("km", "intersect_halfplanes_2d"),
                                 ("regression", "intersect_halfplanes_2d")]),
    "depth.depth_region_bruteforce_2d": ("depth.region_self_s",
                                         [("cli", "depth_region_bruteforce_2d")]),
    "depth.depth_2d": ("depth.point_s", [("cli", "depth_2d")]),
    "km.km_envelope": ("km.envelope_self_s", [("cli", "km_envelope")]),
    "km.compare_regions": ("km.compare_s", [("cli", "compare_regions")]),
    "directional.directional_quantile": (
        "directional.quantile_self_s", [("cli", "directional_quantile"),
                                        ("directional", "directional_quantile")]),
    "directional.multiplier_scan": ("directional.scan_self_s", [("cli", "multiplier_scan")]),
    "regression.regression_quantile": ("regression.quantile_self_s",
                                       [("cli", "regression_quantile")]),
    "regression.fixed_x_cut": ("regression.cut_self_s", [("cli", "fixed_x_cut")]),
    "regression.coverage_diagnostic": ("regression.coverage_s",
                                       [("cli", "coverage_diagnostic")]),
}


def _counts(name, args, result) -> dict:
    """Machine-independent work counts read off a call and its result."""
    if name == "qr.solve_qr":
        return {"pivots": result.pivots}
    if name == "contour.sweep":
        return {"arcs": len(result.arcs)}
    if name == "geometry.intersect_halfplanes_2d":
        facets = len(result.halfplanes) if result.status == "bounded" else 0
        return {"halfplanes_in": len(args[0]), "facets_out": facets}
    return {}


@dataclass
class Span:
    name: str
    parent: "Span | None"
    job: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Context manager that patches quantour and records spans in memory.

    Set ``job`` to the index of the job about to run; its spans carry it.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = -1
        self._saved: list = []

    def __enter__(self):
        for name, (_metric, sites) in SPANS.items():
            for where, attr in sites:
                mod_name, _, cls_name = where.partition(".")
                owner = importlib.import_module(f"quantour.{mod_name}")
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.job)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
            span.counts = _counts(name, args, result)
            return result

        return traced


def p90(values: list):
    """90th percentile, or None below 100 values (fewer than ten beyond it)."""
    if len(values) < 100:
        return None
    return sorted(values)[math.ceil(0.9 * len(values)) - 1]


def _under_sweep(span: Span) -> bool:
    return span.parent is not None and span.parent.name == "contour.sweep"


def layer_metrics(spans: list, job_wall: float, bytes_out: int, job_errors: int) -> dict:
    """Layer metrics of one traced pass.

    ``job_wall`` is the summed wall time of the pass's jobs, ``bytes_out``
    their stdout bytes, and ``job_errors`` the jobs that exited nonzero or
    raised.
    """
    by_name: dict = {name: [] for name in SPANS}
    for s in spans:
        by_name[s.name].append(s)

    def count(name, key):
        return sum(s.counts[key] for s in by_name[name])

    m = {}
    m["cli.other_s"] = job_wall - sum(s.duration for s in spans if s.parent is None)
    m["cli.bytes_out"] = bytes_out
    for name, (metric, _sites) in SPANS.items():
        m[metric] = sum((s.self_time for s in by_name[name]), 0.0)
    m["cloud.gp_check_calls"] = len(by_name["cloud.require_general_position"])

    solves = by_name["qr.solve_qr"]
    for group, sel in (("", solves),
                       ("sweep_", [s for s in solves if _under_sweep(s)]),
                       ("other_", [s for s in solves if not _under_sweep(s)])):
        ms = sorted(1e3 * s.duration for s in sel)
        m[f"qr.{group}solve_s"] = sum((s.duration for s in sel), 0.0)
        m[f"qr.{group}solve_calls"] = len(sel)
        m[f"qr.{group}pivots"] = sum(s.counts["pivots"] for s in sel)
        m[f"qr.{group}solve_p50_ms"] = statistics.median(ms) if ms else 0.0
        m[f"qr.{group}solve_p90_ms"] = p90(ms) or 0.0

    m["contour.sweep_calls"] = len(by_name["contour.sweep"])
    m["contour.arcs"] = count("contour.sweep", "arcs")
    m["contour.arc_yield"] = (m["contour.arcs"] / m["qr.sweep_solve_calls"]
                              if m["qr.sweep_solve_calls"] else 0.0)
    m["geometry.intersect_calls"] = len(by_name["geometry.intersect_halfplanes_2d"])
    m["geometry.halfplanes_in"] = count("geometry.intersect_halfplanes_2d", "halfplanes_in")
    m["geometry.facets_out"] = count("geometry.intersect_halfplanes_2d", "facets_out")
    m["geometry.facet_yield"] = (m["geometry.facets_out"] / m["geometry.halfplanes_in"]
                                 if m["geometry.halfplanes_in"] else 0.0)
    m["directional.quantile_calls"] = len(by_name["directional.directional_quantile"])
    m["regression.quantile_calls"] = len(by_name["regression.regression_quantile"])
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(
            1 for s in spans if s.error and s.name.split(".")[0] == layer)
    m["cli.errors"] += job_errors
    m["trace.job_wall_s"] = job_wall
    return m


# counts that depend only on the inputs and the program, never the machine
DETERMINISTIC = ("qr.solve_calls", "qr.pivots", "contour.arcs",
                 "geometry.halfplanes_in", "geometry.facets_out", "cli.bytes_out")


def misplaced(spans: list, intervals: list) -> list:
    """Spans that do not lie inside the (start, end) interval of their job."""
    return [s for s in spans
            if not intervals[s.job][0] <= s.start <= s.end <= intervals[s.job][1]]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_frac")):
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"
