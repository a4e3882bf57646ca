"""Quantour benchmark: seeded CLI jobs run in-process in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout.  One client in one process
calls ``quantour.cli.main`` for each job of the workload (see
``workloads.py``) and starts the next job only when the previous one has
returned, so no job ever waits in a queue and there is no wait-time
metric.  Whole passes over the job list repeat until ``--seconds`` have
elapsed.  Every output is checked independently (``checks.py``) and its
bytes are hashed against the committed reference digests
(``digests.json``, written by ``record_digests.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then traced passes (at least two), reports the
per-layer metrics of the traced passes (``spans.py``) and requires the
machine-independent counts to repeat exactly between them and every span
to lie inside its job.  The human-readable report comes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread (never above nproc), set before numpy loads
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
# relative to ROOT: fig2 repeats its --output-dir in its JSON, so the
# directory name must not depend on where the checkout lives
WORK = Path(".bench_work")
FIG2_DIR = WORK / "fig2"
# fresh-interpreter import probes per run, about 0.2 s each
SETUP_REPS = 15
# two traced passes show that the machine-independent counts repeat
MIN_TRACED_PASSES = 2
JITTER_WARNING = "applied jitter"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quantour.cli; "
                "print(repr(time.perf_counter() - t))")

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s"}
SUBCOMMANDS = ("contour", "km", "scan", "depth", "quantile", "fig2", "regress")


@dataclass
class Outcome:
    """One finished job: wall time, stdout size, output digest, failure."""

    command: str
    start: float
    end: float
    bytes_out: int
    digest: str = ""
    error: str | None = None
    exit_ok: bool = True  # False when main() returned nonzero or raised

    @property
    def wall(self) -> float:
        return self.end - self.start


def _check(job, text: bytes, seen: dict):
    """Digest of stdout (plus fig2's artifacts) and the independent check."""
    h = hashlib.sha256(text)
    try:
        payload = json.loads(text)
        for artifact in payload["result"].get("artifacts", []):
            h.update(Path(artifact).read_bytes())
        error = checks.check_job(job, payload, seen)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        error = f"{job.label}: unreadable output: {exc!r}"
    return h.hexdigest()[:16], error


def run_job(cli_main, job, seen: dict) -> Outcome:
    """Run one CLI job; check its output outside the timed region."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(job.argv)
    except (Exception, SystemExit) as exc:
        raised = exc
    t1 = perf_counter()
    text = out.getvalue().encode("utf-8")
    outcome = Outcome(job.command, t0, t1, len(text))
    stderr = err.getvalue().strip()
    if raised is not None or code != 0:
        outcome.exit_ok = False
        outcome.error = f"{job.label}: exit {code}, raised {raised!r}: {stderr[:300]}"
    elif JITTER_WARNING in stderr:
        # the jitter path is not the program this workload measures
        outcome.error = f"{job.label}: {stderr[:300]}"
    else:
        outcome.digest, outcome.error = _check(job, text, seen)
    return outcome


def run_pass(cli_main, jobs, tracer=None) -> list:
    seen: dict = {}
    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        outcomes.append(run_job(cli_main, job, seen))
    return outcomes


def load_cli():
    """quantour.cli.main from this checkout's src/, with ROOT as cwd."""
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from quantour.cli import main as cli_main

    return cli_main


@contextlib.contextmanager
def prepared(workload: str, seed: int):
    """The workload's jobs, with input files in a temporary directory."""
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            yield workloads.WORKLOADS[workload](seed, Path(tmp), FIG2_DIR)
    finally:
        shutil.rmtree(FIG2_DIR, ignore_errors=True)


def measure_setup() -> list:
    """Seconds a fresh interpreter takes to import quantour.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout))
    return times


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "not a git checkout"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        sha = ((ROOT / ".git" / head[5:]).read_text().strip()
               if head.startswith("ref: ") else head)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "thread_caps": THREAD_CAPS}


def digest_mismatches(workload: str, seed: int, passes: list):
    """Jobs whose digest differs from the committed reference for this seed.

    Seeds without a committed reference are compared with the first pass,
    which still catches output that changes from pass to pass.
    """
    ref = None
    with contextlib.suppress(OSError):
        ref = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    source = "committed"
    if ref is None:
        ref, source = [o.digest for o in passes[0]], "first pass"
    bad = 0
    for outcomes in passes:
        if len(ref) != len(outcomes):
            bad += len(outcomes)
        else:
            bad += sum(o.digest != r for o, r in zip(outcomes, ref))
    return bad, source


def end_to_end(passes: list, setup: list, mismatched: int) -> dict:
    """Every end-to-end metric: name -> (value or None, unit, samples).

    A job's time is the median of its wall times over the passes, so a
    burst of machine load that slows one pass does not move it; the job
    timings below are taken over these per-job medians.
    """
    outcomes = [o for p in passes for o in p]
    per_job = [statistics.median(p[j].wall for p in passes) for j in range(len(passes[0]))]
    done = sum(o.error is None for o in outcomes) / len(outcomes)
    n = len(outcomes)
    m = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "jobs_per_s": (done * len(per_job) / sum(per_job), "1/s", n),
        "job_p50_s": (statistics.median(per_job), "s", n),
        "job_p90_s": (spans.p90(per_job), "s", n),
    }
    for cmd in SUBCOMMANDS:
        sel = [t for t, o in zip(per_job, passes[0]) if o.command == cmd]
        m[f"{cmd}_s"] = (statistics.median(sel) if sel else None, "s", len(sel) * len(passes))
    m["failed_frac"] = (1.0 - done, "ratio", n)
    m["digest_mismatch"] = (mismatched, "count", n)
    return m


def traced_metrics(traced: list, untraced: list) -> tuple:
    """Per-layer metrics averaged over traced passes, and self-check errors."""
    per_pass = []
    for outcomes, recorded in traced:
        per_pass.append(spans.layer_metrics(
            recorded,
            job_wall=sum(o.wall for o in outcomes),
            bytes_out=sum(o.bytes_out for o in outcomes),
            job_errors=sum(not o.exit_ok for o in outcomes)))
    problems = []
    for key in spans.DETERMINISTIC:
        values = [m[key] for m in per_pass]
        if len(set(values)) != 1:
            problems.append(f"{key} differs between traced passes: {values}")
    for (outcomes, recorded), m in zip(traced, per_pass):
        intervals = [(o.start, o.end) for o in outcomes]
        for span in spans.misplaced(recorded, intervals)[:5]:
            problems.append(f"span {span.name} lies outside job {span.job}")
        if m["cli.other_s"] < 0:
            problems.append(f"cli.other_s is negative: {m['cli.other_s']!r}")
    avg = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    for k, v in per_pass[0].items():
        if isinstance(v, int):
            avg[k] = v
    untraced_wall = statistics.fmean(sum(o.wall for o in p) for p in untraced)
    avg["trace.overhead_frac"] = avg["trace.job_wall_s"] / untraced_wall - 1.0
    return avg, problems


def _fmt(value) -> str:
    if value is None:
        return "null"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quantour" / "cli.py").is_file():
        print(f"error: {SRC / 'quantour'} is missing; run inside a quantour source "
              "checkout", file=sys.stderr)
        return 2
    cli_main = load_cli()

    env = environment()
    untraced, traced = [], []
    with prepared(args.workload, args.seed) as jobs:
        setup = measure_setup()
        t0 = perf_counter()
        if args.trace:
            untraced.append(run_pass(cli_main, jobs))
            while len(traced) < MIN_TRACED_PASSES or perf_counter() - t0 < args.seconds:
                with spans.Tracer() as tracer:
                    traced.append((run_pass(cli_main, jobs, tracer), tracer.spans))
        else:
            while not untraced or perf_counter() - t0 < args.seconds:
                untraced.append(run_pass(cli_main, jobs))
        elapsed = perf_counter() - t0

    passes = untraced + [outcomes for outcomes, _spans in traced]
    outcomes = [o for p in passes for o in p]
    failures = [o.error for o in outcomes if o.error is not None]
    mismatched, source = digest_mismatches(args.workload, args.seed, passes)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(traced)} traced)  jobs/pass {len(jobs)}  elapsed {elapsed:.1f} s")
    print("closed loop, 1 client, 1 process; " + json.dumps(env))
    for error in failures[:20]:
        print(f"FAILED {error}")
    print(f"digests compared with the {source} reference: {mismatched} mismatched")
    e2e = end_to_end(untraced, setup, mismatched)
    print(f"{'end-to-end metric':<34}{'value':>14}  unit   samples")
    for name, (value, unit, n) in e2e.items():
        print(f"{name:<34}{_fmt(value):>14}  {unit:<6} {n}")

    correct = not failures and mismatched == 0
    if args.trace:
        layer, problems = traced_metrics(traced, untraced)
        for problem in problems:
            print(f"SELF-CHECK {problem}")
        correct = correct and not problems
        print(f"{'per-layer metric (per traced pass)':<34}{'value':>14}  unit")
        for name, value in layer.items():
            print(f"{name:<34}{_fmt(value):>14}  {spans.unit_of(name)}")
        reported = {name: (value, spans.unit_of(name)) for name, value in layer.items()}
    else:
        reported = {name: (e2e[name][0], unit) for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
