"""One workload in one process: set up, print READY, run the closed loop, print the result.

run.py starts this script; it is not meant to be run by hand.  The first
line on stdout is READY once the first job could start (run.py times
set-up up to it); the last line is the result as one JSON object.

The loop is closed, single-threaded and runs whole passes over the job
list until --seconds have gone by, and at least MIN_PASSES of them.  With
--trace 1 it runs untraced passes for half the time, then exactly one
traced pass, so traced counts do not depend on the machine's speed.

While a pass runs, speed.Sampler samples the machine's speed ten times a
second.  A job's reference time is its wall time divided by the mean
slowdown of the samples taken while it ran and of the nearest sample on
either side of it.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from math import inf
from pathlib import Path
from time import perf_counter

from speed import Sampler, slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"  # generated inputs and span files; ignored by git
# An untraced run makes at least this many passes, so that the medians over
# passes and jobs rest on enough samples when the machine runs slow.
MIN_PASSES = 3


@dataclass
class JobResult:
    name: str
    start: float
    end: float  # end - start includes the time the speed sampler took from the job
    wall: float  # measured seconds of the job alone
    failure: tuple[str, str] | None  # (kind, reason); None for a right answer
    seconds: float = 0.0  # reference seconds: wall / slowdown


def run_pass(jobs, tracer=None) -> list[JobResult]:
    out: list[JobResult] = []
    with Sampler() as speed:
        for job in jobs:
            if tracer is not None:
                tracer.begin_job(job.name)
            spent = speed.spent
            t0 = perf_counter()
            try:
                outcome = job.run()
                raised = None
            except Exception as exc:  # a job that raises is a failed job; the loop goes on
                outcome, raised = None, exc
            finally:
                t1 = perf_counter()
                if tracer is not None:
                    tracer.end_job()
            if raised is not None:
                where = traceback.extract_tb(raised.__traceback__)[-1]
                failure = ("error", f"raised {type(raised).__name__}: {raised}"
                                    f" at {Path(where.filename).name}:{where.lineno}")
            else:
                try:
                    failure = job.check(outcome)
                except (KeyError, IndexError, TypeError, ValueError) as exc:  # output of an unexpected shape
                    failure = ("wrong", f"output check could not read the result: {exc!r}")
            out.append(JobResult(job.name, t0, t1, t1 - t0 - (speed.spent - spent), failure))
        speed.sample()
    for r in out:
        r.seconds = r.wall / speed.mean_slowdown(r.start, r.end)
    return out


def run_passes(jobs, seconds: float, min_passes: int = 1) -> list[list[JobResult]]:
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(jobs))
        if len(passes) >= min_passes and perf_counter() - start >= seconds:
            return passes


def goodput(results: list[JobResult], wall: bool = False) -> float:
    """Jobs that finished and passed their check, per (reference or wall) second of the pass."""
    return sum(r.failure is None for r in results) / sum(r.wall if wall else r.seconds for r in results)


def tail(times: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least 10 jobs beyond it."""
    if len(times) < 20:
        return None
    k = len(times) - 11
    return sorted(times)[k], 100.0 * (k + 1) / len(times)


def summarize(passes: list[list[JobResult]]) -> dict:
    results = [r for p in passes for r in p]
    times = [inf if r.failure else r.seconds for r in results]
    failures: dict[str, int] = {}
    for r in results:
        if r.failure:
            key = f"{r.failure[0]}: {r.failure[1]}"
            failures[key] = failures.get(key, 0) + 1
    t = tail(times)
    return {
        "passes": len(passes),
        "attempted": len(results),
        "failed": sum(r.failure is not None for r in results),
        "wrong": sum(r.failure is not None and r.failure[0] == "wrong" for r in results),
        "pass_goodput": [goodput(p) for p in passes],
        "ok_jobs_per_s": statistics.median(goodput(p) for p in passes),
        "job_p50_s": statistics.median(times),
        "job_tail_s": None if t is None else t[0],
        "job_tail_pct": None if t is None else t[1],
        "wall_ok_jobs_per_s": statistics.median(goodput(p, wall=True) for p in passes),
        "wall_job_p50_s": statistics.median(inf if r.failure else r.wall for r in results),
        "failures": failures,
    }


def _finite(value):
    """JSON has no infinity; +inf travels as the string '+inf'."""
    return "+inf" if value == inf else value


def run_workload(workload, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    import tracing

    if not trace:
        result = summarize(run_passes(workload.jobs, seconds, MIN_PASSES))
    else:
        untraced = run_passes(workload.jobs, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload.jobs, tracer)
        finally:
            tracer.restore()
        result = summarize(untraced + [traced])
        base = statistics.median(goodput(p) for p in untraced)
        # Spans include the sampler's time; this maps a job's span time onto its reference time.
        scale = [r.seconds / (r.end - r.start) for r in traced]
        own, per_job = tracer.self_times(scale)
        layers = tracing.layer_metrics(tracer, own, workload.instances_s)
        layers["trace.untraced_ok_jobs_per_s"] = base
        layers["trace.traced_ok_jobs_per_s"] = goodput(traced)
        layers["trace.overhead_frac"] = 1.0 - goodput(traced) / base if base else 0.0
        result["layers"] = layers
        result["job_rows"] = [
            {"job": r.name, "seconds": r.seconds, "ok": r.failure is None, "self_s": dict(job_own)}
            for r, job_own in zip(traced, per_job)
        ]
        if spans_path is not None:
            spans_path.write_text(json.dumps({"jobs": tracer.jobs, "spans": tracer.span_records()}) + "\n",
                                  encoding="utf-8")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for key in ("job_p50_s", "job_tail_s", "wall_job_p50_s"):
        result[key] = _finite(result[key])
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pathalg" / "__init__.py").is_file():
        print(f"error: no pathalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        workload = workloads.build(args.workload, args.seed, args.scale, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        slowdown()  # let the interpreter specialise the speed loop before it is timed
        spans_path = RUNS / f"spans-{args.workload}-{args.seed}.json" if args.trace else None
        result = run_workload(workload, args.seconds, bool(args.trace), spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
