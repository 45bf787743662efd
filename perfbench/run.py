"""pathalg benchmark: three workloads, their end-to-end metrics, and a traced run per layer.

    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, per-layer metrics
    python3 perfbench/run.py --workload corpus-windows --seed 7 --seconds 20 --trace 0

Each workload runs in a process of its own (worker.py), one client, one
thread, closed loop.  Set-up is timed from the start of that process until
its first job is ready, and repeated in fresh processes so that setup_s is
a median.  Times are reference seconds (speed.py); the report also shows
the measured wall-clock figures.  The human report comes first; the last line on stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"} for a single
workload, or {"workloads": {name: that object}} for several.
See perfbench/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import slowdown  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402  (stdlib-only; does not import pathalg)

WORKLOADS = ["gb-sklyanin", "resolve-koszul", "corpus-windows"]
DEFAULT_SEED = 20260808
SETUP_RUNS = 9  # set-ups per run; the last is the measured process's own
TIMEOUT_S = 170.0
END_TO_END_UNITS = {"ok_jobs_per_s": "1/s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Run worker.py; return (reference seconds until it printed READY, the rest of its stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    before = slowdown()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        ready *= 2.0 / (before + slowdown())
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, rest


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    deadline = perf_counter() + TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--scale", scale]
    setups = [_worker(base + ["--seconds", "0", "--setup-only"], deadline)[0] for _ in range(SETUP_RUNS - 1)]
    ready, out = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_samples"] = setups + [ready]
    result["setup_s"] = statistics.median(result["setup_samples"])
    return result


def _fmt(value) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


def report(name: str, result: dict, trace: int) -> dict:
    """Print the human report of one workload and return its JSON object."""
    jobs, passes = result["attempted"], result["passes"]
    print(f"== {name}: {passes} passes, {jobs} jobs, {result['failed']} failed; times in reference seconds")
    if not trace:
        rows = [
            ("ok_jobs_per_s", result["ok_jobs_per_s"], "1/s",
             f"median over {passes} passes (" + " ".join(f"{g:.4g}" for g in result["pass_goodput"])
             + f"); wall {_fmt(result['wall_ok_jobs_per_s'])}"),
            ("job_p50_s", result["job_p50_s"], "s",
             f"median of {jobs} jobs, a failed job counts as +inf; wall {_fmt(result['wall_job_p50_s'])}"),
            ("job_tail_s", "n/a" if result["job_tail_s"] is None else result["job_tail_s"], "s",
             f"needs >= 20 jobs, this run had {jobs}" if result["job_tail_s"] is None
             else f"p{result['job_tail_pct']:.2f} of {jobs} jobs, 10 beyond it"),
            ("failed_frac", result["failed"] / jobs, "ratio", f"{result['failed']} of {jobs} jobs"),
            ("setup_s", result["setup_s"], "s", f"median of {len(result['setup_samples'])} set-ups"),
            ("peak_rss_mb", result["peak_rss_mb"], "MB", "peak resident memory of the workload process"),
        ]
        for metric, value, unit, note in rows:
            print(f"  {metric:<16} {_fmt(value):>12} {unit:<6} {note}")
        metrics = {m: result[m] for m in END_TO_END_UNITS}
        if not all(isinstance(v, (int, float)) for v in metrics.values()):
            raise BenchError(f"{name}: more than half of the jobs failed, job_p50_s is +inf")
        units = END_TO_END_UNITS
    else:
        metrics, units = result["layers"], LAYER_UNITS
        print("  per layer, one traced pass; *_s are self times summed over the pass")
        for metric, unit in units.items():
            print(f"  {metric:<32} {_fmt(metrics[metric]):>12} {unit}")
        print("  per job: seconds, status, largest self times")
        for row in result["job_rows"]:
            top = sorted(row["self_s"].items(), key=lambda kv: -kv[1])[:3]
            print(f"    {row['job']:<40} {row['seconds']:9.4f} {'ok' if row['ok'] else 'FAILED':<6} "
                  + "  ".join(f"{k}={v:.4f}" for k, v in top))
    for reason, count in sorted(result["failures"].items(), key=lambda kv: -kv[1]):
        print(f"  failed {count} x {reason}")
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time per run (whole passes)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full", help="tiny is for the benchmark's tests")
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "pathalg" / "__init__.py").is_file():
        print(f"error: no pathalg sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    slowdown()  # let the interpreter specialise the speed loop before it is timed
    docs = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
            docs[name] = report(name, result, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(docs[names[0]] if len(names) == 1 else {"workloads": docs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
