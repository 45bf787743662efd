"""Tests of the benchmark itself (not of pathalg): python3 -m pytest perfbench/tests"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402

HUMAN_ONLY = {"job_tail_s": "s", "failed_frac": "ratio"}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--scale", "tiny", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--trace", "0")
    doc = last_json(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["attempted"] >= 1
    assert {m: v["unit"] for m, v in doc["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    for metric, unit in {**END_TO_END_UNITS, **HUMAN_ONLY}.items():
        line = next(ln for ln in proc.stdout.splitlines() if ln.split()[:1] == [metric])
        assert f" {unit} " in line + " "


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_runs_print_every_layer_metric_and_repeat_their_counts(name):
    first, second = (last_json(bench("--workload", name, "--trace", "1")) for _ in range(2))
    assert {m: v["unit"] for m, v in first["metrics"].items()} == tracing.LAYER_UNITS
    for metric, unit in tracing.LAYER_UNITS.items():
        if unit in ("count", "ratio") and metric != "trace.overhead_frac":
            assert first["metrics"][metric] == second["metrics"][metric], metric


def built(name, tmp_path):
    return workloads.build(name, 20260808, "tiny", tmp_path)


def test_tampered_degree_list_and_exit_code_count_as_failed(tmp_path):
    job = next(j for j in built("resolve-koszul", tmp_path).jobs if "poly3_q" in j.name)
    outcome = job.run()
    assert job.check(outcome) is None
    doc = json.loads(outcome.out)
    doc["resolution"]["degrees"][2] = [2, 2]
    tampered = workloads.CliOutcome(0, json.dumps(doc), "")
    assert job.check(tampered)[0] == workloads.WRONG
    assert job.check(workloads.CliOutcome(3, outcome.out, "cannot certify"))[0] == workloads.ERROR
    assert job.check(workloads.CliOutcome(1, outcome.out, ""))[0] == workloads.WRONG

    results = worker.run_pass([
        job,
        workloads.Job("tampered", lambda: tampered, job.check),
        workloads.Job("raises", lambda: 1 / 0, job.check),
        workloads.Job("malformed", lambda: workloads.CliOutcome(0, "{}", ""), job.check),
    ])
    summary = worker.summarize([results])
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (4, 3, 2)


def test_tampered_chain_correspondence_and_basis_count_as_failed(tmp_path):
    jobs = built("corpus-windows", tmp_path).jobs
    overlaps, a0 = jobs[0], jobs[1]
    assert overlaps.check(overlaps.run()) is None
    outcome = a0.run()
    assert a0.check(outcome) is None
    doc = json.loads(outcome.out)
    doc["resolution"]["degrees"][1].append(99)
    assert a0.check(workloads.CliOutcome(0, json.dumps(doc), ""))[0] == workloads.WRONG

    gb_job = built("gb-sklyanin", tmp_path).jobs[0]
    gb = gb_job.run()
    assert gb_job.check(gb) is None
    shrunk = type(gb)(gb.elements[:-1], gb.tips[:-1], gb.complete, gb.degree_bound, gb.order)
    assert gb_job.check(shrunk)[0] == workloads.WRONG


def test_untraced_run_sees_the_original_functions_and_tracing_restores_them(tmp_path):
    originals = [owner.__dict__[attr] for owner, attr in tracing.targets()]
    seen = []

    def probe():
        seen.append([owner.__dict__[attr] for owner, attr in tracing.targets()])
        return None

    workload = built("resolve-koszul", tmp_path)
    workload.jobs.append(workloads.Job("probe", probe, lambda _outcome: None))
    worker.run_workload(workload, 0, trace=False)
    assert seen[-1] == originals
    worker.run_workload(workload, 0, trace=True)
    assert all(a is not b for a, b in zip(seen[-1], originals))
    assert [owner.__dict__[attr] for owner, attr in tracing.targets()] == originals


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    proc = bench("--workload", "gb-sklyanin", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
