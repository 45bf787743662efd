"""Every benchmark workload builds at the tiny scale, and each of its jobs passes its own check.

The tier-1 suite does not run `perfbench/tests`, so without this a change
whose answers the benchmark would count as wrong could pass tier-1 unseen.
"""
import pytest

from tests.conftest import perfbench_module

workloads = perfbench_module("workloads")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_workload_jobs_pass_their_checks(name, tmp_path):
    workload = workloads.build(name, 20260808, "tiny", tmp_path)
    assert workload.jobs
    failures = {job.name: job.check(job.run()) for job in workload.jobs}
    assert {name: bad for name, bad in failures.items() if bad is not None} == {}
