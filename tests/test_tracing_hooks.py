"""The benchmark tracer's hooks still name live attributes of the program.

`perfbench/tracing.py` replaces module-level names and class methods
through their owners' `__dict__`, and reads its span results with the
`OBSERVE` lambdas.  The tier-1 suite does not run `perfbench/tests`, so
these checks keep a refactor from breaking a traced benchmark run
(`perfbench/run.py --trace 1`) unseen.
"""
import contextlib
import io

import pathalg.cli
from tests.conftest import ROOT, perfbench_module

tracing = perfbench_module("tracing")


def test_every_traced_name_lives_in_its_owners_dict():
    missing = [f"{owner.__name__}.{leaf}" for owner, leaf in tracing.targets() if leaf not in owner.__dict__]
    assert missing == []


def test_a_traced_verify_run_observes_every_span_result():
    targets = tracing.targets()
    originals = [owner.__dict__[leaf] for owner, leaf in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job("verify")
        with contextlib.redirect_stdout(io.StringIO()):
            code = pathalg.cli.run(["verify", str(ROOT / "fixtures" / "two_loop_cube.alg"), "--module", "X",
                                    "--max-n", "3"])
        tracer.end_job()
    finally:
        tracer.restore()
    assert code == 0
    assert [owner.__dict__[leaf] for owner, leaf in targets] == originals
    assert set(tracing.OBSERVE) <= {span[0] for span in tracer.spans}
    counts = tracer.counts
    assert counts["algebra.basis_elements"] == 4 and counts["oracle.max_block_dim"] == 2
    assert counts["overlaps.chain_words"] > 0 and counts["overlaps.quasi_words"] > 0
    assert (counts["syzygy.survivors"], counts["syzygy.absorbed"]) == (2, 2)
