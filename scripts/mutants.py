#!/usr/bin/env python3
"""The mutation gate: every mutant in MUTANTS must fail each test it names.

Usage: python scripts/mutants.py

A mutant is a file, an exact old text that occurs once in it, the new text
that replaces it, and the ids of the tests that must fail once it does.
Each mutant is applied alone to a fresh copy of the tree in a temporary
directory, and only its own tests run there.  A mutant survives when one of
its tests still passes; each survivor is reported as a finding, and the
exit status is then 1.

The gate takes a few seconds a mutant, so the tier-1 suite does not run it:
`tests/test_mutants.py` checks only that each old text still occurs exactly
once in its file, that each named test function is still defined, and that
each named test id, parametrization included, is collected.  A change to
code that a mutant covers updates that mutant in the same change.
"""
from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "chain criterion reads w[:-1]",
        "src/pathalg/algebra.py",
        "if find((a + right)[1:-1]) is not None:",
        "if find((a + right)[:-1]) is not None:",
        ("tests/test_algebra.py::test_random_completions_against_span_oracle",
         "tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]"),
    ),
    Mutant(
        "S-element adds instead of subtracting",
        "src/pathalg/algebra.py",
        "terms[w] = terms.get(w, 0) - d",
        "terms[w] = terms.get(w, 0) + d",
        ("tests/test_algebra.py::test_random_completions_against_span_oracle",
         "tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]"),
    ),
    Mutant(
        "insert takes its tip with max",
        "src/pathalg/algebra.py",
        "key = min(words, key=lambda w: (-len(w), w))",
        "key = max(words, key=lambda w: (-len(w), w))",
        ("tests/test_algebra.py::test_insert_takes_an_element_as_add_does[Q]",
         "tests/test_algebra.py::test_insert_takes_an_element_as_add_does[F7]"),
    ),
    Mutant(
        "first_syzygy absorbs below kept tips",
        "src/pathalg/syzygy.py",
        "if h.source == g.vertex and not below(j, length, i):",
        "if h.source == g.vertex:",
        ("tests/test_syzygy.py::test_first_syzygy_matches_the_path_reference_on_the_corpus",
         "tests/test_syzygy.py::test_absorbed_members_reduce_to_zero"),
    ),
    Mutant(
        "CoverSpace.block's summand tie-break reversed",
        "src/pathalg/oracle.py",
        "model.ranks[d - degrees[ji[0]]][ji[1]], -ji[0]))",
        "model.ranks[d - degrees[ji[0]]][ji[1]], ji[0]))",
        ("tests/test_syzygy.py::test_survivor_tips_are_the_term_order_tips",),
    ),
    Mutant(
        "kernel_pieces drops its count check",
        "src/pathalg/oracle.py",
        "if sub.dim != want:",
        "if False:",
        ("tests/test_oracle.py::test_a_count_off_by_one_is_an_error[2--1]",
         "tests/test_oracle.py::test_a_count_off_by_one_is_an_error[3--1]",
         "tests/test_oracle.py::test_a_count_off_by_one_is_an_error[3-1]",
         "tests/test_oracle.py::test_a_count_off_by_one_is_an_error[5-1]"),
    ),
    Mutant(
        "window survivor degrees drop the generator degree",
        "src/pathalg/cli.py",
        "sorted(pres.generators[j].degree + p.length for j, p in syz.survivors)",
        "sorted(p.length for j, p in syz.survivors)",
        ("tests/test_cli.py::test_window_survivor_degrees_count_the_generator_shift",),
    ),
    Mutant(
        "first_syzygy keeps no survivor tip",
        "src/pathalg/syzygy.py",
        "kept.add((j, length, i))",
        "pass",
        ("tests/test_golden.py::test_json_matches_golden[3]",
         "tests/test_syzygy.py::test_first_syzygy_cube_A0"),
    ),
]


def _failed(tree: pathlib.Path, tests: tuple[str, ...]) -> set[str]:
    """The ids that pytest reports FAILED or ERROR when it runs `tests` in `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest could not run {list(tests)} (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def survivors(mutant: Mutant) -> list[str]:
    """The mutant's tests that still pass with it applied; empty when the mutant is killed."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".runs"))
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        failed = _failed(tree, mutant.tests)
    # A test errors with its whole file when the file cannot be collected.
    return [t for t in mutant.tests if t not in failed and t.split("::")[0] not in failed]


def main() -> int:
    found = 0
    for mutant in MUTANTS:
        passing = survivors(mutant)
        found += bool(passing)
        print(f"SURVIVED {mutant.name}: {', '.join(passing)} still pass" if passing else f"killed   {mutant.name}")
    print(f"{len(MUTANTS) - found} of {len(MUTANTS)} mutants killed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
