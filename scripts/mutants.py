#!/usr/bin/env python3
"""The mutation gate: every mutant in MUTANTS must fail each test it names.

Usage: python scripts/mutants.py

A mutant is a file, an exact old text that occurs once in it, the new text
that replaces it, and the ids of the tests that must fail once it does.
Each mutant is applied alone to a fresh copy of the tree in a temporary
directory, and only its own tests run there.  A mutant survives when one of
its tests still passes; each survivor is reported as a finding, and the
exit status is then 1.  A mutant whose tests run past TIMEOUT_S seconds is
stopped and reported as killed, named as timed out.

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
# A mutant's tests that run longer than this are stopped, and the mutant counts as killed:
# a runaway mutant must not stall the gate.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "back-substitution adds instead of subtracting",
        "src/pathalg/algebra.py",
        "form[j] = form.get(j, 0) - x * y",
        "form[j] = form.get(j, 0) + x * y",
        ("tests/test_algebra.py::test_random_completions_against_span_oracle",
         "tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]",
         "tests/test_oracle.py::test_action_tables_are_the_normal_forms[sklyanin_235.alg]"),
    ),
    Mutant(
        "the tip test reads the prefix instead of the suffix",
        "src/pathalg/algebra.py",
        "if key[1:] not in normal:",
        "if key[:-1] not in normal:",
        ("tests/test_algebra.py::test_random_completions_against_span_oracle",
         "tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]"),
    ),
    Mutant(
        "a row's pivot is taken as its largest column",
        "src/pathalg/algebra.py",
        "if min(row) in pivots:",
        "if max(row) in pivots:",
        ("tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]",
         "tests/test_oracle.py::test_action_tables_are_the_normal_forms[sklyanin_235.alg]"),
    ),
    Mutant(
        "a zero row recorded for one relation skips another's rows",
        "src/pathalg/algebra.py",
        "self._zero: list[set[tuple[int, ...]]] = [set() for _ in self._relations]",
        "self._zero: list[set[tuple[int, ...]]] = [set()] * len(self._relations)",
        ("tests/test_algebra.py::test_skipped_rows_lie_in_the_span_of_the_kept_rows",
         "tests/test_algebra.py::test_generator_lists_of_one_ideal_give_the_reference_basis[permutation-0]",
         "tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]"),
    ),
    Mutant(
        "rows are taken in descending term order",
        "src/pathalg/algebra.py",
        "for u in reversed(self._ending[d - e].get(v, ())):",
        "for u in self._ending[d - e].get(v, ()):",
        ("tests/test_algebra.py::test_skipped_rows_lie_in_the_span_of_the_kept_rows",
         "tests/test_algebra.py::test_generator_lists_of_one_ideal_give_the_reference_basis[permutation-0]",
         "tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]"),
    ),
    Mutant(
        "a row that enlarges the span is recorded as zero",
        "src/pathalg/algebra.py",
        "if not span.add(row):",
        "if span.add(row):",
        ("tests/test_algebra.py::test_skipped_rows_lie_in_the_span_of_the_kept_rows",
         "tests/test_algebra.py::test_sklyanin_completion_at_16_reduces_few_rows_to_zero",
         "tests/test_algebra.py::test_sklyanin_completion_against_a_reference_completion[triple0]"),
    ),
    Mutant(
        "no row is skipped",
        "src/pathalg/algebra.py",
        "if zero and any(word[s:] in zero for s in range(d - e + 1)):",
        "if False:",
        ("tests/test_algebra.py::test_sklyanin_completion_at_16_reduces_few_rows_to_zero",),
    ),
    Mutant(
        "the early stop fires one degree early",
        "src/pathalg/algebra.py",
        "(monomial or max_overlap <= d)",
        "(monomial or max_overlap <= d + 1)",
        ("tests/test_algebra.py::test_completion_stops_at_the_first_degree_known_complete",
         "tests/test_algebra.py::test_seeded_problems_against_the_reference_completion_levels_and_normal_forms"),
    ),
    Mutant(
        "the prefix table holds whole tips",
        "src/pathalg/algebra.py",
        "if k < n and by_prefix.get(key[:k], 0) < n:",
        "if by_prefix.get(key[:k], 0) < n:",
        ("tests/test_algebra.py::test_max_overlap_degree_is_the_pairwise_maximum_on_seeded_antichains",),
    ),
    Mutant(
        "a word's overlaps with itself are skipped",
        "src/pathalg/algebra.py",
        """        for k in range(1, n + 1):
            if k < n and by_prefix.get(key[:k], 0) < n:
                by_prefix[key[:k]] = n
            if by_suffix.get(key[n - k:], 0) < n:
                by_suffix[key[n - k:]] = n
        best = self.degree
        for k in range(1, n + 1):
            m = max(by_prefix.get(key[n - k:], 0), by_suffix.get(key[:k], 0) if k < n else 0)
            if m and n + m - k > best:
                best = n + m - k
""",
        """        best = self.degree
        for k in range(1, n + 1):
            m = max(by_prefix.get(key[n - k:], 0), by_suffix.get(key[:k], 0) if k < n else 0)
            if m and n + m - k > best:
                best = n + m - k
        for k in range(1, n + 1):
            if k < n and by_prefix.get(key[:k], 0) < n:
                by_prefix[key[:k]] = n
            if by_suffix.get(key[n - k:], 0) < n:
                by_suffix[key[n - k:]] = n
""",
        ("tests/test_algebra.py::test_max_overlap_degree_is_the_pairwise_maximum_on_seeded_antichains",
         "tests/test_algebra.py::test_max_overlap_degree_is_the_pairwise_maximum_on_the_fixtures_and_sklyanin"),
    ),
    Mutant(
        "a basis row takes u as the word w itself",
        "src/pathalg/algebra.py",
        "u = parent[e][u][0]",
        "pass",
        ("tests/test_oracle.py::test_a_model_past_completion_eliminates_nothing",),
    ),
    Mutant(
        "a product is matched against the longest tip length only",
        "src/pathalg/algebra.py",
        "for n in lengths:",
        "for n in lengths[-1:]:",
        ("tests/test_oracle.py::test_a_model_past_completion_eliminates_nothing",),
    ),
    Mutant(
        "a duplicate tip keeps the last element",
        "src/pathalg/algebra.py",
        "self._first.setdefault(key, len(self.keys))",
        "self._first[key] = len(self.keys)",
        ("tests/test_algebra.py::test_tip_index_find_against_a_factor_search[duplicate]",),
    ),
    Mutant(
        "find keeps a later occurrence of its element",
        "src/pathalg/algebra.py",
        "if k is not None and k < best:",
        "if k is not None and k <= best:",
        ("tests/test_algebra.py::test_tip_index_find_against_a_factor_search[antichain]",
         "tests/test_algebra.py::test_tip_index_find_against_a_factor_search[two-vertex]"),
    ),
    Mutant(
        "the heap takes the shortest word first",
        "src/pathalg/algebra.py",
        "heap = [(-len(w), w) for w in terms]",
        "heap = [(len(w), w) for w in terms]",
        ("tests/test_algebra.py::test_normal_form_takes_longer_words_first",),
    ),
    Mutant(
        "the heap takes a rewritten word after every word of the input",
        "src/pathalg/algebra.py",
        "heappush(heap, (-len(word), word))",
        "heappush(heap, (len(word), word))",
        ("tests/test_acceptance.py::test_c8_normal_form_agrees_with_membership_oracle",
         "tests/test_algebra.py::test_random_completions_against_span_oracle"),
    ),
    Mutant(
        "normal_form skips its field intake",
        "src/pathalg/algebra.py",
        "x = _reduced(x, order.field)",
        "pass",
        ("tests/test_problem.py::test_raw_ints_are_reduced_on_intake",),
    ),
    Mutant(
        "tip reads a coefficient as it is, not in the order's field",
        "src/pathalg/algebra.py",
        "if field.of(c)] if field.characteristic",
        "if c] if field.characteristic",
        ("tests/test_algebra.py::test_tip_reads_coefficients_in_the_order_field",),
    ),
    Mutant(
        "from_terms reads a relation term as it is, not in the field",
        "src/pathalg/oracle.py",
        "c = of(c)",
        "pass",
        ("tests/test_syzygy.py::test_first_syzygy_reads_a_fraction_in_the_field",),
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
        "for j in reversed(range(len(self.summands))):",
        "for j in range(len(self.summands)):",
        ("tests/test_syzygy.py::test_survivor_tips_are_the_term_order_tips",
         "tests/test_oracle.py::test_cover_blocks_are_the_reference_blocks"),
    ),
    Mutant(
        "extend keeps the cover tables of the old cap",
        "src/pathalg/oracle.py",
        "self._covers = {}  # blocks of the old cap lack the new words",
        "pass",
        ("tests/test_oracle.py::test_extend_drops_the_cover_tables_of_the_old_cap",),
    ),
    Mutant(
        "a cover row is relabelled through the source block's columns",
        "src/pathalg/oracle.py",
        "_, pos = self.block(d + 1, a.target)",
        "_, pos = self.block(d, a.source)",
        ("tests/test_oracle.py::test_cover_rows_built_when_first_read_are_the_relabelled_model_rows",),
    ),
    Mutant(
        "minimal substitutes t/a for a generator, not -t/a",
        "src/pathalg/presentation.py",
        "scale = -field.inverse(c.pop((g, Path(v, v))))",
        "scale = field.inverse(c.pop((g, Path(v, v))))",
        ("tests/test_oracle.py::test_minimal_cube_nonminimal_keeps_only_g0",
         "tests/test_oracle.py::test_minimal_splits_a_relation_by_the_target_of_its_paths",
         "tests/test_oracle.py::test_non_minimal_presentation_resolves_like_its_minimal_one[summed-0]",
         "tests/test_oracle.py::test_non_minimal_presentation_resolves_like_its_minimal_one[summed-7]"),
    ),
    Mutant(
        "minimal does not split relations by the target of their paths",
        "src/pathalg/presentation.py",
        "parts.setdefault(w.target, {})[(i, w)] = c",
        "parts.setdefault(None, {})[(i, w)] = c",
        ("tests/test_oracle.py::test_minimal_splits_a_relation_by_the_target_of_its_paths",
         "tests/test_oracle.py::test_seeded_non_minimal_presentations_resolve_like_the_reference"),
    ),
    Mutant(
        "the new-lead test accepts any single-term product",
        "src/pathalg/oracle.py",
        "(sub.add(img) if min(img) in pivots else sub.insert(img))",
        "(sub.add(img) if min(img) in pivots and len(img) > 1 else sub.insert(img))",
        ("tests/test_oracle.py::test_spans_by_labels_are_the_reference_spans",
         "tests/test_oracle.py::test_counted_kernels_resolve_like_the_full_kernel_route",
         "tests/test_cli.py::test_resolve_command"),
    ),
    Mutant(
        "a colliding lead inserted without add",
        "src/pathalg/oracle.py",
        "(sub.add(img) if min(img) in pivots else sub.insert(img))",
        "sub.insert(img)",
        ("tests/test_oracle.py::test_spans_by_labels_are_the_reference_spans",
         "tests/test_oracle.py::test_counted_kernels_resolve_like_the_full_kernel_route",
         "tests/test_oracle.py::test_resolution_cube_fixture"),
    ),
    Mutant(
        "labels taken in descending order",
        "src/pathalg/oracle.py",
        "for g, n, j, img in runs[0]:",
        "for g, n, j, img in sorted(chain(*runs), key=lambda c: (-c[0], place[c[1]][c[2]])):",
        ("tests/test_oracle.py::test_spans_by_labels_are_the_reference_spans",
         "tests/test_oracle.py::test_sklyanin_a0_resolution_reduces_few_rows_to_zero"),
    ),
    Mutant(
        "a generator labelled with index 0",
        "src/pathalg/oracle.py",
        "self.labels[(d, v)].append((len(self.generators), 0,",
        "self.labels[(d, v)].append((0, 0,",
        ("tests/test_oracle.py::test_spans_by_labels_are_the_reference_spans",),
    ),
    Mutant(
        "the normal-word skip disabled",
        "src/pathalg/oracle.py",
        "if len(step) == 1 and parent[n + 1][step[0][0]] == (i, k):",
        "if step:",
        ("tests/test_oracle.py::test_sklyanin_a0_resolution_reduces_few_rows_to_zero",),
    ),
    Mutant(
        "the full-block stop fires one row early",
        "src/pathalg/oracle.py",
        "full = full and sub.dim == n",
        "full = full and sub.dim >= n - 1",
        ("tests/test_oracle.py::test_spans_by_labels_are_the_reference_spans",
         "tests/test_oracle.py::test_a_generator_above_a_full_degree_does_not_stop_the_span"),
    ),
    Mutant(
        "the span stop ignores the top summand degree",
        "src/pathalg/oracle.py",
        "full = d >= top",
        "full = True",
        ("tests/test_oracle.py::test_a_generator_above_a_full_degree_does_not_stop_the_span",),
    ),
    Mutant(
        "a stopped span reports dim 0 above the stop",
        "src/pathalg/oracle.py",
        "return self.cover.dim(d, v)",
        "return 0",
        ("tests/test_oracle.py::test_a0_relation_spans_stop_once_they_fill_the_cover[poly3_f101.alg]",
         "tests/test_oracle.py::test_a0_relation_spans_stop_once_they_fill_the_cover[poly3_q.alg]",
         "tests/test_oracle.py::test_a0_relation_spans_stop_once_they_fill_the_cover[preproj3.alg]",
         "tests/test_oracle.py::test_spans_by_labels_are_the_reference_spans",
         "tests/test_oracle.py::test_counted_syzygy_dims_are_the_koszul_complex[poly3_q.alg]"),
    ),
    Mutant(
        "the table walk keeps only the first entry of a row with several entries",
        "src/pathalg/algebra.py",
        "vec = [(j, c * x % p if p else c * x) for j, x in table[col]]",
        "vec = [(j, c * x % p if p else c * x) for j, x in table[col][:1]]",
        ("tests/test_oracle.py::test_relation_seeds_read_through_the_tables_are_the_normal_forms[8]",
         "tests/test_algebra.py::test_seeded_problems_against_the_reference_completion_levels_and_normal_forms",
         "tests/test_algebra.py::test_random_completions_against_span_oracle"),
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
    Mutant(
        "groebner counts normal words to degree 7",
        "src/pathalg/cli.py",
        "build_model(pf.quiver, gb, min(gb.degree_bound, 8)).dims()",
        "build_model(pf.quiver, gb, 7).dims()",
        ("tests/test_cli.py::test_groebner_normal_word_counts_are_the_normal_word_levels[8]",
         "tests/test_cli.py::test_groebner_normal_word_counts_are_the_normal_word_levels[12]",
         "tests/test_cli.py::test_groebner_command"),
    ),
    Mutant(
        "parser lets a single-valued setting repeat",
        "src/pathalg/problem.py",
        "if key in seen:",
        "if False:",
        ("tests/test_problem.py::test_a_single_valued_setting_appears_at_most_once[field-line]",
         "tests/test_problem.py::test_a_single_valued_setting_appears_at_most_once[field-section]",
         "tests/test_problem.py::test_a_single_valued_setting_appears_at_most_once[order-arrows]",
         "tests/test_problem.py::test_a_single_valued_setting_appears_at_most_once[order-vertices]",
         "tests/test_problem.py::test_a_single_valued_setting_appears_at_most_once[params-key]"),
    ),
]


def _failed(tree: pathlib.Path, tests: tuple[str, ...]) -> set[str] | None:
    """The ids that pytest reports FAILED or ERROR when it runs `tests` in `tree`; None if it ran out of time."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
                              cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest could not run {list(tests)} (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def survivors(mutant: Mutant) -> list[str] | None:
    """The mutant's tests that still pass with it applied; empty when the mutant is killed, None when it timed out."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".runs"))
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        failed = _failed(tree, mutant.tests)
    if failed is None:
        return None
    # A test errors with its whole file when the file cannot be collected.
    return [t for t in mutant.tests if t not in failed and t.split("::")[0] not in failed]


def main() -> int:
    found = 0
    for mutant in MUTANTS:
        passing = survivors(mutant)
        found += bool(passing)
        if passing is None:
            print(f"killed   {mutant.name} (timed out after {TIMEOUT_S} s)")
        else:
            print(f"SURVIVED {mutant.name}: {', '.join(passing)} still pass" if passing else f"killed   {mutant.name}")
    print(f"{len(MUTANTS) - found} of {len(MUTANTS)} mutants killed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
