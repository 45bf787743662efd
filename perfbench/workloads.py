"""The benchmark's workloads: their inputs, their jobs, and the check on each job's output.

A workload is a list of jobs.  A job is one call into pathalg (the library
for gb-sklyanin, the CLI's `run` for the other two) plus a check of what the
call returned.  Checks run after the job's clock has stopped.

`build(name, seed, scale, workdir)` is the whole set-up of a workload: it
generates the inputs from the seed, writes them as problem files under
`workdir`, and parses them back.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import pathalg.algebra as algebra
import pathalg.cli as cli
from pathalg import corpus
from pathalg.algebra import AlgebraElement
from pathalg.fields import Field
from pathalg.order import OrderSpec
from pathalg.presentation import ModulePresentation
from pathalg.problem import ProblemFile, parse, render
from pathalg.quiver import divides

INPUTS = Path(__file__).resolve().parent / "inputs"

# The corpus-windows algebras and modules are drawn at the test suite's seed;
# the run's seed only orders the jobs (see README.md, "Seeds").
CORPUS_SEED = 20260808

SCALES = {
    "full": {"gb_cap": 8, "gb_generic": 3, "poly3_degree": 11, "preproj3_degree": 16, "corpus_count": 200},
    "tiny": {"gb_cap": 5, "gb_generic": 1, "poly3_degree": 4, "preproj3_degree": 5, "corpus_count": 12},
}

# sha256 of the rendered reduced basis of the Sklyanin triple (2, 3, 5),
# recorded from pathalg as it stood when the benchmark was written.
SKLYANIN_235_DIGEST = {
    8: "0a55b97eae0529f69b7e3b6ad7de45e15775f37a52f1bb9abcb3c5b919e0523d",
    5: "97956bf6306070e81f7eea111e3216de5de83065a5432024cba6f5fa06651976",
}

ERROR = "error"  # the job raised, or exited with a code other than 0 or 1
WRONG = "wrong"  # the job answered, and the answer is wrong (FAIL verdict or bad output)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # Returns None for a right answer, else (ERROR or WRONG, reason).
    check: Callable[[object], tuple[str, str] | None]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    instances_s: float = 0.0  # time spent in corpus.instances during set-up


@dataclass
class CliOutcome:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliOutcome:
    """One in-process CLI run, as `pathalg <argv>` would do it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _cli_doc(outcome: CliOutcome):
    """The JSON document of a run that exited 0, or the failure that stands in its way."""
    if outcome.code != cli.EXIT_OK:
        kind = WRONG if outcome.code == cli.EXIT_FAIL else ERROR
        first = outcome.err.strip().splitlines()[:1] or ["(no diagnostic)"]
        return None, (kind, f"exit {outcome.code}: {first[0]}")
    try:
        return json.loads(outcome.out), None
    except json.JSONDecodeError:
        return None, (WRONG, "stdout is not one JSON document")


def _all_pass(doc) -> tuple[str, str] | None:
    bad = [f"n={v['n']} {v['method']}" for v in doc.get("verdicts", []) if v["status"] != "PASS"]
    if not doc.get("verdicts"):
        return WRONG, "no verdicts"
    return (WRONG, "FAIL verdicts: " + ", ".join(bad)) if bad else None


# ---------------------------------------------------------------- gb-sklyanin


def _is_generic(a: int, b: int, c: int, p: int = 101) -> bool:
    """Outside the degenerate Sklyanin locus: abc != 0 and (3abc)^3 != (a^3+b^3+c^3)^3 mod p."""
    return a * b * c % p != 0 and pow(3 * a * b * c, 3, p) != pow(a ** 3 + b ** 3 + c ** 3, 3, p)


def sklyanin_triples(seed: int, count: int) -> list[tuple[int, int, int]]:
    """(2, 3, 5) followed by `count` seeded generic triples over F_101."""
    rng = random.Random(seed)
    out = [(2, 3, 5)]
    while len(out) < count + 1:
        t = tuple(rng.randint(1, 100) for _ in range(3))
        if _is_generic(*t) and t not in out:
            out.append(t)
    return out


def basis_digest(gb) -> str:
    return hashlib.sha256("\n".join(g.render() for g in gb.elements).encode()).hexdigest()


def _gb_job(triple, pf: ProblemFile, cap: int) -> Job:
    def run():
        return algebra.groebner_basis(pf.ideal, pf.order, cap)

    def check(gb):
        if gb.status != f"truncated-at-degree-{cap}":
            return WRONG, f"status {gb.status}"
        for i, s in enumerate(gb.tips):
            for j, t in enumerate(gb.tips):
                if i != j and divides(s, t):
                    return WRONG, f"not reduced: tip {s} divides tip {t}"
        for g in pf.ideal:
            if algebra.normal_form(g, gb, pf.order):
                return WRONG, f"generator {g.render()} has a nonzero normal form"
        if triple == (2, 3, 5) and basis_digest(gb) != SKLYANIN_235_DIGEST.get(cap):
            return WRONG, "basis of (2, 3, 5) differs from the recorded one"
        return None

    return Job(f"sklyanin{triple}", run, check)


def _gb_sklyanin(seed: int, scale: dict, workdir: Path) -> Workload:
    template = (INPUTS / "sklyanin.template").read_text(encoding="utf-8")
    jobs = []
    for a, b, c in sklyanin_triples(seed, scale["gb_generic"]):
        path = workdir / f"sklyanin_{a}_{b}_{c}.alg"
        path.write_text(template.format(a=a, b=b, c=c), encoding="utf-8")
        pf = parse(path.read_text(encoding="utf-8"))
        jobs.append(_gb_job((a, b, c), pf, scale["gb_cap"]))
    return Workload("gb-sklyanin", jobs)


# ------------------------------------------------------------- resolve-koszul

# Koszul closed forms for P_0..P_3 of the simple tops A0.
KOSZUL_DEGREES = {
    "poly3_q": [[0], [1, 1, 1], [2, 2, 2], [3]],
    "poly3_f101": [[0], [1, 1, 1], [2, 2, 2], [3]],
    "preproj3": [[0, 0, 0], [1, 1, 1, 1, 1, 1], [2, 2, 2], []],
}
TOP_DIM = {"poly3_q": 1, "poly3_f101": 1, "preproj3": 3}


def _resolve_job(name: str, path: Path, degree: int) -> Job:
    argv = ["resolve", str(path), "--module", "A0", "--max-n", "3", "--max-degree", str(degree), "--json", "-"]

    def check(outcome):
        doc, bad = _cli_doc(outcome)
        if bad:
            return bad
        res = doc["resolution"]
        if res["degrees"] != KOSZUL_DEGREES[name]:
            return WRONG, f"degrees {res['degrees']}"
        if res["hilbert"] != [TOP_DIM[name]] + [0] * degree:
            return WRONG, f"Hilbert function {res['hilbert']}"
        return None

    return Job(f"resolve {name} D={degree}", lambda: run_cli(argv), check)


def _resolve_koszul(seed: int, scale: dict, workdir: Path) -> Workload:
    jobs = []
    for name in KOSZUL_DEGREES:
        path = INPUTS / f"{name}.alg"
        parse(path.read_text(encoding="utf-8"))
        degree = scale["preproj3_degree" if name == "preproj3" else "poly3_degree"]
        jobs.append(_resolve_job(name, path, degree))
    random.Random(seed).shuffle(jobs)
    return Workload("resolve-koszul", jobs)


# ------------------------------------------------------------- corpus-windows


def _corpus_jobs(tag: str, path: Path) -> list[Job]:
    # The verify A0 check compares against the chain table the overlaps job
    # printed for the same instance; the three jobs of an instance run in order.
    chains: dict[str, list[list[int]]] = {}

    def check_overlaps(outcome):
        chains.clear()
        doc, bad = _cli_doc(outcome)
        if bad:
            return bad
        if not doc["groebner"]["complete"]:
            return WRONG, "monomial basis reported incomplete"
        chains["lengths"] = [[len(w["word"].split("*")) for w in level["overlaps"]]
                             for level in doc["overlaps"]["levels"]]
        return None

    def check_a0(outcome):
        doc, bad = _cli_doc(outcome)
        if bad:
            return bad
        bad = _all_pass(doc)
        if bad:
            return bad
        if "lengths" not in chains:
            return ERROR, "no chain table: the overlaps job of this instance failed"
        cap = doc["resolution"]["degree_cap"]
        degrees = doc["resolution"]["degrees"]
        for n in range(1, len(degrees)):
            expected = sorted(d for d in chains["lengths"][n - 1] if d <= cap)
            if sorted(degrees[n]) != expected:
                return WRONG, f"P_{n} degrees {degrees[n]} differ from level-{n - 1} chain lengths {expected}"
        return None

    def check_r(outcome):
        doc, bad = _cli_doc(outcome)
        return bad or _all_pass(doc)

    p = str(path)
    overlaps = ["overlaps", p, "--quasi", "--max-n", "5", "--json", "-"]
    verify_a0 = ["verify", p, "--module", "A0", "--max-n", "4", "--json", "-"]
    verify_r = ["verify", p, "--module", "R", "--max-n", "4", "--json", "-"]
    return [
        Job(f"{tag} overlaps", lambda: run_cli(overlaps), check_overlaps),
        Job(f"{tag} verify A0", lambda: run_cli(verify_a0), check_a0),
        Job(f"{tag} verify R", lambda: run_cli(verify_r), check_r),
    ]


def corpus_problems(count: int) -> tuple[list[tuple[int, str]], float]:
    """The c7 corpus as problem texts, and the seconds spent in corpus.instances."""
    F = Field(0)
    t0 = perf_counter()
    drawn = corpus.instances(CORPUS_SEED, count)
    instances_s = perf_counter() - t0
    out = []
    for inst in drawn:
        if not corpus.normal_word_dims_ok(inst.quiver, inst.patterns, 10, block_cap=46):
            continue
        rng = random.Random(inst.seed)
        module_r = corpus.random_presentation(rng, inst.quiver, F, max_generators=2, max_relations=2,
                                              max_gen_degree=1, max_rel_degree=3)
        pf = ProblemFile(
            inst.quiver,
            OrderSpec.for_quiver(inst.quiver),
            F,
            [AlgebraElement({p: F.one}) for p in inst.patterns],
            {"A0": ModulePresentation.simple_tops(inst.quiver, F.one), "R": module_r},
        )
        out.append((inst.seed, render(pf)))
    return out, instances_s


def _corpus_windows(seed: int, scale: dict, workdir: Path) -> Workload:
    problems, instances_s = corpus_problems(scale["corpus_count"])
    random.Random(seed).shuffle(problems)
    jobs = []
    for inst_seed, text in problems:
        path = workdir / f"inst_{inst_seed}.alg"
        path.write_text(text, encoding="utf-8")
        parse(path.read_text(encoding="utf-8"))
        jobs += _corpus_jobs(f"inst{inst_seed}", path)
    return Workload("corpus-windows", jobs, instances_s)


BUILDERS = {
    "gb-sklyanin": _gb_sklyanin,
    "resolve-koszul": _resolve_koszul,
    "corpus-windows": _corpus_windows,
}


def build(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    return BUILDERS[name](seed, SCALES[scale], workdir)
