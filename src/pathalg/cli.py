"""Command line front end.

Commands (all take a problem file):

    groebner                       reduced basis with completeness status
    overlaps [--quasi]             chain table of the basis tips
    window --module M --method qo|o   degree windows for the named module
    resolve --module M             oracle resolution report
    verify --module M              windows vs oracle, PASS/FAIL verdicts
    check --s-koszul S | --determined SPEC
    selfcheck [--seed N --instances K]   randomized property corpus

A run has one degree cap D: --max-degree, else [params] max-degree, else
DEFAULT_DEGREE_CAP (12).  Completion, the algebra model, the first syzygy
and the resolution all stop at D; a basis completed to D is exact in
degrees <= D.  verify with no explicit cap runs its oracle up to the
degree its windows need, or to its highest generator if that is higher,
from a basis that is complete.

Every run renders a human table on stdout and can emit one deterministic
JSON document (--json PATH, '-' for stdout).  Exit codes: 0 success,
1 a mathematical verdict failed, 2 input errors, 3 the requested answer
needs degrees above D.  overlaps, window, verify and check --s-koszul read
chain extrema, which a tip above D can change, so they exit 3 whenever the
basis is truncated at D.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import islice
from math import inf

from . import corpus as corpus_mod
from .algebra import groebner_basis
from .errors import PathAlgError
from .koszul import DegreeCollection, determined_check, s_koszul_criterion
from .oracle import build_model, minimal_resolution, verify_windows
from .overlaps import enumerate_overlaps
from .presentation import ModulePresentation
from .problem import ParseError, ProblemFile, parse
from .quiver import normal_word_levels
from .syzygy import degree_window, first_syzygy, window_consistency

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_TRUNCATED = 3

FORMAT_NAME = "pathalg-report"
FORMAT_VERSION = 1

DEFAULT_DEGREE_CAP = 12


def _jsonable(value):
    if value == inf:
        return "+inf"
    if value == -inf:
        return "-inf"
    return value


def _window_doc(w):
    return {"n": w.n, "method": w.method, "lo": _jsonable(w.lo), "hi": _jsonable(w.hi), "empty": w.empty}


class Report:
    """Accumulates the human rendering and the JSON document side by side."""

    def __init__(self, command: str, options: dict):
        self.lines: list[str] = []
        self.doc: dict = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "command": command,
            "options": {k: options[k] for k in sorted(options)},
        }
        self.exit_code = EXIT_OK

    def say(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, headers: list[str], rows: list[list[str]]) -> None:
        widths = [len(h) for h in headers]
        for row in rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        fmt = "  ".join("{:<" + str(w) + "}" for w in widths)
        self.say(fmt.format(*headers))
        self.say(fmt.format(*["-" * w for w in widths]))
        for row in rows:
            self.say(fmt.format(*row))

    def worsen(self, code: int) -> None:
        order = {EXIT_OK: 0, EXIT_FAIL: 1, EXIT_TRUNCATED: 2, EXIT_INPUT: 3}
        if order[code] > order[self.exit_code]:
            self.exit_code = code

    def human(self) -> str:
        return "\n".join(self.lines) + "\n"

    def json_text(self) -> str:
        self.doc["exit_code"] = self.exit_code
        return json.dumps(self.doc, sort_keys=True, indent=2) + "\n"


def _describe_input(pf: ProblemFile) -> dict:
    return {
        "vertices": list(pf.quiver.vertices),
        "arrows": [[a.name, a.source, a.target] for a in pf.quiver.arrows],
        "field": pf.field.name,
        "ideal": [g.render() for g in pf.ideal],
        "modules": sorted(pf.modules),
    }


def _gb_doc(gb) -> dict:
    return {
        "status": gb.status,
        "complete": gb.complete,
        "degree_bound": gb.degree_bound,
        "max_overlap_degree": gb.max_overlap_degree,
        "elements": [g.render() for g in gb.elements],
        "tips": [str(t) for t in gb.tips],
    }


def _degree_cap(args) -> int:
    """The run's one degree cap D."""
    return DEFAULT_DEGREE_CAP if args.max_degree is None else args.max_degree


def _compute_gb(pf: ProblemFile, args, report: Report):
    """The basis completed to the run's cap, also recorded in the report."""
    gb = groebner_basis(pf.ideal, pf.order, _degree_cap(args))
    report.doc["groebner"] = _gb_doc(gb)
    return gb


def cmd_groebner(pf: ProblemFile, args, report: Report) -> None:
    gb = _compute_gb(pf, args, report)
    report.say(f"Groebner basis ({gb.status}), {len(gb.elements)} elements:")
    report.table(
        ["tip", "element"],
        [[str(t), g.render()] for t, g in zip(gb.tips, gb.elements)],
    )
    dims = [len(level) for level in islice(normal_word_levels(pf.quiver, gb.tips), min(gb.degree_bound, 8) + 1)]
    report.doc["groebner"]["normal_word_counts"] = dims
    report.say(f"normal word counts by degree: {dims}")


def cmd_overlaps(pf: ProblemFile, args, report: Report) -> None:
    gb = _compute_gb(pf, args, report)
    if not gb.complete:
        report.say(f"warning: {gb.status}; the tip set is not certified")
        report.worsen(EXIT_TRUNCATED)
    table = enumerate_overlaps(pf.quiver, gb.tips, args.max_n, quasi=args.quasi)
    levels_doc = []
    for n in range(table.depth + 1):
        mino, maxo, minq, maxq = table.extrema(n)
        entries, rows = [], []
        for w in table.overlaps(n):
            pred = table.levels[n][w]
            pred = None if pred is None else str(pred)
            entries.append({"word": str(w), "predecessor": pred})
            rows.append([str(w), str(w.length), pred or ""])
        level_doc = {
            "n": n,
            "overlaps": entries,
            "extrema": {
                "min_overlap": _jsonable(mino),
                "max_overlap": _jsonable(maxo),
                "min_quasi": _jsonable(minq),
                "max_quasi": _jsonable(maxq),
            },
        }
        qentries, qrows = [], []
        if args.quasi:
            for (w, v) in table.quasi(n):
                pred = table.quasi_levels[n][(w, v)]
                pred = None if pred is None else str(pred)
                qentries.append({"word": str(w), "context": str(v), "predecessor": pred})
                qrows.append([str(w), str(v), str(w.length), pred or ""])
            level_doc["quasi"] = qentries
        levels_doc.append(level_doc)
        report.say(f"level {n}: {len(entries)} overlaps" + (f", {len(qentries)} quasi" if args.quasi else ""))
        if rows:
            report.table(["word", "len", "predecessor"], rows)
        if qrows:
            report.table(["word", "context", "len", "predecessor"], qrows)
    report.doc["overlaps"] = {"levels": levels_doc, "quasi_included": bool(args.quasi)}


def _windows_block(pf: ProblemFile, gb, pres, args):
    D = _degree_cap(args)
    model = build_model(pf.quiver, gb, D)
    syz = first_syzygy(pres, model, D)
    table = enumerate_overlaps(pf.quiver, gb.tips, max(args.max_n, 1))
    windows = []
    for n in range(1, args.max_n + 1):
        qo = degree_window(n, syz.min_degree, syz.max_degree, table, "quasi")
        ov = degree_window(n, syz.min_degree, syz.max_degree, table, "overlap")
        windows.append((n, qo, ov))
    return model, syz, table, windows


def cmd_window(pf: ProblemFile, args, report: Report) -> None:
    gb = _compute_gb(pf, args, report)
    pres = _named_module(pf, args, report)
    if pres is None:
        return
    if not gb.complete:
        report.say(f"cannot certify windows: {gb.status}")
        report.worsen(EXIT_TRUNCATED)
        return
    model, syz, table, windows = _windows_block(pf, gb, pres, args)
    report.doc["syzygy"] = {
        "survivor_degrees": sorted(pres.generators[j].degree + p.length for j, p in syz.survivors),
        "survivor_count": len(syz.survivors),
        "absorbed_count": len(syz.absorbed),
        "min_degree": syz.min_degree,
        "max_degree": syz.max_degree,
        "degree_cap": syz.degree_cap,
        "alive_at_cap": syz.alive_at_cap,
    }
    method = {"qo": "quasi", "o": "overlap"}[args.method]
    wdocs = []
    rows = []
    required = 0
    for n, qo, ov in windows:
        w = qo if method == "quasi" else ov
        wdocs.append(_window_doc(w))
        if not w.empty:
            required = max(required, int(w.hi))
        rows.append([str(n), method, str(_jsonable(w.lo)), str(_jsonable(w.hi)),
                     "yes" if window_consistency(qo, ov) else "no"])
    report.doc["windows"] = wdocs
    report.doc["required_oracle_degree"] = required
    report.say(
        f"first-syzygy survivor degrees: min={syz.min_degree} max={syz.max_degree} "
        f"(cap {syz.degree_cap}, alive_at_cap={syz.alive_at_cap})"
    )
    report.table(["n", "method", "lo", "hi", "inside overlap window"], rows)
    report.say(f"oracle degree needed to check every window: {required}")


def _named_module(pf: ProblemFile, args, report: Report) -> ModulePresentation | None:
    """The --module presentation; a relation above the run's cap raises PathAlgError (an input error)."""
    name = args.module
    if not name:
        report.say("error: this command needs --module <name>")
        report.worsen(EXIT_INPUT)
        return None
    pres = pf.modules.get(name)
    if pres is None:
        report.say(f"error: no module named {name!r} in the input")
        report.worsen(EXIT_INPUT)
        return None
    pres.validate(pf.quiver, _degree_cap(args))
    return pres


def cmd_resolve(pf: ProblemFile, args, report: Report) -> None:
    gb = _compute_gb(pf, args, report)
    pres = _named_module(pf, args, report)
    if pres is None:
        return
    D = _degree_cap(args)
    model = build_model(pf.quiver, gb, D)
    rep = minimal_resolution(pres, model, args.max_n, D)
    report.doc["resolution"] = {
        "degrees": rep.degrees,
        "hilbert": rep.hilbert,
        "max_n": rep.max_n,
        "degree_cap": rep.degree_cap,
        "alive_at_cap": rep.alive_at_cap,
        "truncated": rep.truncated,
        "zero_tail_from": rep.zero_tail_from,
    }
    report.say(f"minimal resolution of {args.module} to homological degree {args.max_n}, degrees <= {D}")
    report.table(
        ["n", "generator degrees", "cover"],
        [
            [str(n), " ".join(map(str, degs)) or "-",
             " ".join(f"{s.vertex}[{s.degree}]" for s in rep.covers[n]) if n < len(rep.covers) else "-"]
            for n, degs in enumerate(rep.degrees)
        ],
    )
    report.say(f"Hilbert function: {rep.hilbert}")


def cmd_verify(pf: ProblemFile, args, report: Report) -> None:
    gb = _compute_gb(pf, args, report)
    pres = _named_module(pf, args, report)
    if pres is None:
        return
    if not gb.complete:
        report.say(f"cannot verify: {gb.status}")
        report.worsen(EXIT_TRUNCATED)
        return
    model, syz, table, windows = _windows_block(pf, gb, pres, args)
    wlist = [qo for _n, qo, _ov in windows] + [ov for _n, _qo, ov in windows]
    tops = [int(w.hi) for w in wlist if not w.empty]
    needed = max(tops, default=max((g.degree for g in pres.generators), default=0) + 1) + 1
    # With no explicit cap the oracle also reaches every generator, which minimal_resolution requires.
    D = args.max_degree if args.max_degree is not None else max([needed] + [g.degree for g in pres.generators])
    report.doc["required_oracle_degree"] = needed
    if D < needed:
        report.say(f"cannot verify: oracle degree cap {D} is below the window top {needed}")
        report.worsen(EXIT_TRUNCATED)
        return
    model.extend(D)
    rep = minimal_resolution(pres, model, args.max_n, D)
    ok, verdicts = verify_windows(rep, wlist)
    report.doc["resolution"] = {"degrees": rep.degrees, "hilbert": rep.hilbert, "degree_cap": D}
    report.doc["windows"] = [_window_doc(w) for w in wlist]
    report.doc["verdicts"] = [
        {
            "n": v.n,
            "method": v.method,
            "status": "PASS" if v.ok else "FAIL",
            "degrees": list(v.degrees),
            "violations": list(v.violations),
        }
        for v in verdicts
    ]
    report.table(
        ["n", "method", "window", "oracle degrees", "verdict"],
        [
            [str(v.n), v.method, f"[{_jsonable(v.lo)}, {_jsonable(v.hi)}]",
             " ".join(map(str, v.degrees)) or "-", "PASS" if v.ok else "FAIL"]
            for v in verdicts
        ],
    )
    if not ok:
        report.worsen(EXIT_FAIL)
    report.say("all windows PASS" if ok else "window verification FAILED")


def cmd_check(pf: ProblemFile, args, report: Report) -> None:
    if args.s_koszul is not None and args.s_koszul < 2:
        raise PathAlgError("need s >= 2")
    gb = _compute_gb(pf, args, report)
    if args.s_koszul is not None:
        if not gb.complete:
            report.say(f"cannot certify: {gb.status}")
            report.worsen(EXIT_TRUNCATED)
            return
        table = enumerate_overlaps(pf.quiver, gb.tips, 2)
        cert = s_koszul_criterion(gb, args.s_koszul, table)
        report.doc["s_koszul"] = {
            "s": cert.s,
            "holds": cert.holds,
            "max_tip_length": _jsonable(cert.max_tip_length),
            "min_level1": _jsonable(cert.min_level1),
            "max_level2": _jsonable(cert.max_level2),
            "conditions": cert.conditions(),
        }
        report.say(f"s-Koszul criterion at s={cert.s}: {'holds' if cert.holds else 'does not hold'}")
        for name, value in cert.conditions().items():
            report.say(f"  {name}: {'yes' if value else 'no'}")
        if not cert.holds:
            report.worsen(EXIT_FAIL)
        return

    pres = _named_module(pf, args, report)
    if pres is None:
        return
    collection = _parse_collection_spec(args.determined, report)
    if collection is None:
        return
    D = _degree_cap(args)
    model = build_model(pf.quiver, gb, D)
    rep = minimal_resolution(pres, model, args.max_n, D)
    ok, violation = determined_check(rep, collection, args.max_n)
    report.doc["determined"] = {
        "collection": args.determined,
        # Undecided (null) when no violation shows below a truncation.
        "holds": None if ok and rep.truncated else ok,
        "violation": None if violation is None else {"n": violation.index, "degree": violation.degree},
        "resolution_degrees": rep.degrees,
    }
    if ok and rep.truncated:
        report.say(f"cannot certify: no violation in degrees <= {D}, but the resolution is truncated there")
        report.worsen(EXIT_TRUNCATED)
    elif ok:
        report.say(f"degrees are {args.determined}-determined through n={args.max_n}")
    else:
        assert violation is not None
        report.say(f"FAIL at P_{violation.index}: generator degree {violation.degree} is not allowed")
        report.worsen(EXIT_FAIL)


def _parse_collection_spec(spec: str | None, report: Report) -> DegreeCollection | None:
    if not spec:
        report.say("error: --determined needs a collection spec (linear | chi:<s> | chi-down:<s> | explicit:<l0|l1|...>)")
        report.worsen(EXIT_INPUT)
        return None
    try:
        kind, _, arg = spec.partition(":")
        if spec == "linear":
            return DegreeCollection.s_pattern(2)
        if kind in ("chi", "chi-down") and int(arg) >= 2:
            return (DegreeCollection.s_pattern if kind == "chi" else DegreeCollection.s_downset)(int(arg))
        if spec.startswith("explicit:"):
            lists = [[int(x) for x in lvl.split(",") if x.strip()] for lvl in arg.split("|")]
            return DegreeCollection.from_lists(lists)
    except (ValueError, PathAlgError):
        pass
    report.say(f"error: bad collection spec {spec!r}")
    report.worsen(EXIT_INPUT)
    return None


def cmd_selfcheck(pf: ProblemFile, args, report: Report) -> None:
    """Random-corpus property run for the chain-table inequalities."""
    seed = args.seed if args.seed is not None else pf.params.get("seed", 0)
    count = args.instances
    failures: list[str] = []
    checked = 0
    for inst in corpus_mod.instances(seed, count):
        table = enumerate_overlaps(inst.quiver, inst.patterns, args.max_n)
        failures += corpus_mod.check_extrema_inequalities(inst, table, args.max_n)
        failures += corpus_mod.check_composition_bounds(inst, table, args.max_n)
        checked += 1
    report.doc["selfcheck"] = {
        "seed": seed,
        "instances": checked,
        "max_n": args.max_n,
        "failures": failures,
    }
    report.say(f"selfcheck over {checked} instances (seed {seed}): "
               + ("all properties hold" if not failures else f"{len(failures)} failures"))
    for f in failures[:20]:
        report.say(f"  {f}")
    if failures:
        report.worsen(EXIT_FAIL)


COMMANDS = {
    "groebner": cmd_groebner,
    "overlaps": cmd_overlaps,
    "window": cmd_window,
    "resolve": cmd_resolve,
    "verify": cmd_verify,
    "check": cmd_check,
    "selfcheck": cmd_selfcheck,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    ap = argparse.ArgumentParser(prog="pathalg", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("file", help="problem file (see docs/input-format.md)")
    ap.add_argument("--module", help="module name for window/resolve/verify/check")
    ap.add_argument("--method", choices=["qo", "o"], default="qo", help="window method")
    ap.add_argument("--quasi", action="store_true", help="include quasi-overlaps in the table")
    mode = ap.add_mutually_exclusive_group()  # check's modes
    mode.add_argument("--s-koszul", type=int, dest="s_koszul", help="run the s-Koszul sufficiency test")
    mode.add_argument("--determined", help="collection spec: linear | chi:<s> | chi-down:<s> | explicit:<l0|l1|...>")
    ap.add_argument("--max-n", type=int, default=None, dest="max_n", help="levels / homological degrees (default 5)")
    ap.add_argument("--max-degree", type=int, default=None, dest="max_degree", help="degree cap")
    ap.add_argument("--seed", type=int, default=None, help="seed for randomized property runs")
    ap.add_argument("--instances", type=int, default=50, help="instances for selfcheck")
    ap.add_argument("--json", dest="json_out", help="write the JSON document to this path ('-' = stdout)")
    return ap


def run(argv: list[str]) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        pf = parse(text)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(f"{args.file}:{d.render()}", file=sys.stderr)
        return EXIT_INPUT
    if args.max_n is None:
        args.max_n = pf.params.get("max-n", 5)
    if args.max_degree is None and "max-degree" in pf.params:
        args.max_degree = pf.params["max-degree"]
    for name, value in (("max-n", args.max_n), ("max-degree", args.max_degree), ("instances", args.instances)):
        if value is not None and value < 0:
            print(f"error: {name} must be >= 0; got {value}", file=sys.stderr)
            return EXIT_INPUT
    report = Report(args.command, {
        "module": args.module,
        "method": args.method,
        "max_n": args.max_n,
        "max_degree": args.max_degree,
        "seed": args.seed,
    })
    report.doc["input"] = _describe_input(pf)
    try:
        COMMANDS[args.command](pf, args, report)
    except PathAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out = report.human()
    if args.json_out == "-":
        out = report.json_text()
    sys.stdout.write(out)
    if args.json_out and args.json_out != "-":
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.json_text())
    return report.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
