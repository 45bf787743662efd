#!/usr/bin/env python3
"""Print the chain table of a monomial pattern set on a loop quiver.

Patterns are words over single-letter loop names, e.g.:

    python scripts/chain_table_demo.py xxyyy xxx --max-n 4

A pattern set that is not reduced, or holds a word shorter than 2, is an
input error: the script prints `error: ...` and exits 2.
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pathalg import PathAlgError, Quiver, enumerate_overlaps  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("patterns", nargs="+", help="words over loop letters, e.g. xxyyy xxx")
    ap.add_argument("--max-n", type=int, default=4, dest="max_n")
    args = ap.parse_args(argv)

    letters = sorted({ch for word in args.patterns for ch in word})
    quiver = Quiver.build(["e"], [(ch, "e", "e") for ch in letters])
    try:
        pats = [quiver.path("*".join(word)) for word in args.patterns]
        table = enumerate_overlaps(quiver, pats, args.max_n)
    except PathAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def flat(p):
        return str(p).replace("*", "")

    for n in range(table.depth + 1):
        mino, maxo, minq, maxq = table.extrema(n)
        print(f"level {n}: lengths overlap [{mino}, {maxo}]  quasi [{minq}, {maxq}]")
        for w in table.overlaps(n):
            pred = table.levels[n][w]
            print(f"  {flat(w):<20} <- {flat(pred) if pred else '-'}")
        for (w, v) in table.quasi(n):
            pred = table.quasi_levels[n][(w, v)]
            print(f"  ({flat(w)}, {flat(v)})".ljust(24) + f" <- {flat(pred) if pred else '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
