#!/usr/bin/env python3
"""Drive the CLI over every fixture file and summarize the outcomes.

Usage: python scripts/run_examples.py [--json-dir OUT]
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pathalg.cli import run  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

RUNS = [
    ("groebner", "two_loop_cube.alg", []),
    ("overlaps", "chain_example_1.alg", ["--max-n", "3", "--quasi"]),
    ("overlaps", "chain_example_2.alg", ["--max-n", "3", "--quasi"]),
    ("window", "dual_numbers.alg", ["--module", "A0", "--max-n", "5"]),
    ("verify", "dual_numbers.alg", ["--module", "A0", "--max-n", "5", "--max-degree", "12"]),
    ("verify", "two_loop_cube.alg", ["--module", "A0", "--max-n", "4"]),
    ("verify", "commutative_plane.alg", ["--module", "A0", "--max-n", "4", "--max-degree", "8"]),
    ("resolve", "two_loop_cube.alg", ["--module", "A0", "--max-n", "4"]),
    ("check", "two_loop_cube.alg", ["--determined", "linear", "--module", "A0", "--max-n", "2"]),
    ("check", "truncated_s3.alg", ["--s-koszul", "3"]),
    ("check", "truncated_s3.alg", ["--determined", "chi:3", "--module", "A0", "--max-n", "5", "--max-degree", "16"]),
    ("selfcheck", "dual_numbers.alg", ["--seed", "2024", "--instances", "40", "--max-n", "5"]),
    ("groebner", "sklyanin_235.alg", ["--max-degree", "6"]),
    ("resolve", "sklyanin_235_a0.alg", ["--module", "A0", "--max-n", "4", "--max-degree", "8"]),
    ("resolve", "cube_nonminimal_a0.alg", ["--module", "A0", "--max-n", "4"]),
    ("groebner", "sklyanin_235.alg", ["--max-degree", "10"]),
]


def json_name(i: int, command: str, fixture: str) -> str:
    return f"{i:02d}_{command}_{fixture.replace('.alg', '')}.json"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--json-dir", help="also write one JSON document per run")
    args = ap.parse_args()
    failures = 0
    for i, (command, fixture, extra) in enumerate(RUNS):
        argv = [command, str(FIXTURES / fixture)] + extra
        if args.json_dir:
            out = pathlib.Path(args.json_dir)
            out.mkdir(parents=True, exist_ok=True)
            argv += ["--json", str(out / json_name(i, command, fixture))]
        print(f"\n=== pathalg {' '.join(argv)}")
        rc = run(argv)
        print(f"=== exit {rc}")
        # The linear check on the cube algebra is a known mathematical FAIL (exit 1).
        expected_fail = command == "check" and extra[:2] == ["--determined", "linear"]
        if rc != 0 and not (expected_fail and rc == 1):
            failures += 1
    print(f"\n{len(RUNS)} runs, {failures} unexpected outcomes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
