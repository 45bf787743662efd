"""The default JSON output stays byte-identical.

Each entry of `scripts/run_examples.py`'s RUNS is rerun through `cli.run`
and its JSON document compared, byte for byte, with the one checked in
under tests/golden/ (written by `scripts/run_examples.py --json-dir`).
After a deliberate output change, regenerate them with
`python scripts/run_examples.py --json-dir tests/golden`.
"""
import pytest

from pathalg.algebra import TipIndex
from pathalg.cli import run
from tests.conftest import ROOT, load_module

GOLDEN = ROOT / "tests" / "golden"

run_examples = load_module("run_examples", ROOT / "scripts" / "run_examples.py")


def test_every_run_has_a_golden_document():
    names = {run_examples.json_name(i, command, fixture) for i, (command, fixture, _) in enumerate(run_examples.RUNS)}
    assert names == {p.name for p in GOLDEN.glob("*.json")}


@pytest.mark.parametrize("i", range(len(run_examples.RUNS)))
def test_json_matches_golden(i, tmp_path, capsys):
    command, fixture, extra = run_examples.RUNS[i]
    name = run_examples.json_name(i, command, fixture)
    out = tmp_path / name
    run([command, str(run_examples.FIXTURES / fixture)] + extra + ["--json", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("i", range(len(run_examples.RUNS)))
def test_json_on_stdout_is_the_json_file(i, tmp_path, capsys):
    # `--json -` prints the document that `--json PATH` writes, in place of
    # the human report, which it does not build; `--json PATH` leaves the
    # human report on stdout as it is without `--json`.
    command, fixture, extra = run_examples.RUNS[i]
    argv = [command, str(run_examples.FIXTURES / fixture)] + extra
    out = tmp_path / "doc.json"
    rc = run(argv + ["--json", str(out)])
    human = capsys.readouterr().out
    assert run(argv + ["--json", "-"]) == rc
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")
    assert run(argv) == rc
    assert capsys.readouterr().out == human


def test_no_command_reaches_the_reducer(monkeypatch, capsys):
    # Every command reads A through the levels of `groebner_basis` and the
    # model, so with the rewriting reducer refused each document is its
    # golden still.
    def refuse(*args, **kwargs):
        raise AssertionError("the reducer was reached")

    monkeypatch.setattr(TipIndex, "__init__", refuse)
    monkeypatch.setattr("pathalg.algebra.normal_form", refuse)
    monkeypatch.setattr("pathalg.oracle.normal_form", refuse)
    for i, (command, fixture, extra) in enumerate(run_examples.RUNS):
        name = run_examples.json_name(i, command, fixture)
        run([command, str(run_examples.FIXTURES / fixture)] + extra + ["--json", "-"])
        assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8"), name
