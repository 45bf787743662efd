"""The mutation gate's table still names live code and live tests.

`scripts/mutants.py` runs each mutant's tests on a mutated copy of the
tree; that run is opt-in.  Here each mutant's old text must occur exactly
once in its file, and each test it names must still be defined in its test
file.  Each test id it names, parametrization included, must be one that
this pytest run collected, whenever its file was collected in it too.
"""
import pytest

from tests.conftest import ROOT, load_module

mutants = load_module("mutants", ROOT / "scripts" / "mutants.py")


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_defined_tests(mutant):
    for test in mutant.tests:
        file, name = test.split("::")
        path = ROOT / file
        assert path.is_file(), test
        assert f"def {name.split('[')[0]}(" in path.read_text(), test


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_collected_tests(mutant, request):
    # Tests that -k, -m, --deselect or --lf left out were still collected;
    # the terminal reporter keeps them.
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    deselected = reporter.stats.get("deselected", []) if reporter else []
    collected = {item.nodeid for item in request.session.items + deselected}
    files = {nodeid.split("::")[0] for nodeid in collected}
    named = [t for t in mutant.tests if t.split("::")[0] in files]
    if not named:
        pytest.skip("none of the mutant's test files was collected in this pytest run")
    assert [t for t in named if t not in collected] == []
