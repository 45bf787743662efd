"""The mutation gate's table still names live code and live tests.

`scripts/mutants.py` runs each mutant's tests on a mutated copy of the
tree; that run is opt-in.  Here each mutant's old text must occur exactly
once in its file, and each test it names must still be defined in its test
file.  A parametrization id that no longer exists is not caught here: the
gate stops on it with pytest's own error when it runs.
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
