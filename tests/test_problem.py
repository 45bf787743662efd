import pytest

from pathalg import AlgebraElement, OrderSpec, PathAlgError, groebner_basis, monic, normal_form
from pathalg.cli import EXIT_INPUT, run
from pathalg.fields import Field
from pathalg.problem import (
    E_BAD_FIELD,
    E_BAD_SCALAR,
    E_INHOMOGENEOUS,
    E_NON_COMPOSABLE,
    E_SECTION,
    E_UNKNOWN_ID,
    ParseError,
    ProblemFile,
    parse,
    render,
)
from tests.conftest import words

CUBE = """
# the running example
[quiver]
vertex e
arrow x : e -> e
arrow y : e -> e

[order]
arrows x > y
vertices e

[field]
Q

[ideal]
x*y
y*x
x*x*x - y*y*y

[module A0]
generator g : e @ 0
relation g*x
relation g*y
"""


def test_parse_cube_file():
    pf = parse(CUBE)
    assert pf.quiver.vertices == ("e",)
    assert [a.name for a in pf.quiver.arrows] == ["x", "y"]
    assert pf.field.name == "Q"
    assert [e.render() for e in pf.ideal] == ["x*y", "y*x", "x*x*x - y*y*y"]
    assert set(pf.modules) == {"A0"}
    pres = pf.modules["A0"]
    assert len(pres.generators) == 1 and len(pres.relations) == 2


def codes_of(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return {d.code for d in err.value.diagnostics}, err.value.diagnostics


def test_inhomogeneous_relation_diagnostic():
    bad = CUBE.replace("x*x*x - y*y*y", "x*y - x")
    codes, diags = codes_of(bad)
    assert E_INHOMOGENEOUS in codes
    assert all(d.line > 0 and d.col > 0 for d in diags)


def test_non_composable_diagnostic():
    text = """
[quiver]
vertex u v
arrow a : u -> v

[ideal]
a*a
"""
    codes, _ = codes_of(text)
    assert E_NON_COMPOSABLE in codes


def test_unknown_identifier_diagnostic():
    codes, _ = codes_of(CUBE.replace("relation g*y", "relation g*z"))
    assert E_UNKNOWN_ID in codes


def test_bad_field_diagnostic():
    codes, _ = codes_of(CUBE.replace("Q", "GF 9"))
    assert E_BAD_FIELD in codes
    codes, _ = codes_of(CUBE.replace("Q", "Fp 9"))
    assert E_BAD_FIELD in codes


def test_missing_quiver_diagnostic():
    codes, _ = codes_of("[ideal]\nx*y\n")
    assert E_SECTION in codes


def test_vertices_usable_as_paths():
    pf = parse(CUBE.replace("relation g*x", "relation g*e*x"))
    pres = pf.modules["A0"]
    rendered = sorted(r.render(pres.gen_names()) for r in pres.relations)
    assert rendered == ["g*x", "g*y"]


def test_fraction_scalars_and_fp():
    text = CUBE.replace("x*x*x - y*y*y", "1/2*x*x*x - 1/2*y*y*y")
    pf = parse(text)
    assert any("1/2" in e.render() for e in pf.ideal)
    pf7 = parse(CUBE.replace("Q", "Fp 7"))
    assert pf7.field.name == "F7"


def test_round_trip_via_render():
    pf = parse(CUBE)
    pf2 = parse(render(pf))
    assert render(pf2) == render(pf)
    assert [e.render() for e in pf2.ideal] == [e.render() for e in pf.ideal]
    assert set(pf2.modules) == set(pf.modules)


def test_params_section():
    pf = parse(CUBE + "\n[params]\nmax-n 4\nmax-degree 10\n")
    assert pf.params == {"max-n": 4, "max-degree": 10}
    assert "max-n 4" in render(pf)


TWO_LOOPS = """
[quiver]
vertex e
arrow x : e -> e
arrow y : e -> e

[order]
arrows x > y
vertices e

[field]
{field}

[ideal]
{ideal}
"""


def _basis(field, ideal, cap=4):
    """Parse, then complete with the call the benchmark makes."""
    pf = parse(TWO_LOOPS.format(field=field, ideal=ideal))
    return groebner_basis(pf.ideal, pf.order, cap)


def test_terms_vanishing_mod_p_drop_out():
    for ideal, over_q in (("x*y - 8*x*y", "x*y"), ("7*x*x", "x*x")):
        assert _basis("Fp 7", ideal).elements == ()
        assert [g.render() for g in _basis("Q", ideal).elements] == [over_q]


def test_fraction_with_denominator_p_is_a_bad_scalar(tmp_path, capsys):
    for scalar in ("1/7", "7/7", "3/14"):
        with pytest.raises(ParseError) as info:
            parse(TWO_LOOPS.format(field="Fp 7", ideal=f"{scalar}*x*y"))
        assert [d.code for d in info.value.diagnostics] == [E_BAD_SCALAR]
    assert [g.render() for g in _basis("Q", "1/7*x*y").elements] == ["x*y"]
    assert [g.render() for g in _basis("Fp 7", "1/2*x*y + y*x").elements] == ["x*y + 2*y*x"]
    path = tmp_path / "bad.alg"
    path.write_text(TWO_LOOPS.format(field="Fp 7", ideal="1/7*x*y"))
    assert run(["groebner", str(path)]) == EXIT_INPUT
    assert E_BAD_SCALAR in capsys.readouterr().err


def test_the_field_reaches_completion():
    # 7*x*y vanishes over F_7 only, so the tip moves when the modulus is kept.
    assert [str(t) for t in _basis("Fp 7", "7*x*y + y*x").tips] == ["y*x"]
    assert [str(t) for t in _basis("Q", "7*x*y + y*x").tips] == ["x*y"]
    assert _basis("Fp 7", "x*y").order.field == Field(7)


def test_order_and_problem_agree_on_the_field():
    pf = parse(TWO_LOOPS.format(field="Fp 7", ideal="x*y"))
    assert pf.order.field == pf.field == Field(7)
    with pytest.raises(PathAlgError):
        ProblemFile(pf.quiver, OrderSpec.for_quiver(pf.quiver), pf.field, pf.ideal, {})


def test_raw_ints_are_reduced_on_intake():
    pf = parse(TWO_LOOPS.format(field="Fp 7", ideal="y*x\nx*x + y*y"))
    w = words(pf.quiver)
    raw = [AlgebraElement({w("xy"): 7, w("yx"): 15}), AlgebraElement({w("xx"): -1, w("yy"): 13})]
    gb = groebner_basis(raw, pf.order, 4)
    assert [g.render() for g in gb.elements] == [g.render() for g in groebner_basis(pf.ideal, pf.order, 4).elements]
    assert [str(t) for t in gb.tips[:2]] == ["y*x", "x*x"]
    assert all(0 <= c < 7 for g in gb.elements for c in g.terms.values())
    assert normal_form(AlgebraElement({w("yx"): 3, w("yy"): -13}), gb, pf.order) == AlgebraElement({w("yy"): 1})
    assert normal_form(AlgebraElement({w("yy"): 14}), gb, pf.order).is_zero()
    assert monic(AlgebraElement({w("xy"): 21, w("yx"): -3}), pf.order) == AlgebraElement({w("yx"): 1})
