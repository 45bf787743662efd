import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from pathalg import AlgebraElement, OrderSpec, PathAlgError, groebner_basis, monic, normal_form
from pathalg.algebra import ModuleElement
from pathalg.cli import EXIT_INPUT, run
from pathalg.corpus import instances, random_presentation
from pathalg.fields import Field
from pathalg.presentation import ModulePresentation
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
from tests.helpers import random_homogeneous_element

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


# A single-valued setting given twice, and Fp 0, each with its one
# diagnostic; TWO_LOOPS puts the [field] line on line 12 and the ideal on 15.
SETTING_TWICE = {
    "field-line": ({"field": "Q\nFp 7"}, "13:1: E_DUPLICATE: duplicate field line; [field] holds one"),
    "field-section": ({"ideal": "x*y\n[field]\nFp 7"}, "16:1: E_DUPLICATE: duplicate [field] section"),
    "Fp-0": ({"field": "Fp 0"}, "12:4: E_BAD_FIELD: 0 is not prime"),
    "order-arrows": ({"ideal": "x*y\n[order]\narrows y > x"}, "17:1: E_DUPLICATE: duplicate order line 'arrows'"),
    "order-vertices": ({"ideal": "x*y\n[order]\n  vertices e"}, "17:3: E_DUPLICATE: duplicate order line 'vertices'"),
    "params-key": ({"ideal": "x*y\n[params]\nmax-n 2\nseed 1\nmax-n 3"},
                   "19:1: E_DUPLICATE: duplicate params line 'max-n'"),
}


@pytest.mark.parametrize("case", SETTING_TWICE)
def test_a_single_valued_setting_appears_at_most_once(case, tmp_path, capsys):
    fill, expected = SETTING_TWICE[case]
    text = TWO_LOOPS.format(**{"field": "Q", "ideal": "x*y", **fill})
    assert _diagnostics(text) == [expected]
    path = tmp_path / "twice.alg"
    path.write_text(text)
    assert run(["groebner", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"{path}:{expected}\n"


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
    # A hand-built Fraction is read as an element of F_7 too: 7/2 is 0, and 1/2 is 4, an int.
    commute = [AlgebraElement({w("xy"): 1, w("yx"): -1})]
    assert normal_form(AlgebraElement({w("xy"): Fraction(7, 2)}), [], pf.order).is_zero()
    for basis, word in (([], "xy"), (commute, "yx")):
        nf = normal_form(AlgebraElement({w("xy"): Fraction(1, 2)}), basis, pf.order)
        assert [(q, c, type(c)) for q, c in nf.terms.items()] == [(w(word), 4, int)]


ELEMENTS = """[quiver]
vertex e f
arrow x : e -> e
arrow y : e -> e
arrow a : e -> f

[ideal]
{ideal}

[module M]
generator g : e @ 0
generator h : f @ 1
relation {relation}
"""

# A bad [ideal] line (line 8) or relation line (line 13), with the exact
# diagnostics it gets; the other line is left well-formed.
ELEMENT_DIAGNOSTICS = {
    ("ideal", "*"): ["8:1: E_SYNTAX: empty term"],
    ("ideal", "x*y + *"): ["8:1: E_SYNTAX: empty term"],
    ("ideal", "x*y - 2"): ["8:1: E_SYNTAX: a term needs a path (vertices act as length-0 paths)"],
    ("ideal", "1/0*x*y"): ["8:1: E_BAD_SCALAR: bad scalar '1/0'"],
    ("ideal", "2/3/4*x*y"): ["8:1: E_BAD_SCALAR: bad scalar '2/3/4'"],
    ("ideal", "x*z"): ["8:3: E_UNKNOWN_ID: unknown identifier z"],
    ("ideal", "a*x"): ["8:1: E_NON_COMPOSABLE: cannot compose a (target f) with x (source e)"],
    ("ideal", "x*x + x*a"): ["8:1: E_NOT_PARALLEL: support paths must be parallel"],
    ("ideal", "x*y - x"): ["8:1: E_INHOMOGENEOUS: inhomogeneous relation 'x*y - x'"],
    ("ideal", "x*z + 1/0*y*y"): ["8:3: E_UNKNOWN_ID: unknown identifier z", "8:7: E_BAD_SCALAR: bad scalar '1/0'"],
    ("relation", ""): ["13:1: E_SYNTAX: empty relation"],
    ("relation", "*"): ["13:1: E_UNKNOWN_ID: module term must start with a generator name"],
    ("relation", "3"): ["13:1: E_UNKNOWN_ID: module term must start with a generator name"],
    ("relation", "x*g"): ["13:1: E_UNKNOWN_ID: module term must start with a generator name"],
    ("relation", "g*a + 1/0*h"): ["13:16: E_BAD_SCALAR: bad scalar '1/0'"],
    ("relation", "g*z"): ["13:12: E_UNKNOWN_ID: unknown identifier z"],
    ("relation", "g*a*x"): ["13:12: E_NON_COMPOSABLE: cannot compose a (target f) with x (source e)"],
    ("relation", "h*x"): ["13:1: E_NON_COMPOSABLE: path x does not start at h's vertex"],
    ("relation", "g*x + g*x*x"): ["13:1: E_INHOMOGENEOUS: inhomogeneous relation 'g*x + g*x*x'"],
    ("relation", "g*z - h*x"): [
        "13:12: E_UNKNOWN_ID: unknown identifier z",
        "13:1: E_NON_COMPOSABLE: path x does not start at h's vertex",
    ],
}


def test_element_diagnostics_are_exact():
    good = {"ideal": "x*y", "relation": "g*a - h"}
    assert parse(ELEMENTS.format(**good)).modules["M"].relations[0].render(["g", "h"]) == "g*a - h"
    for (kind, line), expected in ELEMENT_DIAGNOSTICS.items():
        with pytest.raises(ParseError) as info:
            parse(ELEMENTS.format(**{**good, kind: line}))
        assert [d.render() for d in info.value.diagnostics] == expected, (kind, line)


def _diagnostics(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return [d.render() for d in info.value.diagnostics]


def test_declarations_need_their_separators_in_order_and_every_part():
    arrow = "[quiver]\nvertex e\narrow {}\n"
    expected_arrow = ["3:1: E_SYNTAX: expected: arrow <name> : <source> -> <target>"]
    for line in ("x -> e : e", "x : e", "x e -> e", ": e -> e", "x : -> e", "x : e ->", "x y : e -> e", "x : e -> e e"):
        assert _diagnostics(arrow.format(line)) == expected_arrow, line
    module = "[quiver]\nvertex e\narrow x : e -> e\n\n[module M]\ngenerator {}\n"
    expected_generator = ["6:1: E_SYNTAX: expected: generator <name> : <vertex> @ <degree>"]
    for line in ("g @ 0 : e", "g : e", "g e @ 0", " : e @ 0", "g : @ 0", "g : e @", "g h : e @ 0", "g : e e @ 0"):
        assert _diagnostics(module.format(line)) == expected_generator, line
    assert parse(module.format("g : e @ 1")).modules["M"].generators[0].degree == 1
    assert _diagnostics("[]\n[quiver]\nvertex e\n") == ["1:1: E_SECTION: unknown section []"]


def test_columns_point_at_the_token_itself():
    # Each bad token also occurs earlier in its line, inside a keyword.
    assert _diagnostics("[quiver]\nvertex e f e\narrow a : e -> f\narrow a : f -> e\n") == [
        "2:12: E_DUPLICATE: duplicate vertex e",
        "4:7: E_DUPLICATE: duplicate identifier a",
    ]
    text = """[quiver]
vertex e f
arrow a : e -> f
arrow r : e -> e
arrow x : e -> e

[order]
arrows r > a > o

[module M]
generator g : n @ 0
generator h : e @ a
generator k : e @ 0
  relation k*a*x

[params]
max-n x
"""
    assert _diagnostics(text) == [
        "8:16: E_UNKNOWN_ID: unknown identifier o",
        "1:1: E_ORDER: arrow precedence must cover every arrow exactly once",
        "11:15: E_UNKNOWN_ID: unknown vertex n",
        "12:19: E_SYNTAX: bad degree 'a'",
        "14:14: E_NON_COMPOSABLE: cannot compose a (target f) with x (source e)",
        "17:7: E_SYNTAX: bad integer 'x'",
    ]


def test_token_swaps_never_escape_parse_error():
    fixtures = sorted((pathlib.Path(__file__).resolve().parents[1] / "fixtures").glob("*.alg"))
    inputs = 0
    for path in fixtures:
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            toks = line.split()
            for a, b in itertools.combinations(range(len(toks)), 2):
                swapped = list(toks)
                swapped[a], swapped[b] = toks[b], toks[a]
                inputs += 1
                try:
                    parse("\n".join(lines[:i] + [" ".join(swapped)] + lines[i + 1:]))
                except ParseError as exc:
                    assert all(d.line >= 1 and d.col >= 1 for d in exc.diagnostics), (path.name, swapped)
    assert inputs == 2722


def _random_problem(rng, inst, field):
    """A problem file over inst's quiver with random ideal and module elements, some coefficients fractions."""

    def scaled(c):
        return field.of(c * Fraction(rng.choice([1, -1, 2, -5]), rng.choice([1, 1, 2, 3])))

    ideal = []
    for _ in range(rng.randint(1, 3)):
        x = random_homogeneous_element(rng, inst.quiver, field, rng.randint(2, 4), terms=rng.randint(1, 3))
        if x:
            ideal.append(AlgebraElement({p: scaled(c) for p, c in x.terms.items()}))
    pres = random_presentation(rng, inst.quiver, field)
    rels = tuple(ModuleElement({k: scaled(c) for k, c in r.terms.items()}) for r in pres.relations)
    order = OrderSpec(tuple(a.name for a in inst.quiver.arrows), inst.quiver.vertices, field=field)
    modules = {"R": ModulePresentation(pres.generators, tuple(r for r in rels if r))}
    return ProblemFile(inst.quiver, order, field, ideal, modules, {"max-n": rng.randint(1, 5)})


def test_seeded_problems_round_trip():
    rng = random.Random(20261019)
    texts = set()
    for inst in instances(20261019, 40):
        for field in (Field(0), Field(7)):
            pf = _random_problem(rng, inst, field)
            text = render(pf)
            back = parse(text)
            assert [e.terms for e in back.ideal] == [e.terms for e in pf.ideal], text
            for name, pres in pf.modules.items():
                assert back.modules[name].generators == pres.generators
                assert [r.terms for r in back.modules[name].relations] == [r.terms for r in pres.relations], text
            assert render(back) == text
            texts.add(text)
    # The inputs reach what the round trip is for: fractions and negative coefficients over Q.
    assert any("/" in t for t in texts) and any(" - " in t for t in texts)
