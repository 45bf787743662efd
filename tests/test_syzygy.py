import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from pathalg import (
    AlgebraElement,
    OrderSpec,
    PathAlgError,
    build_model,
    degree_window,
    enumerate_overlaps,
    first_syzygy,
    groebner_basis,
    minimal_resolution,
    verify_windows,
    window_consistency,
)
from pathalg.algebra import ModuleElement, tip
from pathalg.corpus import random_presentation
from pathalg.fields import Field
from pathalg.presentation import Generator, ModulePresentation
from pathalg.problem import parse
from tests.conftest import truncated_polynomial, words
from tests.helpers import cyclic, monomial_bundles, reference_first_syzygy
from tests.reference import divides_left, module_normal_form

F = Field(0)
FIXTURES = sorted((pathlib.Path(__file__).resolve().parents[1] / "fixtures").glob("*.alg"))


def test_first_syzygy_dual_numbers(one_loop, one_loop_order):
    gb = groebner_basis([AlgebraElement({one_loop.path("x*x"): F.one})], one_loop_order, 4)
    model = build_model(one_loop, gb, 8)
    A0 = ModulePresentation.simple_tops(one_loop, F.one)
    syz = first_syzygy(A0, model, 8)
    assert [(j, str(p)) for j, p in syz.survivors] == [(0, "x")]
    assert syz.absorbed == ()
    assert (syz.min_degree, syz.max_degree) == (1, 1)


def test_first_syzygy_cube_A0(two_loop, cube_model, cube_A0):
    syz = first_syzygy(cube_A0, cube_model, 8)
    assert sorted((j, str(p)) for j, p in syz.survivors) == [(0, "x"), (0, "y")]
    assert (syz.min_degree, syz.max_degree) == (1, 1)
    # Every word of positive length lies below the kept tip x or y, so none is absorbed.
    assert syz.absorbed == ()


def test_first_syzygy_relation_inside_ideal(two_loop, cube_model):
    # One generator with the single relation f*(x*y); x*y is already zero in
    # the algebra, so the module is free: T1 empty, kernel = module * ideal.
    w = words(two_loop)
    pres = cyclic(two_loop, "e", [w("xy")], F.one)
    syz = first_syzygy(pres, cube_model, 6)
    assert syz.survivors == () and syz.min_degree is None and syz.max_degree is None
    assert syz.absorbed
    assert min(p.length for (_j, p) in syz.absorbed) == 2
    # Each absorbed tip is a word that is not normal, though its longest proper prefix is.
    for _j, p in syz.absorbed:
        assert p not in cube_model.basis[p.length] and p.prefix(p.length - 1) in cube_model.basis[p.length - 1]


def test_first_syzygy_reads_a_fraction_in_the_field(two_loop):
    # Over F_7 the relation g*x + 7/2*g*y is g*x, as with the int 7 in place of 7/2.
    w = words(two_loop)
    order = OrderSpec(("x", "y"), ("e",), field=Field(7))
    gens = [AlgebraElement({w("xy"): 1}), AlgebraElement({w("yx"): 1}), AlgebraElement({w("xxx"): 1, w("yyy"): -1})]
    model = build_model(two_loop, groebner_basis(gens, order, 8), 8)

    def syzygy(seven):
        pres = ModulePresentation((Generator("g", "e", 0),), (ModuleElement({(0, w("x")): 1, (0, w("y")): seven}),))
        syz = first_syzygy(pres, model, 6)
        return syz.survivors, syz.absorbed, syz.min_degree, syz.max_degree

    assert syzygy(Fraction(7, 2)) == syzygy(7)


def test_absorbed_members_reduce_to_zero(two_loop, cube_model, cube_A0):
    # The absorbed tips are the tips of the lifts f_j * (u * g), which lie in
    # (free module) * I; the survivors, built by the reference, do not.
    w = words(two_loop)
    for pres in (cube_A0, cyclic(two_loop, "e", [w("xy")], F.one),
                 cyclic(two_loop, "e", [w("x")], F.one)):
        syz = first_syzygy(pres, cube_model, 7)
        _tips, elems, absorbed = reference_first_syzygy(pres, cube_model, 7)
        assert Counter(syz.absorbed) == Counter(tip(e, cube_model.gb.order) for _j, _w, e in absorbed)
        for _j, _w, e in absorbed:
            assert module_normal_form(e, cube_model.gb).is_zero()
        assert syz.survivors == tuple(tip(e, cube_model.gb.order) for e in elems)
        for e in elems:
            assert not module_normal_form(e, cube_model.gb).is_zero()


def test_combined_set_is_tip_orbit_disjoint(two_loop, cube_model, cube_A0):
    # No survivor or absorbed tip extends another by a right factor in the same component.
    w = words(two_loop)
    for pres in (cube_A0, cyclic(two_loop, "e", [w("x")], F.one)):
        syz = first_syzygy(pres, cube_model, 7)
        tips = list(syz.survivors) + list(syz.absorbed)
        for a, (ia, pa) in enumerate(tips):
            for b, (ib, pb) in enumerate(tips):
                assert a == b or ia != ib or not divides_left(pa, pb)


def test_survivor_tips_are_the_term_order_tips(two_loop, cube_model):
    # Two generators at one vertex and degree tie on every word, and the
    # module order breaks the tie by generator number, larger first.  Block
    # columns must follow it, or a pivot is not the tip of the survivor
    # element that the reference builds from its pivot row.
    w = words(two_loop)
    pres = ModulePresentation(
        (Generator("g", "e", 0), Generator("h", "e", 0)),
        (ModuleElement({(0, w("x")): F.one, (1, w("x")): F.one}),
         ModuleElement({(0, w("yy")): F.one, (1, w("xy")): -F.one})),
    )
    syz = first_syzygy(pres, cube_model, 6)
    _tips, elems, _absorbed = reference_first_syzygy(pres, cube_model, 6)
    assert len(syz.survivors) >= 2
    assert list(syz.survivors) == [tip(e, cube_model.gb.order) for e in elems]


def _assert_first_syzygy_matches_reference(pres, model, cap, label):
    syz = first_syzygy(pres, model, cap)
    tips, elems, absorbed = reference_first_syzygy(pres, model, cap)
    assert syz.survivors == tuple(tips) == tuple(tip(e, model.gb.order) for e in elems), label
    assert Counter(syz.absorbed) == Counter((j, p) for j, p, _e in absorbed), label
    degs = [pres.generators[j].degree + p.length for j, p in tips]
    assert (syz.min_degree, syz.max_degree) == ((min(degs), max(degs)) if degs else (None, None)), label
    return syz


def test_first_syzygy_matches_the_path_reference_on_the_corpus():
    # Monomial corpus algebras, each with A0 and a random presentation, at caps 6 and 10.
    bundles = monomial_bundles(60, 20260811, degree_cap=10)
    assert len(bundles) == 60
    rng = random.Random(20260812)
    absorbed = 0
    for inst, gb in bundles:
        model = build_model(inst.quiver, gb, 10)
        cases = [ModulePresentation.simple_tops(inst.quiver, F.one),
                 random_presentation(rng, inst.quiver, F, max_generators=2, max_relations=2)]
        for pres in cases:
            for cap in (6, 10):
                absorbed += len(_assert_first_syzygy_matches_reference(pres, model, cap, (inst.seed, pres, cap)).absorbed)
    assert absorbed


@pytest.mark.parametrize("path", FIXTURES, ids=[p.name for p in FIXTURES])
def test_first_syzygy_matches_the_path_reference_on_the_fixtures(path):
    pf = parse(path.read_text())
    gb = groebner_basis(pf.ideal, pf.order, 8)
    model = build_model(pf.quiver, gb, 8)
    for name, pres in pf.modules.items():
        _assert_first_syzygy_matches_reference(pres, model, 8, name)


def test_first_syzygy_cap_may_not_exceed_the_model_cap(one_loop, one_loop_order):
    gb = groebner_basis([AlgebraElement({one_loop.path("x*x"): F.one})], one_loop_order, 4)
    model = build_model(one_loop, gb, 6)
    A0 = ModulePresentation.simple_tops(one_loop, F.one)
    with pytest.raises(PathAlgError, match="exceeds the model cap 6"):
        first_syzygy(A0, model, 7)
    assert first_syzygy(A0, model, 6).max_degree == 1


def test_degree_window_one_loop_square(one_loop, one_loop_order):
    xx = one_loop.path("x*x")
    table = enumerate_overlaps(one_loop, [xx], 5)
    w3 = degree_window(3, 1, 1, table, "quasi")
    assert (w3.lo, w3.hi) == (3, 3)
    o3 = degree_window(3, 1, 1, table, "overlap")
    assert window_consistency(w3, o3)
    for method in ("quasi", "overlap"):
        w = degree_window(1, 1, 1, table, method)
        assert (w.lo, w.hi) == (1, 1)


def test_degree_window_showcase_overlap_method(two_loop):
    w = words(two_loop)
    table = enumerate_overlaps(two_loop, [w("xxyyy"), w("xxx")], 3)
    w4 = degree_window(4, 1, 1, table, "overlap")
    assert (w4.lo, w4.hi) == (1 + 6 - 5 + 1, 1 + 8 - 1)
    q4 = degree_window(4, 1, 1, table, "quasi")
    assert window_consistency(q4, w4)


def test_degree_window_empty_cases(two_loop):
    w = words(two_loop)
    table = enumerate_overlaps(two_loop, [w("xy")], 4)
    for n in (3, 4):
        win = degree_window(n, 1, 1, table, "quasi")
        assert win.empty
    none_window = degree_window(2, None, None, table, "quasi")
    assert none_window.empty
    assert window_consistency(degree_window(3, 1, 1, table, "quasi"),
                              degree_window(3, 1, 1, table, "overlap"))


def test_degree_window_guards(one_loop):
    xx = one_loop.path("x*x")
    table = enumerate_overlaps(one_loop, [xx], 2)
    with pytest.raises(PathAlgError):
        degree_window(0, 1, 1, table)
    with pytest.raises(PathAlgError):
        degree_window(5, 1, 1, table)
    with pytest.raises(PathAlgError):
        degree_window(2, 1, 1, table, "sideways")


def test_windows_validate_for_truncated_polynomials():
    for s in (2, 3, 4):
        q, order, gb = truncated_polynomial(s)
        model = build_model(q, gb, 22)
        A0 = ModulePresentation.simple_tops(q, F.one)
        syz = first_syzygy(A0, model, 8)
        assert (syz.min_degree, syz.max_degree) == (1, 1)
        table = enumerate_overlaps(q, gb.tips, 6)
        rep = minimal_resolution(A0, model, 6, 22)
        windows = [degree_window(n, syz.min_degree, syz.max_degree, table, m)
                   for n in range(1, 7) for m in ("quasi", "overlap")]
        ok, _ = verify_windows(rep, windows)
        assert ok


def test_first_syzygy_sees_tail_tips(two_loop, cube_model):
    # Over the cube algebra the kernel of A ->> A/xA picks up a second
    # generator: x^3 = y^3 puts the normal vector y^3 inside xA with a tip
    # that no right multiple of x reaches, so T1 = {x (degree 1), y^3-part
    # (degree 3)} and l = 3 even though the resolution of A/xA is linear.
    w = words(two_loop)
    pres = cyclic(two_loop, "e", [w("x")], F.one)
    syz = first_syzygy(pres, cube_model, 8)
    assert (syz.min_degree, syz.max_degree) == (1, 3)
    tips = sorted(str(p) for (_i, p) in syz.survivors)
    assert tips == ["x", "y*y*y"]


def test_windows_validate_for_cube_modules(two_loop, cube_model, cube_A0):
    # General-module windows over a non-monomial basis: both loop quotients
    # and the semisimple top, quasi and overlap methods, n <= 4.
    w = words(two_loop)
    table = enumerate_overlaps(two_loop, cube_model.gb.tips, 4)
    cases = [
        cube_A0,
        cyclic(two_loop, "e", [w("x")], F.one),
        cyclic(two_loop, "e", [w("y")], F.one),
    ]
    for pres in cases:
        syz = first_syzygy(pres, cube_model, 9)
        rep = minimal_resolution(pres, cube_model, 4, 12)
        windows = [degree_window(n, syz.min_degree, syz.max_degree, table, m)
                   for n in range(1, 5) for m in ("quasi", "overlap")]
        ok, verdicts = verify_windows(rep, windows)
        assert ok, [v for v in verdicts if not v.ok]


def test_windows_multi_vertex_non_monomial():
    # Two parallel arrows merged by a relation: u ->a,b-> v ->c-> w with
    # a*c = b*c.  The basis stays complete with the single tip a*c.
    from pathalg import Quiver

    q = Quiver.build(["u", "v", "w"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "w")])
    order = __import__("pathalg").OrderSpec.for_quiver(q)
    rel = AlgebraElement({q.path("a*c"): F.one, q.path("b*c"): -F.one})
    gb = groebner_basis([rel], order, 6)
    assert gb.complete and [str(t) for t in gb.tips] == ["a*c"]
    model = build_model(q, gb, 8)
    A0 = ModulePresentation.simple_tops(q, F.one)
    syz = first_syzygy(A0, model, 6)
    assert (syz.min_degree, syz.max_degree) == (1, 1)
    table = enumerate_overlaps(q, gb.tips, 4)
    rep = minimal_resolution(A0, model, 4, 8)
    windows = [degree_window(n, 1, 1, table, m) for n in range(1, 5) for m in ("quasi", "overlap")]
    ok, verdicts = verify_windows(rep, windows)
    assert ok, [v for v in verdicts if not v.ok]
    # a*c has no self-overlap, so everything stops after P_2.
    assert rep.degrees[0] == [0, 0, 0]
    assert rep.degrees[1] == [1, 1, 1]
    assert rep.degrees[2] == [2]
    assert rep.degrees[3] == []


def test_first_syzygy_nonminimal_presentation_guard(two_loop, cube_model):
    # A relation hitting a generator top makes g1 redundant.  first_syzygy
    # reads the presentation as given and treats it as an honest kernel
    # generator of degree equal to the generator's degree shift;
    # minimal_resolution minimizes the presentation first.
    w = words(two_loop)
    pres = ModulePresentation(
        (Generator("g0", "e", 0), Generator("g1", "e", 1)),
        (ModuleElement({(1, two_loop.path("e")): F.one, (0, w("x")): -F.one}),),
    )
    syz = first_syzygy(pres, cube_model, 6)
    assert syz.min_degree == 1
