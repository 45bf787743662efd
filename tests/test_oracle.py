import pathlib

import pytest

import pathalg.oracle
from pathalg import (
    AlgebraElement,
    OrderSpec,
    PathAlgError,
    Quiver,
    build_model,
    groebner_basis,
    ideal_membership,
    minimal_resolution,
    module_hilbert,
    normal_form,
    normal_words,
    verify_windows,
)
from pathalg.fields import Field
from pathalg.presentation import Generator, ModulePresentation
from pathalg.algebra import ModuleElement
from pathalg.oracle import CoverSpace, FreeSummand, ideal_span, kernel_pieces, presentation_cover
from pathalg.problem import parse
from pathalg.quiver import Path
from pathalg.syzygy import DegreeWindow
from tests.conftest import truncated_polynomial, words

F = Field(0)


def test_model_dims_cube(two_loop, cube_gb):
    model = build_model(two_loop, cube_gb, 5)
    assert model.dims() == [1, 2, 2, 1, 0, 0]


def test_model_dims_plane(two_loop, plane_gb):
    model = build_model(two_loop, plane_gb, 3)
    assert model.dims() == [1, 2, 3, 4]


def test_model_dims_one_loop_square(one_loop, one_loop_order):
    gb = groebner_basis([AlgebraElement({one_loop.path("x*x"): F.one})], one_loop_order, 4)
    model = build_model(one_loop, gb, 4)
    assert model.dims() == [1, 1, 0, 0, 0]


def test_action_matrices_respect_composition(two_loop, cube_model):
    # (w * a) * b reduced equals w * (a then b) reduced, for every basis word.
    for d in range(0, 3):
        for w in cube_model.basis[d]:
            for a in two_loop.arrows:
                for b in two_loop.arrows:
                    step = {}
                    for w1, c1 in cube_model.act(w, a).items():
                        for w2, c2 in cube_model.act(w1, b).items():
                            step[w2] = step.get(w2, F.zero) + c1 * c2
                    direct = AlgebraElement({w * two_loop.path(a.name) * two_loop.path(b.name): F.one})
                    expect = normal_form(direct, cube_model.gb, cube_model.order)
                    assert {k: v for k, v in step.items() if v} == expect.terms


ROOT = pathlib.Path(__file__).resolve().parents[1]
SKLYANIN = (ROOT / "fixtures" / "sklyanin_235.alg").read_text()
# Every fixture, Sklyanin (2,3,5) over Q too, and the perfbench inputs, with
# the degree cap of their models.
MODEL_INPUTS = [(p.name, p.read_text(), 8) for p in sorted((ROOT / "fixtures").glob("*.alg"))] + [
    ("sklyanin_235.alg over Q", SKLYANIN.replace("Fp 101", "Q"), 7),
    ("poly3_q.alg", (ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text(), 8),
    ("poly3_f101.alg", (ROOT / "perfbench" / "inputs" / "poly3_f101.alg").read_text(), 8),
    ("preproj3.alg", (ROOT / "perfbench" / "inputs" / "preproj3.alg").read_text(), 8),
]


def _input_model(text, cap):
    pf = parse(text)
    gb = groebner_basis(pf.ideal, pf.order, cap)
    return pf, build_model(pf.quiver, gb, cap)


@pytest.mark.parametrize("name, text, cap", MODEL_INPUTS, ids=[m[0] for m in MODEL_INPUTS])
def test_action_tables_are_the_normal_forms(name, text, cap):
    pf, model = _input_model(text, cap)
    if name.startswith("sklyanin"):
        assert not model.gb.complete and max(t.length for t in model.gb.tips) > 2
    rewritten = 0
    for d in range(cap):
        for k, a in enumerate(pf.quiver.arrows):
            table = model.action(d, k)
            for i, w in enumerate(model.basis[d]):
                got = {model.basis[d + 1][j]: c for j, c in table[i]}
                if w.target != a.source:
                    assert got == {}
                    continue
                wa = Path(w.source, a.target, w.arrows + (a,))
                rewritten += wa not in model.index[d + 1]
                assert got == normal_form(AlgebraElement({wa: F.one}), model.gb, pf.order).terms, (w, a)
                assert model.act(w, a) == got
    assert rewritten


def test_action_tables_and_resolutions_need_no_normal_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("normal_form called inside the model cap")

    models = [(_input_model(text, cap), cap) for _name, text, cap in MODEL_INPUTS]
    monkeypatch.setattr(pathalg.oracle, "normal_form", refuse)
    for (pf, model), cap in models:
        for d in range(cap):
            for k in range(len(pf.quiver.arrows)):
                model.action(d, k)
        for pres in pf.modules.values():
            rep = minimal_resolution(pres, model, 3, cap)
            assert rep.degrees[0]


def test_act_reads_normal_words_below_the_cap_only(two_loop, cube_gb):
    w = words(two_loop)
    x = two_loop.arrow("x")
    model = build_model(two_loop, cube_gb, 3)
    assert model.act(w("xx"), x) == {w("yyy"): F.one}  # x^3 = y^3
    assert model.act(w("xx"), two_loop.arrow("y")) == {}  # x*y = 0
    for word in (w("xy"), w("xxx"), w("yyy")):  # two words that are not normal, one at the cap
        with pytest.raises(PathAlgError, match="not a normal word below the model cap 3"):
            model.act(word, x)


def test_model_of_a_truncated_basis_stops_at_its_bound():
    pf = parse(SKLYANIN)
    gb = groebner_basis(pf.ideal, pf.order, 4)
    assert not gb.complete
    with pytest.raises(PathAlgError, match="truncated-at-degree-4"):
        build_model(pf.quiver, gb, 5)
    model = build_model(pf.quiver, gb, 4)
    with pytest.raises(PathAlgError, match="truncated-at-degree-4"):
        model.extend(5)
    assert model.degree_cap == 4


def test_resolution_dual_numbers(one_loop, one_loop_order):
    gb = groebner_basis([AlgebraElement({one_loop.path("x*x"): F.one})], one_loop_order, 4)
    model = build_model(one_loop, gb, 8)
    rep = minimal_resolution(ModulePresentation.simple_tops(one_loop, F.one), model, 5, 8)
    assert rep.degrees == [[0], [1], [2], [3], [4], [5]]


def test_resolution_cube_fixture(two_loop, cube_model, cube_A0):
    rep = minimal_resolution(cube_A0, cube_model, 2, 12)
    assert rep.degrees == [[0], [1, 1], [2, 2, 3]]
    assert rep.hilbert[:5] == [1, 0, 0, 0, 0]


def test_resolution_commutative_plane(two_loop, plane_gb):
    model = build_model(two_loop, plane_gb, 8)
    A0 = ModulePresentation.simple_tops(two_loop, F.one)
    rep = minimal_resolution(A0, model, 4, 8)
    assert rep.degrees == [[0], [1, 1], [2], [], []]
    assert rep.zero_tail_from == 3


def _cover_dims(model, cover, d):
    return sum(
        len([w for w in model.basis[d - s.degree] if w.source == s.vertex])
        for s in cover
        if 0 <= d - s.degree <= model.degree_cap
    )


def test_resolution_exactness_bookkeeping(two_loop, cube_model, cube_A0):
    # Rank accounting degreewise: dim (P_n)_d = dim M_n_d + dim M_(n+1)_d,
    # where M_0 = X and M_(n+1) = ker(phi_n).  The differentials compose to
    # zero by construction (covers map onto kernels), so this equality is
    # exactly the exactness spot-check.
    rep = minimal_resolution(cube_A0, cube_model, 3, 10)
    for d in range(rep.degree_cap + 1):
        p0 = _cover_dims(cube_model, rep.covers[0], d)
        assert p0 == rep.hilbert[d] + rep.syzygy_dims[0][d]
    for n in range(1, 3):
        for d in range(rep.degree_cap + 1):
            pn = _cover_dims(cube_model, rep.covers[n], d)
            assert pn == rep.syzygy_dims[n - 1][d] + rep.syzygy_dims[n][d], (n, d)


def test_plane_resolution_exactness_bookkeeping(two_loop, plane_gb):
    model = build_model(two_loop, plane_gb, 7)
    A0 = ModulePresentation.simple_tops(two_loop, F.one)
    rep = minimal_resolution(A0, model, 3, 7)
    for n in range(1, 3):
        for d in range(rep.degree_cap + 1):
            pn = _cover_dims(model, rep.covers[n], d)
            assert pn == rep.syzygy_dims[n - 1][d] + rep.syzygy_dims[n][d], (n, d)


def test_hilbert_of_simple_and_free(two_loop, cube_model):
    A0 = ModulePresentation.simple_tops(two_loop, F.one)
    assert module_hilbert(A0, cube_model, 6) == [1, 0, 0, 0, 0, 0, 0]
    free = ModulePresentation((Generator("f", "e", 0),), ())
    dims = module_hilbert(free, cube_model, 6)
    assert dims == [1, 2, 2, 1, 0, 0, 0]


def test_hilbert_exact_sequences(two_loop, cube_model):
    w = words(two_loop)
    X = ModulePresentation.cyclic(two_loop, "e", [w("x")], F.one)
    Y = ModulePresentation.cyclic(two_loop, "e", [w("y")], F.one)
    hx = module_hilbert(X, cube_model, 5)
    hy = module_hilbert(Y, cube_model, 5)
    dims = [len(normal_words(two_loop, cube_model.gb.tips, d)) for d in range(5)]
    assert hx[:5] == [1, 1, 1, 0, 0]
    for n in range(4):
        assert dims[n] == hx[n] + (hy[n - 1] if n >= 1 else 0)


def test_quotients_by_each_loop_are_linear(two_loop, cube_model):
    w = words(two_loop)
    for loop in ("x", "y"):
        X = ModulePresentation.cyclic(two_loop, "e", [w(loop)], F.one)
        rep = minimal_resolution(X, cube_model, 4, 12)
        assert rep.degrees == [[0], [1], [2], [3], [4]]


def test_truncated_polynomial_resolutions():
    from pathalg import s_koszul_degree
    for s in (2, 3, 4):
        q, order, gb = truncated_polynomial(s)
        model = build_model(q, gb, 22)
        rep = minimal_resolution(ModulePresentation.simple_tops(q, F.one), model, 6, 22)
        assert rep.degrees == [[s_koszul_degree(s, i)] for i in range(7)]


def test_multi_vertex_resolution():
    q = Quiver.build(["u", "v"], [("a", "u", "v"), ("b", "v", "u")])
    order = OrderSpec.for_quiver(q)
    ab = AlgebraElement({q.path("a*b"): F.one})
    gb = groebner_basis([ab], order, 6)
    model = build_model(q, gb, 8)
    A0 = ModulePresentation.simple_tops(q, F.one)
    rep = minimal_resolution(A0, model, 3, 8)
    # Chains: level 0 = {a, b}, level 1 = {ab}; ab has no self-overlap, so
    # level 2 is empty and the resolution stops after P_2.
    assert rep.degrees[0] == [0, 0]
    assert rep.degrees[1] == [1, 1]
    assert rep.degrees[2] == [2]
    assert rep.degrees[3] == []


def test_presentation_with_shifted_generators(two_loop, cube_model):
    w = words(two_loop)
    pres = ModulePresentation(
        (Generator("g0", "e", 0), Generator("g1", "e", 1)),
        (ModuleElement({(0, w("xx")): F.one, (1, w("x")): -F.one}),),
    )
    rep = minimal_resolution(pres, cube_model, 2, 10)
    assert rep.degrees[0] == [0, 1]
    assert rep.hilbert[0] == 1 and rep.hilbert[1] == 3


def test_minimality_no_unit_hits(two_loop, cube_model, cube_A0):
    # Every differential image avoids generator tops; covers would otherwise shrink.
    rep = minimal_resolution(cube_A0, cube_model, 4, 12)
    for n in range(1, 5):
        assert all(d >= 1 for d in rep.degrees[n])
        prev_min = min(rep.degrees[n - 1]) if rep.degrees[n - 1] else 0
        assert min(rep.degrees[n], default=prev_min + 1) > prev_min


def test_resolution_determinism(two_loop, cube_model, cube_A0):
    a = minimal_resolution(cube_A0, cube_model, 4, 12)
    b = minimal_resolution(cube_A0, cube_model, 4, 12)
    assert a.degrees == b.degrees and a.hilbert == b.hilbert


def test_non_minimal_cover_is_an_error(one_loop, one_loop_order):
    # Two degree-0 summands with the same image: their difference is a kernel
    # vector on the generator tops, so the cover was not minimal.
    gb = groebner_basis([AlgebraElement({one_loop.path("x*x"): F.one})], one_loop_order, 4)
    model = build_model(one_loop, gb, 4)
    ambient = CoverSpace(model, [FreeSummand("e", 0)])
    domain = CoverSpace(model, [FreeSummand("e", 0), FreeSummand("e", 0)])
    with pytest.raises(PathAlgError, match="cover was not minimal"):
        kernel_pieces(domain, [{0: F.one}, {0: F.one}], ambient, 4)


# A/yA over the cube algebra, and three presentations of it with a
# redundant generator g1: equal to g0, killed outright, or tied to g0*x.
# Each relation is {(generator number, word or vertex): coefficient}.
MINIMAL_Y = ((0,), [{(0, "y"): 1}])
NON_MINIMAL_Y = {
    "equal": ((0, 0), [{(0, "e"): 1, (1, "e"): -1}, {(1, "y"): 1}]),
    "killed": ((0, 0), [{(0, "y"): 1}, {(1, "e"): 1}]),
    "tied": ((0, 1), [{(1, "e"): 1, (0, "x"): -1}, {(0, "y"): 1}]),
}


def _cube_presentation(quiver, field, spec):
    degrees, relations = spec
    gens = tuple(Generator(f"g{i}", "e", d) for i, d in enumerate(degrees))
    rels = tuple(ModuleElement({(i, quiver.path(w)): field.of(c) for (i, w), c in r.items()}) for r in relations)
    return ModulePresentation(gens, rels)


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", sorted(NON_MINIMAL_Y))
def test_non_minimal_presentation_resolves_like_its_minimal_one(two_loop, p, name):
    field = Field(p)
    w = words(two_loop)
    gens = [AlgebraElement({w("xy"): 1}), AlgebraElement({w("yx"): 1}),
            AlgebraElement({w("xxx"): 1, w("yyy"): field.of(-1)})]
    model = build_model(two_loop, groebner_basis(gens, OrderSpec(("x", "y"), ("e",), field=field), 8), 8)
    want = minimal_resolution(_cube_presentation(two_loop, field, MINIMAL_Y), model, 4, 8)
    got = minimal_resolution(_cube_presentation(two_loop, field, NON_MINIMAL_Y[name]), model, 4, 8)
    assert want.degrees[:2] == [[0], [1]]
    assert got.degrees == want.degrees
    assert got.hilbert == want.hilbert
    assert got.syzygy_dims == want.syzygy_dims
    assert got.alive_at_cap == want.alive_at_cap
    assert got.zero_tail_from == want.zero_tail_from


def test_resolution_cap_guard(two_loop, cube_model, cube_A0):
    with pytest.raises(PathAlgError):
        minimal_resolution(cube_A0, cube_model, 2, 99)


def test_relation_above_the_model_cap_is_refused(one_loop, one_loop_order):
    # A relation above the cap would be dropped from the span, so first
    # syzygies and windows would miss it; words past the cap cannot even be
    # placed in a block.
    gb = groebner_basis([AlgebraElement({one_loop.path("x*x"): F.one})], one_loop_order, 4)
    model = build_model(one_loop, gb, 2)
    x = one_loop.path("x")
    shifted = ModulePresentation((Generator("g", "e", 2),), (ModuleElement({(0, x): F.one}),))
    with pytest.raises(PathAlgError, match="above the degree cap 2"):
        presentation_cover(shifted, model)
    model = build_model(one_loop, gb, 0)
    with pytest.raises(PathAlgError, match="above the degree cap 0"):
        minimal_resolution(ModulePresentation.simple_tops(one_loop, F.one), model, 2, 0)
    model.extend(3)
    _cover, seeds = presentation_cover(shifted, model)
    assert [(d, v) for d, v, _vec in seeds] == [(3, "e")]


def test_membership_oracle_counts_dimensions(two_loop, two_loop_order, cube_gb):
    # dim A_d = #paths - rank(degree-d ideal piece): ties the Groebner layer
    # to plain linear algebra through the normal-word count.
    w = words(two_loop)
    gens = [AlgebraElement({w("xy"): F.one}), AlgebraElement({w("yx"): F.one}),
            AlgebraElement({w("xxx"): F.one, w("yyy"): -F.one})]
    for d in range(2, 7):
        span = ideal_span(gens, two_loop, F, d)
        assert len(two_loop.paths_of_length(d)) - span.dim == len(normal_words(two_loop, cube_gb.tips, d))


def test_resolution_over_prime_field(two_loop):
    F7 = Field(7)
    w = words(two_loop)
    gens = [
        AlgebraElement({w("xy"): F7.one}),
        AlgebraElement({w("yx"): F7.one}),
        AlgebraElement({w("xxx"): F7.one, w("yyy"): -F7.one}),
    ]
    gb = groebner_basis(gens, OrderSpec(("x", "y"), ("e",), field=F7), 8)
    model = build_model(two_loop, gb, 10)
    rep = minimal_resolution(ModulePresentation.simple_tops(two_loop, F7.one), model, 2, 10)
    assert rep.degrees == [[0], [1, 1], [2, 2, 3]]
    assert model.dims()[:5] == [1, 2, 2, 1, 0]


def test_verify_windows_reports_violations(two_loop, cube_model, cube_A0):
    rep = minimal_resolution(cube_A0, cube_model, 2, 10)
    good = DegreeWindow(2, 2, 3, "quasi")
    bad = DegreeWindow(2, 2, 2, "quasi")
    ok, verdicts = verify_windows(rep, [good, bad])
    assert not ok
    assert verdicts[0].ok and not verdicts[1].ok
    assert verdicts[1].violations == (3,)
