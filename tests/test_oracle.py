import gc
import pathlib
import random
import sys
import threading
from itertools import islice
from math import comb

import pytest

import pathalg.algebra
import pathalg.oracle
from pathalg import (
    AlgebraElement,
    OrderSpec,
    PathAlgError,
    Quiver,
    build_model,
    groebner_basis,
    minimal_resolution,
    normal_form,
    verify_windows,
)
from pathalg.fields import Field
from pathalg.linalg import Subspace
from pathalg.presentation import Generator, ModulePresentation
from pathalg.algebra import ModuleElement
from pathalg.corpus import instances, random_presentation
from pathalg.oracle import CoverSpace, FreeSummand, kernel_dims, kernel_pieces, presentation_cover, span_from_seeds
from pathalg.problem import parse
from pathalg.quiver import Path, normal_word_levels
from pathalg.syzygy import DegreeWindow, first_syzygy
from tests.conftest import perfbench_module, truncated_polynomial, words
from tests.helpers import cyclic, monomial_bundles
from tests.reference import (
    ideal_span,
    module_normal_form,
    reference_block,
    reference_kernel_pieces,
    reference_levels,
    reference_minimal_resolution,
    reference_span_from_seeds,
)
from tests.test_problem import _random_problem

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
                    expect = normal_form(direct, cube_model.gb, cube_model.gb.order)
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
        normal = set(model.basis[d + 1])
        for k, a in enumerate(pf.quiver.arrows):
            table = model.action(d, k)
            for i, w in enumerate(model.basis[d]):
                got = {model.basis[d + 1][j]: c for j, c in table[i]}
                if w.target != a.source:
                    assert got == {}
                    continue
                wa = Path(w.source, a.target, w.arrows + (a,))
                rewritten += wa not in normal
                assert got == normal_form(AlgebraElement({wa: F.one}), model.gb, pf.order).terms, (w, a)
                assert model.act(w, a) == got
    assert rewritten


@pytest.mark.parametrize("name, text, cap", MODEL_INPUTS, ids=[m[0] for m in MODEL_INPUTS])
def test_rewritten_lists_the_products_that_leave_the_normal_words(name, text, cap):
    pf, model = _input_model(text, cap)
    assert len(model.rewritten) == cap
    for d in range(cap):
        normal = set(model.basis[d + 1])
        products = {(i, k): Path(w.source, a.target, w.arrows + (a,)) for i, w in enumerate(model.basis[d])
                    for k, a in enumerate(pf.quiver.arrows) if a.source == w.target}
        left = [ik for ik, wa in products.items() if wa not in normal]
        assert model.rewritten[d] == sorted(left, key=lambda ik: pf.order.path_key(products[ik])), d


def _level_inputs():
    """(name, problem text, cap): MODEL_INPUTS and the corpus-windows instances at cap 8."""
    problems, _seconds = perfbench_module("workloads").corpus_problems(200)
    return MODEL_INPUTS + [(f"c7 instance {seed}", text, 8) for seed, text in problems]


def _assert_reference_levels(pf, model, cap, name):
    got = (model.basis, model.parent, model.ranks, model.rewritten)
    assert got == reference_levels(pf.quiver, model.gb, cap), name
    for d, level in enumerate(model.basis):
        want: dict = {}
        for i in sorted(range(len(level)), key=lambda i: pf.order.path_key(level[i]), reverse=True):
            want.setdefault((level[i].source, level[i].target), []).append(i)
        assert model.between[d] == want, (name, d)


def test_model_levels_are_the_reference_levels():
    for name, text, cap in _level_inputs():
        pf, model = _input_model(text, cap)
        _assert_reference_levels(pf, model, cap, name)


def test_level_ends_are_the_endpoints_of_the_basis_words():
    # `grow` records each word's endpoints and makes no Path; `basis` builds
    # the Paths from the parent links alone.
    for name, text, cap in _level_inputs():
        _pf, model = _input_model(text, cap)
        levels = model._levels
        assert len(levels.ends) == len(levels.basis) == cap + 1, name
        for d, level in enumerate(levels.basis):
            assert levels.ends[d] == [(w.source, w.target) for w in level], (name, d)
            if d:
                assert levels.ends[d] == [(w.arrows[0].source, w.arrows[-1].target) for w in level], (name, d)


@pytest.mark.parametrize("name", ["poly3_q", "preproj3"])
def test_a_model_keeps_its_cap_when_its_levels_grow_past_it(name):
    # Both models continue the levels of one basis, so the cap-7 model grows
    # them past the cap-4 model's cap, before and after its Paths are built.
    pf = parse((ROOT / "perfbench" / "inputs" / f"{name}.alg").read_text())
    gb = groebner_basis(pf.ideal, pf.order, 4)
    assert gb.complete and len(gb.levels.ranks) <= 5
    low = build_model(pf.quiver, gb, 4)
    before = low.basis
    high = build_model(pf.quiver, gb, 7)
    assert len(gb.levels.ranks) == 8 and high._levels is low._levels
    fresh = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 4), 4)
    assert len(low.basis) == 5 and low.basis == before == fresh.basis
    assert low.dims() == fresh.dims() == [len(level) for level in low.basis]
    assert high.basis[:5] == low.basis and len(high.basis) == 8


def test_threads_that_first_read_the_levels_at_once_see_every_degree_built():
    # `basis` assigns each missing degree by its index, so readers that race
    # to build the same degrees each return every degree, equal to a lone build.
    pf = parse((ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text())
    want = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 11), 11).basis
    levels = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 11), 11)._levels
    seen = []
    threads = [threading.Thread(target=lambda: seen.append(list(levels.basis))) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 and all(basis == want for basis in seen)


def _unused_arrow_problems():
    """The corpus-windows problems whose quiver has an arrow that no ideal generator uses."""
    problems, _seconds = perfbench_module("workloads").corpus_problems(200)
    out = []
    for seed, text in problems:
        pf = parse(text)
        used = {a for g in pf.ideal for q in g.terms for a in q.arrows}
        if used != set(pf.quiver.arrows):
            out.append((f"c7 instance {seed}", pf))
    return out


def _seeded_complete_problems(D):
    """Seeded problems on 1 to 3 vertices over Q, F_7 and F_5 whose basis is complete at D."""
    rng = random.Random(20261021)
    out = []
    for inst in instances(20261021, 150):
        if len(inst.quiver.paths_of_length(5)) > 64:
            continue
        for field in (F, Field(7), Field(5)):
            pf = _random_problem(rng, inst, field)
            if pf.ideal:
                gb = groebner_basis(pf.ideal, pf.order, D)
                if gb.complete:
                    out.append((f"seed {inst.seed} over {field}", pf, gb))
    return out


def test_a_model_past_completion_eliminates_nothing(monkeypatch):
    """Past the degrees that completion grew, the model reads A off the reduced basis and makes no Subspace.

    `build_model` continues `poly3_q`'s levels from degree 3 to 14, starts
    fresh levels for each corpus-windows instance with an arrow that no
    generator uses, and continues seeded complete bases from D = 5 to 8.
    Each model equals the reference levels, and every table row the normal
    form of its product.
    """
    poly3 = parse((ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text())
    inputs = [("poly3_q.alg", poly3, groebner_basis(poly3.ideal, poly3.order, 14), 14)]
    inputs += [(name, pf, groebner_basis(pf.ideal, pf.order, 8), 8) for name, pf in _unused_arrow_problems()]
    seeded = _seeded_complete_problems(5)
    inputs += [(name, pf, gb, 8) for name, pf, gb in seeded]
    assert len(inputs) - len(seeded) == 30 and len(seeded) >= 150
    assert sum(any(len(g.terms) > 1 for g in gb.elements) for _name, _pf, gb in seeded) > 30
    assert sum(len({t.length for t in gb.tips}) > 1 for _name, _pf, gb in seeded) > 30

    def refuse(*args, **kwargs):
        raise AssertionError("a Subspace was made past completion")

    monkeypatch.setattr(pathalg.algebra, "Subspace", refuse)
    for name, pf, gb, cap in inputs:
        model = build_model(pf.quiver, gb, cap)
        _assert_reference_levels(pf, model, cap, name)
        for d in range(cap):
            for k, a in enumerate(pf.quiver.arrows):
                for i, w in enumerate(model.basis[d]):
                    got = {model.basis[d + 1][j]: c for j, c in model.action(d, k)[i]}
                    if w.target != a.source:
                        assert got == {}
                        continue
                    wa = AlgebraElement({Path(w.source, a.target, w.arrows + (a,)): model.field.one})
                    assert got == normal_form(wa, gb, pf.order).terms, (name, d, w, a)


def test_a_model_extended_in_steps_is_a_fresh_model():
    # `verify` builds its model at the window cap and extends it to the
    # oracle's.  The levels below the old cap are kept, and the new ones
    # continue them.
    for name, text, cap in _level_inputs():
        pf, want = _input_model(text, cap)
        got = build_model(pf.quiver, want.gb, cap // 2)
        arrows = range(len(pf.quiver.arrows))
        for d in range(cap // 2):
            for k in arrows:
                got.action(d, k)
        got.extend(cap)
        assert (got.basis, got.parent, got.ranks, got.rewritten) == (want.basis, want.parent, want.ranks,
                                                                    want.rewritten), name
        for d in range(cap):
            for k in arrows:
                assert got.action(d, k) == want.action(d, k), (name, d, k)


def _test_covers(vertices):
    """Summand lists with mixed degrees, several vertices at one degree, and repeated summands."""
    mixed = [FreeSummand(v, deg) for deg in (1, 0, 1, 3) for v in vertices] + [FreeSummand(vertices[0], 1)]
    return [mixed, mixed[::-1], [FreeSummand(vertices[-1], 2)] * 3]


def test_cover_blocks_are_the_reference_blocks():
    checked = 0
    for name, text, cap in _level_inputs():
        pf, model = _input_model(text, cap)
        covers = _test_covers(pf.quiver.vertices)
        for pres in pf.modules.values():
            covers += minimal_resolution(pres, model, 3, cap).covers
        for summands in covers:
            cover = CoverSpace(model, summands)
            for d in range(cap + 4):
                for v in pf.quiver.vertices:
                    cols, pos = cover.block(d, v)
                    assert cols == reference_block(model, summands, d, v), (name, summands, d, v)
                    assert pos == [{i: n for n, (j2, i) in enumerate(cols) if j2 == j} for j in range(len(summands))]
                    assert cover.dim(d, v) == len(cols)
                    checked += bool(cols)
    assert checked > 10000


def _cover_table(cover, d, k, cap=None):
    """Arrow number k on block (d, its source) of a cover: the image of each column whose word is shorter than
    cap (the model's cap by default), and then the table's rows, None where a row was never read."""
    model = cover.model
    cap = model.degree_cap if cap is None else cap
    cols, _ = cover.block(d, model.quiver.arrows[k].source)
    images = [cover.act(d, k, {n: 1}) for n, (j, _i) in enumerate(cols) if d - cover.summands[j].degree < cap]
    return images, cover._tables(d, k)[0]


def test_extend_drops_the_cover_tables_of_the_old_cap(two_loop, plane_gb):
    # Covers of one shape share their tables.  A block read at cap 4 past
    # the cap lacks the words of degree 5, so a shifted cover of the same
    # shape must not be handed it once `extend` has raised the cap.
    small, fresh = build_model(two_loop, plane_gb, 4), build_model(two_loop, plane_gb, 7)
    low = [FreeSummand("e", 0), FreeSummand("e", 1), FreeSummand("e", 1)]
    high = [FreeSummand("e", 2), FreeSummand("e", 3), FreeSummand("e", 3)]
    old = CoverSpace(small, low)
    for d in range(7):
        old.block(d, "e")
    for d in range(5):
        for k in range(2):
            old._tables(d, k)
    assert CoverSpace(small, high).block(7, "e") is old.block(5, "e")
    small.extend(7)
    got, want = CoverSpace(small, high), CoverSpace(fresh, high)
    for d in range(2, 11):
        assert got.block(d, "e") == want.block(d, "e"), d
        assert got.dim(d, "e") == want.dim(d, "e"), d
    for d in range(2, 9):
        for k in range(2):
            assert _cover_table(got, d, k) == _cover_table(want, d, k), (d, k)
    # The tables of the old cover were made at cap 4, and no row of them was
    # read.  Read now, a row is the old cap's, numbered in the old block 5,
    # which lacks the words of degree 5.
    assert old.block(5, "e") != CoverSpace(fresh, low).block(5, "e")
    at_old_cap = CoverSpace(build_model(two_loop, plane_gb, 4), low)
    for d in range(5):
        for k in range(2):
            assert _cover_table(old, d, k, 4) == _cover_table(at_old_cap, d, k), (d, k)


def test_cover_rows_built_when_first_read_are_the_relabelled_model_rows():
    # Every row that `act` builds is the model's row of its column's word,
    # relabelled into the target block's columns.
    checked = 0
    for name, text, cap in _level_inputs():
        pf, model = _input_model(text, cap)
        covers = _test_covers(pf.quiver.vertices)
        for pres in pf.modules.values():
            covers += minimal_resolution(pres, model, 3, cap).covers
        for summands in filter(None, covers):
            cover = CoverSpace(model, summands)
            low = min(s.degree for s in summands)
            for d in range(low, low + cap):
                for k, a in enumerate(pf.quiver.arrows):
                    cols, _ = cover.block(d, a.source)
                    _, pos = cover.block(d + 1, a.target)
                    _images, rows = _cover_table(cover, d, k)
                    want = [[(pos[j][i2], c) for i2, c in model.action(d - summands[j].degree, k)[i]]
                            for j, i in cols]
                    assert rows == want, (name, summands, d, k)
                    checked += len(rows)
    assert checked > 90000


def test_a_resolution_builds_few_cover_rows():
    # Only the rows that a resolution reads are built: for poly3 over Q,
    # A0 at N = 3 and D = 11 reads 891 of the 1989 rows its tables cover.
    pf = parse((ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text())
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 11), 11)
    minimal_resolution(pf.modules["A0"], model, 3, 11)
    rows = [row for _blocks, tables, _dims in model._covers.values() for t in tables.values() for row in t[0]]
    built = sum(row is not None for row in rows)
    assert len(rows) == 1989
    assert 0 < built <= 1000, built


def test_a_resolution_builds_no_path_past_completion():
    # Only completion reads the levels' Paths: for poly3 over Q, A0 at N = 3
    # and D = 11 builds the 20 words of degrees 0 to 3 of the 364 through 11.
    pf = parse((ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text())
    gb = groebner_basis(pf.ideal, pf.order, 11)
    grown = len(gb.levels.ranks)
    minimal_resolution(pf.modules["A0"], build_model(pf.quiver, gb, 11), 3, 11)
    levels = gb.levels
    assert grown == 4 and sum(len(words) for words in levels.ranks) == 364
    assert levels._paths[grown:] == [None] * (12 - grown)
    built = sum(len(level) for level in levels._paths if level is not None)
    assert 0 < built <= 20, built


def test_action_tables_and_resolutions_need_no_normal_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("normal_form called by the oracle")

    models = [(_input_model(text, cap), cap) for _name, text, cap in MODEL_INPUTS]
    monkeypatch.setattr(pathalg.oracle, "normal_form", refuse)
    monkeypatch.setattr(pathalg.algebra, "normal_form", refuse)
    for (pf, model), cap in models:
        for d in range(cap):
            for k in range(len(pf.quiver.arrows)):
                model.action(d, k)
        for pres in pf.modules.values():
            rep = minimal_resolution(pres, model, 3, cap)
            assert rep.degrees[0]
            first_syzygy(pres, model, cap)


def _relation_inputs():
    """(name, problem text) for every fixture, the perfbench inputs and the corpus-windows instances."""
    out = [(p.name, p.read_text()) for p in sorted((ROOT / "fixtures").glob("*.alg"))]
    out += [(p.name, p.read_text()) for p in sorted((ROOT / "perfbench" / "inputs").glob("*.alg"))]
    problems, _seconds = perfbench_module("workloads").corpus_problems(200)
    return out + [(f"c7 instance {seed}", text) for seed, text in problems]


@pytest.mark.parametrize("cap", [6, 8])
def test_relation_seeds_read_through_the_tables_are_the_normal_forms(cap):
    # Each relation's seeds, one block vector per (degree, vertex), equal
    # the coordinates of its normal form's words.  Besides the inputs'
    # modules, a cyclic module per basis tip t below the cap has the
    # relations t and t*a, words that are not normal.
    checked = 0
    for name, text in _relation_inputs():
        pf = parse(text)
        model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, cap), cap)
        modules = dict(pf.modules)
        for t in model.gb.tips:
            if t.length < cap:
                tip_words = [t] + [Path(t.source, a.target, t.arrows + (a,)) for a in pf.quiver.arrows
                                   if a.source == t.target]
                modules[f"tip {t}"] = ModulePresentation(
                    (Generator("g", t.source, 0),), tuple(ModuleElement({(0, w): model.field.one}) for w in tip_words))
        for module, pres in modules.items():
            cover, _seeds = presentation_cover(pres, model)
            for r in pres.relations:
                want: dict = {}
                for (j, w), c in module_normal_form(r, model.gb).terms.items():
                    d = pres.generators[j].degree + w.length
                    column = cover.block(d, w.target)[1][j][model.basis[w.length].index(w)]
                    want.setdefault((d, w.target), {})[column] = c
                got = {(d, v): vec for d, v, vec in cover.from_terms(r.terms)}
                assert got == want, (name, module, r)
                checked += 1
    assert checked > 1000


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
    assert minimal_resolution(A0, cube_model, 0, 6).hilbert == [1, 0, 0, 0, 0, 0, 0]
    free = ModulePresentation((Generator("f", "e", 0),), ())
    dims = minimal_resolution(free, cube_model, 0, 6).hilbert
    assert dims == [1, 2, 2, 1, 0, 0, 0]


def test_hilbert_exact_sequences(two_loop, cube_model):
    w = words(two_loop)
    X = cyclic(two_loop, "e", [w("x")], F.one)
    Y = cyclic(two_loop, "e", [w("y")], F.one)
    hx = minimal_resolution(X, cube_model, 0, 5).hilbert
    hy = minimal_resolution(Y, cube_model, 0, 5).hilbert
    dims = [len(level) for level in islice(normal_word_levels(two_loop, cube_model.gb.tips), 5)]
    assert hx[:5] == [1, 1, 1, 0, 0]
    for n in range(4):
        assert dims[n] == hx[n] + (hy[n - 1] if n >= 1 else 0)


def test_quotients_by_each_loop_are_linear(two_loop, cube_model):
    w = words(two_loop)
    for loop in ("x", "y"):
        X = cyclic(two_loop, "e", [w(loop)], F.one)
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
        kernel_pieces(domain, [{0: F.one}, {0: F.one}], ambient,
                      kernel_dims(domain, {(d, "e"): ambient.dim(d, "e") for d in range(5)}, 4), 4)


def _resolution_cases():
    """(name, problem text, module, D): every fixture module and the c7 corpus's A0 and R at D = 8, poly3_q at 16."""
    out = [(f"{p.name} {m}", p.read_text(), m, 8) for p in sorted((ROOT / "fixtures").glob("*.alg"))
           for m in parse(p.read_text()).modules]
    problems, _seconds = perfbench_module("workloads").corpus_problems(200)
    out += [(f"c7 instance {seed} {m}", text, m, 8) for seed, text in problems for m in ("A0", "R")]
    return out + [("poly3_q.alg A0", (ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text(), "A0", 16)]


def test_counted_kernels_resolve_like_the_full_kernel_route():
    # The full-kernel route takes a left nullspace of every block; the
    # counted one eliminates only where a generator is born.  Every field
    # of the report, the covers' order included, must agree.
    cases = _resolution_cases()
    assert len(cases) > 270
    for name, text, module, D in cases:
        pf = parse(text)
        model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, D), D)
        pres = pf.modules[module]
        assert minimal_resolution(pres, model, 4, D) == reference_minimal_resolution(pres, model, 4, D), name


def _kernel_pieces_domains(monkeypatch):
    """The summands of each cover that `minimal_resolution` hands to `kernel_pieces`, in call order."""
    domains, real = [], pathalg.oracle.kernel_pieces

    def counted(domain, *args):
        domains.append(domain.summands)
        return real(domain, *args)

    monkeypatch.setattr(pathalg.oracle, "kernel_pieces", counted)
    return domains


def test_step_0_reuses_the_relation_span_of_a_minimal_presentation(monkeypatch):
    # A0 of k[x, y, z] is presented by its one top, so P_0 is the
    # presentation's cover and ker(P_0 -> A0) is the span of the relations:
    # only P_1 and P_2 need `kernel_pieces` (P_3's kernel is only counted).
    pf = parse((ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text())
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 6), 6)
    pres = pf.modules["A0"]
    want = reference_minimal_resolution(pres, model, 3, 6)
    domains = _kernel_pieces_domains(monkeypatch)
    rep = minimal_resolution(pres, model, 3, 6)
    assert rep == want
    assert rep.degrees == [[0], [1, 1, 1], [2, 2, 2], [3]]
    assert domains == rep.covers[1:3]


# Two vertices, u first, and a module whose generators are minimal but listed v first.
TWO_VERTEX_OUT_OF_ORDER = """
[quiver]
vertex u v
arrow a : u -> v
arrow b : v -> u

[ideal]
a*b*a
b*a*b

[module M]
generator n : v @ 0
generator m : u @ 0
relation n*b*a
relation m*a*b
"""


@pytest.mark.parametrize("text, module", [
    ((ROOT / "fixtures" / "cube_nonminimal_a0.alg").read_text(), "A0"),
    (TWO_VERTEX_OUT_OF_ORDER, "M"),
], ids=["cube_nonminimal_a0", "two_vertices_out_of_order"])
def test_step_0_spans_the_kernel_of_any_other_cover(monkeypatch, text, module):
    # P_0 differs from the presentation's cover, in its summands or only in
    # their order.  It is the minimized presentation's cover, whose relation
    # span is the first kernel, so step 0 calls no `kernel_pieces` either.
    pf = parse(text)
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 8), 8)
    pres = pf.modules[module]
    want = reference_minimal_resolution(pres, model, 4, 8)
    domains = _kernel_pieces_domains(monkeypatch)
    rep = minimal_resolution(pres, model, 4, 8)
    assert rep == want
    assert rep.covers[0] != tuple(FreeSummand(g.vertex, g.degree) for g in pres.generators)
    assert domains == list(rep.covers[1:4])


# Coefficients for seeded relations; 2, 3 and 7 vanish over F_2, F_3 and F_7.
SEED_COEFFICIENTS = (-2, -1, 1, 2, 3, 7)


def _vertex_term_presentation(rng, quiver):
    """One to four generators of degree 0 to 2, and relations that often hold some of them as vertex terms.

    A relation has one degree, often a generator's, and ends at one or two
    vertices.  It takes each generator that fits with probability 0.6: as a
    vertex term at the generator's own degree and vertex, else times a
    random path of the missing length to the end vertex.
    """
    gens = tuple(Generator(f"m{i}", rng.choice(quiver.vertices), rng.randint(0, 2)) for i in range(rng.randint(1, 4)))
    rels = []
    for _ in range(rng.randint(1, 4)):
        deg = rng.choice(gens).degree + (rng.random() < 0.3) * rng.randint(1, 2)
        terms = {}
        for target in rng.sample(quiver.vertices, min(len(quiver.vertices), rng.randint(1, 2))):
            for i, g in enumerate(gens):
                if g.degree > deg or rng.random() < 0.4:
                    continue
                length = deg - g.degree
                paths = [Path(g.vertex, g.vertex)] if not length else quiver.paths_of_length(length)
                paths = [w for w in paths if w.source == g.vertex and w.target == target]
                if paths:
                    terms[(i, rng.choice(paths))] = rng.choice(SEED_COEFFICIENTS)
        if terms:
            rels.append(ModuleElement(terms))
    return ModulePresentation(gens, tuple(rels))


def test_seeded_non_minimal_presentations_resolve_like_the_reference(monkeypatch):
    # The reference resolves each presentation as given: it spans X and
    # finds P_0 among the generator tops projected there.  minimal_resolution
    # minimizes it first, and calls `kernel_pieces` only from P_1 on.
    rng = random.Random(20261020)
    domains = _kernel_pieces_domains(monkeypatch)
    cases = redundant = 0
    for inst, _gb in monomial_bundles(30, 20261021, degree_cap=7):
        for p in (0, 2, 3, 7):
            field = Field(p)
            order = OrderSpec(tuple(a.name for a in inst.quiver.arrows), inst.quiver.vertices, field=field)
            gb = groebner_basis([AlgebraElement({w: 1}) for w in inst.patterns], order, 7)
            model = build_model(inst.quiver, gb, 7)
            pres = _vertex_term_presentation(rng, inst.quiver)
            name = (inst.seed, p, pres)
            want = reference_minimal_resolution(pres, model, 4, 7)
            domains.clear()
            rep = minimal_resolution(pres, model, 4, 7)
            assert rep == want, name
            assert domains == [c for c in rep.covers[1:4] if c], name
            cases += 1
            redundant += len(pres.minimal(inst.quiver, field).generators) < len(pres.generators)
    assert cases >= 100 and redundant >= 40, (cases, redundant)


def test_minimal_cube_nonminimal_keeps_only_g0():
    pf = parse((ROOT / "fixtures" / "cube_nonminimal_a0.alg").read_text())
    got = pf.modules["A0"].minimal(pf.quiver, pf.field)
    w = words(pf.quiver)
    assert got.gen_names() == ["g0"]
    # g1 = g0, k = 0 and h = g0*x: g1*y and h become g0*y and g0*x.
    assert got.relations == (ModuleElement({(0, w("x")): 1}), ModuleElement({(0, w("y")): 1}))


def test_minimal_splits_a_relation_by_the_target_of_its_paths():
    # g - h + 2k - l ends at u and at v, and each part holds vertex terms:
    # h = g and l = 2k.  h*a + l*b also ends at both vertices.
    quiver = Quiver.build(["u", "v"], [("a", "u", "v"), ("b", "v", "u")])
    w = words(quiver)
    gens = (Generator("g", "u", 0), Generator("h", "u", 0), Generator("k", "v", 0), Generator("l", "v", 0))
    e_u, e_v = Path("u", "u"), Path("v", "v")
    pres = ModulePresentation(gens, (
        ModuleElement({(0, e_u): 1, (1, e_u): -1, (2, e_v): 2, (3, e_v): -1}),
        ModuleElement({(1, w("a")): 1, (3, w("b")): 1}),
    ))
    got = pres.minimal(quiver, F)
    assert got.gen_names() == ["g", "k"]
    assert got.relations == (ModuleElement({(0, w("a")): 1}), ModuleElement({(1, w("b")): 2}))
    ideal = [AlgebraElement({w("ab"): 1}), AlgebraElement({w("ba"): 1})]
    model = build_model(quiver, groebner_basis(ideal, OrderSpec.for_quiver(quiver), 4), 4)
    assert minimal_resolution(pres, model, 3, 4) == reference_minimal_resolution(pres, model, 3, 4)


def test_minimal_reads_coefficients_in_the_field(one_loop):
    # Over F_7 the vertex term 7*g vanishes, as presentation_cover reads it,
    # so g is kept; over Q it is f*x times -1/7.
    x = one_loop.path("x")
    e = Path("e", "e")
    pres = ModulePresentation((Generator("g", "e", 1), Generator("f", "e", 0)),
                              (ModuleElement({(0, e): 7, (1, x): 1}),))
    got = pres.minimal(one_loop, Field(7))
    assert got.gen_names() == ["f", "g"]
    assert got.relations == (ModuleElement({(0, x): 1}),)
    assert pres.minimal(one_loop, F).gen_names() == ["f"]


def test_minimal_lists_generators_by_degree_then_vertex():
    pf = parse(TWO_VERTEX_OUT_OF_ORDER)
    pres = pf.modules["M"]
    w = words(pf.quiver)
    late = ModulePresentation((Generator("q", "u", 1),) + pres.generators, pres.relations)
    assert late.minimal(pf.quiver, F).gen_names() == ["m", "n", "q"]
    got = pres.minimal(pf.quiver, F)
    assert got.gen_names() == ["m", "n"]
    assert got.relations == (ModuleElement({(1, w("ba")): 1}), ModuleElement({(0, w("ab")): 1}))


def _plane_radical_cover(two_loop, plane_gb):
    """k[x, y] to degree 6, with the cover A(-1)^2 -> A, f_1 -> x, f_2 -> y, of its radical."""
    model = build_model(two_loop, plane_gb, 6)
    ambient = CoverSpace(model, [FreeSummand("e", 0)])
    domain = CoverSpace(model, [FreeSummand("e", 1), FreeSummand("e", 1)])
    images = [vec for a in ("x", "y") for _d, _v, vec in ambient.from_terms({(0, two_loop.path(a)): F.one})]
    return domain, images, ambient, {(d, "e"): ambient.dim(d, "e") for d in range(1, 7)}


def test_counted_kernel_of_the_plane_radical_cover(two_loop, plane_gb):
    domain, images, ambient, image_dims = _plane_radical_cover(two_loop, plane_gb)
    ker = kernel_dims(domain, image_dims, 6)
    assert ker == {(d, "e"): d - 1 for d in range(2, 7)}
    pieces = kernel_pieces(domain, images, ambient, ker, 6)
    assert [(d, v) for d, v, _vec in pieces.generators] == [(2, "e")]
    assert all(pieces.dim(d, "e") == d - 1 for d in range(1, 7))
    with pytest.raises(PathAlgError, match=r"block \(0, e\): the image is larger than the domain"):
        kernel_dims(domain, {(0, "e"): 1}, 6)


# (degree, change to the image dim there).  A count one too large is always
# caught: the block is eliminated and spans its true dim.  One too small is
# caught where the arrow images from below outgrow it; where a generator is
# born, at degree 2, the block is then not eliminated, so (2, +1) is not seen.
@pytest.mark.parametrize("d, delta", [(2, -1), (3, -1), (3, 1), (5, 1)])
def test_a_count_off_by_one_is_an_error(two_loop, plane_gb, d, delta):
    domain, images, ambient, image_dims = _plane_radical_cover(two_loop, plane_gb)
    image_dims[(d, "e")] += delta
    with pytest.raises(PathAlgError, match=rf"kernel block \({d}, e\) spans dim {d - 1}, but its count is {d - 1 - delta}"):
        kernel_pieces(domain, images, ambient, kernel_dims(domain, image_dims, 6), 6)


@pytest.mark.parametrize("path, module, D", [
    ("perfbench/inputs/poly3_q.alg", "A0", 9),
    ("perfbench/inputs/preproj3.alg", "A0", 10),
    ("fixtures/two_loop_cube.alg", "A0", 12),
])
def test_a_resolution_leaves_no_reference_cycles(path, module, D):
    # Memory a cycle holds waits for the cyclic collector; a resolution
    # should free all of its work by reference counting alone.
    pf = parse((ROOT / path).read_text())
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, D), D)
    gc.collect()
    gc.disable()
    try:
        minimal_resolution(pf.modules[module], model, 4, D)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _span_inputs():
    """(name, model, presentation, D): every fixture module, monomial corpus algebras, poly3_f101 and preproj3 A0."""
    out = []
    for path in sorted((ROOT / "fixtures").glob("*.alg")):
        pf = parse(path.read_text())
        model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 8), 8)
        out += [(f"{path.name} {m}", model, pres, 8) for m, pres in pf.modules.items()]
    rng = random.Random(20261019)
    for inst, gb in monomial_bundles(20, 20261020, degree_cap=8):
        model = build_model(inst.quiver, gb, 8)
        out.append((f"monomial {inst.seed} tops", model, ModulePresentation.simple_tops(inst.quiver, F.one), 8))
        pres = random_presentation(rng, inst.quiver, F, max_generators=2, max_relations=2)
        out.append((f"monomial {inst.seed} random", model, pres, 8))
    for name, D in (("poly3_f101.alg", 11), ("preproj3.alg", 12)):
        pf = parse((ROOT / "perfbench" / "inputs" / name).read_text())
        model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, D), D)
        out.append((f"{name} A0", model, pf.modules["A0"], D))
    return out


def _assert_same_pieces(got, want, D, name):
    # A span may stop once it fills its cover, so it keeps fewer blocks than
    # the reference; every block's dim is compared, and the pivots where both keep it.
    for d in range(D + 1):
        for v in got.cover.model.quiver.vertices:
            assert got.dim(d, v) == want.dim(d, v), (name, d, v)
    for key in got.spaces.keys() & want.spaces.keys():
        assert sorted(got.spaces[key].pivot_of_row) == sorted(want.spaces[key].pivot_of_row), (name, key)
    assert got.generators == want.generators, name


def _assert_labelled_rows(pieces, name):
    """Each block's labels ascend, one per row, and a row labelled (g, u) is c*g*u plus terms of smaller labels.

    The g*u of a block are walked in ascending label order: generator
    number first, then each normal word of the right length in ascending
    term order.  A row's residue modulo the g*u below its label is nonzero
    and proportional to the residue of its own g*u.
    """
    cover, model = pieces.cover, pieces.cover.model
    memo = {}

    def times(g, n, i):
        """Generator g times word i of length n."""
        if (g, n, i) not in memo:
            d, _v, vec = pieces.generators[g]
            if n:
                i0, k = model.parent[n][i]
                vec = cover.act(d + n - 1, k, times(g, n - 1, i0))
            memo[(g, n, i)] = vec
        return memo[(g, n, i)]

    for (d, v), sub in pieces.spaces.items():
        labels = pieces.labels[(d, v)]
        assert len(labels) == sub.dim, (name, d, v)
        rows = dict(zip(labels, sub.rows))
        below, seen = Subspace(model.field), []
        for g, (top, at, _vec) in enumerate(pieces.generators):
            n = d - top
            for i in reversed(model.between[n].get((at, v), ()) if n >= 0 else ()):
                row = rows.get((g, n, i))
                if row is not None:
                    seen.append((g, n, i))
                    line, rest = Subspace(model.field), below.residue(row)
                    assert rest and line.insert(below.residue(times(g, n, i))) and line.contains(rest), (name, d, v)
                below.add(times(g, n, i))
        assert seen == labels, (name, d, v)


def test_spans_by_labels_are_the_reference_spans(monkeypatch):
    # A block takes the image of a row labelled (g, u) under an arrow a only
    # when u*a is a normal word, in ascending label order.  That changes its
    # rows, but not the span: every block's dim and pivots, and each span's
    # generators, are those of the reference, which adds every image
    # through Subspace.add.  An image skipped wrongly leaves a block short,
    # and kernel_pieces would fill it with a generator of its own.  Each
    # row's label is checked too (`_assert_labelled_rows`).  Every
    # span_from_seeds and kernel_pieces call of each resolution is checked.
    real_span, real_kernel = pathalg.oracle.span_from_seeds, pathalg.oracle.kernel_pieces
    case, spans, kernels = [None], [], []

    def span(space, seeds, D):
        seeds = list(seeds)
        got = real_span(space, seeds, D)
        _assert_same_pieces(got, reference_span_from_seeds(space, seeds, D), D, (case[0], "span", len(spans)))
        _assert_labelled_rows(got, (case[0], "span", len(spans)))
        spans.append(type(space).__name__)
        return got

    def kernel(domain, images, ambient, dims, D):
        got = real_kernel(domain, images, ambient, dims, D)
        want = reference_kernel_pieces(domain, images, ambient, dims, D)
        _assert_same_pieces(got, want, D, (case[0], "kernel", len(kernels)))
        _assert_labelled_rows(got, (case[0], "kernel", len(kernels)))
        kernels.append(domain.summands)
        return got

    monkeypatch.setattr(pathalg.oracle, "span_from_seeds", span)
    monkeypatch.setattr(pathalg.oracle, "kernel_pieces", kernel)
    cases = _span_inputs()
    assert len(cases) > 50
    for name, model, pres, D in cases:
        case[0] = name
        minimal_resolution(pres, model, 4, D)
    assert spans == ["CoverSpace"] * len(cases)
    assert len(kernels) > 2 * len(cases)


def test_sklyanin_a0_resolution_reduces_few_rows_to_zero(monkeypatch):
    """Work count: `Subspace.add` calls that add nothing while resolving Sklyanin A0 at D = 16, completion included.

    Taking every arrow image gives 3,032 of them; the labels leave 79.
    """
    add, zero = Subspace.add, []

    def counted(self, vec):
        enlarged = add(self, vec)
        zero.append(not enlarged)
        return enlarged

    D = 16
    pf = parse((ROOT / "fixtures" / "sklyanin_235_a0.alg").read_text())
    monkeypatch.setattr(Subspace, "add", counted)
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, D), D)
    rep = minimal_resolution(pf.modules["A0"], model, 4, D)
    assert rep.degrees == [[0], [1, 1, 1], [2, 2, 2], [3], []]
    assert sum(zero) <= 160


@pytest.mark.parametrize("name", ["poly3_f101.alg", "poly3_q.alg", "preproj3.alg"])
def test_a0_relation_spans_stop_once_they_fill_the_cover(name):
    # A0's relations are the arrows, so its relation span is rad P_0, full
    # from degree 1: the span keeps the blocks of degree 1 and no others.
    # first_syzygy reads the same span: its only survivors are the arrows,
    # and the span is alive at the cap.
    D = 8
    pf = parse((ROOT / "perfbench" / "inputs" / name).read_text())
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, D), D)
    cover, seeds = presentation_cover(pf.modules["A0"], model)
    got = span_from_seeds(cover, seeds, D)
    assert got.full_from == 2
    assert {d for d, _v in got.spaces} == {1}
    _assert_same_pieces(got, reference_span_from_seeds(cover, seeds, D), D, name)
    syz = first_syzygy(pf.modules["A0"], model, D)
    assert (len(syz.survivors), syz.min_degree, syz.max_degree) == (len(pf.quiver.arrows), 1, 1)
    assert syz.alive_at_cap


def test_a_generator_above_a_full_degree_does_not_stop_the_span():
    # g0's relations fill degree 1 of the cover, but g1 at degree 2 brings
    # a column that the span lacks, and every block above holds more of them.
    D = 8
    pf = parse((ROOT / "perfbench" / "inputs" / "poly3_q.alg").read_text())
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, D), D)
    one = model.field.one
    pres = ModulePresentation((Generator("g0", "e", 0), Generator("g1", "e", 2)),
                              tuple(ModuleElement({(0, pf.quiver.path(a)): one}) for a in "xyz"))
    cover, seeds = presentation_cover(pres, model)
    got = span_from_seeds(cover, seeds, D)
    assert got.full_from is None
    _assert_same_pieces(got, reference_span_from_seeds(cover, seeds, D), D, "g0, g1")
    rep = minimal_resolution(pres, model, 3, D)
    assert rep == reference_minimal_resolution(pres, model, 3, D)
    assert rep.degrees == [[0, 2], [1, 1, 1], [2, 2, 2], [3]]
    assert rep.hilbert == [1, 0] + [comb(d, 2) for d in range(2, D + 1)]


@pytest.mark.parametrize("name", ["poly3_q.alg", "poly3_f101.alg"])
def test_counted_syzygy_dims_are_the_koszul_complex(name):
    # k[x, y, z] has the Koszul complex as its minimal resolution: P_i is
    # A(-i)^C(3, i), so ker(P_n -> P_(n-1)) in degree d is the alternating
    # sum of the dims of the P_i beyond it.
    pf = parse((ROOT / "perfbench" / "inputs" / name).read_text())
    model = build_model(pf.quiver, groebner_basis(pf.ideal, pf.order, 14), 14)
    rep = minimal_resolution(pf.modules["A0"], model, 3, 14)
    want = [[sum((-1) ** (i - n - 1) * comb(3, i) * comb(d - i + 2, 2) for i in range(n + 1, 4) if d >= i)
             for d in range(15)] for n in range(4)]
    assert rep.syzygy_dims == want
    assert rep.alive_at_cap == [True, True, True, False]


# A/yA over the cube algebra, and four presentations of it with a
# redundant generator g1: equal to g0, equal to g0 in a sum, killed
# outright, or tied to g0*x.
# Each relation is {(generator number, word or vertex): coefficient}.
MINIMAL_Y = ((0,), [{(0, "y"): 1}])
NON_MINIMAL_Y = {
    "equal": ((0, 0), [{(0, "e"): 1, (1, "e"): -1}, {(1, "y"): 1}]),
    "summed": ((0, 0), [{(0, "e"): 1, (1, "e"): -1}, {(0, "y"): 1, (1, "y"): 1}]),
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


def test_generator_above_the_resolution_cap_is_refused(cube_model):
    # A generator above D used to drop out of P_0 unseen: the report read
    # P_0 = [] and not truncated.
    high = ModulePresentation((Generator("g", "e", 20),), ())
    with pytest.raises(PathAlgError, match="generator g at degree 20 lies above the degree cap 6"):
        minimal_resolution(high, cube_model, 2, 6)
    # At D itself it resolves: a free module is its own cover.
    top = minimal_resolution(ModulePresentation((Generator("g", "e", 6),), ()), cube_model, 2, 6)
    assert top.degrees == [[6], [], []] and not top.truncated
    assert top.hilbert == [0] * 6 + [1]


def test_membership_oracle_counts_dimensions(two_loop, two_loop_order, cube_gb):
    # dim A_d = #paths - rank(degree-d ideal piece): ties the Groebner layer
    # to plain linear algebra through the normal-word count.
    w = words(two_loop)
    gens = [AlgebraElement({w("xy"): F.one}), AlgebraElement({w("yx"): F.one}),
            AlgebraElement({w("xxx"): F.one, w("yyy"): -F.one})]
    levels = list(islice(normal_word_levels(two_loop, cube_gb.tips), 7))
    for d in range(2, 7):
        span = ideal_span(gens, two_loop, F, d)
        assert len(two_loop.paths_of_length(d)) - span.dim == len(levels[d])


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
