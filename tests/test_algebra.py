import hashlib
import pathlib
import random
from fractions import Fraction
from itertools import islice, permutations

import pytest

from pathalg import (
    AlgebraElement,
    OrderSpec,
    PathAlgError,
    Quiver,
    build_model,
    groebner_basis,
    normal_form,
    tip,
)
from pathalg.algebra import Levels, ModuleElement, OverlapDegree, TipIndex, _row, monic
from pathalg.corpus import instances
from pathalg.fields import Field
from pathalg.linalg import Subspace
from pathalg.problem import parse
from pathalg.quiver import Path, divides, normal_word_levels
from tests.conftest import perfbench_module, words
from tests.helpers import _s_element, proper_overlaps, random_homogeneous_element, reference_completion
from tests.reference import ideal_membership, left_mul, module_normal_form, reference_levels
from tests.test_problem import _random_problem

F = Field(0)
ROOT = pathlib.Path(__file__).resolve().parents[1]


def elem(q, spec):
    """spec: {'xxy': 1, 'yyx': -1}."""
    w = words(q)
    return AlgebraElement({w(k): F.of(c) for k, c in spec.items()})


def test_tip_examples(two_loop, two_loop_order):
    assert str(tip(elem(two_loop, {"xxx": 1, "yyy": -1}), two_loop_order)) == "x*x*x"
    assert str(tip(elem(two_loop, {"xy": 1, "yx": -1}), two_loop_order)) == "x*y"
    assert str(tip(elem(two_loop, {"xy": 1}), two_loop_order)) == "x*y"
    with pytest.raises(PathAlgError):
        tip(AlgebraElement(), two_loop_order)


def test_module_tip(two_loop, two_loop_order):
    w = words(two_loop)
    m = ModuleElement({(0, w("x")): F.one, (1, w("x")): F.one})
    assert tip(m, two_loop_order) == (1, w("x"))


def test_tip_reads_coefficients_in_the_order_field(two_loop):
    # 7*x*y and 7/2*x*y vanish over F_7, so the tip is y*x, as monic finds it.
    w = words(two_loop)
    order = OrderSpec(("x", "y"), ("e",), field=Field(7))
    for seven in (7, Fraction(7, 2)):
        x = AlgebraElement({w("xy"): seven, w("yx"): 1})
        assert tip(x, order) == w("yx") == tip(monic(x, order), order)
        assert tip(ModuleElement({(0, w("x")): 1, (1, w("x")): 2 * seven}), order) == (0, w("x"))
        with pytest.raises(PathAlgError):
            tip(AlgebraElement({w("xy"): seven}), order)


def test_normal_form_monomial(two_loop, two_loop_order):
    nf = normal_form(elem(two_loop, {"xxy": 1}), [elem(two_loop, {"xy": 1})], two_loop_order)
    assert nf.is_zero()


def test_normal_form_single_rewrite(two_loop, two_loop_order):
    nf = normal_form(elem(two_loop, {"xxx": 1}), [elem(two_loop, {"xxx": 1, "yyy": -1})], two_loop_order)
    assert nf == elem(two_loop, {"yyy": 1})


def test_normal_form_rejects_a_vertex_tip(two_loop, two_loop_order):
    e = AlgebraElement({two_loop.path("e"): F.one})
    with pytest.raises(PathAlgError):
        normal_form(elem(two_loop, {"xy": 1}), [e], two_loop_order)


def test_normal_form_takes_longer_words_first(two_loop, two_loop_order):
    """With the inhomogeneous reducer y*y - x, a word is read only after every longer word that rewrites to it."""
    g = [elem(two_loop, {"yy": 1, "x": -1})]
    assert normal_form(elem(two_loop, {"x": 1, "yy": 1}), g, two_loop_order) == elem(two_loop, {"x": 2})
    # Both cubes rewrite to x*x, which must wait for the second of them.
    assert normal_form(elem(two_loop, {"xyy": 1, "yyx": 1}), g, two_loop_order) == elem(two_loop, {"xx": 2})


def test_normal_form_completion_fixture(two_loop, cube_gb, two_loop_order):
    nf = normal_form(elem(two_loop, {"yyyy": 1}), cube_gb, two_loop_order)
    assert nf.is_zero()
    # confirmed independently by the linear-algebra membership oracle
    gens = [elem(two_loop, {"xy": 1}), elem(two_loop, {"yx": 1}), elem(two_loop, {"xxx": 1, "yyy": -1})]
    assert ideal_membership(elem(two_loop, {"yyyy": 1}), gens, two_loop, F)


def test_completion_commutative_plane(plane_gb):
    assert plane_gb.complete
    assert [str(t) for t in plane_gb.tips] == ["x*y"]


def test_completion_cube_fixture(cube_gb):
    assert cube_gb.complete
    assert sorted(str(t) for t in cube_gb.tips) == ["x*x*x", "x*y", "y*x", "y*y*y*y"]
    by_tip = {str(tip(g, cube_gb.order)): g for g in cube_gb.elements}
    assert by_tip["y*y*y*y"].render() == "y*y*y*y"
    assert by_tip["x*x*x"].render() == "x*x*x - y*y*y"


def test_completion_monomial_is_complete(one_loop, one_loop_order):
    gb = groebner_basis([AlgebraElement({one_loop.path("x*x"): F.one})], one_loop_order, 2)
    assert gb.complete
    assert [str(t) for t in gb.tips] == ["x*x"]


def test_completion_rejects_bad_input(two_loop, two_loop_order):
    with pytest.raises(PathAlgError):
        groebner_basis([elem(two_loop, {"xy": 1, "x": 1})], two_loop_order, 4)
    with pytest.raises(PathAlgError):
        groebner_basis([elem(two_loop, {"x": 1})], two_loop_order, 4)


def test_generator_above_the_cap_waits(two_loop, two_loop_order, cube_gb):
    # Below a generator's degree the basis is truncated, not refused, and it
    # is exact in degrees <= the cap.
    gens = [elem(two_loop, {"xxx": 1, "yyy": -1}), elem(two_loop, {"xy": 1}), elem(two_loop, {"yx": 1})]
    gb = groebner_basis(gens, two_loop_order, 2)
    assert gb.status == "truncated-at-degree-2"
    assert sorted(str(t) for t in gb.tips) == ["x*y", "y*x"]
    assert list(islice(normal_word_levels(two_loop, gb.tips), 3)) == list(islice(normal_word_levels(two_loop, cube_gb.tips), 3))
    empty = groebner_basis([elem(two_loop, {"xxx": 1})], two_loop_order, 2)
    assert empty.elements == () and not empty.complete
    assert groebner_basis([elem(two_loop, {"xxx": 1})], two_loop_order, 3).complete


def test_completion_input_order_independent(two_loop, two_loop_order, cube_gb):
    gens = [
        elem(two_loop, {"xxx": 1, "yyy": -1}),
        elem(two_loop, {"yx": 1}),
        elem(two_loop, {"xy": 1}),
    ]
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        gb = groebner_basis([gens[i] for i in perm], two_loop_order, 8)
        assert [g.render() for g in gb.elements] == [g.render() for g in cube_gb.elements]
    # An order built by hand that lists no vertex still reaches the generators' vertex.
    gb = groebner_basis(gens, OrderSpec(("x", "y"), ()), 8)
    assert [g.render() for g in gb.elements] == [g.render() for g in cube_gb.elements]


def test_normal_words_examples(two_loop, one_loop, cube_gb):
    levels = list(islice(normal_word_levels(two_loop, cube_gb.tips), 4))
    assert sorted(str(p) for p in levels[2]) == ["x*x", "y*y"]
    assert [str(p) for p in levels[3]] == ["y*y*y"]
    xx = one_loop.path("x*x")
    assert list(islice(normal_word_levels(one_loop, [xx]), 6))[5] == []
    assert [str(p) for p in next(normal_word_levels(two_loop, []))] == ["e"]


def _plus(x, y):
    """x + y over Q (elements do no arithmetic of their own)."""
    terms = dict(x.terms)
    for p, c in y.terms.items():
        terms[p] = terms.get(p, 0) + c
    return AlgebraElement(terms)


def test_normal_form_idempotent_and_linear(two_loop, two_loop_order, cube_gb):
    rng = random.Random(5)
    for _ in range(25):
        x = random_homogeneous_element(rng, two_loop, F, rng.randint(2, 6), terms=3)
        y = random_homogeneous_element(rng, two_loop, F, x.degree() if x else 2, terms=2)
        nx = normal_form(x, cube_gb, two_loop_order)
        assert normal_form(nx, cube_gb, two_loop_order) == nx
        if x and y and next(iter(x.terms)).source == next(iter(y.terms)).source:
            both = normal_form(_plus(x, y), cube_gb, two_loop_order)
            assert both == _plus(nx, normal_form(y, cube_gb, two_loop_order))


def test_normal_form_matches_membership_oracle(two_loop, two_loop_order, cube_gb):
    gens = [elem(two_loop, {"xy": 1}), elem(two_loop, {"yx": 1}), elem(two_loop, {"xxx": 1, "yyy": -1})]
    rng = random.Random(11)
    seen_member = seen_nonmember = 0
    for _ in range(40):
        d = rng.randint(2, 6)
        x = random_homogeneous_element(rng, two_loop, F, d, terms=rng.randint(1, 3))
        in_ideal = ideal_membership(x, gens, two_loop, F)
        reduced_to_zero = normal_form(x, cube_gb, two_loop_order).is_zero()
        assert in_ideal == reduced_to_zero
        seen_member += in_ideal
        seen_nonmember += not in_ideal
    assert seen_member and seen_nonmember


def test_module_normal_form_componentwise(two_loop, cube_gb):
    w = words(two_loop)
    m = ModuleElement({(0, w("xy")): F.one, (1, w("xx")): F.one})
    red = module_normal_form(m, cube_gb)
    assert red == ModuleElement({(1, w("xx")): F.one})


def test_module_normal_form_splits_target_vertices():
    q = Quiver.build(["e", "a", "b"], [("x", "e", "a"), ("y", "e", "b"), ("u", "a", "e")])
    gb = groebner_basis([AlgebraElement({q.path("x*u*x"): F.one})], OrderSpec.for_quiver(q), 4)
    m = ModuleElement({(0, q.path("x*u*x")): F.one, (0, q.path("y")): F.one, (0, q.path("x")): F.of(2)})
    assert module_normal_form(m, gb) == ModuleElement({(0, q.path("y")): F.one, (0, q.path("x")): F.of(2)})


def test_prime_field_basis():
    q = Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e")])
    F7 = Field(7)
    order = OrderSpec(("x", "y"), ("e",), field=F7)
    w = words(q)
    gens = [
        AlgebraElement({w("xy"): F7.one}),
        AlgebraElement({w("yx"): F7.one}),
        AlgebraElement({w("xxx"): F7.of(2), w("yyy"): F7.of(-2)}),
    ]
    gb = groebner_basis(gens, order, 8)
    assert gb.complete
    assert sorted(str(t) for t in gb.tips) == ["x*x*x", "x*y", "y*x", "y*y*y*y"]
    lead = gb.elements[2].terms[tip(gb.elements[2], order)]
    assert type(lead) is int and lead == F7.one


def test_monic_helper(two_loop, two_loop_order):
    x = elem(two_loop, {"xx": 3, "yy": 6})
    m = monic(x, two_loop_order)
    assert m.terms[tip(m, two_loop_order)] == F.one


def test_exterior_algebra_completion(two_loop, two_loop_order):
    gens = [
        elem(two_loop, {"xx": 1}),
        elem(two_loop, {"yy": 1}),
        elem(two_loop, {"xy": 1, "yx": 1}),
    ]
    gb = groebner_basis(gens, two_loop_order, 6)
    assert gb.complete
    assert sorted(str(t) for t in gb.tips) == ["x*x", "x*y", "y*y"]
    assert [len(level) for level in islice(normal_word_levels(two_loop, gb.tips), 5)] == [1, 2, 1, 0, 0]
    # Every degree-3 path lies in the ideal: cross-check both routes.
    for word in ("xxx", "xxy", "xyx", "xyy", "yxx", "yxy", "yyx", "yyy"):
        assert normal_form(elem(two_loop, {word: 1}), gb, two_loop_order).is_zero()
        assert ideal_membership(elem(two_loop, {word: 1}), gens, two_loop, F)


def test_completion_with_cascading_overlaps(two_loop, two_loop_order):
    # xx - xy keeps producing new elements until the tip set stabilizes.
    gb = groebner_basis([elem(two_loop, {"xx": 1, "xy": -1})], two_loop_order, 8)
    order = two_loop_order
    # Whatever the final basis is, it must be interreduced and closed under
    # overlap reduction up to the cap.
    for g in gb.elements:
        rest = [h for h in gb.elements if h != g]
        assert normal_form(g, rest, order) == g
    if gb.complete:
        for a, ta in zip(gb.elements, gb.tips):
            for b, tb in zip(gb.elements, gb.tips):
                for _deg, shared in proper_overlaps(ta, tb):
                    assert normal_form(_s_element(a, b, ta, tb, shared), gb, order).is_zero()
    # Either way the reduction route and the span route agree on membership.
    gens = [elem(two_loop, {"xx": 1, "xy": -1})]
    rng = random.Random(2)
    for _ in range(20):
        x = random_homogeneous_element(rng, two_loop, F, rng.randint(2, 5), terms=2)
        if x:
            assert ideal_membership(x, gens, two_loop, F) == normal_form(x, gb, two_loop_order).is_zero()


def _ideal_dim(quiver, gens, d, p):
    """dim I_d by sparse elimination over the products u*g*v (no Groebner data).

    Columns are the length-d paths, greatest first, so a row's pivot is its
    smallest column.  Over F_p (p > 0) scalars are ints mod p, and the
    arithmetic here is written out independently of pathalg's.
    """
    norm = (lambda c: c % p) if p else (lambda c: c)
    paths = [quiver.paths_of_length(n) for n in range(d + 1)]
    cols = {q.arrows: i for i, q in enumerate(paths[d])}
    pivots = {}
    for g in gens:
        dg = g.degree()
        some = next(iter(g.terms))
        for i in range(d - dg + 1):
            for u in (u for u in paths[i] if u.target == some.source):
                for v in (v for v in paths[d - dg - i] if v.source == some.target):
                    row = {cols[u.arrows + q.arrows + v.arrows]: norm(c) for q, c in g.terms.items()}
                    while row:
                        j = min(row)
                        piv = pivots.get(j)
                        if piv is None:
                            inv = pow(row[j], -1, p) if p else 1 / Fraction(row[j])
                            pivots[j] = {k: norm(c * inv) for k, c in row.items()}
                            break
                        c = row[j]
                        for k, e in piv.items():
                            val = norm(row.get(k, 0) - c * e)
                            if val:
                                row[k] = val
                            else:
                                row.pop(k, None)
    return len(pivots)


def _assert_completion_invariants(quiver, order, gens, cap, gb):
    from pathalg.quiver import divides

    tips = list(gb.tips)
    levels = list(islice(normal_word_levels(quiver, tips), cap + 1))
    for d in range(2, cap + 1):
        dim = _ideal_dim(quiver, gens, d, order.field.characteristic)
        assert len(levels[d]) == len(quiver.paths_of_length(d)) - dim
    for a, ta in zip(gb.elements, tips):
        for b, tb in zip(gb.elements, tips):
            for deg, shared in proper_overlaps(ta, tb):
                if deg <= cap:
                    assert normal_form(_s_element(a, b, ta, tb, shared), gb, order).is_zero()
    for t in tips:
        assert not any(s != t and divides(s, t) for s in tips)
    for g, t in zip(gb.elements, tips):
        assert tip(g, order) == t and g.terms[t] == 1
        assert not any(divides(s, p) for p in g.terms if p != t for s in tips)


def _sklyanin(a, b, c):
    """The Sklyanin ideal (a, b, c) over F_101, x > y > z: a*xy + b*yx + c*zz and its cyclic shifts."""
    q = Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e"), ("z", "e", "e")])
    F101 = Field(101)
    order = OrderSpec(("x", "y", "z"), ("e",), field=F101)
    w = words(q)

    def rel(u, v, t):
        return AlgebraElement({w(u): F101.of(a), w(v): F101.of(b), w(t): F101.of(c)})

    return q, order, [rel("xy", "yx", "zz"), rel("yz", "zy", "xx"), rel("zx", "xz", "yy")]


def test_sklyanin_completion_against_span_oracle():
    """Non-monomial: the Sklyanin ideal (2,3,5) over F_101, truncated at degree 6."""
    q, order, gens = _sklyanin(2, 3, 5)
    gb = groebner_basis(gens, order, 6)
    assert not gb.complete and any(len(g.terms) > 1 for g in gb.elements)
    _assert_completion_invariants(q, order, gens, 6, gb)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        shuffled = groebner_basis([gens[i] for i in perm], order, 6)
        assert [g.render() for g in shuffled.elements] == [g.render() for g in gb.elements]


def _summary(gb):
    """What `reference_completion` returns: the rendered basis, the status and the largest overlap degree."""
    return [g.render() for g in gb.elements], gb.status, gb.max_overlap_degree


@pytest.mark.parametrize("triple", [(2, 3, 5), (1, 2, 3), (7, 11, 13)])
def test_sklyanin_completion_against_a_reference_completion(triple):
    """The elimination reads off the basis, status and overlap degree that reducing every S-element gives."""
    _q, order, gens = _sklyanin(*triple)
    for cap in range(5, 9):
        assert _summary(groebner_basis(gens, order, cap)) == reference_completion(gens, order, cap)


def test_sklyanin_completion_basis_is_pinned():
    """The reduced basis of sklyanin_235_a0.alg at D = 10, as rendered, pinned by its sha256."""
    pf = parse((ROOT / "fixtures" / "sklyanin_235_a0.alg").read_text())
    gb = groebner_basis(pf.ideal, pf.order, 10)
    assert gb.status == "truncated-at-degree-10" and len(gb.elements) == 35
    rendered = "\n".join(g.render() for g in gb.elements)
    assert hashlib.sha256(rendered.encode()).hexdigest() == (
        "61066613cb4fe0f3273c15002d5c35c53351b64bfedc4135b4afe1490f25d84b")


def _rows_of_degree(levels, d):
    """Every row u*r of degree d, none skipped."""
    place, width, p = levels._place[d - 1], levels._width, levels._p
    for relation in levels._relations:
        e, v, _terms = relation
        if e <= d:
            walks = levels._walks(relation, d)
            for u in levels._ending[d - e].get(v, ()):
                yield _row(walks, u, place, width, p)


def _eliminate_every_row(levels, d):
    """`Levels._eliminate` with no row skipped."""
    span = Subspace(levels.field)
    for row in _rows_of_degree(levels, d):
        span.add(row)
    return {col: span.rows[n].items() for col, n in span.row_of_pivot.items()}


def _levels_summary(levels):
    """The words, parent links and rewritten products of the levels, and their table rows as sorted pairs."""
    tables = [[[sorted(row) for row in table] for table in degree] for degree in levels.tables]
    return levels.basis, levels.parent, levels.ranks, levels.rewritten, tables


def _shadow_problems():
    """Seeded `_random_problem` ideals over Q, F_5, F_7 and F_11 at D = 6 and 8, then Sklyanin (2,3,5) at D = 16."""
    rng = random.Random(20261021)
    for inst in instances(20261021, 16):
        if len(inst.quiver.paths_of_length(5)) > 64:
            continue
        for field in (F, Field(5), Field(7), Field(11)):
            pf = _random_problem(rng, inst, field)
            if pf.ideal:
                yield pf.ideal, pf.order, 6
                yield pf.ideal, pf.order, 8
    _q, order, gens = _sklyanin(2, 3, 5)
    yield gens, order, 16


def test_skipped_rows_lie_in_the_span_of_the_kept_rows(monkeypatch):
    """A shadow elimination with no row skipped: every row of each degree lies in the span the kept rows give.

    Each degree's rows are all built again and `contains`-ed by the span of
    the pivot rows that the elimination returned, so every skipped row lies
    in the kept rows' span; and a completion with no row skipped gives the
    same basis, and the same levels, table rows compared as sorted pairs.
    """
    eliminate, built, skipped = Levels._eliminate, [], []

    def shadowed(self, d):
        before = len(built)
        rows = eliminate(self, d)
        kept = Subspace(self.field)
        for row in rows.values():
            kept.insert(dict(row))
        every = 0
        for row in _rows_of_degree(self, d):
            assert kept.contains(row), d
            every += 1
        skipped.append(every - (len(built) - before))
        return rows

    def counted(*args):
        built.append(None)
        return _row(*args)

    problems, non_monomial, skipped_per_problem = 0, 0, []
    for gens, order, cap in _shadow_problems():
        start = len(skipped)
        with monkeypatch.context() as m:
            m.setattr(Levels, "_eliminate", shadowed)
            m.setattr("pathalg.algebra._row", counted)
            gb = groebner_basis(gens, order, cap)
        with monkeypatch.context() as m:
            m.setattr(Levels, "_eliminate", _eliminate_every_row)
            plain = groebner_basis(gens, order, cap)
        assert _basis_summary(gb) == _basis_summary(plain)
        assert _levels_summary(gb.levels) == _levels_summary(plain.levels)
        problems += 1
        non_monomial += any(len(g.terms) > 1 for g in gb.elements)
        skipped_per_problem.append(sum(skipped[start:]))
    assert problems >= 90 and non_monomial >= 30 and sum(skipped_per_problem[:-1]) > 0
    # Sklyanin at D = 16: 560 rows reduce to zero with no skip, 28 with it.
    assert skipped_per_problem[-1] == 532


def _sklyanin_235_lists():
    """Generator lists of the Sklyanin (2,3,5) ideal: every order, a duplicate, a scaled copy, and x*r first and last."""
    q, _order, gens = _sklyanin(2, 3, 5)
    xr = left_mul(gens[0], q.path("x"))
    lists = {f"permutation-{n}": [gens[i] for i in perm] for n, perm in enumerate(permutations(range(3)))}
    lists["duplicate"] = gens + [gens[1]]
    lists["scaled-copy"] = [AlgebraElement({p: 3 * c % 101 for p, c in gens[0].terms.items()})] + gens
    lists["left-multiple-first"] = [xr] + gens
    lists["left-multiple-last"] = gens + [xr]
    return lists


@pytest.fixture(scope="module")
def sklyanin_235_reference_at_10():
    _q, order, gens = _sklyanin(2, 3, 5)
    return reference_completion(gens, order, 10)


@pytest.mark.parametrize("case", list(_sklyanin_235_lists()))
def test_generator_lists_of_one_ideal_give_the_reference_basis(case, sklyanin_235_reference_at_10):
    """The skip depends on the order of the generators, never the basis: lists of one ideal at D = 10.

    A duplicate or scaled copy of a relation reduces to zero in its own
    degree, with u the empty word, so all its multiples are skipped; a left
    multiple x*r listed first is a redundant generator that is kept, and r's
    row x*r reduces to zero instead.
    """
    _q, order, _gens = _sklyanin(2, 3, 5)
    assert _summary(groebner_basis(_sklyanin_235_lists()[case], order, 10)) == sklyanin_235_reference_at_10


def test_sklyanin_completion_at_16_reduces_few_rows_to_zero(monkeypatch):
    """Work count: at most a tenth of the C(16, 3) = 560 rows that reduce to zero with no skip go through `add`."""
    add, zero = Subspace.add, []

    def counted(self, vec):
        enlarged = add(self, vec)
        zero.append(not enlarged)
        return enlarged

    _q, order, gens = _sklyanin(2, 3, 5)
    monkeypatch.setattr(Subspace, "add", counted)
    groebner_basis(gens, order, 16)
    assert sum(zero) <= 56


def _pairwise_max_overlap(tips):
    return max((deg for s in tips for t in tips for deg, _shared in proper_overlaps(s, t)), default=0)


def _table_max_overlap(tips):
    """The largest overlap degree that `OverlapDegree` reads off its tables, the tips taken in their order."""
    overlaps = OverlapDegree()
    for t in tips:
        overlaps.add(t.arrows)
    return overlaps.degree


def test_max_overlap_degree_is_the_pairwise_maximum_on_seeded_antichains():
    """`OverlapDegree`'s tables against every ordered pair of words, each word with itself included.

    The antichains are of paths of 2 to 6 arrows, in random order, on two
    loops at one vertex and on e -> f -> e with a loop at e; words such as
    x*x*x overlap only themselves.
    """
    one = Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e")])
    two = Quiver.build(["e", "f"], [("a", "e", "f"), ("b", "f", "e"), ("x", "e", "e")])
    w = words(one)
    cases = [[w("xxx")], [w("xy")], [w("xy"), w("xxx")], [w("yy"), w("xyx")], [w("xyxy"), w("yxxy")]]
    rng = random.Random(20261021)
    paths = {q: [q.paths_of_length(n) for n in range(7)] for q in (one, two)}
    for _ in range(300):
        q = rng.choice((one, two))
        tips = []
        for t in (rng.choice(paths[q][rng.randint(2, 6)]) for _ in range(rng.randint(1, 6))):
            if not any(divides(s, t) or divides(t, s) for s in tips):
                tips.append(t)
        cases.append(tips)
    degrees = []
    for tips in cases:
        degrees.append(_pairwise_max_overlap(tips))
        assert _table_max_overlap(tips) == degrees[-1], tips
    assert degrees[:5] == [5, 0, 5, 5, 7]
    assert degrees.count(0) > 10 and sum(len(tips) == 1 and deg for tips, deg in zip(cases, degrees)) > 10


def test_max_overlap_degree_is_the_pairwise_maximum_on_the_fixtures_and_sklyanin():
    """Completion reports the pairwise maximum: every fixture at D = 8, the Sklyanin triples of the gb-sklyanin
    workload (perfbench's default seed) at D = 5, 8 and 10, and sklyanin_235 at D = 20."""
    bases = []
    for path in sorted((ROOT / "fixtures").glob("*.alg")):
        pf = parse(path.read_text())
        bases.append(groebner_basis(pf.ideal, pf.order, 8))
    for triple in perfbench_module("workloads").sklyanin_triples(20260808, 3):
        _q, order, gens = _sklyanin(*triple)
        bases += [groebner_basis(gens, order, cap) for cap in (5, 8, 10)]
    pf = parse((ROOT / "fixtures" / "sklyanin_235.alg").read_text())
    bases.append(groebner_basis(pf.ideal, pf.order, 20))
    assert len(bases[-1].tips) == 121
    for gb in bases:
        want = _pairwise_max_overlap(gb.tips)
        assert gb.max_overlap_degree == want == _table_max_overlap(gb.tips), gb.status


def _first_reducer(keys, w):
    """(position, offset) of the first key in list order that is a factor of w, at its leftmost occurrence."""
    for k, t in enumerate(keys):
        for i in range(len(w) - len(t) + 1):
            if w[i:i + len(t)] == t:
                return k, i
    return None


def _two_vertex_words(rng, q, prec, lo, hi):
    """A random path of lo to hi arrows on the quiver e -> f -> e with a loop at e, as a rank word."""
    rank = {name: r for r, name in enumerate(prec)}
    here, out = rng.choice(q.vertices), []
    for _ in range(rng.randint(lo, hi)):
        a = rng.choice([a for a in q.arrows if a.source == here])
        out.append(rank[a.name])
        here = a.target
    return tuple(out)


@pytest.mark.parametrize("kind", ["antichain", "factor", "suffix", "duplicate", "two-vertex"])
def test_tip_index_find_against_a_factor_search(kind):
    """`find` against the first tip in insertion order at its leftmost occurrence.

    Tip sets are antichains, or carry a tip that has another one as a
    factor, as a suffix, or again; every `add` is followed by `find`s.  The
    two-vertex tip sets are antichains of paths of the quiver with arrows
    a : e -> f, b : f -> e and a loop x at e, and the words searched are
    its paths too.
    """
    rng = random.Random(f"tip-index-{kind}")
    for _ in range(60):
        if kind == "two-vertex":
            q = Quiver.build(["e", "f"], [("a", "e", "f"), ("b", "f", "e"), ("x", "e", "e")])
            prec = ["a", "b", "x"]
            rng.shuffle(prec)
            order = OrderSpec(tuple(prec), ("e", "f"), field=rng.choice([F, Field(7)]))

            def word(lo, hi):
                return _two_vertex_words(rng, q, prec, lo, hi)
        else:
            width = rng.choice([2, 3])
            names = "xyz"[:width]
            q = Quiver.build(["e"], [(a, "e", "e") for a in names])
            prec = list(names)
            rng.shuffle(prec)
            order = OrderSpec(tuple(prec), ("e",), field=rng.choice([F, Field(7)]))

            def word(lo, hi):
                return tuple(rng.randrange(width) for _ in range(rng.randint(lo, hi)))

        keys = []
        for t in (word(1, 4) for _ in range(rng.randint(1, 5))):
            if kind not in ("antichain", "two-vertex") or not any(
                    _first_reducer([s], t) or _first_reducer([t], s) for s in keys):
                keys.append(t)
        for _ in range(rng.randint(1, 2)):
            t = rng.choice(keys)
            extra = {"antichain": None, "two-vertex": None, "duplicate": t, "suffix": word(1, 3) + t,
                     "factor": word(0, 2) + t + word(1, 2)}[kind]
            if extra is not None:
                keys.insert(rng.randint(0, len(keys)), extra)
        index = TipIndex(order)
        for n, key in enumerate(keys, 1):
            path = q.path("*".join(prec[r] for r in key))
            index.add(AlgebraElement({path: order.field.of(rng.randint(1, 6))}))
            assert index.keys[n - 1] == key
            for _ in range(6):
                w = word(0, 9)
                assert index.find(w) == _first_reducer(keys[:n], w), (keys[:n], w)


def _basis_summary(gb):
    return [g.render() for g in gb.elements], [str(t) for t in gb.tips], gb.status, gb.max_overlap_degree


def test_completion_builds_no_path_until_it_returns(monkeypatch):
    """`groebner_basis` calls none of `monic`, `tip` and `OrderSpec.path_key`, and its basis is unchanged.

    It compares words by rank word alone, and the only paths it builds are
    the ones it returns: the elements, the tips and the normal words of its
    levels.
    """
    pf = parse((ROOT / "fixtures" / "sklyanin_235.alg").read_text())
    rng = random.Random(7)
    q = Quiver.build(["e"], [(a, "e", "e") for a in "xyz"])
    f7 = OrderSpec(("y", "x", "z"), ("e",), field=Field(7))
    f7_gens = [random_homogeneous_element(rng, q, f7.field, 2, terms=3) for _ in range(3)]
    inst = instances(20261019, 4)[3]  # three vertices, three tips
    inputs = [(pf.ideal, pf.order, 8), (f7_gens, f7, 5),
              ([AlgebraElement({p: 1}) for p in inst.patterns], OrderSpec.for_quiver(inst.quiver),
               max(p.length for p in inst.patterns))]
    bases = [groebner_basis(*args) for args in inputs]
    assert any(len(g.terms) > 1 for g in bases[1].elements)

    def refuse(*args, **kwargs):
        raise AssertionError("completion built a Path")

    with monkeypatch.context() as m:
        m.setattr("pathalg.algebra.monic", refuse)
        m.setattr("pathalg.algebra.tip", refuse)
        m.setattr(OrderSpec, "path_key", refuse)
        patched = [groebner_basis(*args) for args in inputs]
    assert [_basis_summary(gb) for gb in patched] == [_basis_summary(gb) for gb in bases]


def _problem(path):
    return parse(pathlib.Path(path).read_text())


def test_completion_and_model_share_one_elimination_and_build_no_tip_index(monkeypatch):
    """`groebner_basis` grows one `Levels`, `build_model` continues it, and neither builds a TipIndex."""
    inputs = [(_problem(ROOT / "fixtures" / "sklyanin_235.alg"), 8),
              (_problem(ROOT / "fixtures" / "split_relation.alg"), 6),
              (_problem(ROOT / "perfbench" / "inputs" / "poly3_q.alg"), 9)]
    bases = [groebner_basis(pf.ideal, pf.order, cap) for pf, cap in inputs]
    grown = []
    init = Levels.__init__

    def counted(self, *args):
        grown.append(self)
        init(self, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("a TipIndex was built")

    with monkeypatch.context() as m:
        m.setattr(TipIndex, "__init__", refuse)
        m.setattr(Levels, "__init__", counted)
        patched = [groebner_basis(pf.ideal, pf.order, cap) for pf, cap in inputs]
        models = [build_model(pf.quiver, gb, cap) for (pf, cap), gb in zip(inputs, patched)]
    assert grown == [gb.levels for gb in patched]
    assert [_basis_summary(gb) for gb in patched] == [_basis_summary(gb) for gb in bases]
    assert [model.dims() for model in models] == [build_model(pf.quiver, gb, cap).dims()
                                                  for (pf, cap), gb in zip(inputs, bases)]


def test_completion_stops_at_the_first_degree_known_complete():
    """The levels grow to the first degree at or above every generator's at which the status test holds."""
    poly3 = _problem(ROOT / "perfbench" / "inputs" / "poly3_q.alg")
    gb = groebner_basis(poly3.ideal, poly3.order, 30)
    # The commutators' one overlap, x*y*z, has degree 3.
    assert gb.complete and gb.max_overlap_degree == 3 and len(gb.levels.basis) - 1 == 3
    inst = instances(20261019, 4)[3]
    top = max(p.length for p in inst.patterns)
    gb = groebner_basis([AlgebraElement({p: 1}) for p in inst.patterns], OrderSpec.for_quiver(inst.quiver), top + 5)
    assert gb.complete and len(gb.levels.basis) - 1 == top
    _q, order, gens = _sklyanin(2, 3, 5)
    gb = groebner_basis(gens, order, 8)
    assert not gb.complete and len(gb.levels.basis) - 1 == 8


def test_seeded_problems_against_the_reference_completion_levels_and_normal_forms():
    """Seeded problems at D = 7: the basis, the levels and every table row against the independent references.

    The problems come from `_random_problem` on corpus quivers of 1 to 3
    vertices, over Q, F_7 and F_5; a quiver with more than 64 paths of
    length 5 is passed over, as its algebra is too large for the references
    to be quick.  The basis is checked against plain S-pair completion, the
    levels against a scan of the paths for tips, and each table row against
    `normal_form` of its product.
    """
    rng = random.Random(20261020)
    problems, non_monomial, vertices = 0, 0, set()
    for inst in instances(20261020, 90):
        small = len(inst.quiver.paths_of_length(5)) <= 64
        for field in (F, Field(7), Field(5)):
            pf = _random_problem(rng, inst, field)
            if not (pf.ideal and small):
                continue
            gb = groebner_basis(pf.ideal, pf.order, 7)
            assert _summary(gb) == reference_completion(pf.ideal, pf.order, 7), inst.seed
            model = build_model(pf.quiver, gb, 7)
            assert (model.basis, model.parent, model.ranks, model.rewritten) == reference_levels(pf.quiver, gb, 7)
            for d in range(7):
                for k, a in enumerate(pf.quiver.arrows):
                    for i, w in enumerate(model.basis[d]):
                        if w.target == a.source:
                            wa = AlgebraElement({Path(w.source, a.target, w.arrows + (a,)): 1})
                            got = {model.basis[d + 1][j]: c for j, c in model.action(d, k)[i]}
                            assert got == normal_form(wa, gb, pf.order).terms, (inst.seed, d, w, a)
            problems += 1
            non_monomial += any(len(g.terms) > 1 for g in gb.elements)
            vertices.add(len(pf.quiver.vertices))
    assert problems >= 150 and non_monomial >= 40 and vertices == {1, 2, 3}


def test_normal_form_refuses_a_basis_of_another_order(two_loop, two_loop_order, cube_gb):
    # A GroebnerBasis is reduced for its own order, so for another order it
    # is refused as a TipIndex is, not silently re-indexed.
    index = TipIndex(two_loop_order, cube_gb.elements)
    x = elem(two_loop, {"xyy": 1, "yyyy": 2})
    assert normal_form(x, index, two_loop_order) == normal_form(x, cube_gb, two_loop_order)
    for other in (OrderSpec(("y", "x"), ("e",)), OrderSpec(("x", "y"), ("e",), field=Field(7))):
        for basis in (index, cube_gb):
            with pytest.raises(PathAlgError, match=f"the {type(basis).__name__} was built for a different term order"):
                normal_form(x, basis, other)


def test_random_completions_against_span_oracle():
    """Seeded completions on one vertex over Q and F_7, against the span oracle and a reference completion."""
    rng = random.Random(20261018)
    nontrivial = 0
    for _ in range(40):
        names = "xyz"[:rng.choice([2, 3])]
        q = Quiver.build(["e"], [(a, "e", "e") for a in names])
        prec = list(names)
        rng.shuffle(prec)
        field = rng.choice([F, Field(7)])
        order = OrderSpec(tuple(prec), ("e",), field=field)
        gens = [g for g in (random_homogeneous_element(rng, q, field, rng.choice([2, 2, 3]), terms=rng.randint(1, 4))
                            for _ in range(rng.randint(1, 3))) if g]
        if not gens:
            continue
        gb = groebner_basis(gens, order, 5)
        nontrivial += any(len(g.terms) > 1 for g in gb.elements)
        _assert_completion_invariants(q, order, gens, 5, gb)
        assert _summary(gb) == reference_completion(gens, order, 5)
        shuffled = groebner_basis(gens[::-1], order, 5)
        assert [g.render() for g in shuffled.elements] == [g.render() for g in gb.elements]
    assert nontrivial >= 20


def _is_q_scalar(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_q_coefficients_are_ints_or_proper_fractions():
    """Over Q the basis and `normal_form` give an int, or a Fraction only where one occurs."""
    bases = []
    for path in sorted((ROOT / "fixtures").glob("*.alg")):
        pf = parse(path.read_text())
        if not pf.order.field.characteristic:
            bases.append(groebner_basis(pf.ideal, pf.order, 9))
    rng = random.Random(20261019)
    reduced = []
    for _ in range(40):
        names = "xyz"[:rng.choice([2, 3])]
        q = Quiver.build(["e"], [(a, "e", "e") for a in names])
        prec = list(names)
        rng.shuffle(prec)
        order = OrderSpec(tuple(prec), ("e",))
        gens = [g for g in (random_homogeneous_element(rng, q, F, rng.choice([2, 2, 3]), terms=rng.randint(1, 4))
                            for _ in range(rng.randint(1, 3))) if g]
        if gens:
            gb = groebner_basis(gens, order, 5)
            bases.append(gb)
            reduced += [normal_form(random_homogeneous_element(rng, q, F, 5, terms=3), gb, order) for _ in range(3)]
    elements = [g for gb in bases for g in gb.elements] + reduced
    assert any(type(c) is Fraction for g in elements for c in g.terms.values())
    assert [c for g in elements for c in g.terms.values() if not _is_q_scalar(c)] == []
