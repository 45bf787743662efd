"""Acceptance suite: one test (or small group) per acceptance criterion.

Run with `pytest tests/test_acceptance.py -v` to get one PASS/FAIL line per
criterion.  Every expected value here was either computed by an independent
oracle (exhaustive enumeration, brute-force linear algebra) and frozen, or
taken from the worked chain-table examples after validating them against
the cut conditions.
"""
import random
from itertools import islice
from math import inf

import pytest

from pathalg import (
    AlgebraElement,
    DegreeCollection,
    OrderSpec,
    Quiver,
    build_model,
    degree_window,
    determined_check,
    enumerate_overlaps,
    first_syzygy,
    groebner_basis,
    minimal_resolution,
    normal_form,
    s_koszul_criterion,
    s_koszul_degree,
    verify_windows,
)
from pathalg.corpus import instances, random_presentation
from pathalg.fields import Field
from pathalg.presentation import ModulePresentation
from pathalg.quiver import normal_word_levels
from tests.conftest import truncated_polynomial, words
from tests.helpers import (
    chain_table,
    check_composition_bounds,
    check_extrema_inequalities,
    check_members_have_partitions,
    check_partition_equivalence,
    check_predecessor_uniqueness,
    check_quasi_lifting,
    cyclic,
    monomial_bundles,
    random_homogeneous_element,
)
from tests.reference import all_partitions, chain, check_partition, ideal_span, left_mul, right_mul

F = Field(0)
SEED = 20260808


def compact(pieces):
    return tuple(str(p).replace("*", "") for p in pieces)


# --------------------------------------------------------------------------
# Criterion 1: first worked chain-table example (patterns x^2 y^3 and x^3).
# --------------------------------------------------------------------------


def test_c1_first_example_chains_and_partitions(two_loop):
    w = words(two_loop)
    pats = [w("xxyyy"), w("xxx")]
    table = enumerate_overlaps(two_loop, pats, 3)

    assert (w("xxxyyy"), w("xx")) in table.quasi_levels[3]
    assert str(chain(table, 3, w("xxxyyy"), 2, w("xx"))) == "x*x*x"
    assert str(chain(table, 3, w("xxxyyy"), 1, w("xx"))) == "x"

    assert w("xxxxxyyy") in table.levels[3]
    assert str(chain(table, 3, w("xxxxxyyy"), 2)) == "x*x*x*x"
    assert str(chain(table, 3, w("xxxxxyyy"), 1)) == "x*x*x"

    # The plain-overlap cut is exactly the published one.
    parts = list(all_partitions(w("xxxxxyyy"), 3, pats))
    assert [(compact(p.u), compact(p.v)) for p in parts] == [(("x", "e", "xyyy"), ("xx", "x"))]

    # The context cut: the unique decomposition satisfying the cut conditions
    # is u = (e, e, yyy), v = (x, xx); its middle block x*x splits as
    # (u2, v2) = (e, xx) because the word's tail pattern x^2 y^3 reaches two
    # arrows into the preceding block.
    qparts = list(all_partitions(w("xxxyyy"), 3, pats, context=w("xx")))
    assert [(compact(p.u), compact(p.v)) for p in qparts] == [(("e", "e", "yyy"), ("x", "xx"))]

    # The variant with (u2, v2) = (x, x) fails the cut conditions: its last
    # block x*y*y*y is not a pattern.
    e = two_loop.path("e")
    assert not check_partition(
        w("xxxyyy"), 3, pats, (e, w("x"), w("yyy")), (w("x"), w("x")), context=w("xx")
    )


# --------------------------------------------------------------------------
# Criterion 2: second worked example (patterns x^3 and x y^2).
# --------------------------------------------------------------------------


def test_c2_second_example(two_loop):
    w = words(two_loop)
    pats = [w("xxx"), w("xyy")]
    table = enumerate_overlaps(two_loop, pats, 3)
    assert (w("xxxyy"), w("xx")) in table.quasi_levels[3]
    assert w("xxxxxyy") not in table.levels[3]
    assert w("xxxxyy") in table.levels[3]
    assert str(chain(table, 3, w("xxxxyy"), 2)) == "x*x*x*x"
    assert str(chain(table, 3, w("xxxxyy"), 1)) == "x*x*x"
    # Published cuts for both readings.
    parts = list(all_partitions(w("xxxxyy"), 3, pats))
    assert (("x", "e", "yy"), ("xx", "x")) in [(compact(p.u), compact(p.v)) for p in parts]
    qparts = list(all_partitions(w("xxxyy"), 3, pats, context=w("xx")))
    assert (("e", "x", "yy"), ("x", "x")) in [(compact(p.u), compact(p.v)) for p in qparts]


# --------------------------------------------------------------------------
# Criterion 3: the two-loop algebra with xy = yx = 0 and x^3 = y^3.
# --------------------------------------------------------------------------


def test_c3_cube_algebra(two_loop, cube_gb, cube_model, cube_A0):
    assert cube_gb.complete
    assert sorted(str(t) for t in cube_gb.tips) == ["x*x*x", "x*y", "y*x", "y*y*y*y"]
    assert cube_model.dims()[:5] == [1, 2, 2, 1, 0]

    rep = minimal_resolution(cube_A0, cube_model, 2, 12)
    assert rep.degrees == [[0], [1, 1], [2, 2, 3]]
    ok, violation = determined_check(rep, DegreeCollection.s_pattern(2), 2)
    assert not ok and (violation.index, violation.degree) == (2, 3)

    # Hilbert identity from the two short exact sequences relating A to the
    # loop quotients: dim A_n = dim (A/xA)_n + dim (A/yA)_{n-1}.  The same
    # identity with index n+1 on the second summand fails already at n = 0,
    # which pins the direction of the embedding's degree shift.
    w = words(two_loop)
    X = cyclic(two_loop, "e", [w("x")], F.one)
    Y = cyclic(two_loop, "e", [w("y")], F.one)
    hx = minimal_resolution(X, cube_model, 0, 6).hilbert
    hy = minimal_resolution(Y, cube_model, 0, 6).hilbert
    dims = cube_model.dims()
    for n in range(4):
        assert dims[n] == hx[n] + (hy[n - 1] if n >= 1 else 0)
    assert dims[0] != hx[0] + hy[1]


# --------------------------------------------------------------------------
# Criterion 4: truncated polynomial algebras k[x]/(x^s), s in {2, 3, 4}.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[2, 3, 4])
def truncated_bundle(request):
    s = request.param
    q, order, gb = truncated_polynomial(s)
    model = build_model(q, gb, 3 * s + 3)
    A0 = ModulePresentation.simple_tops(q, F.one)
    rep = minimal_resolution(A0, model, 6, 3 * s + 3)
    table = enumerate_overlaps(q, gb.tips, 6)
    syz = first_syzygy(A0, model, s + 2)
    return s, q, gb, model, rep, table, syz


def test_c4_oracle_degrees_follow_staircase(truncated_bundle):
    s, _q, _gb, _model, rep, _table, _syz = truncated_bundle
    assert rep.degrees == [[s_koszul_degree(s, i)] for i in range(7)]


def test_c4_s_koszul_criterion_holds(truncated_bundle):
    s, _q, gb, _model, _rep, table, _syz = truncated_bundle
    assert s_koszul_criterion(gb, s, table).holds


def test_c4_windows_contain_staircase_with_exact_top(truncated_bundle):
    s, _q, _gb, _model, rep, table, syz = truncated_bundle
    assert (syz.min_degree, syz.max_degree) == (1, 1)
    for i in range(1, 7):
        win = degree_window(i, syz.min_degree, syz.max_degree, table, "quasi")
        assert win.contains(s_koszul_degree(s, i))
        assert win.hi == s_koszul_degree(s, i)
    ok, _ = verify_windows(rep, [degree_window(i, 1, 1, table, "quasi") for i in range(1, 7)])
    assert ok


def test_c4_quasi_window_singleton_claim_as_tabulated(truncated_bundle):
    """The quasi window on k[x]/(x^s) is as tight as the survivor degrees allow.

    The window sees only (dmin, dmax) and the chain table, so it must hold
    for every module with those survivor degrees.  The cyclic modules
    X_j = A/x^jA, j = 1 .. s-1, share the table and have dmin = dmax = j,
    and the oracle puts P_2m(X_j) in degree ms for every j.  At even i the
    level-(i-1) offsets therefore run over [ms-s+1, ms-1], so for A0 the
    window is [pattern value - (s-2), pattern value]: the tabulated
    singleton at odd i and for s = 2, wider by s-2 at even i.  X_1 attains
    the top and X_{s-1} the bottom, so neither end can move.  Expected
    values come from s_koszul_degree and the oracle.
    """
    s, q, _gb, model, _rep, table, syz = truncated_bundle
    assert (syz.min_degree, syz.max_degree) == (1, 1)
    for i in range(1, 7):
        win = degree_window(i, syz.min_degree, syz.max_degree, table, "quasi")
        top = s_koszul_degree(s, i)
        bottom = top - (s - 2) * (i % 2 == 0)
        assert (win.lo, win.hi) == (bottom, top), (
            f"s={s}, i={i}: window [{win.lo}, {win.hi}], expected [{bottom}, {top}]"
        )

    cap = 3 * s + 3
    for j in range(1, s):
        X = cyclic(q, "e", [q.path("*".join("x" * j))], F.one)
        syz_j = first_syzygy(X, model, cap)
        assert (syz_j.min_degree, syz_j.max_degree) == (j, j)
        rep_j = minimal_resolution(X, model, 6, cap)
        for i in range(1, 7):
            win = degree_window(i, j, j, table, "quasi")
            degrees = rep_j.degrees[i]
            assert degrees and all(win.contains(d) for d in degrees), (
                f"s={s}, j={j}, i={i}: degrees {degrees} outside [{win.lo}, {win.hi}]"
            )
            if i % 2 == 0:
                # X_1 pins the top, X_{s-1} the bottom.
                assert j != 1 or win.hi in degrees
                assert j != s - 1 or win.lo in degrees


# --------------------------------------------------------------------------
# Criterion 5: the commuting plane via the single relation x*y - y*x.
# --------------------------------------------------------------------------


def test_c5_commutative_plane(two_loop, plane_gb):
    table = enumerate_overlaps(two_loop, plane_gb.tips, 4)
    assert table.overlaps(2) == [] and table.overlaps(3) == [] and table.overlaps(4) == []
    model = build_model(two_loop, plane_gb, 8)
    A0 = ModulePresentation.simple_tops(two_loop, F.one)
    rep = minimal_resolution(A0, model, 4, 8)
    assert rep.degrees == [[0], [1, 1], [2], [], []]
    ok, violation = determined_check(rep, DegreeCollection.s_pattern(2), 4)
    assert ok and violation is None


# --------------------------------------------------------------------------
# Criterion 6: seeded random property corpus (>= 200 instances).
# --------------------------------------------------------------------------


CORPUS = instances(SEED, 200)


@pytest.fixture(scope="module")
def corpus_tables():
    return {inst.seed: chain_table(inst, 6) for inst in CORPUS}


def test_c6_property_suite(corpus_tables):
    assert len(CORPUS) >= 200
    failures = []
    for inst in CORPUS:
        table = corpus_tables[inst.seed]
        failures += check_extrema_inequalities(inst, table, 5)
        failures += check_composition_bounds(inst, table, 6)
        failures += check_predecessor_uniqueness(inst, table, 5)
        failures += check_members_have_partitions(inst, table, 5)
        failures += check_quasi_lifting(inst, table, 5)
    for inst in CORPUS[:40]:
        failures += check_partition_equivalence(inst, corpus_tables[inst.seed], 4, 5)
    assert failures == []


# --------------------------------------------------------------------------
# Criterion 7: differential window validation against the oracle.
# --------------------------------------------------------------------------


def test_c7_monomial_A0_windows_and_chain_multisets():
    bundles = monomial_bundles(10, SEED + 1)
    assert len(bundles) == 10
    for inst, gb in bundles:
        table = enumerate_overlaps(inst.quiver, gb.tips, 4)
        maxo3 = table.extrema(3)[1]
        D = min(12, (maxo3 if maxo3 != -inf else 4) + 1)
        model = build_model(inst.quiver, gb, D)
        A0 = ModulePresentation.simple_tops(inst.quiver, F.one)
        rep = minimal_resolution(A0, model, 4, D)
        windows = [degree_window(n, 1, 1, table, m) for n in range(1, 5) for m in ("quasi", "overlap")]
        ok, verdicts = verify_windows(rep, windows)
        assert ok, (inst.seed, [v for v in verdicts if not v.ok])
        # Chain correspondence: generating degrees of P_n are exactly the
        # level n-1 chain lengths, as multisets.
        for n in range(1, 5):
            expected = sorted(w.length for w in table.overlaps(n - 1) if w.length <= D)
            assert rep.degrees[n] == expected, (inst.seed, n)


def test_c7_random_module_presentations_windows():
    bundles = monomial_bundles(5, SEED + 2, degree_cap=10)
    rng = random.Random(SEED + 3)
    checked = 0
    for inst, gb in bundles:
        table = enumerate_overlaps(inst.quiver, gb.tips, 4)
        for _ in range(4):
            pres = random_presentation(rng, inst.quiver, F, max_generators=2,
                                       max_relations=2, max_gen_degree=1, max_rel_degree=3)
            model = build_model(inst.quiver, gb, 10)
            syz = first_syzygy(pres, model, 10)
            windows = [degree_window(n, syz.min_degree, syz.max_degree, table, m)
                       for n in range(1, 5) for m in ("quasi", "overlap")]
            rep = minimal_resolution(pres, model, 4, 10)
            ok, verdicts = verify_windows(rep, windows)
            assert ok, (inst.seed, pres, [v for v in verdicts if not v.ok])
            checked += 1
    assert checked >= 20


# --------------------------------------------------------------------------
# Criterion 8: Groebner soundness against degreewise linear algebra.
# --------------------------------------------------------------------------


def fixture_algebras():
    out = []
    q2 = Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e")])
    o2 = OrderSpec(("x", "y"), ("e",))
    w = words(q2)
    cube_gens = [
        AlgebraElement({w("xy"): F.one}),
        AlgebraElement({w("yx"): F.one}),
        AlgebraElement({w("xxx"): F.one, w("yyy"): -F.one}),
    ]
    out.append(("cube", q2, o2, cube_gens, 8))
    plane = [AlgebraElement({w("xy"): F.one, w("yx"): -F.one})]
    out.append(("plane", q2, o2, plane, 8))
    for s in (2, 3, 4):
        q1 = Quiver.build(["e"], [("x", "e", "e")])
        o1 = OrderSpec(("x",), ("e",))
        out.append((f"x^{s}", q1, o1, [AlgebraElement({q1.path("*".join("x" * s)): F.one})], 2 * s))
    return out


def test_c8_normal_form_agrees_with_membership_oracle():
    rng = random.Random(SEED + 4)
    total = 0
    for name, quiver, order, gens, gb_cap in fixture_algebras():
        gb = groebner_basis(gens, order, gb_cap)
        assert gb.complete, name
        spans = {}
        counted = 0
        while counted < 100:
            d = rng.randint(2, 8)
            x = random_homogeneous_element(rng, quiver, F, d, terms=rng.randint(1, 3))
            if rng.random() < 0.4 and x:
                # Planted ideal members exercise the zero branch.
                u = rng.choice(quiver.paths_of_length(rng.randint(0, 2)))
                g = rng.choice(gens)
                planted = left_mul(g, u)
                tail = d - (g.degree() + u.length)
                if tail >= 0:
                    vs = quiver.paths_of_length(tail)
                    if vs and planted:
                        x = right_mul(planted, rng.choice(vs))
            if not x:
                continue
            d = x.degree()
            if d not in spans:
                spans[d] = ideal_span(gens, quiver, F, d)
            member = spans[d].contains(_vector(quiver, x, d))
            assert member == normal_form(x, gb, order).is_zero(), (name, x.render())
            counted += 1
            total += 1
    assert total >= 500


def _vector(quiver, x, d):
    idx = {p: i for i, p in enumerate(quiver.paths_of_length(d))}
    return {idx[p]: c for p, c in x.terms.items()}


def test_c8_dimensions_match_normal_word_counts():
    for name, quiver, order, gens, gb_cap in fixture_algebras():
        gb = groebner_basis(gens, order, gb_cap)
        for d, level in enumerate(islice(normal_word_levels(quiver, gb.tips), 9)):
            npaths = len(quiver.paths_of_length(d))
            rank = ideal_span(gens, quiver, F, d).dim
            assert npaths - rank == len(level), (name, d)
