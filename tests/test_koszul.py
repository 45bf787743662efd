import pytest
from hypothesis import given, strategies as st

from pathalg import (
    AlgebraElement,
    DegreeCollection,
    InfiniteCollectionError,
    PathAlgError,
    TruncatedBasisError,
    build_model,
    collection_tensor,
    determined_check,
    enumerate_overlaps,
    groebner_basis,
    minimal_resolution,
    s_koszul_criterion,
    s_koszul_degree,
)
from pathalg.cli import Report, _parse_collection_spec
from pathalg.fields import Field
from pathalg.presentation import ModulePresentation
from tests.conftest import truncated_polynomial

F = Field(0)


def test_s_koszul_degree_values():
    assert s_koszul_degree(3, 4) == 6
    assert s_koszul_degree(5, 0) == 0
    assert all(s_koszul_degree(2, i) == i for i in range(7))
    assert [s_koszul_degree(3, i) for i in range(7)] == [0, 1, 3, 4, 6, 7, 9]
    with pytest.raises(PathAlgError):
        s_koszul_degree(1, 0)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=40))
def test_s_koszul_degree_step(s, i):
    assert s_koszul_degree(s, i) - s_koszul_degree(s, i - 2) == s


def test_linear_is_the_two_staircase():
    assert [s_koszul_degree(2, i) for i in range(60)] == list(range(60))
    assert _parse_collection_spec("linear", Report("check", {})) == DegreeCollection.s_pattern(2)


def test_collection_tensor_examples():
    lin = DegreeCollection.s_pattern(2)
    assert collection_tensor(lin, lin, 4) == (4,)
    a = DegreeCollection.from_lists([[0], [2]])
    b = DegreeCollection.from_lists([[0], [3]])
    assert collection_tensor(a, b, 1) == (2, 3)
    chi3 = DegreeCollection.s_pattern(3)
    assert collection_tensor(chi3, chi3, 2) == (2, 3)


def test_collection_tensor_infinite_guard():
    down = DegreeCollection.s_downset(3, floor=None)
    lin = DegreeCollection.s_pattern(2)
    with pytest.raises(InfiniteCollectionError):
        collection_tensor(down, lin, 2)
    floored = DegreeCollection.s_downset(3, floor=0)
    assert collection_tensor(floored, lin, 1) == (0, 1)


@given(st.lists(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
                min_size=1, max_size=3),
       st.integers(min_value=0, max_value=3))
def test_collection_tensor_commutative(la, lb, i):
    a, b = DegreeCollection.from_lists(la), DegreeCollection.from_lists(lb)
    assert collection_tensor(a, b, i) == collection_tensor(b, a, i)


def test_collection_tensor_associative_on_explicit():
    a = DegreeCollection.from_lists([[0, 1], [2]])
    b = DegreeCollection.from_lists([[0], [1, 3]])
    c = DegreeCollection.from_lists([[0], [2]])
    for i in range(3):
        ab = DegreeCollection.from_lists([collection_tensor(a, b, j) for j in range(i + 1)])
        bc = DegreeCollection.from_lists([collection_tensor(b, c, j) for j in range(i + 1)])
        assert collection_tensor(ab, c, i) == collection_tensor(a, bc, i)


def test_s_koszul_criterion_truncated_polynomial():
    for s in (2, 3, 4):
        q, order, gb = truncated_polynomial(s)
        table = enumerate_overlaps(q, gb.tips, 2)
        cert = s_koszul_criterion(gb, s, table)
        assert cert.holds
        assert cert.max_tip_length == s and cert.min_level1 == s and cert.max_level2 == s + 1


def test_s_koszul_criterion_cube_fixture(cube_gb, two_loop):
    table = enumerate_overlaps(two_loop, cube_gb.tips, 2)
    cert = s_koszul_criterion(cube_gb, 4, table)
    assert not cert.holds
    assert cert.max_tip_length == 4 and cert.min_level1 == 2


def test_s_koszul_criterion_commutative_plane(plane_gb, two_loop):
    table = enumerate_overlaps(two_loop, plane_gb.tips, 2)
    cert = s_koszul_criterion(plane_gb, 2, table)
    assert cert.holds
    from math import inf
    assert cert.max_level2 == -inf


def test_s_koszul_criterion_refuses_truncation(two_loop, two_loop_order):
    # A non-monomial basis capped below its largest overlap stays truncated.
    w = lambda s: two_loop.path("*".join(s))
    gens = [AlgebraElement({w("xxx"): F.one, w("xyy"): F.one})]
    gb = groebner_basis(gens, two_loop_order, 3)
    if gb.complete:
        pytest.skip("fixture completed unexpectedly early")
    table = enumerate_overlaps(two_loop, gb.tips, 2)
    with pytest.raises(TruncatedBasisError):
        s_koszul_criterion(gb, 3, table)


def test_determined_check_truncated_polynomial():
    q, order, gb = truncated_polynomial(3)
    model = build_model(q, gb, 18)
    rep = minimal_resolution(ModulePresentation.simple_tops(q, F.one), model, 5, 18)
    ok, violation = determined_check(rep, DegreeCollection.s_pattern(3), 5)
    assert ok and violation is None


def test_determined_check_cube_fails_linear(cube_model, cube_A0):
    rep = minimal_resolution(cube_A0, cube_model, 2, 10)
    ok, violation = determined_check(rep, DegreeCollection.s_pattern(2), 2)
    assert not ok
    assert (violation.index, violation.degree) == (2, 3)


def test_determined_check_zero_tail(two_loop, plane_gb):
    model = build_model(two_loop, plane_gb, 8)
    rep = minimal_resolution(ModulePresentation.simple_tops(two_loop, F.one), model, 4, 8)
    ok, _ = determined_check(rep, DegreeCollection.s_pattern(2), 4)
    assert ok


def test_determined_check_depth_guard(cube_model, cube_A0):
    rep = minimal_resolution(cube_A0, cube_model, 2, 8)
    with pytest.raises(PathAlgError):
        determined_check(rep, DegreeCollection.s_pattern(2), 5)


def test_singleton_pattern_implies_downset():
    # 2-s monotonicity: passing the staircase singletons implies passing the
    # down-closed collection.
    q, order, gb = truncated_polynomial(3)
    model = build_model(q, gb, 18)
    rep = minimal_resolution(ModulePresentation.simple_tops(q, F.one), model, 5, 18)
    ok_single, _ = determined_check(rep, DegreeCollection.s_pattern(3), 5)
    ok_down, _ = determined_check(rep, DegreeCollection.s_downset(3), 5)
    assert ok_single and ok_down


def test_criterion_conclusion_matches_oracle():
    # Whenever the sufficiency test holds, the staircase pattern really is
    # the resolution's degree pattern (validated per instance by the oracle).
    for s in (2, 3, 4):
        q, order, gb = truncated_polynomial(s)
        table = enumerate_overlaps(q, gb.tips, 2)
        cert = s_koszul_criterion(gb, s, table)
        assert cert.holds
        model = build_model(q, gb, 3 * s + 2)
        rep = minimal_resolution(ModulePresentation.simple_tops(q, F.one), model, 5, 3 * s + 2)
        ok, _ = determined_check(rep, DegreeCollection.s_pattern(s), 5)
        assert ok
