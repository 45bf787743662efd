import itertools

import pytest
from hypothesis import given, strategies as st

from pathalg import OrderSpec, PathAlgError, Quiver, divides
from tests.conftest import words
from tests.reference import EQ, GT, LT, check_admissible, compare, compare_module


def test_compare_examples(two_loop, two_loop_order):
    w = words(two_loop)
    assert compare(two_loop_order, w("xx"), w("xy")) == GT
    assert compare(two_loop_order, w("xxx"), w("xy")) == GT
    assert compare(two_loop_order, w("x"), w("x")) == EQ
    assert compare(two_loop_order, w("y"), w("x")) == LT


def test_compare_vertex_paths():
    q = Quiver.build(["u", "v"], [])
    order = OrderSpec((), ("u", "v"))
    pu, pv = q.path("u"), q.path("v")
    assert compare(order, pu, pv) == GT
    assert compare(order, pv, pv) == EQ


def test_compare_module(two_loop, two_loop_order):
    w = words(two_loop)
    assert compare_module(two_loop_order, (0, w("xy")), (1, w("x"))) == GT
    assert compare_module(two_loop_order, (0, w("x")), (1, w("x"))) == LT
    e = two_loop.path("e")
    assert compare_module(two_loop_order, (2, e), (2, e)) == EQ


def test_order_spec_validation(two_loop):
    with pytest.raises(PathAlgError):
        OrderSpec(("x", "x"), ("e",))
    with pytest.raises(PathAlgError):
        OrderSpec(("x",), ("e",)).validate(two_loop)
    OrderSpec(("x", "y"), ("e",)).validate(two_loop)


def test_check_admissible_length_lex(two_loop, two_loop_order):
    ok, witness = check_admissible(two_loop, two_loop_order, 3)
    assert ok and witness is None


def test_check_admissible_multi_vertex():
    q = Quiver.build(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")])
    ok, witness = check_admissible(q, OrderSpec.for_quiver(q), 2)
    assert ok and witness is None


def test_check_admissible_rejects_pure_lex(two_loop, two_loop_order):
    # Pure lexicographic comparison ignoring length is not admissible: it
    # violates the divisibility axiom (a word can be smaller than its factor).
    rank = {"x": 0, "y": 1}

    def pure_lex(p, q):
        a = tuple(rank[x.name] for x in p.arrows)
        b = tuple(rank[x.name] for x in q.arrows)
        return GT if a < b else (LT if a > b else EQ)

    ok, witness = check_admissible(two_loop, pure_lex, 3)
    assert not ok
    assert witness is not None and witness.axiom in ("divisibility", "translation")


@given(st.lists(st.sampled_from("xy"), min_size=0, max_size=4),
       st.lists(st.sampled_from("xy"), min_size=0, max_size=4))
def test_total_order_and_divisibility_monotone(a, b):
    q = Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e")])
    order = OrderSpec(("x", "y"), ("e",))
    w = words(q)
    pa = w(a) if a else q.path("e")
    pb = w(b) if b else q.path("e")
    ca, cb = compare(order, pa, pb), compare(order, pb, pa)
    assert ca == -cb
    assert (ca == EQ) == (pa == pb)
    if divides(pb, pa):
        assert compare(order, pa, pb) in (GT, EQ)


def test_translation_invariance_exhaustive(two_loop, two_loop_order):
    w = words(two_loop)
    smalls = [two_loop.path("e")] + [w("".join(t)) for L in (1, 2) for t in itertools.product("xy", repeat=L)]
    for p, q in itertools.product(smalls, repeat=2):
        if compare(two_loop_order, p, q) != GT:
            continue
        for u, v in itertools.product(smalls, repeat=2):
            assert compare(two_loop_order, (u * p) * v, (u * q) * v) == GT
