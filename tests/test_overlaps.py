from math import inf

import pytest

from pathalg import (
    NotReducedError,
    Quiver,
    all_partitions,
    check_partition,
    compose_bounds,
    enumerate_overlaps,
    find_partition,
    s_koszul_degree,
)
from tests.conftest import words


def names(p):
    return str(p).replace("*", "")


@pytest.fixture(scope="module")
def showcase(two_loop):
    w = words(two_loop)
    return [w("xxyyy"), w("xxx")]  # the x^2 y^3, x^3 pattern pair


def test_enumerate_requires_reduced(two_loop):
    w = words(two_loop)
    with pytest.raises(NotReducedError):
        enumerate_overlaps(two_loop, [w("xx"), w("xxx")], 2)


def test_showcase_levels(two_loop, showcase):
    t = enumerate_overlaps(two_loop, showcase, 3)
    assert [names(p) for p in t.overlaps(0)] == ["x", "y"]
    assert {names(p) for p in t.overlaps(1)} == {"xxx", "xxyyy"}
    assert {names(p) for p in t.overlaps(2)} == {"xxxx", "xxxyyy"}
    assert {names(p) for p in t.overlaps(3)} == {"xxxxxx", "xxxxxyyy"}
    w = words(two_loop)
    assert names(t.chain(3, w("xxxxxyyy"), 2)) == "xxxx"
    assert names(t.chain(3, w("xxxxxyyy"), 1)) == "xxx"
    assert (w("xxxyyy"), w("xx")) in t.quasi_levels[3]
    assert names(t.quasi_chain(3, w("xxxyyy"), w("xx"), 2)) == "xxx"
    assert names(t.quasi_chain(3, w("xxxyyy"), w("xx"), 1)) == "x"


def test_second_showcase_levels(two_loop):
    w = words(two_loop)
    pats = [w("xxx"), w("xyy")]
    t = enumerate_overlaps(two_loop, pats, 3)
    assert (w("xxxyy"), w("xx")) in t.quasi_levels[3]
    assert w("xxxxxyy") not in t.levels[3]
    assert w("xxxxyy") in t.levels[3]
    assert names(t.chain(3, w("xxxxyy"), 2)) == "xxxx"
    assert names(t.chain(3, w("xxxxyy"), 1)) == "xxx"


def test_single_loop_square(one_loop):
    xx = one_loop.path("x*x")
    t = enumerate_overlaps(one_loop, [xx], 5)
    for n in range(1, 6):
        assert [p.length for p in t.overlaps(n)] == [n + 1]
        assert [(w.length, v.length) for (w, v) in t.quasi(n)] == [(n, 1)]
    assert t.extrema(4) == (5, 5, 4, 4)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_truncated_polynomial_deep_levels(one_loop, s):
    """k[x]/(x^s) to level 12: one chain per level, of s-Koszul length.

    The tail graph of {x^s} sends x^m to x^(s-m), so the quasi chain with
    context x^j alternately gains s - j and j arrows: n*s/2 of them at even
    n and (n+1)*s/2 - j at odd n.
    """
    t = enumerate_overlaps(one_loop, [one_loop.path("*".join("x" * s))], 12)
    for n in range(13):
        assert [w.length for w in t.overlaps(n)] == [s_koszul_degree(s, n + 1)]
        expected = [(n * s // 2 if n % 2 == 0 else (n + 1) * s // 2 - j, j) for j in range(1, s)]
        assert sorted((w.length, v.length) for (w, v) in t.quasi(n)) == sorted(expected)


def test_extrema_examples(two_loop, showcase):
    t = enumerate_overlaps(two_loop, showcase, 3)
    assert t.extrema(1) == (3, 5, 1, 4)
    assert t.extrema(2) == (4, 6, 3, 5)
    assert t.extrema(3) == (6, 8, 4, 7)


def test_empty_level_extrema(two_loop):
    w = words(two_loop)
    t = enumerate_overlaps(two_loop, [w("xy")], 2)
    assert t.extrema(2) == (inf, -inf, inf, -inf)


def test_compose_bounds(two_loop, one_loop, showcase):
    t = enumerate_overlaps(two_loop, showcase, 3)
    lo, hi = compose_bounds(t.extrema(1), t.extrema(2), t.pattern_length)
    assert hi == 5 + 6 - 1 and lo == 3 + 4 - 5 + 1
    mino3, maxo3, _, _ = t.extrema(3)
    assert lo <= mino3 and maxo3 <= hi
    xx = one_loop.path("x*x")
    t1 = enumerate_overlaps(one_loop, [xx], 4)
    lo, hi = compose_bounds(t1.extrema(2), t1.extrema(2), 2)
    assert hi == 5 and t1.extrema(4)[1] == 5
    tempty = enumerate_overlaps(two_loop, [words(two_loop)("xy")], 2)
    lo, hi = compose_bounds(tempty.extrema(2), tempty.extrema(1), 2)
    assert hi == -inf


def compact(pieces):
    return tuple(names(p) for p in pieces)


def test_partition_examples_first_showcase(two_loop, showcase):
    w = words(two_loop)
    parts = list(all_partitions(w("xxxxxyyy"), 3, showcase))
    assert len(parts) == 1
    assert compact(parts[0].u) == ("x", "e", "xyyy")
    assert compact(parts[0].v) == ("xx", "x")
    qparts = list(all_partitions(w("xxxyyy"), 3, showcase, context=w("xx")))
    assert len(qparts) == 1
    assert compact(qparts[0].u) == ("e", "e", "yyy")
    assert compact(qparts[0].v) == ("x", "xx")


def test_partition_examples_second_showcase(two_loop):
    w = words(two_loop)
    pats = [w("xxx"), w("xyy")]
    parts = list(all_partitions(w("xxxxyy"), 3, pats))
    assert parts and compact(parts[0].u) == ("x", "e", "yy") and compact(parts[0].v) == ("xx", "x")
    qparts = list(all_partitions(w("xxxyy"), 3, pats, context=w("xx")))
    assert qparts and compact(qparts[0].u) == ("e", "x", "yy") and compact(qparts[0].v) == ("x", "x")


def test_partition_negative(two_loop):
    w = words(two_loop)
    assert find_partition(w("xy"), 1, [w("xx")]) is None
    assert find_partition(w("xxxxxyy"), 3, [w("xxx"), w("xyy")]) is None


def test_check_partition_validator(two_loop, showcase):
    w = words(two_loop)
    e = two_loop.vertex_path("e")
    assert check_partition(w("xxxxxyyy"), 3, showcase, (w("x"), e, w("xyyy")), (w("xx"), w("x")))
    # wrong reassembly, also when the pieces are a partition of another word
    assert not check_partition(w("xxxxxyyy"), 3, showcase, (w("x"), e, w("xyyy")), (w("x"), w("x")))
    assert not check_partition(w("xxxxxxyyy"), 3, showcase, (w("x"), e, w("xyyy")), (w("xx"), w("x")))
    # interior v pieces must be nonempty, also when every block is a pattern
    assert not check_partition(w("xxxxxyyy"), 3, showcase, (w("xxx"), e, w("xyyy")), (e, w("x")))
    assert not check_partition(w("xxyy"), 2, [w("xx"), w("yy")], (w("xx"), w("yy")), (e,))


def test_check_partition_requires_reduced(one_loop):
    # x^2 divides x^3, so no reading of the cut conditions applies; before the
    # check, x^3 = u1 passed at level 1 while find_partition refused the set.
    w = words(one_loop)
    with pytest.raises(NotReducedError):
        check_partition(w("xxx"), 1, [w("xx"), w("xxx")], (w("xxx"),), ())
    with pytest.raises(NotReducedError):
        find_partition(w("xxx"), 1, [w("xx"), w("xxx")])
    assert check_partition(w("xxx"), 1, [w("xxx")], (w("xxx"),), ())


def test_partition_oracle_is_independent_of_the_walks(monkeypatch, two_loop, showcase):
    # The oracle is the check on the tail-graph walks, so it must not run them.
    import pathalg.overlaps as overlaps

    def refuse(*args):
        raise AssertionError("the partition oracle used the tail graph")

    monkeypatch.setattr(overlaps, "_tail_graph", refuse)
    monkeypatch.setattr(overlaps, "_walk", refuse)
    with pytest.raises(AssertionError):
        enumerate_overlaps(two_loop, showcase, 2)
    w = words(two_loop)
    parts = list(all_partitions(w("xxxxxyyy"), 3, showcase))
    assert [(compact(p.u), compact(p.v)) for p in parts] == [(("x", "e", "xyyy"), ("xx", "x"))]
    assert check_partition(w("xxxxxyyy"), 3, showcase, parts[0].u, parts[0].v)
    q = find_partition(w("xxxyyy"), 3, showcase, context=w("xx"))
    assert q is not None and check_partition(w("xxxyyy"), 3, showcase, q.u, q.v, context=w("xx"))
    # Read as arrow names, the vertex context 2 before a*b*a is the pattern
    # a*b*a, but a*b*a starts at vertex 1: no partition exists.
    quiver = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    aba = quiver.path("a*b*a")
    assert find_partition(aba, 1, [aba], context=quiver.vertex_path("1")) is not None
    for n in range(1, 4):
        assert find_partition(aba, n, [aba], context=quiver.vertex_path("2")) is None
        assert find_partition(aba, n, [aba], context=quiver.path("a")) is None
    assert not check_partition(aba, 1, [aba], (aba,), (), context=quiver.vertex_path("2"))


def test_predecessor_links_are_left_divisors(two_loop, showcase):
    t = enumerate_overlaps(two_loop, showcase, 4)
    for n in range(2, 5):
        for w in t.overlaps(n):
            pred = t.predecessor(n, w)
            assert pred in t.levels[n - 1]
            assert w.arrows[: pred.length] == pred.arrows
        for (w, v) in t.quasi(n):
            pred = t.quasi_predecessor(n, w, v)
            assert (pred, v) in t.quasi_levels[n - 1]
            assert w.arrows[: pred.length] == pred.arrows


def test_cut_condition_prunes_straddling_patterns(one_loop):
    # Over {x^3} with context x, the word x^5 admits several segmentations
    # with all blocks in the pattern set, but only one survives the
    # no-straddling condition.
    xxx = one_loop.path("x*x*x")
    w5 = one_loop.path("x*x*x*x*x")
    parts = list(all_partitions(w5, 3, [xxx], context=one_loop.path("x")))
    assert [(compact(p.u), compact(p.v)) for p in parts] == [(("e", "e", "xx"), ("xx", "x"))]


def test_head_constraint_per_reading(one_loop):
    # Plain reading at level 2 requires a nonempty first block: the pattern
    # itself is not a level-2 word.  The context reading allows an empty
    # first block at level 2.
    xx = one_loop.path("x*x")
    assert find_partition(xx, 2, [xx]) is None
    xxx = one_loop.path("x*x*x")
    q2 = list(all_partitions(xxx, 2, [xxx], context=xx))
    assert [(compact(p.u), compact(p.v)) for p in q2] == [(("e", "xx"), ("x",))]
    # And these agree with the recursive enumeration.
    t = enumerate_overlaps(one_loop, [xx], 2)
    assert xx not in t.levels[2]
    t3 = enumerate_overlaps(one_loop, [xxx], 2)
    assert (xxx, xx) in t3.quasi_levels[2]


def test_enumerate_without_quasi_side(two_loop, showcase):
    t = enumerate_overlaps(two_loop, showcase, 3, quasi=False)
    assert not any(t.quasi_levels)
    assert {names(p) for p in t.overlaps(3)} == {"xxxxxx", "xxxxxyyy"}
    assert t.quasi(3) == []
    mino, maxo, minq, maxq = t.extrema(3)
    assert (mino, maxo) == (6, 8) and minq == inf and maxq == -inf
