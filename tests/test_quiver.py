import pytest
from hypothesis import given, strategies as st

from pathalg import (
    CompositionError,
    Path,
    PathAlgError,
    Quiver,
    compose,
    divides,
    is_reduced,
)
from tests.conftest import words
from tests.reference import divides_left


def test_compose_free_concatenation(two_loop):
    w = words(two_loop)
    assert compose(w("x"), w("y")) == w("xy")


def test_compose_vertex_identity(two_loop):
    w = words(two_loop)
    e = two_loop.path("e")
    assert compose(e, w("x")) == w("x")
    assert compose(w("x"), e) == w("x")


def test_compose_endpoint_mismatch():
    q = Quiver.build(["u", "v"], [("a", "u", "v")])
    a = q.path("a")
    with pytest.raises(CompositionError):
        compose(a, a)


def test_path_of_checks_its_arrows():
    q = Quiver.build(["u", "v"], [("a", "u", "v"), ("b", "v", "u")])
    a, b = q.arrow("a"), q.arrow("b")
    assert Path.of((a, b)) == Path("u", "u", (a, b))
    with pytest.raises(CompositionError):
        Path.of((a, a))
    with pytest.raises(PathAlgError):
        Path.of(())


def test_vertex_paths_differ_by_vertex():
    q = Quiver.build(["u", "v"], [("a", "u", "v")])
    u, v = q.path("u"), q.path("v")
    assert u != v and len({u, v}) == 2
    assert (u.source, u.target, u.length) == ("u", "u", 0)
    assert str(u) == "u" and str(v) == "v"
    assert u * q.path("a") * v == q.path("a")
    with pytest.raises(CompositionError):
        v * q.path("a")


def test_empty_prefix_and_suffix_sit_at_the_ends():
    q = Quiver.build(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w")])
    ab = q.path("a*b")
    assert ab.prefix(0) == q.path("u")
    assert ab.suffix(0) == q.path("w")
    assert ab.prefix(1) == q.path("a") and ab.suffix(1) == q.path("b")


def test_parsed_built_and_sliced_paths_agree():
    q = Quiver.build(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")])
    parsed = q.path("a*b*c")
    built = Path.of(tuple(q.arrow(n) for n in "abc"))
    sliced = q.path("c*a*b*c*a").suffix(4).prefix(3)
    assert parsed == built == sliced
    assert hash(parsed) == hash(built) == hash(sliced)
    assert len({parsed, built, sliced}) == 1
    assert str(sliced) == "a*b*c"


def test_quiver_validation():
    with pytest.raises(PathAlgError):
        Quiver.build(["u", "u"], [])
    with pytest.raises(PathAlgError):
        Quiver.build(["u"], [("a", "u", "w")])
    with pytest.raises(PathAlgError):
        Quiver.build(["u"], [("u", "u", "u")])


def test_is_reduced(two_loop):
    w = words(two_loop)
    assert is_reduced([w("xxyyy"), w("xxx")])
    assert not is_reduced([w("xx"), w("xxx")])
    assert is_reduced([])
    with pytest.raises(PathAlgError):
        is_reduced([w("x")])


def test_left_right_divisibility_imply_divides(two_loop):
    w = words(two_loop)
    assert divides_left(w("xy"), w("xyx")) and divides(w("xy"), w("xyx"))
    assert divides_left(w("xxx"), w("xxxyyy")) and divides(w("yyy"), w("xxxyyy"))
    assert not divides_left(w("yx"), w("xyx")) and divides(w("yx"), w("xyx"))


arrow_words = st.lists(st.sampled_from("xy"), min_size=0, max_size=6)


@given(arrow_words, arrow_words, arrow_words)
def test_compose_associative(a, b, c):
    q = Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e")])
    w = words(q)
    pa = w(a) if a else q.path("e")
    pb = w(b) if b else q.path("e")
    pc = w(c) if c else q.path("e")
    assert (pa * pb) * pc == pa * (pb * pc)
    assert (pa * pb).length == pa.length + pb.length


@given(arrow_words.filter(bool), arrow_words.filter(bool))
def test_divides_agrees_with_a_factor_search(a, b):
    q = Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e")])
    w = words(q)
    p, big = w(a), w(b)
    assert divides(p, big) == ("".join(a) in "".join(b))
    assert divides_left(p, big) == "".join(b).startswith("".join(a))


def test_multi_vertex_paths():
    q = Quiver.build(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w"), ("c", "v", "v")])
    ab = q.path("a*b")
    assert ab.source == "u" and ab.target == "w" and ab.length == 2
    acb = q.path("a*c*b")
    assert divides(q.path("c"), acb) and divides(q.path("a*c"), acb) and not divides(q.path("c*c"), acb)
    # A vertex path divides exactly the paths that pass through its vertex.
    assert divides(q.path("v"), acb) and not divides(q.path("v"), q.path("u"))
