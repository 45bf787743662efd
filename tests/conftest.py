import importlib.util
import pathlib
import sys
from functools import cache

import pytest

from pathalg import AlgebraElement, OrderSpec, Quiver, build_model, groebner_basis
from pathalg.fields import Field
from pathalg.presentation import ModulePresentation

F = Field(0)
ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_module(name, path):
    """The Python file at `path`, loaded by its path as module `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def perfbench_module(name):
    """perfbench/<name>.py: perfbench is a directory of scripts, not a package."""
    return load_module(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")


def words(quiver):
    """Single-letter word builder: words(q)('xxy') -> the path x*x*y."""
    def build(s):
        return quiver.path("*".join(s))
    return build


@pytest.fixture(scope="session")
def two_loop():
    return Quiver.build(["e"], [("x", "e", "e"), ("y", "e", "e")])


@pytest.fixture(scope="session")
def two_loop_order():
    return OrderSpec(("x", "y"), ("e",))


@pytest.fixture(scope="session")
def one_loop():
    return Quiver.build(["e"], [("x", "e", "e")])


@pytest.fixture(scope="session")
def one_loop_order():
    return OrderSpec(("x",), ("e",))


@pytest.fixture(scope="session")
def cube_gb(two_loop, two_loop_order):
    """Two loops with x*y = y*x = 0, x^3 = y^3 (reduced basis adds y^4)."""
    w = words(two_loop)
    gens = [
        AlgebraElement({w("xy"): F.one}),
        AlgebraElement({w("yx"): F.one}),
        AlgebraElement({w("xxx"): F.one, w("yyy"): -F.one}),
    ]
    return groebner_basis(gens, two_loop_order, 8)


@pytest.fixture(scope="session")
def cube_model(two_loop, cube_gb):
    return build_model(two_loop, cube_gb, 12)


@pytest.fixture(scope="session")
def cube_A0(two_loop):
    return ModulePresentation.simple_tops(two_loop, F.one)


def truncated_polynomial(s):
    """k[x]/(x^s) bundle: (quiver, order, gb)."""
    q = Quiver.build(["e"], [("x", "e", "e")])
    order = OrderSpec(("x",), ("e",))
    xs = AlgebraElement({q.path("*".join("x" * s)): F.one})
    return q, order, groebner_basis([xs], order, 2 * s)


@pytest.fixture(scope="session")
def plane_gb(two_loop, two_loop_order):
    """Commuting plane via the single relation x*y - y*x."""
    w = words(two_loop)
    return groebner_basis([AlgebraElement({w("xy"): F.one, w("yx"): -F.one})], two_loop_order, 8)
