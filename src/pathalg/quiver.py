"""Finite quivers and paths.

A path is one plain value, `Path(source, target, arrows)`: its endpoints
and its arrow word.  A vertex path has no arrows and is `Path(v, v)`, so
every operation below treats it like any other word.  Paths and arrows
are named tuples, so they hash and compare in C; that makes `len(p)` 3
and tuple order lexicographic, so read `p.length` and sort with an
explicit key.

The composition convention is fixed globally: paths are written left to
right, and ``p * q`` means "p then q", defined when ``p.target == q.source``.
Composability is checked where a path is made from parts (`Path.of`,
`compose`, `Quiver.path`); slices and one-arrow extensions of a path set
the fields directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .errors import CompositionError, PathAlgError


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Path(NamedTuple):
    """An arrow word from source to target; with no arrows, the vertex path at source."""

    source: str
    target: str
    arrows: tuple[Arrow, ...] = ()

    @classmethod
    def of(cls, arrows: tuple[Arrow, ...]) -> "Path":
        """The path along a nonempty tuple of composable arrows."""
        if not arrows:
            raise PathAlgError("a path of no arrows needs a vertex: use Path(v, v)")
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise CompositionError(f"arrows {a.name} and {b.name} do not compose")
        return cls(arrows[0].source, arrows[-1].target, tuple(arrows))

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __mul__(self, other: "Path") -> "Path":  # type: ignore[override]
        return compose(self, other)

    def prefix(self, k: int) -> "Path":
        """First k arrows; k = 0 gives the source vertex path."""
        arrows = self.arrows[:k]
        return Path(self.source, arrows[-1].target if arrows else self.source, arrows)

    def suffix(self, k: int) -> "Path":
        """Last k arrows; k = 0 gives the target vertex path."""
        arrows = self.arrows[len(self.arrows) - k:]
        return Path(arrows[0].source if arrows else self.target, self.target, arrows)

    def __str__(self) -> str:
        return "*".join([a.name for a in self.arrows]) if self.arrows else self.source

    def __repr__(self) -> str:
        return f"Path({self})"


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        names = [v for v in self.vertices] + [a.name for a in self.arrows]
        if any(not n for n in names):
            raise PathAlgError("vertex and arrow identifiers must be nonempty")
        if len(set(names)) != len(names):
            raise PathAlgError("vertex and arrow identifiers must be distinct")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise PathAlgError(f"arrow {a.name} has undeclared endpoints")

    @classmethod
    def build(cls, vertices: Iterable[str], arrows: Iterable[tuple[str, str, str]]) -> "Quiver":
        return cls(tuple(vertices), tuple(Arrow(*a) for a in arrows))

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise PathAlgError(f"unknown arrow {name!r}")

    def path(self, spec: str | Iterable[str]) -> Path:
        """Build a path from '*'-separated identifiers (or an iterable of them).

        Vertex identifiers act as length-0 paths and may appear anywhere in
        the word as long as everything composes.
        """
        names = spec.split("*") if isinstance(spec, str) else list(spec)
        if not names:
            raise PathAlgError("empty path spec")
        vset = set(self.vertices)
        result: Path | None = None
        for n in names:
            n = n.strip()
            piece = Path(n, n) if n in vset else Path.of((self.arrow(n),))
            result = piece if result is None else result * piece
        assert result is not None
        return result

    def paths_of_length(self, n: int) -> list[Path]:
        """All paths of length n: level n of `normal_word_levels` with no tips."""
        return next(islice(normal_word_levels(self, ()), n, None))


def normal_word_levels(quiver: Quiver, tips: Iterable[Path]) -> Iterator[list[Path]]:
    """The paths of length 0, 1, 2, ... with no tip as a factor, one list per length, without end.

    Each level extends the one before by single arrows, starting from the
    vertex paths, so reading levels 0 .. d costs one pass, not one pass per
    level.  With no tips the levels are all paths, in `paths_of_length` order.
    """
    tips = list(tips)

    def clean_end(word: Path) -> bool:
        # Only suffixes can newly contain a tip after extending by one arrow.
        for t in tips:
            if t.length <= word.length and word.arrows[word.length - t.length:] == t.arrows:
                return False
        return True

    level = [Path(v, v) for v in quiver.vertices]
    while True:
        yield level
        nxt = []
        for w in level:
            for a in quiver.arrows:
                if a.source == w.target:
                    ext = Path(w.source, a.target, w.arrows + (a,))
                    if clean_end(ext):
                        nxt.append(ext)
        level = nxt


def compose(p: Path, q: Path) -> Path:
    if p.target != q.source:
        raise CompositionError(f"cannot compose {p} (target {p.target}) with {q} (source {q.source})")
    return Path(p.source, q.target, p.arrows + q.arrows)


def divides(p: Path, q: Path) -> bool:
    n, arrows = p.length, p.arrows
    # A match of p's arrows starts at p.source; a vertex p needs the second test.
    return any(q.arrows[i:i + n] == arrows and q.prefix(i).target == p.source for i in range(q.length - n + 1))


def is_reduced(paths: Iterable[Path]) -> bool:
    """No element of the set properly divides another; all lengths must be >= 2."""
    elems = list(paths)
    for p in elems:
        if p.length < 2:
            raise PathAlgError(f"reduced sets live in length >= 2; got {p}")
    for p in elems:
        for q in elems:
            if p != q and divides(p, q):
                return False
    return True
