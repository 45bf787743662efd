"""Finite quivers and paths (composable arrow words, including length-0 vertex paths).

The composition convention is fixed globally: paths are written left to
right, and ``p * q`` means "p then q", defined when ``p.target == q.source``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CompositionError, PathAlgError


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """An arrow word, or a single vertex when the length is zero."""

    arrows: tuple[Arrow, ...] = ()
    vertex: str | None = None

    def __post_init__(self):
        if self.arrows:
            if self.vertex is not None:
                raise PathAlgError("a positive-length path carries no base vertex")
            for a, b in zip(self.arrows, self.arrows[1:]):
                if a.target != b.source:
                    raise CompositionError(f"arrows {a.name} and {b.name} do not compose")
        elif self.vertex is None:
            raise PathAlgError("a length-0 path needs a base vertex")

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> str:
        return self.arrows[0].source if self.arrows else self.vertex  # type: ignore[return-value]

    @property
    def target(self) -> str:
        return self.arrows[-1].target if self.arrows else self.vertex  # type: ignore[return-value]

    @property
    def is_vertex(self) -> bool:
        return not self.arrows

    def __mul__(self, other: "Path") -> "Path":
        return compose(self, other)

    def prefix(self, k: int) -> "Path":
        """First k arrows; k = 0 gives the source vertex path."""
        if k == 0:
            return Path(vertex=self.source)
        return Path(self.arrows[:k])

    def suffix(self, k: int) -> "Path":
        if k == 0:
            return Path(vertex=self.target)
        return Path(self.arrows[len(self.arrows) - k:])

    def drop_prefix(self, q: "Path") -> "Path":
        """The tail u with self = q * u; q must be a left divisor."""
        if not divides_left(q, self):
            raise PathAlgError(f"{q} is not a left divisor of {self}")
        return self.suffix(self.length - q.length)

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.arrows)

    def __str__(self) -> str:
        return "*".join(self.names()) if self.arrows else str(self.vertex)

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

    def vertex_path(self, v: str) -> Path:
        if v not in self.vertices:
            raise PathAlgError(f"unknown vertex {v!r}")
        return Path(vertex=v)

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
            piece = Path(vertex=n) if n in vset else Path((self.arrow(n),))
            result = piece if result is None else result * piece
        assert result is not None
        return result

    def paths_of_length(self, n: int) -> list[Path]:
        if n == 0:
            return [Path(vertex=v) for v in self.vertices]
        out: list[Path] = []
        for p in self.paths_of_length(n - 1):
            for a in self.arrows:
                if a.source == p.target:
                    out.append(Path(p.arrows + (a,)))
        return out

    def paths_up_to(self, n: int) -> Iterator[Path]:
        for d in range(n + 1):
            yield from self.paths_of_length(d)


def compose(p: Path, q: Path) -> Path:
    if p.target != q.source:
        raise CompositionError(f"cannot compose {p} (target {p.target}) with {q} (source {q.source})")
    if p.is_vertex:
        return q
    if q.is_vertex:
        return p
    return Path(p.arrows + q.arrows)


def factorizations(p: Path, q: Path) -> list[tuple[Path, Path]]:
    """All pairs (u, v) with q = u * p * v; empty when p does not divide q."""
    out: list[tuple[Path, Path]] = []
    if p.is_vertex:
        # Occurrences of a vertex inside q are the positions where it sits.
        for i in range(q.length + 1):
            at = q.arrows[i].source if i < q.length else q.target
            if at == p.vertex:
                out.append((q.prefix(i), q.suffix(q.length - i)))
        return out
    n, m = p.length, q.length
    for i in range(m - n + 1):
        if q.arrows[i:i + n] == p.arrows:
            out.append((q.prefix(i), q.suffix(m - i - n)))
    return out


def divides(p: Path, q: Path) -> bool:
    if p.is_vertex:
        return bool(factorizations(p, q))
    n = p.length
    return any(q.arrows[i:i + n] == p.arrows for i in range(q.length - n + 1))


def divides_left(p: Path, q: Path) -> bool:
    """p | q with q = p * v."""
    if p.is_vertex:
        return p.vertex == q.source
    return q.arrows[:p.length] == p.arrows


def divides_right(p: Path, q: Path) -> bool:
    """p | q with q = u * p."""
    if p.is_vertex:
        return p.vertex == q.target
    return p.length <= q.length and q.arrows[q.length - p.length:] == p.arrows


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
