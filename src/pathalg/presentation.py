"""Graded module presentations over kQ/I: shifted free covers plus relations."""
from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .algebra import ModuleElement
from .errors import PathAlgError
from .quiver import Path, Quiver


@dataclass(frozen=True)
class Generator:
    name: str
    vertex: str
    degree: int


@dataclass(frozen=True)
class ModulePresentation:
    """The cokernel of (relations) * A inside the free module on `generators`.

    Generator i sits at its vertex with the given degree shift; a support
    pair (i, p) requires p to start at that vertex and contributes degree
    degree_i + len(p).
    """

    generators: tuple[Generator, ...]
    relations: tuple[ModuleElement, ...]

    def validate(self, quiver: Quiver, degree_cap: float = inf) -> None:
        """Raise PathAlgError on a malformed presentation or on a relation above degree_cap."""
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise PathAlgError("duplicate generator names")
        vset = set(quiver.vertices)
        for g in self.generators:
            if g.vertex not in vset:
                raise PathAlgError(f"generator {g.name} at undeclared vertex {g.vertex}")
            if g.degree < 0:
                raise PathAlgError(f"generator {g.name} has negative degree {g.degree}")
        for r in self.relations:
            for (i, p), _c in r.terms.items():
                if not 0 <= i < len(self.generators):
                    raise PathAlgError("relation references an unknown generator")
                if p.source != self.generators[i].vertex:
                    raise PathAlgError(
                        f"relation path {p} does not start at generator {self.generators[i].name}'s vertex"
                    )
            if self.degree_of(r) > degree_cap:
                raise PathAlgError(f"relation {r.render(self.gen_names())} lies above the degree cap {degree_cap}")

    def degree_of(self, elem: ModuleElement) -> int:
        degs = {self.generators[i].degree + p.length for (i, p), _ in elem.terms.items()}
        if len(degs) != 1:
            raise PathAlgError("module element is zero or inhomogeneous")
        return degs.pop()

    def gen_names(self) -> list[str]:
        return [g.name for g in self.generators]

    @classmethod
    def simple_tops(cls, quiver: Quiver, one) -> "ModulePresentation":
        """The semisimple quotient A_0: one degree-0 generator per vertex, killed by every arrow."""
        gens = tuple(Generator(f"s_{v}", v, 0) for v in quiver.vertices)
        vindex = {v: i for i, v in enumerate(quiver.vertices)}
        rels = []
        for a in quiver.arrows:
            rels.append(ModuleElement({(vindex[a.source], Path.of((a,))): one}))
        return cls(gens, tuple(rels))

