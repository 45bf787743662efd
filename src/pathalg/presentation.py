"""Graded module presentations over kQ/I: shifted free covers plus relations."""
from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .algebra import ModuleElement
from .errors import PathAlgError
from .fields import Field
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

    def minimal(self, quiver: Quiver, field: Field) -> "ModulePresentation":
        """A presentation of the same module whose relations hold no generator as a vertex term.

        Each relation, read in `field`, is split by the target vertex of its
        paths.  While some component c = a*g + t holds a generator g as a
        vertex term (the one of highest number, if several), g is replaced by
        -t/a in every other component, and c and g are dropped: a Tietze
        move.  By homogeneity g occurs elsewhere either as a vertex term at
        c's degree and vertex or as g*p with p an arrow word, so the
        replacement is path composition.  Modulo the radical the module is
        spanned by its generators less the relations' vertex terms (Green,
        Solberg and Zacharia 2001), so the kept generators generate it
        minimally.  They are listed by degree, vertex in the quiver's order,
        and number.  The presentation must be valid (`validate`).
        """
        p = field.characteristic
        comps: list[dict[tuple[int, Path], object]] = []
        for r in self.relations:
            parts: dict[str, dict[tuple[int, Path], object]] = {}
            for (i, w), c in r.terms.items():
                c = field.of(c)
                if c:
                    parts.setdefault(w.target, {})[(i, w)] = c
            comps.extend(parts.values())
        dropped = set()
        for n, c in enumerate(comps):
            tops = [i for i, w in c if not w.arrows]
            if not tops:
                continue
            g = max(tops)
            v = self.generators[g].vertex
            scale = -field.inverse(c.pop((g, Path(v, v))))
            t = [(i, q, x * scale) for (i, q), x in c.items()]
            comps[n] = {}
            dropped.add(g)
            for other in comps:
                for w, y in [(w, other.pop((i, w))) for i, w in list(other) if i == g]:
                    for i, q, x in t:
                        key = (i, q * w)
                        val = other.pop(key, 0) + x * y
                        if p:
                            val %= p
                        if val:
                            other[key] = val
        vertex_no = {v: k for k, v in enumerate(quiver.vertices)}
        kept = sorted((i for i in range(len(self.generators)) if i not in dropped),
                      key=lambda i: (self.generators[i].degree, vertex_no[self.generators[i].vertex], i))
        number = {i: k for k, i in enumerate(kept)}
        return ModulePresentation(
            tuple(self.generators[i] for i in kept),
            tuple(ModuleElement({(number[i], w): x for (i, w), x in c.items()}) for c in comps if c),
        )

    @classmethod
    def simple_tops(cls, quiver: Quiver, one) -> "ModulePresentation":
        """The semisimple quotient A_0: one degree-0 generator per vertex, killed by every arrow."""
        gens = tuple(Generator(f"s_{v}", v, 0) for v in quiver.vertices)
        vindex = {v: i for i, v in enumerate(quiver.vertices)}
        rels = []
        for a in quiver.arrows:
            rels.append(ModuleElement({(vindex[a.source], Path.of((a,))): one}))
        return cls(gens, tuple(rels))

