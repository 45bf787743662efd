"""Admissible well-orders on paths and on free-module basis items (i, path).

Only length-then-lexicographic orders are built in.  Longer paths are
greater; equal-length words compare arrow by arrow, left to right, by the
arrow precedence; parallel length-0 paths compare by the vertex precedence.
Module items compare by path first, then by generator index (larger wins).

An OrderSpec also names the coefficient field, so every routine that is
handed an order knows which arithmetic its scalars follow.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import PathAlgError
from .fields import RATIONALS, Field
from .quiver import Path, Quiver


@dataclass(frozen=True)
class OrderSpec:
    arrow_precedence: tuple[str, ...]  # greatest first
    vertex_precedence: tuple[str, ...]
    field: Field = RATIONALS

    def __post_init__(self):
        for seq, what in ((self.arrow_precedence, "arrow"), (self.vertex_precedence, "vertex")):
            if len(set(seq)) != len(seq):
                raise PathAlgError(f"duplicate entry in {what} precedence")
        # Precedence positions, 0 = greatest; derived data, not a field.
        object.__setattr__(self, "arrow_rank", {name: i for i, name in enumerate(self.arrow_precedence)})
        object.__setattr__(self, "vertex_rank", {name: i for i, name in enumerate(self.vertex_precedence)})

    @classmethod
    def for_quiver(cls, quiver: Quiver) -> "OrderSpec":
        """Default order: declaration order, earlier declared is greater."""
        return cls(tuple(a.name for a in quiver.arrows), tuple(quiver.vertices))

    def validate(self, quiver: Quiver) -> None:
        if set(self.arrow_precedence) != {a.name for a in quiver.arrows}:
            raise PathAlgError("arrow precedence must cover every arrow exactly once")
        if set(self.vertex_precedence) != set(quiver.vertices):
            raise PathAlgError("vertex precedence must cover every vertex exactly once")

    def path_key(self, p: Path):
        """Sort key: bigger key means greater path."""
        arrows = p.arrows
        if not arrows:
            return (0, (-self.vertex_rank[p.source],))
        rank = self.arrow_rank
        return (len(arrows), tuple([-rank[a.name] for a in arrows]))

    def module_key(self, item: tuple[int, Path]):
        i, p = item
        return (self.path_key(p), i)

