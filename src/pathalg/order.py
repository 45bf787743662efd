"""Admissible well-orders on paths and on free-module basis items (i, path).

Only length-then-lexicographic orders are built in.  Longer paths are
greater; equal-length words compare arrow by arrow, left to right, by the
arrow precedence; parallel length-0 paths compare by the vertex precedence.
Module items compare by path first, then by generator index (larger wins).

An OrderSpec also names the coefficient field, so every routine that is
handed an order knows which arithmetic its scalars follow.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .errors import PathAlgError
from .fields import RATIONALS, Field
from .quiver import Path, Quiver, divides, normal_word_levels

LT, EQ, GT = -1, 0, 1


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


def compare(order: OrderSpec, p: Path, q: Path) -> int:
    kp, kq = order.path_key(p), order.path_key(q)
    return GT if kp > kq else (LT if kp < kq else EQ)


def compare_module(order: OrderSpec, a: tuple[int, Path], b: tuple[int, Path]) -> int:
    ka, kb = order.module_key(a), order.module_key(b)
    return GT if ka > kb else (LT if ka < kb else EQ)


@dataclass(frozen=True)
class AdmissibilityWitness:
    axiom: str
    paths: tuple[Path, ...]


Comparator = Callable[[Path, Path], int]


def check_admissible(
    quiver: Quiver,
    order: OrderSpec | Comparator,
    bound: int,
) -> tuple[bool, AdmissibilityWitness | None]:
    """Exhaustively verify both admissibility axioms over paths of length <= bound.

    Accepts either an OrderSpec or a raw comparator, so deliberately broken
    comparators can be probed.  Returns (True, None) or (False, witness).
    """
    if bound < 1:
        raise PathAlgError("bound must be >= 1")
    cmp: Comparator
    cmp = (lambda p, q: compare(order, p, q)) if isinstance(order, OrderSpec) else order

    paths = [p for level in itertools.islice(normal_word_levels(quiver, ()), bound + 1) for p in level]
    # Divisibility axiom: q | p implies p >= q.
    for p, q in itertools.product(paths, paths):
        if divides(q, p) and cmp(p, q) == LT:
            return False, AdmissibilityWitness("divisibility", (p, q))
    # Translation axiom: p >= q implies u p v >= u q v whenever both compose.
    for p, q in itertools.product(paths, paths):
        if (p.source, p.target) != (q.source, q.target) or cmp(p, q) == LT:
            continue
        for u in paths:
            if u.target != p.source or u.length + p.length > bound:
                continue
            for v in paths:
                if v.source != p.target or u.length + p.length + v.length > bound:
                    continue
                if cmp((u * p) * v, (u * q) * v) == LT:
                    return False, AdmissibilityWitness("translation", (p, q, u, v))
    return True, None
