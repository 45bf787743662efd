"""Degree-pattern classifiers for graded resolutions.

A DegreeCollection assigns to every homological index i a set of admissible
generating degrees.  Built-in shapes: the staircase pattern of s-Koszul
algebras (i*s/2 for even i, (i-1)*s/2 + 1 for odd i; s = 2 gives the
linear pattern {i}), its down-closure, and explicit finite lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Sequence

from .algebra import GroebnerBasis
from .errors import InfiniteCollectionError, PathAlgError
from .oracle import ResolutionReport
from .overlaps import OverlapTable


def s_koszul_degree(s: int, i: int) -> int:
    """Generating degree of the i-th resolution term over an s-Koszul algebra."""
    if s < 2 or i < 0:
        raise PathAlgError("need s >= 2 and i >= 0")
    return (i * s) // 2 if i % 2 == 0 else ((i - 1) * s) // 2 + 1


@dataclass(frozen=True)
class DegreeCollection:
    """Levelwise sets of admissible degrees, with decidable membership."""

    kind: str
    s: int | None = None
    floor: int | None = None
    explicit: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def linear(cls) -> "DegreeCollection":
        """The linear pattern {i}: the 2-staircase."""
        return cls.s_pattern(2)

    @classmethod
    def s_pattern(cls, s: int) -> "DegreeCollection":
        return cls("s_pattern", s=s)

    @classmethod
    def s_downset(cls, s: int, floor: int | None = 0) -> "DegreeCollection":
        """All degrees <= the staircase value (bounded below by `floor`, None = unbounded)."""
        return cls("s_downset", s=s, floor=floor)

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "DegreeCollection":
        return cls("explicit", explicit=tuple(tuple(sorted(set(l))) for l in lists))

    def contains(self, i: int, j: int) -> bool:
        if self.kind == "s_pattern":
            return j == s_koszul_degree(self.s, i)  # type: ignore[arg-type]
        if self.kind == "s_downset":
            top = s_koszul_degree(self.s, i)  # type: ignore[arg-type]
            return j <= top and (self.floor is None or j >= self.floor)
        assert self.explicit is not None
        if i >= len(self.explicit):
            return False
        return j in self.explicit[i]

    def members(self, i: int) -> tuple[int, ...]:
        if self.kind == "s_pattern":
            return (s_koszul_degree(self.s, i),)  # type: ignore[arg-type]
        if self.kind == "s_downset":
            if self.floor is None:
                raise InfiniteCollectionError("down-set collection has no finite listing without a floor")
            top = s_koszul_degree(self.s, i)  # type: ignore[arg-type]
            return tuple(range(self.floor, top + 1))
        assert self.explicit is not None
        return self.explicit[i] if i < len(self.explicit) else ()


def collection_tensor(a: DegreeCollection, b: DegreeCollection, i: int) -> tuple[int, ...]:
    """Level-i sumset of two collections: union over j+k=i of {n+m}."""
    out: set[int] = set()
    for j in range(i + 1):
        k = i - j
        for n in a.members(j):
            for m in b.members(k):
                out.add(n + m)
    return tuple(sorted(out))


@dataclass(frozen=True)
class SKoszulCertificate:
    s: int
    max_tip_length: object
    min_level1: object
    max_level2: object

    @property
    def holds(self) -> bool:
        return all(self.conditions().values())

    def conditions(self) -> dict[str, bool]:
        return {
            "tip_length_at_most_s": self.max_tip_length <= self.s,  # type: ignore[operator]
            "level2_max_at_most_s_plus_1": self.max_level2 <= self.s + 1,  # type: ignore[operator]
            "level1_min_equals_s": self.min_level1 == self.s,
        }


def s_koszul_criterion(gb: GroebnerBasis, s: int, table: OverlapTable) -> SKoszulCertificate:
    """Sufficient test: tips of length exactly s and level-2 overlaps of length <= s+1.

    Requires a complete basis (refuses to certify from a truncated one) and
    a chain table of depth >= 2 for the same tips.
    """
    gb.require_complete()
    if s < 2:
        raise PathAlgError("need s >= 2")
    if table.depth < 2:
        raise PathAlgError("the chain table must reach level 2")
    if tuple(table.patterns) != tuple(gb.tips):
        raise PathAlgError("the chain table was built for a different tip set")
    max_tip = max((t.length for t in gb.tips), default=-inf)
    mino1, _maxo1, _, _ = table.extrema(1)
    _, maxo2, _, _ = table.extrema(2)
    return SKoszulCertificate(s, max_tip, mino1, maxo2)


@dataclass(frozen=True)
class DeterminedViolation:
    index: int
    degree: int


def determined_check(
    report: ResolutionReport, collection: DegreeCollection, r: int
) -> tuple[bool, DeterminedViolation | None]:
    """True iff every oracle generating degree of P_i lies in the collection, i <= r."""
    if r > report.max_n:
        raise PathAlgError(f"oracle depth {report.max_n} < requested bound {r}")
    for i in range(r + 1):
        for d in report.degrees[i]:
            if not collection.contains(i, d):
                return False, DeterminedViolation(i, d)
    return True, None
