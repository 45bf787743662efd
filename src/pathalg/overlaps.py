"""Overlap chains of a reduced set of paths and their left-context variants.

Level 0 overlaps are the arrows and level 1 overlaps are the pattern set S
itself.  A level-n word is its level-(n-1) predecessor times a tail u, where
the predecessor's own tail t (the word with its predecessor removed) times u
meets a pattern only at its end (Anick, Trans. AMS 296, 1986).  Tails are
proper nonempty suffixes of patterns, so chains are walks in the finite
tail graph on them (Ufnarovski, Math. Notes 31, 1982).  The "quasi" side
carries a nonempty phantom left context v: level 1 entries are the proper
splits v*w of patterns, and deeper levels extend w along the same graph
while v stays fixed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Optional, Sequence

from .errors import NotReducedError, PathAlgError
# perfbench/tracing.py resolves `divides` through this module's __dict__; nothing here calls it.
from .quiver import Path, Quiver, divides, is_reduced  # noqa: F401


@dataclass
class OverlapTable:
    """Levelwise overlap and quasi-overlap words with predecessor links."""

    patterns: tuple[Path, ...]
    # levels[n] maps word -> its level-(n-1) predecessor; level 0 maps to None.
    levels: list[dict[Path, Optional[Path]]] = field(default_factory=list)
    # quasi_levels[n] maps (word, context) -> predecessor word (same context).
    quasi_levels: list[dict[tuple[Path, Path], Optional[Path]]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def pattern_length(self) -> int:
        return max((s.length for s in self.patterns), default=0)

    def overlaps(self, n: int) -> list[Path]:
        return sorted(self.levels[n], key=lambda p: (p.length, str(p)))

    def quasi(self, n: int) -> list[tuple[Path, Path]]:
        return sorted(self.quasi_levels[n], key=lambda wv: (wv[0].length, str(wv[0]), str(wv[1])))

    def extrema(self, n: int) -> tuple:
        """(min overlap len, max overlap len, min quasi len, max quasi len) with +-inf on empty levels."""
        if n > self.depth:
            raise PathAlgError(f"table depth {self.depth} < requested level {n}")
        olens = [w.length for w in self.levels[n]]
        qlens = [w.length for (w, _v) in self.quasi_levels[n]]
        return (min(olens, default=inf), max(olens, default=-inf), min(qlens, default=inf), max(qlens, default=-inf))


def compose_bounds(extrema_n: tuple, extrema_m: tuple, pattern_length: int) -> tuple:
    """Bounds at level n+m from overlap extrema at levels n and m.

    Returns (lower bound for min length, upper bound for max length), with
    saturating +-inf arithmetic on empty levels.
    """
    mino_n, maxo_n = extrema_n[0], extrema_n[1]
    mino_m, maxo_m = extrema_m[0], extrema_m[1]
    return (mino_n + mino_m - pattern_length + 1, maxo_n + maxo_m - 1)


def _check_patterns(patterns: Iterable[Path]) -> tuple[Path, ...]:
    pats = tuple(patterns)
    if not is_reduced(pats):
        raise NotReducedError("the pattern set must be reduced")
    return pats


def _tail_graph(patterns: Sequence[Path]) -> dict[tuple, list[tuple]]:
    """Edges t -> u of the tail graph, as arrow tuples, in pattern order and then k.

    The states t are the proper nonempty suffixes of the patterns.  An edge
    goes to u = s[k:] for a pattern s whose length-k prefix is a suffix of
    t (1 <= k <= min(|s| - 1, |t|)) when u is pattern-free and t*u meets a
    pattern only at its end.  One test on arrow tuples decides both: t*u
    less its last arrow is pattern-free.  A pattern inside u would end
    before u does, or be a proper factor of s, which a reduced set excludes.
    """
    words = {s.arrows for s in patterns}
    lengths = {len(s) for s in words}

    def free(word: tuple) -> bool:
        return not any(word[i:i + n] in words for n in lengths for i in range(len(word) - n + 1))

    graph: dict[tuple, list[tuple]] = {}
    for t in {s[j:] for s in words for j in range(1, len(s))}:
        out = graph.setdefault(t, [])
        for s in patterns:
            for k in range(1, min(s.length - 1, len(t)) + 1):
                u = s.arrows[k:]
                if t[len(t) - k:] == s.arrows[:k] and u not in out and free(t + u[:-1]):
                    out.append(u)
    return graph


def _walk(start: dict, graph: dict[tuple, list[tuple]], max_level: int) -> list[dict]:
    """Levels 1..max_level of the walks from `start`, a map (word, context) -> predecessor."""
    levels = [start] if max_level >= 1 else []
    while len(levels) < max_level:
        found = {}
        for (w, v), pred in levels[-1].items():
            for u in graph[w.arrows[pred.length:]]:
                found[(Path(w.source, u[-1].target, w.arrows + u), v)] = w
        levels.append(found)
    return levels


def enumerate_overlaps(
    quiver: Quiver,
    patterns: Iterable[Path],
    max_level: int,
    quasi: bool = True,
) -> OverlapTable:
    """Levels 0..max_level of plain and quasi chains, as walks over the tail graph.

    Plain chains start at level 1 as s with predecessor s.prefix(1) (tail
    s[1:]); quasi chains start as (w, v) with predecessor the vertex
    v.target (tail w), one for each split s = v*w, none when quasi is off.

    Predecessors are unique by construction.  A plain word has one level-1
    start, the pattern that is its prefix, and a quasi entry (w, v) one, the
    prefix w1 of w with v*w1 a pattern: two would divide each other in the
    reduced set.  After that, the pattern-free tail t fixes where the next
    prefix ends: where the earliest-ending pattern occurrence that starts in
    or after t ends.  So each (word, context) is reached by one walk only.
    """
    pats = _check_patterns(patterns)
    graph = _tail_graph(pats)
    table = OverlapTable(pats)
    table.levels.append({Path.of((a,)): None for a in quiver.arrows})
    for level in _walk({(s, None): s.prefix(1) for s in pats}, graph, max_level):
        table.levels.append({w: pred for (w, _v), pred in level.items()})
    splits = [(s.prefix(j), s.suffix(s.length - j)) for s in pats for j in range(1, s.length) if quasi]
    table.quasi_levels.append({(Path(v.target, v.target), v): None for v, _w in splits})
    table.quasi_levels += _walk({(w, v): Path(v.target, v.target) for v, w in splits}, graph, max_level)
    return table
