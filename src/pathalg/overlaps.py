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

Cut decompositions w = u1 v1 ... v_{n-1} un serve as an independent
membership oracle for the walks.  They are searched as index cuts on the
arrows of v0*w: every block v_{i-1} u_i v_i is a pattern, and no
pattern straddles an interior v_i by starting inside u_i and ending inside
u_{i+1} v_{i+1}.  One predicate states these rules for both the search and
the validator.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import inf
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotReducedError, PathAlgError
from .quiver import Arrow, Path, Quiver, divides, is_reduced


def tail_is_pattern_free(q: Path, p: Path, patterns: Sequence[Path]) -> bool:
    """With p = q * u, true when no pattern divides the tail u."""
    u = p.drop_prefix(q)
    return not any(divides(s, u) for s in patterns)


def tail_first_hit_at_end(q: Path, p: Path, patterns: Sequence[Path]) -> bool:
    """With p = q * u: u contains a pattern, but every proper prefix of u is clean.

    Equivalently the earliest pattern occurrence in u ends exactly at the end
    of p; for a reduced pattern set this means a unique pattern is a suffix
    of u and nothing shorter hits.
    """
    if tail_is_pattern_free(q, p, patterns):
        return False
    # Every proper prefix of u is clean when the longest one is.
    u = p.drop_prefix(q)
    longest = u.prefix(u.length - 1)
    return not any(divides(s, longest) for s in patterns)


@dataclass
class OverlapTable:
    """Levelwise overlap and quasi-overlap words with predecessor links."""

    quiver: Quiver
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

    def predecessor(self, n: int, w: Path) -> Optional[Path]:
        return self.levels[n][w]

    def quasi_predecessor(self, n: int, w: Path, v: Path) -> Optional[Path]:
        return self.quasi_levels[n][(w, v)]

    def chain(self, n: int, w: Path, i: int) -> Path:
        """The unique level-i left divisor of the level-n word w (0 <= i <= n)."""
        cur, level = w, n
        while level > i:
            cur = self.levels[level][cur]  # type: ignore[assignment]
            level -= 1
        return cur

    def quasi_chain(self, n: int, w: Path, v: Path, i: int) -> Path:
        cur, level = w, n
        while level > i:
            cur = self.quasi_levels[level][(cur, v)]  # type: ignore[assignment]
            level -= 1
        return cur

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


# The partition oracle is called many times with one pattern set.
_is_reduced = lru_cache(maxsize=64)(is_reduced)


def _check_patterns(patterns: Iterable[Path]) -> tuple[Path, ...]:
    pats = tuple(patterns)
    if not _is_reduced(pats):
        raise NotReducedError("the pattern set must be reduced")
    return pats


def _tail_graph(patterns: Sequence[Path]) -> dict[tuple, list[tuple]]:
    """Edges t -> u of the tail graph, as arrow tuples, in pattern order and then k.

    The states t are the proper nonempty suffixes of the patterns.  An edge
    goes to u = s[k:] for a pattern s whose length-k prefix is a suffix of
    t (1 <= k <= min(|s| - 1, |t|)) when u is pattern-free and t*u meets a
    pattern only at its end.
    """
    graph: dict[tuple, list[tuple]] = {}
    for t in {s.arrows[j:] for s in patterns for j in range(1, s.length)}:
        tail, out = Path.of(t), graph.setdefault(t, [])
        for s in patterns:
            for k in range(1, min(s.length - 1, len(t)) + 1):
                u = s.arrows[k:]
                if t[len(t) - k:] != s.arrows[:k] or u in out:
                    continue
                tu = Path.of(t + u)
                if tail_is_pattern_free(tail, tu, patterns) and tail_first_hit_at_end(tu.prefix(0), tu, patterns):
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
    table = OverlapTable(quiver, pats)
    table.levels.append({Path.of((a,)): None for a in quiver.arrows})
    for level in _walk({(s, None): s.prefix(1) for s in pats}, graph, max_level):
        table.levels.append({w: pred for (w, _v), pred in level.items()})
    splits = [(s.prefix(j), s.suffix(s.length - j)) for s in pats for j in range(1, s.length) if quasi]
    table.quasi_levels.append({(Path(v.target, v.target), v): None for v, _w in splits})
    table.quasi_levels += _walk({(w, v): Path(v.target, v.target) for v, w in splits}, graph, max_level)
    return table


@dataclass(frozen=True)
class Partition:
    """Cut pieces w = u1 v1 u2 ... v_{n-1} un (contexts v0 and the final vertex implicit)."""

    u: tuple[Path, ...]
    v: tuple[Path, ...]


def _is_cut(full: tuple[Arrow, ...], cuts: Sequence[tuple[int, int]], words: set, plain: bool) -> bool:
    """The cut conditions on `full`, the arrows of v0*w, with `words` the patterns' arrows.

    cuts[i] = (a_i, b_i) brackets v_i = full[a_i:b_i]: cuts[0] brackets the
    context v0 and cuts[n] is the empty word at the end.  So u_i is
    full[b_{i-1}:a_i] and block i is v_{i-1} u_i v_i = full[a_{i-1}:b_i].
    Every block is a pattern, every interior v_i is nonempty, u_1 is
    nonempty when n <= 2 (plain) or n <= 1 (with a context), and no
    pattern straddles an interior v_i: none occurs at full[x:y] with
    b_{i-1} <= x < a_i and b_i < y <= b_{i+1}.
    """
    n = len(cuts) - 1
    if n <= (2 if plain else 1) and cuts[1][0] <= cuts[0][1]:
        return False
    if any(b <= a for a, b in cuts[1:n]):
        return False
    if any(full[cuts[i - 1][0]:cuts[i][1]] not in words for i in range(1, n + 1)):
        return False
    return not any(
        full[x:y] in words
        for i in range(1, n)
        for x in range(cuts[i - 1][1], cuts[i][0])
        for y in range(cuts[i][1] + 1, cuts[i + 1][1] + 1)
    )


def check_partition(
    w: Path,
    n: int,
    patterns: Sequence[Path],
    u_parts: Sequence[Path],
    v_parts: Sequence[Path],
    context: Path | None = None,
) -> bool:
    """Validate the cut conditions for the given pieces.

    `context` None means the plain overlap reading (v0 is the source
    vertex; the first piece must be nonempty when n <= 2); a nonempty
    context means the quasi reading (first piece must be nonempty only
    when n == 1).  The pieces must compose to exactly v0*w; their lengths
    then give the cuts that `_is_cut` judges.  Like `find_partition`, it
    raises NotReducedError when the pattern set is not reduced.
    """
    patterns = _check_patterns(patterns)
    if len(u_parts) != n or len(v_parts) != n - 1:
        return False
    v0 = context if context is not None else Path(w.source, w.source)
    ends = [*v_parts, Path(w.target, w.target)]
    try:
        whole = v0
        for u, v in zip(u_parts, ends):
            whole = whole * u * v
        if whole != v0 * w:
            return False
    except PathAlgError:
        return False
    cuts = [(0, v0.length)]
    for u, v in zip(u_parts, ends):
        a = cuts[-1][1] + u.length
        cuts.append((a, a + v.length))
    return _is_cut(whole.arrows, cuts, {s.arrows for s in patterns}, context is None)


def all_partitions(
    w: Path,
    n: int,
    patterns: Iterable[Path],
    context: Path | None = None,
) -> Iterator[Partition]:
    """Every cut decomposition of w at level n, ordered by its cuts.

    Independent of the tail-graph walks: membership at level n is
    equivalent to a partition existing.  The search places the cuts
    (a_i, b_i) on v0*w left to right, a ascending and then b, keeps a cut
    only when the block it closes is a pattern, and judges each full set
    of cuts with the predicate that `check_partition` uses.
    """
    pats = _check_patterns(patterns)
    if n < 1:
        raise PathAlgError("partitions are defined for levels n >= 1")
    v0 = context if context is not None else Path(w.source, w.source)
    if v0.target != w.source:
        return
    full, words = v0.arrows + w.arrows, {s.arrows for s in pats}
    end = len(full)

    def piece(start: int, stop: int) -> Path:
        """full[start:stop] inside w as a Path, a vertex when empty."""
        return w.suffix(end - start).prefix(stop - start)

    def extend(cuts: list[tuple[int, int]]) -> Iterator[Partition]:
        if len(cuts) == n:
            cuts = cuts + [(end, end)]
            if _is_cut(full, cuts, words, context is None):
                yield Partition(tuple(piece(cuts[i - 1][1], cuts[i][0]) for i in range(1, n + 1)),
                                tuple(piece(a, b) for a, b in cuts[1:n]))
            return
        for a in range(cuts[-1][1], end):
            for b in range(a + 1, end + 1):
                if full[cuts[-1][0]:b] in words:
                    yield from extend(cuts + [(a, b)])

    yield from extend([(0, v0.length)])


def find_partition(
    w: Path,
    n: int,
    patterns: Iterable[Path],
    context: Path | None = None,
) -> Partition | None:
    """First partition found, or None when no valid segmentation exists."""
    for part in all_partitions(w, n, patterns, context):
        return part
    return None
