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

Cut decompositions are searched by brute force over segmentations and
serve as an independent membership oracle for the walks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotReducedError, PathAlgError
from .quiver import Path, Quiver, divides, divides_left, divides_right, is_reduced


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
    has_quasi: bool = True

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

    def quasi_length_bound(self, n: int) -> tuple:
        """Certified interval containing every level-n quasi-overlap length.

        Derived from the overlap extrema: [mino_n - len(S) + 1, maxo_n - 1],
        empty (lo > hi) when the overlap level is empty.
        """
        mino, maxo, _, _ = self.extrema(n)
        return (mino - self.pattern_length + 1, maxo - 1)


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
    pattern only at its end.
    """
    graph: dict[tuple, list[tuple]] = {}
    for t in {s.arrows[j:] for s in patterns for j in range(1, s.length)}:
        tail, out = Path(t), graph.setdefault(t, [])
        for s in patterns:
            for k in range(1, min(s.length - 1, len(t)) + 1):
                u = s.arrows[k:]
                if t[len(t) - k:] != s.arrows[:k] or u in out:
                    continue
                tu = Path(t + u)
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
                found[(Path(w.arrows + u), v)] = w
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
    table = OverlapTable(quiver, pats, has_quasi=quasi)
    table.levels.append({Path((a,)): None for a in quiver.arrows})
    for level in _walk({(s, None): s.prefix(1) for s in pats}, graph, max_level):
        table.levels.append({w: pred for (w, _v), pred in level.items()})
    splits = [(s.prefix(j), s.suffix(s.length - j)) for s in pats for j in range(1, s.length) if quasi]
    table.quasi_levels.append({(Path(vertex=v.target), v): None for v, _w in splits})
    table.quasi_levels += _walk({(w, v): Path(vertex=v.target) for v, w in splits}, graph, max_level)
    return table


@dataclass(frozen=True)
class Partition:
    """Cut pieces w = u1 v1 u2 ... v_{n-1} un (contexts v0 and the final vertex implicit)."""

    u: tuple[Path, ...]
    v: tuple[Path, ...]


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
    when n == 1).
    """
    if len(u_parts) != n or len(v_parts) != n - 1:
        return False
    v0 = context if context is not None else Path(vertex=w.source)
    pieces: list[Path] = []
    for i in range(n - 1):
        pieces += [u_parts[i], v_parts[i]]
    pieces.append(u_parts[n - 1])
    # The pieces must reassemble w.
    try:
        whole = pieces[0]
        for piece in pieces[1:]:
            whole = whole * piece
    except PathAlgError:
        return False
    if whole != w:
        return False
    if any(v.length < 1 for v in v_parts):
        return False
    min_n_for_nonempty_head = 2 if context is None else 1
    if n <= min_n_for_nonempty_head and u_parts[0].length == 0:
        return False
    vs = [v0] + list(v_parts) + [Path(vertex=w.target)]
    for i in range(1, n + 1):
        try:
            s = (vs[i - 1] * u_parts[i - 1]) * vs[i]
        except PathAlgError:
            return False
        if s not in patterns:
            return False
    # No stray pattern may straddle an interior v_i from both sides.
    for i in range(1, n):
        vi = vs[i]
        ui = u_parts[i - 1]
        next_block = u_parts[i] * vs[i + 1]
        for s in patterns:
            for split in range(1, s.length - vi.length):
                vpart = s.prefix(split)
                mid = Path(s.arrows[split:split + vi.length])
                upart = s.suffix(s.length - split - vi.length)
                if mid != vi:
                    continue
                if divides_left(upart, next_block) and divides_right(vpart, ui):
                    return False
    return True


def _segment(w: Path, start: int, stop: int) -> Path:
    if start == stop:
        at = w.arrows[start].source if start < w.length else w.target
        return Path(vertex=at)
    return Path(w.arrows[start:stop])


def all_partitions(
    w: Path,
    n: int,
    patterns: Iterable[Path],
    context: Path | None = None,
) -> Iterator[Partition]:
    """Every segmentation of w satisfying the cut conditions.

    Independent of the recursive enumeration: membership at level n is
    equivalent to a partition existing.  The search consumes w left to
    right, forcing each block v_{i-1} u_i v_i to be a pattern, so dead
    branches die immediately.
    """
    pats = _check_patterns(patterns)
    if n < 1:
        raise PathAlgError("partitions are defined for levels n >= 1")
    v0 = context if context is not None else Path(vertex=w.source)
    head_min = 2 if context is None else 1

    def rec(pos: int, i: int, prev_v: Path, u_acc: list[Path], v_acc: list[Path]):
        remaining = w.length - pos
        if i == n:
            u_n = _segment(w, pos, w.length)
            if n <= head_min and i == 1 and u_n.length == 0:
                return
            try:
                s = prev_v * u_n
            except PathAlgError:
                return
            if s in pats:
                cand_u, cand_v = tuple(u_acc + [u_n]), tuple(v_acc)
                if check_partition(w, n, pats, cand_u, cand_v, context):
                    yield Partition(cand_u, cand_v)
            return
        for lu in range(0, remaining):
            if i == 1 and n <= head_min and lu == 0:
                continue
            u_i = _segment(w, pos, pos + lu)
            try:
                base = prev_v * u_i
            except PathAlgError:
                continue
            for lv in range(1, remaining - lu + 1):
                v_i = _segment(w, pos + lu, pos + lu + lv)
                try:
                    s = base * v_i
                except PathAlgError:
                    continue
                if s in pats:
                    yield from rec(pos + lu + lv, i + 1, v_i, u_acc + [u_i], v_acc + [v_i])

    yield from rec(0, 1, v0, [], [])


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
