"""Independent checks on the program, run only by the tests.

- `check_admissible` probes both admissibility axioms of a term order by
  exhaustion over short paths.
- `module_normal_form` reduces a free-module element componentwise, and
  `ideal_membership` decides membership in a two-sided ideal by brute-force
  linear algebra over all paths (`ideal_span`, which multiplies elements
  by paths with `left_mul` and `right_mul`).
- `chain` reads a word's chain back along an overlap table's predecessor
  links.
- `reference_levels` lists a model's level tables as the model did
  through `normal_word_levels` (every extension compared with every tip,
  each parent found by its prefix, `rewritten` by a scan of every
  product), and `reference_block` lists a cover block by scanning whole
  levels and sorting, as `CoverSpace.block` did.
- `reference_minimal_resolution` resolves the presentation as given, by
  the routes that `pathalg.oracle.minimal_resolution` minimized and
  counted away: it spans X = cover/relations in a `Quotient`, takes P_0
  from the generator tops projected there, and for every step
  `full_kernel_pieces` takes a left nullspace of every (degree, vertex)
  block, and `reference_span_from_seeds` re-adds every kernel vector to
  keep those that enlarge the span.
- `reference_span_from_seeds` and `reference_kernel_pieces` build the
  spans that `span_from_seeds` and `kernel_pieces` build, but each block
  takes every arrow image of the block below through `Subspace.add`, in
  arrow-major order, with no image inserted unreduced, no full-block
  stop, and no stop once the span fills its cover: every block up to D is
  kept.

Cut decompositions w = u1 v1 ... v_{n-1} un serve as an independent
membership oracle for the walks.  They are searched as index cuts on the
arrows of v0*w: every block v_{i-1} u_i v_i is a pattern, and no
pattern straddles an interior v_i by starting inside u_i and ending inside
u_{i+1} v_{i+1}.  One predicate states these rules for both the search and
the validator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from pathalg.algebra import AlgebraElement, GroebnerBasis, ModuleElement, normal_form
from pathalg.errors import NotReducedError, PathAlgError
from pathalg.fields import Field
from pathalg.linalg import Subspace, left_nullspace
from pathalg.oracle import (
    CoverSpace,
    FreeSummand,
    GradedAlgebraModel,
    GradedPieces,
    ResolutionReport,
    minimal_generators_of_pieces,
    presentation_cover,
)
from pathalg.order import OrderSpec
from pathalg.overlaps import OverlapTable
from pathalg.presentation import ModulePresentation
from pathalg.quiver import Arrow, Path, Quiver, divides, is_reduced, normal_word_levels

LT, EQ, GT = -1, 0, 1


def divides_left(p: Path, q: Path) -> bool:
    """p | q with q = p * v."""
    return p.source == q.source and q.arrows[:p.length] == p.arrows


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


def module_normal_form(m: ModuleElement, gb: GroebnerBasis) -> ModuleElement:
    """Componentwise reduction; zero exactly when m lies in (free module) * I.

    Terms are reduced in groups of one generator and one target vertex, the
    parallel pieces that normal forms act on.
    """
    by_part: dict[tuple[int, str], dict[Path, object]] = {}
    for (i, p), c in m.terms.items():
        by_part.setdefault((i, p.target), {})[p] = c
    out: dict[tuple[int, Path], object] = {}
    for (i, _v), terms in by_part.items():
        red = normal_form(AlgebraElement(terms), gb, gb.order)
        for p, c in red.terms.items():
            out[(i, p)] = c
    return ModuleElement(out)


def left_mul(x: AlgebraElement, u: Path) -> AlgebraElement:
    return AlgebraElement({u * p: c for p, c in x.terms.items() if u.target == p.source})


def right_mul(x: AlgebraElement, v: Path) -> AlgebraElement:
    return AlgebraElement({p * v: c for p, c in x.terms.items() if p.target == v.source})


def ideal_span(generators: Sequence[AlgebraElement], quiver: Quiver, field: Field, d: int) -> Subspace:
    """The degree-d piece of the two-sided ideal the homogeneous generators produce.

    Column i is path i of `quiver.paths_of_length(d)`; the rows span every
    u * g * v of length d over paths u and v.  Brute force over all paths,
    independent of any Groebner data.
    """
    levels = list(itertools.islice(normal_word_levels(quiver, ()), d + 1))
    idx = {p: i for i, p in enumerate(levels[d])}
    span = Subspace(field)
    for g in generators:
        if not g:
            continue
        dg = g.degree()
        if dg > d:
            continue
        for i in range(d - dg + 1):
            for u in levels[i]:
                left = left_mul(g, u)
                if not left:
                    continue
                for v in levels[d - dg - i]:
                    gv = right_mul(left, v)
                    if gv:
                        span.add({idx[p]: c for p, c in ((p, field.of(c)) for p, c in gv.terms.items()) if c})
    return span


def ideal_membership(x: AlgebraElement, generators: Sequence[AlgebraElement], quiver: Quiver, field: Field) -> bool:
    """Exact degreewise membership of x in the two-sided ideal the generators produce (see `ideal_span`)."""
    if not x:
        return True
    if not x.is_homogeneous():
        raise PathAlgError("membership oracle expects a homogeneous element")
    d = x.degree()
    idx = {p: i for i, p in enumerate(quiver.paths_of_length(d))}
    vec = {idx[p]: c for p, c in ((p, field.of(c)) for p, c in x.terms.items()) if c}
    return ideal_span(generators, quiver, field, d).contains(vec)


def chain(table: OverlapTable, n: int, w: Path, i: int, context: Path | None = None) -> Path:
    """The level-i left divisor of the level-n word w (0 <= i <= n), of the quasi entry (w, context) if given."""
    for level in range(n, i, -1):
        w = table.levels[level][w] if context is None else table.quasi_levels[level][(w, context)]
    return w


# The partition oracle is called many times with one pattern set.
_is_reduced = lru_cache(maxsize=64)(is_reduced)


def _check_patterns(patterns: Iterable[Path]) -> tuple[Path, ...]:
    pats = tuple(patterns)
    if not _is_reduced(pats):
        raise NotReducedError("the pattern set must be reduced")
    return pats


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


def reference_levels(quiver: Quiver, gb: GroebnerBasis, degree_cap: int):
    """(basis, parent, ranks, rewritten) to degree_cap, as `GradedAlgebraModel` names them.

    Levels come from `normal_word_levels`; a word's parent is its prefix
    looked up in the level below, and `rewritten` scans every product of a
    word and an arrow for those that are not normal.
    """
    levels = normal_word_levels(quiver, gb.tips)
    arrow_no = {a: k for k, a in enumerate(quiver.arrows)}
    rank = [gb.order.arrow_rank[a.name] for a in quiver.arrows]
    basis, index, parents, all_ranks, rewritten = [], [], [], [], []
    for d in range(degree_cap + 1):
        level = next(levels)
        basis.append(level)
        index.append({w: i for i, w in enumerate(level)})
        if not d:
            parents.append([])
            all_ranks.append([()] * len(level))
            continue
        prev, ranks = index[d - 1], all_ranks[d - 1]
        parent = [(prev[w.prefix(d - 1)], arrow_no[w.arrows[-1]]) for w in level]
        parents.append(parent)
        all_ranks.append([ranks[i] + (rank[k],) for i, k in parent])
        normal = set(parent)
        # Products of one length: the greater rank word is the smaller product.
        rewritten.append(sorted(
            [(i, k) for i, w in enumerate(basis[d - 1]) for k, a in enumerate(quiver.arrows)
             if a.source == w.target and (i, k) not in normal],
            key=lambda ik: ranks[ik[0]] + (rank[ik[1]],), reverse=True))
    return basis, parents, all_ranks, rewritten


def reference_block(model: GradedAlgebraModel, summands: Sequence[FreeSummand], d: int, v: str) -> list[tuple[int, int]]:
    """The coordinates (summand, word number) of block (d, v) of the free module on `summands`, greatest first.

    Each summand's whole level is scanned for words to v, and the
    coordinates are sorted: longer word first, then greater word, then
    greater summand number.
    """
    cols: list[tuple[int, int]] = []
    for j, s in enumerate(summands):
        length = d - s.degree
        if 0 <= length <= model.degree_cap:
            cols.extend((j, i) for i, w in enumerate(model.basis[length]) if w.source == s.vertex and w.target == v)
    degrees = [s.degree for s in summands]
    cols.sort(key=lambda ji: (degrees[ji[0]] - d, model.ranks[d - degrees[ji[0]]][ji[1]], -ji[0]))
    return cols


def _add_every_arrow_image(space, pieces: GradedPieces, sub: Subspace, d: int, v: str) -> None:
    """Add to `sub`, block (d, v) of `pieces`, the degree d-1 rows' images under every arrow into v, arrow-major."""
    for k, a in enumerate(space.model.quiver.arrows):
        if a.target != v:
            continue
        prev = pieces.get(d - 1, a.source)
        if prev is None:
            continue
        for row in prev.rows:
            img = space.act(d - 1, k, row)
            if img:
                sub.add(img)


def reference_span_from_seeds(space, seeds: Iterable[tuple[int, str, dict]], D: int) -> GradedPieces:
    """`span_from_seeds` with every arrow image reduced through `Subspace.add`."""
    by_slot: dict[tuple[int, str], list[dict]] = {}
    for d, v, vec in seeds:
        by_slot.setdefault((d, v), []).append(vec)
    pieces = GradedPieces(space)
    for d in range(min((d for d, _v in by_slot), default=D + 1), D + 1):
        for v in space.model.quiver.vertices:
            if not space.dim(d, v):
                continue
            sub = pieces.ensure(d, v)
            _add_every_arrow_image(space, pieces, sub, d, v)
            for vec in by_slot.get((d, v), []):
                if sub.add(vec):
                    pieces.generators.append((d, v, vec))
    return pieces


def _block_images(phi: dict, model: GradedAlgebraModel, ambient, images: Sequence[dict], degrees: Sequence[int],
                  cols: Sequence[tuple[int, int]], d: int) -> list[dict]:
    """The ambient image of each column (j, i) of a degree-d block, from those one degree down in `phi`, kept there."""
    rows = []
    for j, i in cols:
        length = d - degrees[j]
        if length == 0:
            img = images[j]
        else:
            i0, k = model.parent[length][i]
            img = ambient.act(d - 1, k, phi[(j, length - 1, i0)])
        phi[(j, length, i)] = img
        rows.append(img)
    return rows


def reference_kernel_pieces(domain: CoverSpace, images: Sequence[dict], ambient, dims, D: int) -> GradedPieces:
    """`kernel_pieces` with every arrow image reduced through `Subspace.add`, and its count check."""
    model = domain.model
    pieces = GradedPieces(domain)
    if not domain.summands:
        return pieces
    degrees = [s.degree for s in domain.summands]
    phi: dict[tuple[int, int, int], dict] = {}
    for d in range(min(degrees), D + 1):
        for v in model.quiver.vertices:
            cols, _ = domain.block(d, v)
            if not cols:
                continue
            rows = _block_images(phi, model, ambient, images, degrees, cols, d)
            sub = pieces.ensure(d, v)
            _add_every_arrow_image(domain, pieces, sub, d, v)
            want = dims.get((d, v), 0)
            if sub.dim < want:
                for combo in left_nullspace(rows, model.field):
                    if sub.add(combo):
                        pieces.generators.append((d, v, combo))
            if sub.dim != want:
                raise PathAlgError(f"kernel block ({d}, {v}) spans dim {sub.dim}, but its count is {want}")
    return pieces


def full_kernel_pieces(domain: CoverSpace, images: Sequence[dict], ambient, D: int) -> list[tuple[int, str, dict]]:
    """A basis of ker(free cover -> ambient) in each block up to degree D, as (degree, vertex, vector) seeds.

    f_j maps to images[j]; kernel vectors live over the domain coordinates.
    Raises PathAlgError if a kernel vector touches a generator-top
    coordinate, which would mean the chosen generators were not minimal.
    """
    model = domain.model
    out: list[tuple[int, str, dict]] = []
    if not domain.summands:
        return out
    degrees = [s.degree for s in domain.summands]
    # (summand, word degree, word number) -> image in the ambient space.
    phi: dict[tuple[int, int, int], dict] = {}
    for d in range(min(degrees), D + 1):
        for v in model.quiver.vertices:
            cols, _ = domain.block(d, v)
            if not cols:
                continue
            rows = _block_images(phi, model, ambient, images, degrees, cols, d)
            for combo in left_nullspace(rows, model.field):
                if any(degrees[cols[n][0]] == d for n in combo):
                    raise PathAlgError("kernel meets a generator top: cover was not minimal")
                out.append((d, v, combo))
    return out


class Quotient:
    """A graded quotient of a CoverSpace by its `GradedPieces`: vectors keep the cover's columns, projected by residue."""

    def __init__(self, cover: CoverSpace, sub: GradedPieces):
        self.cover, self.sub, self.model = cover, sub, cover.model

    def dim(self, d: int, v: str) -> int:
        return self.cover.dim(d, v) - self.sub.dim(d, v)

    def residue(self, d: int, v: str, vec: dict) -> dict:
        """The projection of a cover vector of block (d, v)."""
        space = self.sub.get(d, v)
        return space.residue(vec) if vec and space is not None else vec

    def act(self, d: int, k: int, vec: dict) -> dict:
        return self.residue(d + 1, self.model.quiver.arrows[k].target, self.cover.act(d, k, vec))


def reference_minimal_resolution(pres: ModulePresentation, model: GradedAlgebraModel, N: int, D: int) -> ResolutionReport:
    """`minimal_resolution` of the presentation as given: X spanned, and a left nullspace of every kernel block."""
    if D > model.degree_cap:
        raise PathAlgError("resolution degree cap exceeds the model cap")
    for g in pres.generators:
        if g.degree > D:
            raise PathAlgError(f"generator {g.name} at degree {g.degree} lies above the degree cap {D}")
    cover, seeds = presentation_cover(pres, model)
    X = Quotient(cover, reference_span_from_seeds(cover, seeds, D))

    # Homological step 0: the summand tops, projected into X, generate it.
    one = model.field.one
    tops = []
    for j, s in enumerate(cover.summands):
        [(d, v, vec)] = cover.from_terms({(j, Path(s.vertex, s.vertex)): one})
        tops.append((d, v, X.residue(d, v, vec)))
    gens = reference_span_from_seeds(X, tops, D).generators

    degrees: list[list[int]] = []
    covers: list[tuple[FreeSummand, ...]] = []
    syzygy_dims: list[list[int]] = []
    alive: list[bool] = []

    ambient = X
    degrees.append(sorted(d for d, _v, _vec in gens))
    zero_tail_from = None

    for n in range(N + 1):
        cover = tuple(FreeSummand(v, d) for d, v, _vec in gens)
        covers.append(cover)
        images = [vec for _d, _v, vec in gens]
        domain = CoverSpace(model, cover)
        if not cover:
            if zero_tail_from is None:
                zero_tail_from = n
            degrees.extend([[]] * (N - n))
            alive.extend([False] * (N - n + 1))
            syzygy_dims.extend([[0] * (D + 1)] * (N - n + 1))
            break
        ker = full_kernel_pieces(domain, images, ambient, D)
        dims = [0] * (D + 1)
        for d, _v, _vec in ker:
            dims[d] += 1
        syzygy_dims.append(dims)
        alive.append(dims[D] > 0)
        if n == N:
            break
        gens = minimal_generators_of_pieces(domain, ker, D)
        degrees.append(sorted(d for d, _v, _vec in gens))
        ambient = domain

    return ResolutionReport(
        degrees=degrees,
        hilbert=[sum(X.dim(d, v) for v in model.quiver.vertices) for d in range(D + 1)],
        max_n=N,
        degree_cap=D,
        covers=covers,
        syzygy_dims=syzygy_dims,
        alive_at_cap=alive,
        zero_tail_from=zero_tail_from,
    )
