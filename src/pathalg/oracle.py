"""Ground truth by exact graded linear algebra.

A GradedAlgebraModel holds the normal words of A = kQ/I per degree and the
right action of each arrow on them as integer tables; the oracle reads A
only through it, a presentation's relations included.  The words and
tables come from `algebra.Levels`: the model continues the levels that
`groebner_basis` grew, one elimination per degree, and reads each later
degree off the reduced basis.

Minimal graded projective resolutions are computed degreewise, per
(degree, target-vertex) block, in free modules over A (`CoverSpace`).
`span_from_seeds` spans seed vectors under the arrow action, giving each
block the arrow images of the degree below before its own seeds, so the
seeds that still enlarge a block are minimal generators of the span.
Each row carries a label (g, u), a generator and a normal word, and is
g*u plus terms of smaller labels, so a block takes the image of a row
under an arrow a only when u*a is a normal word, in ascending label order:
an image whose label word is not normal lies in the span of smaller
labels, as F5's rewrite criterion has it (Faugere 2002), carried to
submodules of free modules, whose leading terms behave monomially (Green
1999; Green, Solberg and Zacharia 2001).  An image whose lead is no pivot
yet goes in unreduced.  A span stops after a degree d at or above its
cover's top summand degree whose blocks are all full, as then every block
above d is the whole cover: a prefix of a normal word is normal, so every
cover column above d is a column of degree d times an arrow.

A presentation is first minimized by Tietze moves
(`ModulePresentation.minimal`), so its cover is P_0 and its relation span
is the first kernel.  Each later step spans the kernel of the cover of the
step before by the same rule, but counts first: in a block, dim ker is the
cover's dim less the image's.  `kernel_pieces` eliminates only a block
that the arrow images leave short of its count, where a generator is born,
and the last step only counts.

A block numbers its coordinates once; vectors are sparse dicts from those
numbers to exact scalars, and each arrow acts on a block through an
integer table.  Blocks, their dims and each arrow's table on a block are
made once per model and cover shape, so covers that differ by a degree
shift share them; a table's rows are built only when first read.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .algebra import GroebnerBasis, Levels, _walk
# perfbench/tracing.py resolves `normal_form` through this module's __dict__; nothing here calls it.
from .algebra import normal_form  # noqa: F401
from .errors import PathAlgError
from .linalg import Subspace, left_nullspace
from .presentation import ModulePresentation
from .quiver import Arrow, Path, Quiver


class GradedAlgebraModel:
    """Normal-word bases of A up to a degree cap, with the arrow action as integer tables.

    `basis[d]` lists the normal words of length d as `Path`s; a word's
    number is its place there.  `parent[d][i]` is (number of the word minus
    its last arrow, number of that arrow in `quiver.arrows`) for d >= 1,
    `ranks[d][i]` is the word's rank word: the precedence ranks of its
    arrows, 0 the greatest, and for d >= 1 `place[d][i]` is the word's place
    among the words of length d in descending term order, 0 the greatest.
    `rewritten[d]` lists the pairs (i, k) whose product, word i of length d
    times arrow number k, is not a normal word, in ascending term order of
    the product.  `between[d]` maps (source, target) to the
    numbers of the words of length d between them, in descending term
    order.  `field` is the field of the basis's order.

    All of these are read off `algebra.Levels`, whose rows come from one of
    two sources.  The degrees that `groebner_basis` grew were built by one
    elimination each, of the ideal generators' multiples.  The model
    continues those levels when they were grown over the quiver's vertices
    and arrows, and otherwise starts its own.  Either way it builds every
    further degree from the reduced basis (`Levels.use_basis`): a product
    w*a that a tip t ends, w*a = u*t, has the row u*(g - t) for t's element
    g, and no row is eliminated.  So a basis built by hand must be a
    reduced Groebner basis.  Its normal words are those of A only up to its
    degree bound, so a model of a truncated basis may not reach above it.

    The model keeps its cap, and `basis` reads the levels' `Path`s up to it,
    which the levels build from the parent links when they are first read;
    `dims` and the oracle read only the other lists.  The blocks, their
    dims and the arrow tables of the free modules over A (`CoverSpace`) are
    kept here too, one set per shape, so covers that differ only by a degree
    shift build them once, a table's rows when they are first read.  These
    `Path`s and cover tables are the model's only hidden state; `extend`
    drops the tables, as their blocks lack the words of the new degrees.
    """

    def __init__(self, quiver: Quiver, gb: GroebnerBasis, degree_cap: int):
        self.quiver = quiver
        self.gb = gb
        self.field = gb.order.field
        levels = gb.levels
        if levels is None or (levels.vertices, levels.arrows) != (quiver.vertices, quiver.arrows):
            levels = Levels(quiver.vertices, quiver.arrows, gb.order, ())
        self._levels = levels
        self.degree_cap = -1
        self._arrow_no = {a: k for k, a in enumerate(quiver.arrows)}
        # Cover shape -> (blocks, arrow tables, block dims),
        # shared by the CoverSpaces of that shape.
        self._covers: dict[tuple[tuple[str, int], ...], tuple[dict, dict, dict]] = {}
        self.extend(degree_cap)

    def extend(self, degree_cap: int) -> None:
        """Raise the cap to degree_cap; a lower value leaves the model as it is."""
        gb = self.gb
        if degree_cap > gb.degree_bound and not gb.complete:
            raise PathAlgError(f"a model to degree {degree_cap} needs a basis exact to it; this one is {gb.status}")
        if degree_cap <= self.degree_cap:
            return
        self._covers = {}  # blocks of the old cap lack the new words
        levels = self._levels
        if len(levels.ranks) <= degree_cap:
            levels.use_basis(gb.tips, gb.elements)
        while len(levels.ranks) <= degree_cap:
            levels.grow()
        # The levels may be shared and grow past this cap, so the model keeps its own lists of them.
        top = degree_cap + 1
        self.parent, self.ranks = levels.parent[:top], levels.ranks[:top]
        self.place = levels._place[:top]
        self.between, self.rewritten = levels.between[:top], levels.rewritten[:degree_cap]
        self._tables = levels.tables[:degree_cap]
        self.degree_cap = degree_cap

    @property
    def basis(self) -> list[list[Path]]:
        """The levels' `basis` up to the cap; a degree's `Path`s are built when first read."""
        return self._levels.basis[:self.degree_cap + 1]

    def dims(self) -> list[int]:
        return [len(level) for level in self.ranks]

    def act(self, w: Path, a: Arrow) -> dict[Path, object]:
        """Expansion of the class of w*a in the normal-word basis, read from the tables.

        w must be a normal word below the cap; anything else raises PathAlgError.
        """
        d, basis = w.length, self.basis
        try:
            i = (basis[d] if d < self.degree_cap else []).index(w)
        except ValueError:
            raise PathAlgError(f"{w} is not a normal word below the model cap {self.degree_cap}") from None
        nxt = basis[d + 1]
        return {nxt[j]: c for j, c in self.action(d, self._arrow_no[a])[i]}

    def expand(self, w: Path) -> dict[int, object]:
        """The class in A of a path up to the cap, as (word number of its length, scalar), read from the tables."""
        tables = (self.action(d, self._arrow_no[a]) for d, a in enumerate(w.arrows))
        return dict(_walk([(self.quiver.vertices.index(w.source), self.field.one)], tables, self.field.characteristic))

    def action(self, d: int, k: int) -> list[list[tuple[int, object]]]:
        """Arrow number k on degree d: for each word number, (word number in degree d+1, scalar) pairs."""
        return self._tables[d][k]


def _apply(table: tuple, vec: Mapping[int, object], p: int) -> dict[int, object]:
    """The image of a sparse vector under a block's arrow table, its scalars reduced mod p (0: over Q).

    A row still None is built here (`CoverSpace._tables`).
    """
    rows, cols, at, pos = table
    out: dict[int, object] = {}
    for col, c in vec.items():
        row = rows[col]
        if row is None:
            j, i = cols[col]
            to = pos[j]
            row = rows[col] = [(to[i2], x) for i2, x in at[j][i]]
        for col2, x in row:
            prev = out.get(col2)
            out[col2] = c * x if prev is None else prev + c * x
    if p:
        return {n: c for n, c in ((n, c % p) for n, c in out.items()) if c}
    return {n: c for n, c in out.items() if c}


def build_model(quiver: Quiver, gb: GroebnerBasis, degree_cap: int) -> GradedAlgebraModel:
    return GradedAlgebraModel(quiver, gb, degree_cap)


@dataclass(frozen=True)
class FreeSummand:
    vertex: str
    degree: int


class CoverSpace:
    """Graded pieces of a shifted free module over A, blocked by target vertex.

    Coordinate (j, i) of block (d, v) is summand j times word i of degree
    d - degree_j; a block lists its coordinates in descending module order
    (word first, then summand), so column 0 is the greatest.  A block
    walks the model's `between` lists of its summands, merging those of one
    degree that start at several vertices.  Its blocks, dims and arrow
    tables are the model's for the cover's shape, the summands'
    vertices and their degrees less the lowest, read at the degree less the
    lowest; a cover made before `extend` keeps those of the old cap, the
    rows of its tables too, which are built when first read (`_tables`).
    """

    def __init__(self, model: GradedAlgebraModel, summands: Sequence[FreeSummand]):
        self.model = model
        self.summands = tuple(summands)
        self._degrees = [s.degree for s in self.summands]
        self._low = low = min(self._degrees, default=0)
        shape = tuple((s.vertex, s.degree - low) for s in self.summands)
        self._blocks, self._actions, self._dims = model._covers.setdefault(shape, ({}, {}, {}))
        # Per degree, ascending: (vertex, its summand numbers, greatest first) pairs.
        groups: dict[int, dict[str, list[int]]] = {}
        for j in reversed(range(len(self.summands))):
            groups.setdefault(self._degrees[j], {}).setdefault(self.summands[j].vertex, []).append(j)
        self._groups = [(deg, list(at.items())) for deg, at in sorted(groups.items())]
        self._p = model.field.characteristic

    def block(self, d: int, v: str) -> tuple[list[tuple[int, int]], list[dict[int, int]]]:
        """The coordinates of block (d, v), and per summand its word numbers' column numbers."""
        key = (d - self._low, v)
        hit = self._blocks.get(key)
        if hit is not None:
            return hit
        model = self.model
        cols: list[tuple[int, int]] = []
        pos: list[dict[int, int]] = [{} for _ in self.summands]
        for deg, group in self._groups:
            length = d - deg
            if not 0 <= length <= model.degree_cap:
                continue
            between, ranks = model.between[length], model.ranks[length]
            run = [(i, js) for s, js in group for i in between.get((s, v), ())]
            if len(group) > 1:
                # Timsort merges the per-source runs, each in descending term order already.
                run.sort(key=lambda ijs: ranks[ijs[0]])
            for i, js in run:
                for j in js:
                    pos[j][i] = len(cols)
                    cols.append((j, i))
        hit = self._blocks[key] = (cols, pos)
        return hit

    def dim(self, d: int, v: str) -> int:
        """The size of block (d, v), counted from the model's `between` lists."""
        key = (d - self._low, v)
        n = self._dims.get(key)
        if n is None:
            model, n = self.model, 0
            for deg, group in self._groups:
                length = d - deg
                if 0 <= length <= model.degree_cap:
                    between = model.between[length]
                    n += sum(len(js) * len(between.get((s, v), ())) for s, js in group)
            self._dims[key] = n
        return n

    def _tables(self, d: int, k: int) -> tuple:
        """The arrow table of arrow number k on block (d, its source), made once per shape.

        It is (rows, the block's columns, per summand the model's table of
        the arrow at the summand's word length or None where the model has
        none, per summand the target block's column numbers of its words).
        Its rows start as None: `_apply` builds row n, for column n =
        (j, i), as the model's row of word i relabelled through the target
        block's column numbers of summand j.  So a row read after `extend`
        from a table made before it is the old cap's.
        """
        key = (d - self._low, k)
        hit = self._actions.get(key)
        if hit is None:
            model = self.model
            a = model.quiver.arrows[k]
            cols, _ = self.block(d, a.source)
            _, pos = self.block(d + 1, a.target)
            tables = model._tables
            at = [tables[d - deg][k] if 0 <= d - deg < len(tables) else None for deg in self._degrees]
            hit = self._actions[key] = ([None] * len(cols), cols, at, pos)
        return hit

    def act(self, d: int, k: int, vec: Mapping[int, object]) -> dict[int, object]:
        """Image under arrow number k of a vector of block (d, source of the arrow)."""
        return _apply(self._tables(d, k), vec, self._p)

    def from_terms(self, terms: Mapping[tuple[int, Path], object]) -> list[tuple[int, str, dict[int, object]]]:
        """The nonzero (degree, vertex, vector) parts of (summand, path) terms, each path read as its class in A."""
        model, p, of = self.model, self._p, self.model.field.of
        parts: dict[tuple[int, str], dict[int, object]] = {}
        for (j, w), c in terms.items():
            d = self.summands[j].degree + w.length
            pos = self.block(d, w.target)[1][j]
            part = parts.setdefault((d, w.target), {})
            c = of(c)
            for i, x in model.expand(w).items():
                n = pos[i]
                part[n] = part.get(n, 0) + c * x
        parts = {dv: {n: x for n, x in ((n, x % p if p else x) for n, x in vec.items()) if x}
                 for dv, vec in parts.items()}
        return [(d, v, vec) for (d, v), vec in parts.items() if vec]


class GradedPieces:
    """Per-(degree, vertex) subspaces of a free module over A, its `cover`.

    `generators` lists the (degree, vertex, vector) seeds that enlarged the
    span as `span_from_seeds` or `kernel_pieces` built it.  `labels[(d, v)]`
    holds a label (g, length, i) per row of block (d, v), in row order: the
    row descends from generator number g, times word i of that length
    (`_add_arrow_images`).  `full_from`, set only by `span_from_seeds`, is
    the first degree whose blocks it did not build because they are all the
    whole cover: a prefix of a normal word is normal, so once every block
    of a degree at or above the top summand degree is full, every cover
    column above it is in the span.  From `full_from` on, `dim` is the
    cover's and `get` finds no rows.
    """

    def __init__(self, cover: CoverSpace):
        self.cover = cover
        self.spaces: dict[tuple[int, str], Subspace] = {}
        self.labels: dict[tuple[int, str], list[tuple[int, int, int]]] = {}
        self.generators: list[tuple[int, str, dict]] = []
        self.full_from: int | None = None

    def get(self, d: int, v: str) -> Subspace | None:
        return self.spaces.get((d, v))

    def dim(self, d: int, v: str) -> int:
        if self.full_from is not None and d >= self.full_from:
            return self.cover.dim(d, v)
        s = self.get(d, v)
        return s.dim if s else 0

    def ensure(self, d: int, v: str) -> Subspace:
        key = (d, v)
        if key not in self.spaces:
            self.spaces[key] = Subspace(self.cover.model.field)
            self.labels[key] = []
        return self.spaces[key]

    def add_seed(self, d: int, v: str, vec: dict) -> None:
        """Add a vector to block (d, v); if it enlarges the block, it is the next generator.

        Its row is labelled with its generator number and the empty word at v.
        """
        if self.spaces[(d, v)].add(vec):
            self.labels[(d, v)].append((len(self.generators), 0, self.cover.model.quiver.vertices.index(v)))
            self.generators.append((d, v, vec))


def _add_arrow_images(cover: CoverSpace, pieces: GradedPieces, sub: Subspace, d: int, v: str) -> None:
    """Put into `sub`, the empty block (d, v) of `pieces`, the images of its degree d-1 rows that it needs.

    Each row carries a label (g, u): generator number g, in birth order,
    and a normal word u from g's vertex, the row being c*g*u plus terms of
    smaller labels, c a nonzero scalar.  Labels are ordered by g, then by
    the term order of u.  A row labelled (g, u) gives its image under an
    arrow a, labelled (g, u*a), only when u*a is a normal word: its row in
    the model's table is one word whose `parent` link is (u, a).  The
    images go in in ascending label order, each by `insert` when its lead
    is no pivot yet and by `add` otherwise, and a label goes with each
    image that enlarges the block.

    The block is still the whole degree-d part of the span (F5's rewrite
    criterion, Faugere 2002; leading terms of a submodule of a free module
    behave monomially, Green, Solberg and Zacharia 2001).  Write S(<l) for
    the span of the g*u with label below l.  If u*a is not normal, g*u*a is
    g*NF(u*a), whose words are less than u*a, so g*u*a lies in S(<(g, u*a));
    the term order is compatible with right multiplication, so S(<(g, u))*a
    lies there too, and the image of every row labelled (g, u) is in it.
    If no row is labelled (g, u), g*u was in S(<(g, u)), so g*u*a lies in
    S(<(g, u*a)) again.  A reduction uses only rows of smaller labels, so by
    induction on labels the rows up to each label l span the g*u up to l,
    and every g*u of degree d with u nonempty is one of these u*a times g.
    The generators born in a block come after its images, with the next
    numbers, and the empty word.
    """
    model, p, pivots = cover.model, cover._p, sub.row_of_pivot
    tables, parent, place = model._tables, model.parent, model.place
    runs = []
    for k, a in enumerate(model.quiver.arrows):
        if a.target != v:
            continue
        prev = pieces.get(d - 1, a.source)
        if prev is None:
            continue
        table = cover._tables(d - 1, k)
        # A run keeps its rows' label order: u < u' gives u*a < u'*a.
        run = []
        for row, (g, n, i) in zip(prev.rows, pieces.labels[(d - 1, a.source)]):
            step = tables[n][k][i]
            if len(step) == 1 and parent[n + 1][step[0][0]] == (i, k):
                run.append((g, n + 1, step[0][0], _apply(table, row, p)))
        if run:
            runs.append(run)
    if not runs:
        return
    if len(runs) > 1:
        # Ascending labels: generator number, then the word's place, descending.
        runs[0] = sorted(chain(*runs), key=lambda c: (c[0], -place[c[1]][c[2]]))
    labels = pieces.labels[(d, v)]
    for g, n, j, img in runs[0]:
        if img and (sub.add(img) if min(img) in pivots else sub.insert(img)):
            labels.append((g, n, j))


def presentation_cover(pres: ModulePresentation, model: GradedAlgebraModel):
    """The free cover of a presentation's generators and its relations, as (degree, vertex, vector) seeds."""
    pres.validate(model.quiver, model.degree_cap)
    cover = CoverSpace(model, [FreeSummand(g.vertex, g.degree) for g in pres.generators])
    seeds = []
    for r in pres.relations:
        seeds.extend(cover.from_terms(r.terms))
    return cover, seeds


def span_from_seeds(cover: CoverSpace, seeds: Iterable[tuple[int, str, dict]], D: int) -> GradedPieces:
    """Degreewise span of (degree, vertex, vector) seeds under the right arrow action, up to degree D.

    Each block takes the arrow images of the degree below before its own
    seeds, so the seeds that still enlarge it, kept in order in
    `generators`, minimally generate the span.  Of the images it takes
    only those whose label word times the arrow is a normal word, in
    ascending label order (`_add_arrow_images`); they span the same space
    as all of them, so each block's pivots and the generators do not depend
    on which rows the block keeps.

    The span stops after a degree d at or above the top summand degree
    whose blocks are all full, and sets `full_from` to d + 1.  Every cover
    column above d is a column of degree d times an arrow, as a prefix of
    a normal word is normal, so every block above d is the whole cover and
    no seed there can enlarge the span.
    """
    by_slot: dict[tuple[int, str], list[dict]] = {}
    for d, v, vec in seeds:
        by_slot.setdefault((d, v), []).append(vec)
    pieces = GradedPieces(cover)
    min_d = min((d for (d, _v) in by_slot), default=D + 1)
    top = max((s.degree for s in cover.summands), default=0)
    for d in range(min_d, D + 1):
        full = d >= top
        for v in cover.model.quiver.vertices:
            n = cover.dim(d, v)
            if not n:
                continue
            sub = pieces.ensure(d, v)
            _add_arrow_images(cover, pieces, sub, d, v)
            for vec in by_slot.get((d, v), []):
                pieces.add_seed(d, v, vec)
            full = full and sub.dim == n
        if full:
            pieces.full_from = d + 1
            break
    return pieces


# No pathalg module calls this: perfbench/tracing.py wraps it and tests/reference.py calls it.
def minimal_generators_of_pieces(cover: CoverSpace, seeds: Iterable[tuple[int, str, dict]],
                                 D: int) -> list[tuple[int, str, dict]]:
    """Minimal generators, up to degree D, of the submodule the seeds generate: the seeds that enlarge its span."""
    return span_from_seeds(cover, seeds, D).generators


def kernel_dims(domain: CoverSpace, image_dims: Mapping[tuple[int, str], int], D: int) -> dict[tuple[int, str], int]:
    """dim ker in each block up to degree D where it is nonzero: the domain's dim less the image's.

    image_dims maps (degree, vertex) to the dim of the image there, a missing
    block to 0.  Raises PathAlgError if an image outgrows its domain.
    """
    out: dict[tuple[int, str], int] = {}
    for d in range(D + 1):
        for v in domain.model.quiver.vertices:
            n = domain.dim(d, v) - image_dims.get((d, v), 0)
            if n < 0:
                raise PathAlgError(f"block ({d}, {v}): the image is larger than the domain")
            if n:
                out[(d, v)] = n
    return out


def _phi(memo: dict, model: GradedAlgebraModel, ambient: CoverSpace, images: Sequence[dict], degrees: Sequence[int],
         j: int, length: int, i: int) -> dict:
    """The image in the ambient space of cover coordinate (j, i): summand j times word i of the given length.

    Walks the word's parent links down to the summand's top or to an image
    in `memo`, then acts back up, keeping each image met in `memo`.
    """
    walk = []
    while length and (j, length, i) not in memo:
        i0, k = model.parent[length][i]
        walk.append((length, i, k))
        length, i = length - 1, i0
    img = memo[(j, length, i)] if length else images[j]
    for length, i, k in reversed(walk):
        img = ambient.act(degrees[j] + length - 1, k, img)
        memo[(j, length, i)] = img
    return img


def kernel_pieces(domain: CoverSpace, images: Sequence[dict], ambient: CoverSpace, dims: Mapping[tuple[int, str], int],
                  D: int) -> GradedPieces:
    """The span of ker(free cover -> ambient) in each block up to degree D, with its minimal generators.

    f_j maps to images[j], and dims holds the kernel's counted dims
    (`kernel_dims`).  A block takes the arrow images of the kernel one
    degree down by the labels of `span_from_seeds`, which span the same
    space as every image, so the count check below sees the whole span of
    the images.  Only a block that they leave short of its count, where a
    generator is born, is eliminated; its left null vectors that still
    enlarge it are minimal generators, kept in order in `generators` and
    labelled after the images.  Raises PathAlgError if a block's span ends at a
    dim other than its count (a count too small is seen only where the
    arrow images outgrow it), or if a kernel vector touches a generator-top
    coordinate, which would mean the chosen generators were not minimal.
    """
    model = domain.model
    pieces = GradedPieces(domain)
    if not domain.summands:
        return pieces
    degrees = [s.degree for s in domain.summands]
    # (summand, word degree, word number) -> image in the ambient space, for the eliminated blocks.
    phi: dict[tuple[int, int, int], dict] = {}
    for d in range(min(degrees), D + 1):
        for v in model.quiver.vertices:
            cols, _ = domain.block(d, v)
            if not cols:
                continue
            sub = pieces.ensure(d, v)
            _add_arrow_images(domain, pieces, sub, d, v)
            want = dims.get((d, v), 0)
            if sub.dim < want:
                rows = [_phi(phi, model, ambient, images, degrees, j, d - degrees[j], i) for j, i in cols]
                for combo in left_nullspace(rows, model.field):
                    if any(degrees[cols[n][0]] == d for n in combo):
                        raise PathAlgError("kernel meets a generator top: cover was not minimal")
                    pieces.add_seed(d, v, combo)
            if sub.dim != want:
                raise PathAlgError(f"kernel block ({d}, {v}) spans dim {sub.dim}, but its count is {want}")
    return pieces


@dataclass
class ResolutionReport:
    """Generating degrees per homological index, with the certified envelope."""

    degrees: list[list[int]]
    hilbert: list[int]
    max_n: int
    degree_cap: int
    covers: list[tuple[FreeSummand, ...]]
    syzygy_dims: list[list[int]] = dc_field(default_factory=list)
    alive_at_cap: list[bool] = dc_field(default_factory=list)
    zero_tail_from: int | None = None

    @property
    def truncated(self) -> bool:
        return any(self.alive_at_cap)


def minimal_resolution(pres: ModulePresentation, model: GradedAlgebraModel, N: int, D: int) -> ResolutionReport:
    """Minimal graded projective resolution of X = coker(relations) out to P_N, degrees <= D.

    The presentation is validated, then minimized (`ModulePresentation.minimal`):
    P_0 is the minimized presentation's cover, and ker(P_0 -> X) is its
    relation span R, so X's dims are P_0's less R's and P_1's generators are
    the relation seeds that enlarged R.  P_{n+1} covers ker(P_n -> P_{n-1})
    for n >= 1; its dims are counted (`kernel_dims`) from the image dims,
    which are ints kept from the step before, and `kernel_pieces` spans it
    to find the generators.  ker(P_N -> P_{N-1}) is only counted.

    Every generator must lie at or below D: one above it would be left out
    of P_0 unseen, so it raises PathAlgError.
    """
    if D > model.degree_cap:
        raise PathAlgError("resolution degree cap exceeds the model cap")
    for g in pres.generators:
        if g.degree > D:
            raise PathAlgError(f"generator {g.name} at degree {g.degree} lies above the degree cap {D}")
    pres.validate(model.quiver, model.degree_cap)
    domain, seeds = presentation_cover(pres.minimal(model.quiver, model.field), model)
    relations = span_from_seeds(domain, seeds, D)
    vertices = model.quiver.vertices
    # The image of P_0 is X; the image of each later P_n is the kernel before it.
    image_dims = {(d, v): domain.dim(d, v) - relations.dim(d, v) for d in range(D + 1) for v in vertices}
    hilbert = [sum(image_dims[(d, v)] for v in vertices) for d in range(D + 1)]

    degrees = [[s.degree for s in domain.summands]]
    covers: list[tuple[FreeSummand, ...]] = []
    syzygy_dims: list[list[int]] = []
    alive: list[bool] = []
    zero_tail_from = None
    for n in range(N + 1):
        covers.append(domain.summands)
        if not domain.summands:
            zero_tail_from = n
            degrees.extend([[]] * (N - n))
            alive.extend([False] * (N - n + 1))
            syzygy_dims.extend([[0] * (D + 1)] * (N - n + 1))
            break
        ker = kernel_dims(domain, image_dims, D)
        dims = [0] * (D + 1)
        for (d, _v), k in ker.items():
            dims[d] += k
        syzygy_dims.append(dims)
        alive.append(dims[D] > 0)
        if n == N:
            break
        gens = kernel_pieces(domain, images, ambient, ker, D).generators if n else relations.generators
        degrees.append(sorted(d for d, _v, _vec in gens))
        ambient, image_dims, images = domain, ker, [vec for _d, _v, vec in gens]
        domain = CoverSpace(model, tuple(FreeSummand(v, d) for d, v, _vec in gens))

    return ResolutionReport(
        degrees=degrees,
        hilbert=hilbert,
        max_n=N,
        degree_cap=D,
        covers=covers,
        syzygy_dims=syzygy_dims,
        alive_at_cap=alive,
        zero_tail_from=zero_tail_from,
    )


@dataclass(frozen=True)
class WindowVerdict:
    n: int
    method: str
    lo: object
    hi: object
    degrees: tuple[int, ...]
    ok: bool
    violations: tuple[int, ...]


def verify_windows(report: ResolutionReport, windows) -> tuple[bool, list[WindowVerdict]]:
    """PASS iff every oracle generating degree of P_n lies inside its window."""
    verdicts = []
    for w in windows:
        if w.n > report.max_n:
            continue
        degs = tuple(report.degrees[w.n])
        bad = tuple(d for d in degs if not w.contains(d))
        verdicts.append(WindowVerdict(w.n, w.method, w.lo, w.hi, degs, not bad, bad))
    return all(v.ok for v in verdicts), verdicts
