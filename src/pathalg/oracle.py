"""Ground truth by exact graded linear algebra.

A GradedAlgebraModel holds normal-word bases of A = kQ/I per degree and the
right action of each arrow on them; the oracle reads A only through it, a
presentation's relations included.  It builds each degree's action from
the Groebner basis's TipIndex, which finds the tip that ends a product and
holds its tail, and from the action below, with no `normal_form` call.
Minimal graded projective resolutions are computed degreewise, per
(degree, target-vertex) block.  `span_from_seeds` spans seed vectors under
the arrow action, giving each block the arrow images of the degree below
before its own seeds, so the seeds that still enlarge a block are minimal
generators of the span.  The relations are the seeds of the submodule that
X = coker(relations) factors out; the generator tops, projected into X, are
the seeds of step 0.  Each later step spans the kernel of the cover of the
step before by the same rule, but counts first: in a block, dim ker is the
cover's dim less the image's, which is X's for the first cover and the
kernel's before it for each later one.  `kernel_pieces` eliminates only a
block that the arrow images leave short of its count, where a generator is
born, and the last step only counts.
`ideal_span` spans a degree of a two-sided ideal over all paths, with no
Groebner data, to cross-check normal forms.

A block numbers its coordinates once; vectors are sparse dicts from those
numbers to exact scalars, and each arrow acts on a block through an
integer table built once from the model, so paths are hashed only while
the model lists its levels, where presentations come in and where first
syzygies read their tips.  The model spells words as the TipIndex does, in
rank words.  A path and an arrow are named tuples, so path lookups hash in C.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import Iterable, Mapping, Sequence

# perfbench/tracing.py resolves `normal_form` through this module's __dict__; nothing here calls it.
from .algebra import AlgebraElement, GroebnerBasis, normal_form  # noqa: F401
from .errors import PathAlgError
from .fields import Field
from .linalg import Subspace, left_nullspace
from .presentation import ModulePresentation
from .quiver import Arrow, Path, Quiver, normal_word_levels


class GradedAlgebraModel:
    """Normal-word bases of A up to a degree cap, with the arrow action as integer tables.

    `basis[d]` lists the normal words of length d and `index[d]` numbers
    them.  `parent[d][i]` is (number of the word minus its last arrow,
    number of that arrow in `quiver.arrows`) for d >= 1, and `ranks[d][i]`
    is the word's rank word as `TipIndex` spells it: the precedence ranks of
    its arrows, 0 the greatest.  `rewritten[d]` lists the pairs (i, k) whose
    product, word i of length d times arrow number k, is not a normal word,
    in ascending term order of the product.  `field` is the field of the
    basis's order.

    The tables of one degree are built together, from the basis's tails
    and the tables of the degrees below (`_build_level`), so no product
    inside the cap goes through `normal_form`.  The normal words of the
    basis are those of A only up to its degree bound, so a model of a
    truncated basis may not reach above it.
    """

    def __init__(self, quiver: Quiver, gb: GroebnerBasis, degree_cap: int):
        self.quiver = quiver
        self.gb = gb
        self.order = gb.order
        self.field = gb.order.field
        self.degree_cap = -1
        self.basis: list[list[Path]] = []
        self.index: list[dict[Path, int]] = []
        self.parent: list[list[tuple[int, int]]] = []
        self.ranks: list[list[tuple[int, ...]]] = []
        self.rewritten: list[list[tuple[int, int]]] = []
        self._levels = normal_word_levels(quiver, gb.tips)
        self._arrow_no = {a: k for k, a in enumerate(quiver.arrows)}
        # The precedence rank of each arrow number, and the arrow number of each rank.
        self._rank = [gb.order.arrow_rank[a.name] for a in quiver.arrows]
        self._of_rank = {r: k for k, r in enumerate(self._rank)}
        self._actions: dict[tuple[int, int], list[list[tuple[int, object]]]] = {}
        self._built = 0
        self.extend(degree_cap)

    def extend(self, degree_cap: int) -> None:
        """Raise the cap to degree_cap; a lower value leaves the model as it is."""
        gb = self.gb
        if degree_cap > gb.degree_bound and not gb.complete:
            raise PathAlgError(f"a model to degree {degree_cap} needs a basis exact to it; this one is {gb.status}")
        for d in range(self.degree_cap + 1, degree_cap + 1):
            level = next(self._levels)
            self.basis.append(level)
            self.index.append({w: i for i, w in enumerate(level)})
            if not d:
                self.parent.append([])
                self.ranks.append([()] * len(level))
                continue
            prev, ranks, rank = self.index[d - 1], self.ranks[d - 1], self._rank
            parent = [(prev[w.prefix(d - 1)], self._arrow_no[w.arrows[-1]]) for w in level]
            self.parent.append(parent)
            self.ranks.append([ranks[i] + (rank[k],) for i, k in parent])
            normal = set(parent)
            # Products of one length: the greater rank word is the smaller product.
            self.rewritten.append(sorted(
                [(i, k) for i, w in enumerate(self.basis[d - 1]) for k, a in enumerate(self.quiver.arrows)
                 if a.source == w.target and (i, k) not in normal],
                key=lambda ik: ranks[ik[0]] + (rank[ik[1]],), reverse=True))
        self.degree_cap = max(self.degree_cap, degree_cap)

    def dims(self) -> list[int]:
        return [len(level) for level in self.basis]

    def act(self, w: Path, a: Arrow) -> dict[Path, object]:
        """Expansion of the class of w*a in the normal-word basis, read from the tables.

        w must be a normal word below the cap; anything else raises PathAlgError.
        """
        d = w.length
        i = self.index[d].get(w) if d < self.degree_cap else None
        if i is None:
            raise PathAlgError(f"{w} is not a normal word below the model cap {self.degree_cap}")
        nxt = self.basis[d + 1]
        return {nxt[j]: c for j, c in self.action(d, self._arrow_no[a])[i]}

    def expand(self, w: Path) -> dict[int, object]:
        """The class in A of a path up to the cap, as (word number of its length, scalar), read from the tables."""
        vec = {self.index[0][Path(w.source, w.source)]: self.field.one}
        for d, a in enumerate(w.arrows):
            vec = _apply(self.action(d, self._arrow_no[a]), vec, self.field.characteristic)
        return vec

    def action(self, d: int, k: int) -> list[list[tuple[int, object]]]:
        """Arrow number k on degree d: for each word number, (word number in degree d+1, scalar) pairs."""
        while self._built <= d:
            self._build_level(self._built)
            self._built += 1
        return self._actions[(d, k)]

    def _build_level(self, d: int) -> None:
        """The tables of every arrow on degree d, from the basis's TipIndex and the tables below d.

        A product w*a that is a normal word is one entry.  Otherwise, as w is
        normal, exactly one tip t is a suffix of it (the tips are an
        antichain), and `find` gives it: w*a = h*t, and t is the sum of -c * q
        over its tail.  Each -c * h*q comes from -c times the unit vector of h,
        a prefix of w, through the tables of q's arrows, one degree at a time.
        The last table is this degree's, read at words u with u*b <= h*q < w*a,
        so the products, taken in `rewritten` order, read only filled entries.
        """
        one, p, index = self.field.one, self.field.characteristic, self.gb.tip_index
        parent, ranks, rank, of_rank = self.parent, self.ranks[d], self._rank, self._of_rank
        # Rows are replaced, never changed in place, so they may start as one empty list.
        tables = [[[]] * len(self.basis[d]) for _ in self.quiver.arrows]
        for k, table in enumerate(tables):
            self._actions[(d, k)] = table
        for j, (i, k) in enumerate(parent[d + 1]):
            tables[k][i] = [(j, one)]
        for i, k in self.rewritten[d]:
            t, m = index.find(ranks[i] + (rank[k],))
            h = i
            for length in range(d, m, -1):
                h = parent[length][h][0]
            out: dict[int, object] = {}
            for q, c in index.tails[t]:
                vec = {h: -c}
                for step, r in enumerate(q):
                    vec = _apply(self._actions[(m + step, of_rank[r])], vec, p)
                for j, x in vec.items():
                    out[j] = out.get(j, 0) + x
            tables[k][i] = [(j, x) for j, x in ((j, x % p if p else x) for j, x in out.items()) if x]


def _apply(table: list[list[tuple[int, object]]], vec: Mapping[int, object], p: int) -> dict[int, object]:
    """The image of a sparse vector under an integer action table, its scalars reduced mod p (0: over Q)."""
    out: dict[int, object] = {}
    for col, c in vec.items():
        for col2, x in table[col]:
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
    (word first, then summand), so column 0 is the greatest.
    """

    def __init__(self, model: GradedAlgebraModel, summands: Sequence[FreeSummand]):
        self.model = model
        self.summands = tuple(summands)
        self._blocks: dict[tuple[int, str], tuple[list[tuple[int, int]], dict[tuple[int, int], int]]] = {}
        self._actions: dict[tuple[int, int], list[list[tuple[int, object]]]] = {}
        self._p = model.field.characteristic

    def block(self, d: int, v: str) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
        """The coordinates of block (d, v) and their column numbers."""
        key = (d, v)
        hit = self._blocks.get(key)
        if hit is not None:
            return hit
        model = self.model
        cols: list[tuple[int, int]] = []
        for j, s in enumerate(self.summands):
            length = d - s.degree
            if 0 <= length <= model.degree_cap:
                cols.extend((j, i) for i, w in enumerate(model.basis[length]) if w.source == s.vertex and w.target == v)
        degrees = [s.degree for s in self.summands]
        cols.sort(key=lambda ji: (degrees[ji[0]] - d, model.ranks[d - degrees[ji[0]]][ji[1]], -ji[0]))
        hit = (cols, {ji: n for n, ji in enumerate(cols)})
        self._blocks[key] = hit
        return hit

    def dim(self, d: int, v: str) -> int:
        return len(self.block(d, v)[0])

    def action(self, d: int, k: int) -> list[list[tuple[int, object]]]:
        """Arrow number k from block (d, source) to block (d+1, target), per column."""
        key = (d, k)
        table = self._actions.get(key)
        if table is None:
            a = self.model.quiver.arrows[k]
            cols, _ = self.block(d, a.source)
            _, index = self.block(d + 1, a.target)
            table = []
            for j, i in cols:
                length = d - self.summands[j].degree
                table.append([(index[(j, i2)], c) for i2, c in self.model.action(length, k)[i]])
            self._actions[key] = table
        return table

    def act(self, d: int, k: int, vec: Mapping[int, object]) -> dict[int, object]:
        """Image under arrow number k of a vector of block (d, source of the arrow)."""
        return _apply(self.action(d, k), vec, self._p)

    def from_terms(self, terms: Mapping[tuple[int, Path], object]) -> list[tuple[int, str, dict[int, object]]]:
        """The nonzero (degree, vertex, vector) parts of (summand, path) terms, each path read as its class in A."""
        model, p = self.model, self._p
        parts: dict[tuple[int, str], dict[int, object]] = {}
        for (j, w), c in terms.items():
            d = self.summands[j].degree + w.length
            _, index = self.block(d, w.target)
            part = parts.setdefault((d, w.target), {})
            for i, x in model.expand(w).items():
                n = index[(j, i)]
                part[n] = part.get(n, 0) + c * x
        parts = {dv: {n: x for n, x in ((n, x % p if p else x) for n, x in vec.items()) if x}
                 for dv, vec in parts.items()}
        return [(d, v, vec) for (d, v), vec in parts.items() if vec]


class QuotientSpace:
    """A graded quotient of a CoverSpace by a degreewise subspace container.

    Vectors keep the cover's column numbers and live on the columns away
    from the subspace's pivots; the projection is the subspace residue.
    """

    def __init__(self, cover: CoverSpace, sub: "GradedPieces"):
        self.cover = cover
        self.sub = sub

    @property
    def model(self) -> GradedAlgebraModel:
        return self.cover.model

    def dim(self, d: int, v: str) -> int:
        return self.cover.dim(d, v) - self.sub.dim(d, v)

    def hilbert(self, D: int) -> list[int]:
        return [sum(self.dim(d, v) for v in self.model.quiver.vertices) for d in range(D + 1)]

    def residue(self, d: int, v: str, vec: dict[int, object]) -> dict[int, object]:
        """The projection of a cover vector of block (d, v)."""
        space = self.sub.get(d, v)
        return space.residue(vec) if vec and space is not None else vec

    def act(self, d: int, k: int, vec: Mapping[int, object]) -> dict[int, object]:
        return self.residue(d + 1, self.model.quiver.arrows[k].target, self.cover.act(d, k, vec))


class GradedPieces:
    """Per-(degree, vertex) subspaces of some graded space over `field`.

    `generators` lists the (degree, vertex, vector) seeds that enlarged the
    span as `span_from_seeds` or `kernel_pieces` built it.
    """

    def __init__(self, field: Field):
        self.field = field
        self.spaces: dict[tuple[int, str], Subspace] = {}
        self.generators: list[tuple[int, str, dict]] = []

    def get(self, d: int, v: str) -> Subspace | None:
        return self.spaces.get((d, v))

    def dim(self, d: int, v: str) -> int:
        s = self.get(d, v)
        return s.dim if s else 0

    def ensure(self, d: int, v: str) -> Subspace:
        key = (d, v)
        if key not in self.spaces:
            self.spaces[key] = Subspace(self.field)
        return self.spaces[key]


def _arrow_images(space, pieces: GradedPieces, d: int, v: str):
    """Nonzero images in block (d, v) of the degree d-1 rows of `pieces` under every arrow into v."""
    for k, a in enumerate(space.model.quiver.arrows):
        if a.target != v:
            continue
        prev = pieces.get(d - 1, a.source)
        if prev is None:
            continue
        for row in prev.rows:
            img = space.act(d - 1, k, row)
            if img:
                yield img


def presentation_cover(pres: ModulePresentation, model: GradedAlgebraModel):
    """The free cover of a presentation's generators and its relations, as (degree, vertex, vector) seeds."""
    pres.validate(model.quiver, model.degree_cap)
    cover = CoverSpace(model, [FreeSummand(g.vertex, g.degree) for g in pres.generators])
    seeds = []
    for r in pres.relations:
        seeds.extend(cover.from_terms(r.terms))
    return cover, seeds


def span_from_seeds(space, seeds: Iterable[tuple[int, str, dict]], D: int) -> GradedPieces:
    """Degreewise span of (degree, vertex, vector) seeds under the right arrow action, up to degree D.

    `space` is a CoverSpace or QuotientSpace.  Each block takes the arrow
    images of the degree below before its own seeds, so the seeds that still
    enlarge it, kept in order in `generators`, minimally generate the span.
    """
    by_slot: dict[tuple[int, str], list[dict]] = {}
    for d, v, vec in seeds:
        by_slot.setdefault((d, v), []).append(vec)
    pieces = GradedPieces(space.model.field)
    min_d = min((d for (d, _v) in by_slot), default=D + 1)
    for d in range(min_d, D + 1):
        for v in space.model.quiver.vertices:
            if not space.dim(d, v):
                continue
            sub = pieces.ensure(d, v)
            for img in _arrow_images(space, pieces, d, v):
                sub.add(img)
            for vec in by_slot.get((d, v), []):
                if sub.add(vec):
                    pieces.generators.append((d, v, vec))
    return pieces


def minimal_generators_of_pieces(space, seeds: Iterable[tuple[int, str, dict]], D: int) -> list[tuple[int, str, dict]]:
    """Minimal generators, up to degree D, of the submodule the seeds generate: the seeds that enlarge its span."""
    return span_from_seeds(space, seeds, D).generators


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


def _phi(memo: dict, model: GradedAlgebraModel, ambient, images: Sequence[dict], degrees: Sequence[int],
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


def kernel_pieces(domain: CoverSpace, images: Sequence[dict], ambient, dims: Mapping[tuple[int, str], int],
                  D: int) -> GradedPieces:
    """The span of ker(free cover -> ambient) in each block up to degree D, with its minimal generators.

    f_j maps to images[j], and dims holds the kernel's counted dims
    (`kernel_dims`).  A block takes the arrow images of the kernel one
    degree down, as in `span_from_seeds`.  Only a block that they leave
    short of its count, where a generator is born, is eliminated; its left
    null vectors that still enlarge it are minimal generators, kept in
    order in `generators`.  Raises PathAlgError if a block's span ends at a
    dim other than its count (a count too small is seen only where the
    arrow images outgrow it), or if a kernel vector touches a generator-top
    coordinate, which would mean the chosen generators were not minimal.
    """
    model = domain.model
    pieces = GradedPieces(model.field)
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
            for img in _arrow_images(domain, pieces, d, v):
                sub.add(img)
            want = dims.get((d, v), 0)
            if sub.dim < want:
                rows = [_phi(phi, model, ambient, images, degrees, j, d - degrees[j], i) for j, i in cols]
                for combo in left_nullspace(rows, model.field):
                    if any(degrees[cols[n][0]] == d for n in combo):
                        raise PathAlgError("kernel meets a generator top: cover was not minimal")
                    if sub.add(combo):
                        pieces.generators.append((d, v, combo))
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
    """Minimal graded projective resolution of coker(relations) out to P_N, degrees <= D.

    P_0 covers X by the tops that minimally generate it.  P_{n+1} covers
    ker(P_n -> P_{n-1}); its dims are counted (`kernel_dims`) from the image
    dims, which are ints kept from the step before, and `kernel_pieces`
    spans it to find the generators.  ker(P_N -> P_{N-1}) is only counted.
    Every generator must lie at or below D: one above it would be left out
    of P_0 unseen, so it raises PathAlgError.
    """
    if D > model.degree_cap:
        raise PathAlgError("resolution degree cap exceeds the model cap")
    for g in pres.generators:
        if g.degree > D:
            raise PathAlgError(f"generator {g.name} at degree {g.degree} lies above the degree cap {D}")
    cover, seeds = presentation_cover(pres, model)
    X = QuotientSpace(cover, span_from_seeds(cover, seeds, D))

    # Homological step 0: the summand tops, projected into X, generate it.
    one = model.field.one
    tops = []
    for j, s in enumerate(cover.summands):
        [(d, v, vec)] = cover.from_terms({(j, Path(s.vertex, s.vertex)): one})
        tops.append((d, v, X.residue(d, v, vec)))
    gens = minimal_generators_of_pieces(X, tops, D)

    degrees: list[list[int]] = []
    covers: list[tuple[FreeSummand, ...]] = []
    syzygy_dims: list[list[int]] = []
    alive: list[bool] = []

    ambient = X
    degrees.append(sorted(d for d, _v, _vec in gens))
    zero_tail_from = None
    # The image of P_0 is X; the image of each later P_n is the kernel before it.
    image_dims = {(d, v): X.dim(d, v) for d in range(D + 1) for v in model.quiver.vertices}

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
        ker = kernel_dims(domain, image_dims, D)
        dims = [0] * (D + 1)
        for (d, _v), k in ker.items():
            dims[d] += k
        syzygy_dims.append(dims)
        alive.append(dims[D] > 0)
        if n == N:
            break
        gens = kernel_pieces(domain, images, ambient, ker, D).generators
        degrees.append(sorted(d for d, _v, _vec in gens))
        ambient, image_dims = domain, ker

    return ResolutionReport(
        degrees=degrees,
        hilbert=X.hilbert(D),
        max_n=N,
        degree_cap=D,
        covers=covers,
        syzygy_dims=syzygy_dims,
        alive_at_cap=alive,
        zero_tail_from=zero_tail_from,
    )


def ideal_span(generators: Sequence[AlgebraElement], quiver: Quiver, field: Field, d: int) -> Subspace:
    """The degree-d piece of the two-sided ideal the homogeneous generators produce.

    Column i is path i of `quiver.paths_of_length(d)`; the rows span every
    u * g * v of length d over paths u and v.  Brute force over all paths,
    independent of any Groebner data.
    """
    levels = list(islice(normal_word_levels(quiver, ()), d + 1))
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
                left = g.left_mul(u)
                if not left:
                    continue
                for v in levels[d - dg - i]:
                    gv = left.right_mul(v)
                    if gv:
                        span.add({idx[p]: c for p, c in ((p, field.of(c)) for p, c in gv.terms.items()) if c})
    return span


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
