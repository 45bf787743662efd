"""First syzygies in right-multiple-reduced form and degree windows for resolution terms.

The kernel of (free module over kQ) -> P_0 -> X is generated, degree by
degree, by two kinds of elements: the survivors, whose normal form is
nonzero in P_0 (found as new leading coordinates of the relation
submodule), and the absorbed ones lying in (free module) * I (of the
shape generator * u * g for a basis element g).  The combined tip set is
normalized so that no tip path is a left divisor of another within the
same generator component; rewriting by right multiples is then confluent
and representations are unique.  Both kinds are kept as their tips only,
(generator number, word): callers read the survivors' degrees and the
counts, no more.  Both are read on the oracle model's word numbers
(`GradedAlgebraModel.parent` and `rewritten`), with no Path divisibility.

Windows: the n-th term of the minimal resolution of X is generated in
degrees inside [dmin + min quasi length, dmax + max quasi length] read at
chain level n-1 (and inside the wider overlap-derived interval), where
dmin and dmax are the extreme survivor degrees.  The oracle validates
this pairing of P_n with level n-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import PathAlgError
from .oracle import GradedAlgebraModel, presentation_cover, span_from_seeds
from .overlaps import OverlapTable
from .presentation import ModulePresentation
# perfbench/tracing.py resolves `divides` through this module's __dict__; nothing here calls it.
from .quiver import Path, divides  # noqa: F401


@dataclass(frozen=True)
class FirstSyzygy:
    """Right-multiple-reduced kernel generators of the presentation cover, as tips.

    `survivors` and `absorbed` hold the tips (generator number, word) of the
    two kinds of generator.  A survivor's degree is its generator's degree
    plus its word's length; the CLI reads those degrees and both counts.
    """

    survivors: tuple[tuple[int, Path], ...]
    absorbed: tuple[tuple[int, Path], ...]
    min_degree: int | None
    max_degree: int | None
    degree_cap: int
    alive_at_cap: bool


def first_syzygy(pres: ModulePresentation, model: GradedAlgebraModel, degree_cap: int) -> FirstSyzygy:
    """Kernel generators of V -> P_0 -> X through degree_cap, split by survival.

    Survivor tips are the orbit-minimal leading coordinates of the relation
    submodule inside P_0 (normal-word coordinates), listed by degree, then
    vertex, then in descending module order within a block.  The absorbed
    tips are the words h*a from a generator's vertex, h normal and below no
    kept tip, with h*a not normal, as the model's `rewritten` lists them: as
    the basis tips are an antichain, these are exactly the words u*tip(g)
    whose only reducible prefix is the whole word, the tips of the
    generators f_i * (u * g).  Left division by a kept tip is read on the model's
    `parent` links, which number a word's prefixes, so no path is divided.

    No survivor lies above the degree where the span stops (`full_from`),
    whose blocks hold no rows: every word of a full block is a pivot, so
    it is kept or below a kept tip, and each column above the stop has its
    prefix in a full block.
    """
    if degree_cap > model.degree_cap:
        raise PathAlgError(f"first syzygy degree cap {degree_cap} exceeds the model cap {model.degree_cap}")
    quiver = model.quiver
    parent, basis = model.parent, model.basis
    cover, seeds = presentation_cover(pres, model)
    pieces = span_from_seeds(cover, seeds, degree_cap)
    gen_degrees = [g.degree for g in pres.generators]
    # (summand, word length, word number) of each kept tip.
    kept: set[tuple[int, int, int]] = set()

    def below(j: int, length: int, i: int) -> bool:
        """Some kept tip of summand j is a prefix of word i of that length (the word itself included)."""
        while (j, length, i) not in kept:
            if not length:
                return False
            i = parent[length][i][0]
            length -= 1
        return True

    survivors: list[tuple[int, Path]] = []
    for d in range(degree_cap + 1):
        for v in quiver.vertices:
            sub = pieces.get(d, v)
            if not sub or sub.dim == 0:
                continue
            cols = cover.block(d, v)[0]
            for piv in sorted(sub.pivot_of_row):
                j, i = cols[piv]
                length = d - gen_degrees[j]
                if below(j, length, i):
                    continue
                kept.add((j, length, i))
                survivors.append((j, basis[length][i]))

    absorbed: list[tuple[int, Path]] = []
    for j, g in enumerate(pres.generators):
        for length in range(degree_cap - g.degree):
            for i, k in model.rewritten[length]:
                h, a = basis[length][i], quiver.arrows[k]
                if h.source == g.vertex and not below(j, length, i):
                    absorbed.append((j, Path(h.source, a.target, h.arrows + (a,))))

    degs = [gen_degrees[i] + p.length for (i, p) in survivors]
    alive = any(pieces.dim(degree_cap, v) > 0 for v in quiver.vertices)
    return FirstSyzygy(
        survivors=tuple(survivors),
        absorbed=tuple(absorbed),
        min_degree=min(degs) if degs else None,
        max_degree=max(degs) if degs else None,
        degree_cap=degree_cap,
        alive_at_cap=bool(alive),
    )


@dataclass(frozen=True)
class DegreeWindow:
    """Certified interval of generating degrees for the n-th resolution term."""

    n: int
    lo: object
    hi: object
    method: str  # "quasi" | "overlap"

    @property
    def empty(self) -> bool:
        return self.lo > self.hi  # type: ignore[operator]

    def contains(self, d: int) -> bool:
        return not self.empty and self.lo <= d <= self.hi  # type: ignore[operator]


def degree_window(
    n: int,
    dmin: int | None,
    dmax: int | None,
    table: OverlapTable,
    method: str = "quasi",
) -> DegreeWindow:
    """Window for P_n from the chain table of the basis tips.

    dmin and dmax are the extreme survivor degrees of the first syzygy.
    The window depends only on them and on the algebra's chain table, so it
    must hold for every module with those survivor degrees.  On k[x]/(x^s),
    for instance, the cyclic modules A/x^jA (j = 1 .. s-1) share the table,
    have dmin = dmax = j and all place P_2m in degree ms; at even n the
    quasi window for A0 is therefore [ms-s+2, ms], not a single degree.
    The pairing reads chain level n-1, so n = 1 gives exactly [dmin, dmax],
    the tautology of the presentation.  No survivors (dmin is None) predicts
    the zero module for all n >= 1.
    """
    if n < 1:
        raise PathAlgError("windows are defined for n >= 1")
    if method not in ("quasi", "overlap"):
        raise PathAlgError(f"unknown window method {method!r}")
    if dmin is None or dmax is None:
        return DegreeWindow(n, inf, -inf, method)
    if n - 1 > table.depth:
        raise PathAlgError(f"table depth {table.depth} is too shallow for n={n}")
    if n == 1:
        return DegreeWindow(n, dmin, dmax, method)
    mino, maxo, minq, maxq = table.extrema(n - 1)
    if method == "quasi":
        lo, hi = dmin + minq, dmax + maxq
    else:
        lo, hi = dmin + mino - table.pattern_length + 1, dmax + maxo - 1
    if hi == -inf or lo == inf:
        return DegreeWindow(n, inf, -inf, method)
    return DegreeWindow(n, lo, hi, method)


def window_consistency(qo_window: DegreeWindow, o_window: DegreeWindow) -> bool:
    """The quasi-chain window always sits inside the overlap window."""
    if qo_window.empty:
        return True
    if o_window.empty:
        return False
    return o_window.lo <= qo_window.lo and qo_window.hi <= o_window.hi
