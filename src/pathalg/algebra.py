"""Elements of kQ and of free right kQ-modules, normal forms, and Groebner bases.

An AlgebraElement is a finite map from parallel paths to nonzero scalars.
A ModuleElement is a finite map from (generator index, path) pairs to
nonzero scalars; generator metadata lives with the module presentation.
Elements do no arithmetic of their own: the field comes with the term
order (`OrderSpec.field`), and the routines that take an order do the
arithmetic.  Over F_p a scalar is an int in [0, p); an element built by
hand may hold any ints or Fractions, and `groebner_basis`, `normal_form`,
`tip`, `monic` and `TipIndex.add` read them in F_p on intake, so a term
that vanishes mod p never acts as a nonzero one.

A = kQ/I is built one degree at a time by `Levels`, as in the
linear-algebra completion of F4 (Faugere 1999): A_d is
(A_{d-1} (x) V) / span{u*r}, for r an ideal generator and u a normal word
of degree d - deg r that ends where r starts.  One elimination per degree
gives A_d's normal words, the table of every arrow on A_{d-1}, and the
degree-d elements of the reduced Groebner basis: a rewritten product whose
suffix one arrow shorter is a normal word is a minimal tip, and its element
is the tip minus its normal form.  A row known to reduce to zero, a left
multiple of one that did, is skipped by a signature criterion (F5's rewrite
criterion, Faugere 2002, in the free algebra as in Hofstadler-Verron 2022).
`groebner_basis` runs the levels up to a caller-supplied degree, or until
the basis is known complete, which it tests from the tips' overlap degrees,
kept in prefix and suffix tables
(`OverlapDegree`); the completeness status is part of the result, and the
levels stay with the basis for `oracle.GradedAlgebraModel` to continue.
Past completion no degree is eliminated: each rewritten product's row is
read off the reduced basis (`Levels.use_basis`).  `normal_form` is the
plain reference reducer, which no command uses: it rewrites any element
modulo any list of elements, greatest word first from one heap of rank
words (`_reduce_words`), and a TipIndex finds each word's reducer by a
dict of tips.  Over Q, the basis and `normal_form` give each coefficient as
an int, or as a Fraction only where it is not integral.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from .errors import PathAlgError, TruncatedBasisError
from .fields import Field
from .linalg import Subspace
from .order import OrderSpec
from .quiver import Arrow, Path


def _clean(terms: Mapping) -> dict:
    return {k: c for k, c in terms.items() if c}


def _render(words: Iterable[tuple[str, object]]) -> str:
    """(word, coefficient) terms joined by ` + ` or ` - `, a coefficient of 1 left out; `0` for no terms."""
    out = ""
    for word, c in words:
        cs = str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        sign = ("-" if neg else "") if not out else (" - " if neg else " + ")
        out += sign + (word if cs == "1" else f"{cs}*{word}")
    return out or "0"


class AlgebraElement:
    """A k-linear combination of parallel paths (or the zero element)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Path, object] | None = None):
        self.terms: dict[Path, object] = _clean(terms or {})
        endpoints = {(p.source, p.target) for p in self.terms}
        if len(endpoints) > 1:
            raise PathAlgError("support paths must be parallel")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def degree(self) -> int:
        """Common length of the support paths; raises if inhomogeneous or zero."""
        lengths = {p.length for p in self.terms}
        if len(lengths) != 1:
            raise PathAlgError("element is zero or inhomogeneous")
        return lengths.pop()

    def is_homogeneous(self) -> bool:
        return len({p.length for p in self.terms}) <= 1

    def render(self) -> str:
        return _render(sorted(((str(p), c) for p, c in self.terms.items()), key=lambda wc: wc[0]))

    def __repr__(self):
        return f"AlgebraElement({self.render()})"


class ModuleElement:
    """An element of a free right kQ-module: map (generator index, path) -> scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, Path], object] | None = None):
        self.terms: dict[tuple[int, Path], object] = _clean(terms or {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, ModuleElement) and self.terms == other.terms

    def render(self, gen_names: list[str] | None = None) -> str:
        def name(i: int) -> str:
            return gen_names[i] if gen_names else f"g{i}"

        terms = sorted(self.terms.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        return _render((f"{name(i)}*{p}" if p.arrows else name(i), c) for (i, p), c in terms)

    def __repr__(self):
        return f"ModuleElement({self.render()})"


def tip(x: AlgebraElement | ModuleElement, order: OrderSpec):
    """The maximal support item; a Path for algebra elements, (i, Path) for module ones.

    Coefficients are read in the order's field: over F_p a term that vanishes mod p is no support item.
    """
    field = order.field
    support = [q for q, c in x.terms.items() if field.of(c)] if field.characteristic else x.terms
    if not support:
        raise PathAlgError("the zero element has no tip")
    return max(support, key=order.path_key if isinstance(x, AlgebraElement) else order.module_key)


def _reduced(x: AlgebraElement, field: Field) -> AlgebraElement:
    """Over F_p, x with every coefficient reduced mod p and the vanishing terms dropped; over Q, x."""
    if not field.characteristic:
        return x
    return AlgebraElement({p: field.of(c) for p, c in x.terms.items()})


def monic(x: AlgebraElement, order: OrderSpec) -> AlgebraElement:
    """x, taken into the order's field, scaled so that its tip has coefficient 1."""
    field = order.field
    x = _reduced(x, field)
    c = x.terms[tip(x, order)]
    if c == 1:
        return x
    p, inv = field.characteristic, field.inverse(c)
    return AlgebraElement({q: d * inv % p if p else d * inv for q, d in x.terms.items()})


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple[AlgebraElement, ...]
    tips: tuple[Path, ...]
    complete: bool
    degree_bound: int
    order: OrderSpec
    # Largest proper-overlap degree among the final tips (informational).
    max_overlap_degree: int = 0
    # The levels of A that completion grew, for the model to continue; None for a basis built by hand.
    levels: "Levels | None" = dc_field(default=None, compare=False, repr=False)

    @property
    def status(self) -> str:
        return "complete" if self.complete else f"truncated-at-degree-{self.degree_bound}"

    def require_complete(self) -> None:
        if not self.complete:
            raise TruncatedBasisError(
                f"a complete Groebner basis is required; this one is {self.status}"
            )

    @cached_property
    def tip_index(self) -> "TipIndex":
        """The reducers of `normal_form`, built on first use."""
        return TipIndex(self.order, self.elements)


class TipIndex:
    """The reducers of `normal_form`, looked up by the arrow ranks of their tips.

    A word is handled as the tuple of its arrows' precedence ranks (0 is
    the greatest arrow), so among words of one length the smaller tuple is
    the greater word.  The reducer of a word is the first element, in
    insertion order, whose tip is a factor of it, taken at the tip's
    leftmost occurrence.  A dict maps each tip to the first element with
    that tip, and `find` looks up every factor of the word whose length is
    a tip length.  This rule needs no antichain, so the elements may be any
    list: nested, suffix and duplicate tips get the reducer a search of
    every factor would give them.
    """

    def __init__(self, order: OrderSpec, elements: Iterable[AlgebraElement] = ()):
        self.order = order
        # Per element: tip ranks, and the tail as (ranks, coefficient / lead) pairs.
        self.keys: list[tuple[int, ...]] = []
        self.tails: list[list[tuple[tuple[int, ...], object]]] = []
        # rank -> Arrow, for every arrow of a tip or a tail
        self.arrows: dict[int, Arrow] = {}
        # tip ranks -> insertion position of the first element with that tip
        self._first: dict[tuple[int, ...], int] = {}
        self._lengths: set[int] = set()
        for g in elements:
            self.add(g)

    def add(self, g: AlgebraElement) -> None:
        """Insert g, taken into the order's field and made monic; a zero g is skipped, a vertex tip refused."""
        g = _reduced(g, self.order.field)
        if not g:
            return
        if not any(q.arrows for q in g.terms):
            raise PathAlgError(f"a reducer tip must have positive length; got {next(iter(g.terms))}")
        g = monic(g, self.order)
        rank = self.order.arrow_rank
        key = tuple([rank[a.name] for a in tip(g, self.order).arrows])
        self._first.setdefault(key, len(self.keys))
        self._lengths.add(len(key))
        self.keys.append(key)
        self.tails.append([(w, c) for w, c in _words(g, self.order, self.arrows).items() if w != key])

    def find(self, w: tuple[int, ...]) -> tuple[int, int] | None:
        """(insertion position, offset) of the reducer of word w, or None."""
        best, at = len(self.keys), None
        for end in range(1, len(w) + 1):
            for n in self._lengths:
                k = self._first.get(w[end - n:end]) if n <= end else None
                if k is not None and k < best:
                    best, at = k, end - n
        return None if at is None else (best, at)


def _reducers(basis, order: OrderSpec) -> TipIndex:
    if not isinstance(basis, (GroebnerBasis, TipIndex)):
        return TipIndex(order, basis)
    if basis.order != order:
        raise PathAlgError(f"the {type(basis).__name__} was built for a different term order")
    return basis.tip_index if isinstance(basis, GroebnerBasis) else basis


def _words(x: AlgebraElement, order: OrderSpec, arrows: dict[int, Arrow]) -> dict:
    """x's terms keyed by the rank words of their paths; each arrow is recorded in `arrows` by rank."""
    rank, terms = order.arrow_rank, {}
    for q, c in x.terms.items():
        w = tuple([rank[a.name] for a in q.arrows])
        arrows.update(zip(w, q.arrows))
        terms[w] = c
    return terms


def _reduce_words(terms: dict, index: TipIndex, p: int) -> dict:
    """The normal form of a map from rank words to coefficients, greatest word first.

    `terms` is used up.  Words are popped from one heap keyed (-length,
    word): the longest first, and among words of one length the least
    tuple, which is the greatest word.  A rewrite replaces a word by
    smaller ones only (the order is admissible), so every word is popped
    once, even with inhomogeneous reducers.  Over F_p (p > 0) a word's
    coefficient is reduced mod p once, when it is popped, so the rewrites
    in between are plain int arithmetic; over Q a surviving integral
    Fraction leaves as an int.
    """
    find, keys, tails = index.find, index.keys, index.tails
    heap = [(-len(w), w) for w in terms]
    heapify(heap)
    out: dict[tuple[int, ...], object] = {}
    while heap:
        _, w = heappop(heap)
        c = terms.pop(w)
        if p:
            c %= p
        if not c:
            continue
        found = find(w)
        if found is None:
            out[w] = c if p or c.denominator != 1 else c.numerator
            continue
        k, i = found
        head, rest = w[:i], w[i + len(keys[k]):]
        for q, d in tails[k]:
            word = head + q + rest
            s = terms.get(word)
            if s is None:
                terms[word] = -(c * d)
                heappush(heap, (-len(word), word))
            else:
                terms[word] = s - c * d
    return out


def normal_form(x: AlgebraElement, basis, order: OrderSpec) -> AlgebraElement:
    """Rewrite x until no support path is divisible by a basis tip.

    `basis` may be a GroebnerBasis or a TipIndex built for `order`, or any
    iterable of elements; x minus the result lies in the two-sided ideal
    generated by the basis.  x is taken into the order's field, its paths
    become rank words, `_reduce_words` rewrites them, and the surviving
    words become paths again.
    """
    index = _reducers(basis, order)
    x = _reduced(x, order.field)
    # x's own arrows by rank; the index knows the arrows of its tails.
    own: dict[int, Arrow] = {}
    out = _reduce_words(_words(x, order, own), index, order.field.characteristic)
    # Every rewrite keeps a word's endpoints, so all words share x's.
    end = next(iter(x.terms), None)
    arrows = index.arrows
    return AlgebraElement({Path(end.source, end.target, tuple([own[r] if r in own else arrows[r] for r in w])): c
                           for w, c in out.items()})


class OverlapDegree:
    """The largest proper-overlap degree among the words added so far, read off two tables.

    A proper overlap of word a with word b shares a's last k letters with
    b's first k, for k <= len(a) and k < len(b), and has degree len(a) +
    len(b) - k, largest for the longest partner.  So `by_prefix` maps each
    proper prefix of a word to the length of the longest word with that
    prefix, and `by_suffix` each suffix, the whole word too, likewise.  A
    new word of length n enters both tables first, so that its overlaps
    with itself count, and then finds its overlaps with itself and every
    earlier word in 2n lookups.  The words must form an antichain under the
    factor order, as tips do, so that no other kind of overlap occurs.
    """

    def __init__(self):
        self.by_prefix: dict[tuple, int] = {}
        self.by_suffix: dict[tuple, int] = {}
        self.degree = 0

    def add(self, key: tuple) -> int:
        """Take in a word; the largest overlap degree among the words so far."""
        n, by_prefix, by_suffix = len(key), self.by_prefix, self.by_suffix
        for k in range(1, n + 1):
            if k < n and by_prefix.get(key[:k], 0) < n:
                by_prefix[key[:k]] = n
            if by_suffix.get(key[n - k:], 0) < n:
                by_suffix[key[n - k:]] = n
        best = self.degree
        for k in range(1, n + 1):
            m = max(by_prefix.get(key[n - k:], 0), by_suffix.get(key[:k], 0) if k < n else 0)
            if m and n + m - k > best:
                best = n + m - k
        self.degree = best
        return best


def _validate_generators(generators: Iterable[AlgebraElement], field: Field) -> list[AlgebraElement]:
    gens = [h for h in (_reduced(g, field) for g in generators) if h]
    for g in gens:
        if not g.is_homogeneous():
            raise PathAlgError(f"inhomogeneous generator: {g.render()}")
        if g.degree() < 2:
            raise PathAlgError("ideal generators must have degree >= 2")
    return gens


def _walk(vec: list[tuple[int, object]], tables: Iterable[list[list[tuple[int, object]]]],
          p: int) -> list[tuple[int, object]]:
    """A sparse vector, as (column, scalar) pairs on distinct columns, through integer action tables in turn.

    A vector of one entry becomes its table row, scaled, with no dict; the
    images of several entries are summed by column.  Scalars are reduced
    mod p (0: over Q) at each table.
    """
    for table in tables:
        if len(vec) == 1:
            [(col, c)] = vec
            vec = [(j, c * x % p if p else c * x) for j, x in table[col]]
        else:
            out: dict[int, object] = {}
            for col, c in vec:
                for j, x in table[col]:
                    prev = out.get(j)
                    out[j] = c * x if prev is None else prev + c * x
            vec = [(j, x) for j, x in ((j, x % p if p else x) for j, x in out.items()) if x]
    return vec


def _row(walks: list, u: int, place: list[int], width: int, p: int) -> dict[int, object]:
    """Normal word number u times a relation, as a row on the columns of the degree being built.

    `walks` holds per term of the relation (`Levels._walks`) the table of
    its first arrow, those of the rest but the last, the last's rank and the
    scalar: u is walked through the tables, and the last arrow picks the
    column.  Scalars are reduced mod p (0: over Q), and zero entries dropped.
    """
    row: dict[int, object] = {}
    for first, rest, r, c in walks:
        for i, x in _walk(first[u], rest, p) if rest else first[u]:
            col = place[i] * width + r
            row[col] = row.get(col, 0) + c * x
    return {col: x % p for col, x in row.items() if x % p} if p else {col: x for col, x in row.items() if x}


class Levels:
    """A = kQ/I one degree at a time: its normal words and arrow tables, from the rows of each degree.

    The quiver comes as its vertices and its arrows, in the order that
    numbers them, and I as homogeneous relations of degree >= 2: the
    ideal's generators, or none when a reduced basis is given at once
    (`use_basis`).  `basis[d]` lists the normal words of length d, numbered
    by their place there; `parent[d][j]` is (number of word j minus its last
    arrow, number of that arrow), `ranks[d][j]` the word's rank word, and
    `between[d]` maps (source, target) to the numbers of the words between
    them in descending term order.  `tables[d][k][i]` is word i of length d
    times arrow k, as (word number of length d + 1, scalar) pairs, empty
    when the arrow does not start where the word ends; `rewritten[d]` lists
    the (i, k) whose product is not a normal word, in ascending term order.

    `grow` adds degree d.  A column is a word i of length d - 1 times an
    arrow k that starts where i ends, numbered place * width + rank: i's
    position among the words of its length by rank word, the number of
    arrows in the order, and k's precedence rank.  So the least column is
    the greatest product.  The rewritten products are the pivot columns of
    rows from one of two sources:

    - Elimination, while completing: relation r_i of degree e gives a row
      u*r_i of signature (i, u) for each normal word u of length d - e that
      ends where r_i starts (`_row`).  The rows are eliminated in one
      `Subspace` in ascending signature, relation by relation and each
      relation's words in ascending term order: by `insert` when the least
      column is no pivot yet and by `add` otherwise.  A row that is empty or
      that `add` reduces to zero records its u in `_zero[i]`, and a row
      (i, w*u0) whose u has a recorded suffix u0, the empty word too, is
      skipped: F5's rewrite criterion (Faugere 2002), as Hofstadler and
      Verron (2022) carry it to free algebras.  The span is unchanged.  The
      row of a product is left linear in it and zero on I*r_j, which lies in
      I_{d-1}*V; so if u0*r_i is a sum of rows u'*r_j of smaller signature,
      then w*u0*r_i is a sum of rows w*u'*r_j, each the row of NF(w*u')*r_j.
      The term order is compatible with left multiplication, so the normal
      words of NF(w*u') are no greater than w*u', which is less than w*u0
      when j = i: each has a smaller signature than (i, w*u0).  By induction
      on signature, every skipped row lies in the span of the kept rows.
    - The reduced basis, once `use_basis` has given it: when it is exact
      through d, a product w*a is not a normal word exactly when a tip t is
      a suffix of it, and that tip is unique, as the tips form an antichain.
      Its row is u*g = u*t + u*(g - t), for g the element of t and w*a =
      u*t, where u is a normal word.  `_basis_rows` finds t among the tips
      less their last arrow and lists the terms of u*(g - t) as they come
      from walking u through the tables below, with no dict per row: a
      column met twice adds up in back-substitution.  No row is eliminated,
      and none is zero.

    The columns left without a pivot are the normal words of length d,
    numbered in (i, k) order.  A pivot row's other columns lie right of its
    pivot, so back-substitution in descending column order gives each
    pivot its normal form: the tables of degree d - 1.
    """

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Arrow], order: OrderSpec,
                 relations: Iterable[AlgebraElement]):
        self.vertices, self.arrows = tuple(vertices), tuple(arrows)
        self.field, self._p = order.field, order.field.characteristic
        self.rank = [order.arrow_rank[a.name] for a in self.arrows]
        self._width = len(order.arrow_rank)
        self._leaving: dict[str, list[int]] = {}
        for k, a in enumerate(self.arrows):
            self._leaving.setdefault(a.source, []).append(k)
        self._number = {a: k for k, a in enumerate(self.arrows)}
        self._relations = [self._read(r) for r in relations]
        # Per relation: the rank words u whose row u*r was empty or reduced to zero (`_eliminate`).
        self._zero: list[set[tuple[int, ...]]] = [set() for _ in self._relations]
        # Once `use_basis` has run: per tip number, its element less the tip, read as a relation; the
        # tip's rank word less its last arrow -> {the last arrow's rank: tip number}; and the tip lengths.
        self._tails: list[tuple] | None = None
        self._heads: dict[tuple[int, ...], dict[int, int]] = {}
        self._tip_lengths: list[int] = []
        n = len(self.vertices)
        self.basis: list[list[Path]] = [[Path(v, v) for v in self.vertices]]
        self.parent: list[list[tuple[int, int]]] = [[]]
        self.ranks: list[list[tuple[int, ...]]] = [[()] * n]
        self.between: list[dict[tuple[str, str], list[int]]] = [{(v, v): [i] for i, v in enumerate(self.vertices)}]
        self.rewritten: list[list[tuple[int, int]]] = []
        self.tables: list[list[list[list[tuple[int, object]]]]] = []
        # Per degree: each word's place by rank word (0 for every vertex, so
        # that a length-1 column is its arrow's rank), and the word numbers
        # ending at each vertex, in descending term order.
        self._place: list[list[int]] = [[0] * n]
        self._ending: list[dict[str, list[int]]] = [{v: [i] for i, v in enumerate(self.vertices)}]

    def _read(self, r: AlgebraElement, drop: Path | None = None) -> tuple:
        """r's degree, its source, and per term but `drop`'s: (the arrow numbers but the last, the last, scalar)."""
        number, some = self._number, next(iter(r.terms))
        return some.length, some.source, [(tuple([number[a] for a in q.arrows[:-1]]), number[q.arrows[-1]], c)
                                          for q, c in r.terms.items() if q != drop]

    def use_basis(self, tips: Iterable[Path], elements: Iterable[AlgebraElement]) -> None:
        """Build every later degree from the reduced Groebner basis with these tips and elements.

        The basis must be exact through each such degree: complete, or
        truncated at no lower degree.  Once a basis is given, a second call
        leaves it as it is.
        """
        if self._tails is not None:
            return
        rank, number, tails, lengths = self.rank, self._number, [], set()
        for t, g in zip(tips, elements):
            key = [rank[number[a]] for a in t.arrows]
            self._heads.setdefault(tuple(key[:-1]), {})[key[-1]] = len(tails)
            tails.append(self._read(g, t))
            lengths.add(len(key))
        self._tails, self._tip_lengths = tails, sorted(lengths)

    def _walks(self, relation: tuple, d: int) -> list:
        """Per term of a relation, the tables and scalars that `_row` walks a word of degree d - e through."""
        e, _v, terms = relation
        tables, rank = self.tables, self.rank
        return [(tables[d - e][head[0]], [tables[d - e + s][a] for s, a in enumerate(head) if s], rank[k], c)
                for head, k, c in terms]

    def _eliminate(self, d: int) -> dict[int, Iterable[tuple[int, object]]]:
        """Pivot column -> its row's (column, scalar) pairs, from one elimination of the rows u*r of degree d but
        those known to reduce to zero."""
        span = Subspace(self.field)
        pivots = span.row_of_pivot
        place, width, p = self._place[d - 1], self._width, self._p
        for relation, zero in zip(self._relations, self._zero):
            e, v, _terms = relation
            if e > d:
                continue
            walks, ranks = self._walks(relation, d), self.ranks[d - e]
            for u in reversed(self._ending[d - e].get(v, ())):
                word = ranks[u]
                if zero and any(word[s:] in zero for s in range(d - e + 1)):
                    continue
                row = _row(walks, u, place, width, p)
                if not row:
                    zero.add(word)
                elif min(row) in pivots:
                    if not span.add(row):
                        zero.add(word)
                else:
                    span.insert(row)
        return {col: span.rows[n].items() for col, n in pivots.items()}

    def _basis_rows(self, d: int) -> dict[int, list[tuple[int, object]]]:
        """Pivot column -> the terms of u*(g - t), for each product w*a of degree d that a tip t ends: w*a = u*t.

        A normal word w of length d - 1 looks up its suffix of each tip
        length n less one among the tips less their last arrow; each tip so
        found ends w times its last arrow.  The terms are (column, scalar)
        pairs, straight from the walks of g - t, so a column may repeat.
        """
        heads, tails, lengths = self._heads, self._tails, [n for n in self._tip_lengths if n <= d]
        parent, place, width, p = self.parent, self._place[d - 1], self._width, self._p
        rows: dict[int, list[tuple[int, object]]] = {}
        walks: dict[int, list] = {}
        for i, word in enumerate(self.ranks[d - 1]):
            for n in lengths:
                ends = heads.get(word[d - n:])
                if ends is None:
                    continue
                # u: word i less its last n - 1 arrows
                u = i
                for e in range(d - 1, d - n, -1):
                    u = parent[e][u][0]
                for r, g in ends.items():
                    tail = walks.get(g)
                    if tail is None:
                        tail = walks[g] = self._walks(tails[g], d)
                    rows[place[i] * width + r] = [(place[i2] * width + r2, c * x) for first, rest, r2, c in tail
                                                  for i2, x in (_walk(first[u], rest, p) if rest else first[u])]
        return rows

    def grow(self) -> None:
        """Add the next degree: its normal words, and the tables of every arrow on the degree below."""
        d = len(self.basis)
        below, place, p, width, rank = self.basis[d - 1], self._place[d - 1], self._p, self._width, self.rank
        rows = self._eliminate(d) if self._tails is None else self._basis_rows(d)
        # Column -> number of its normal word, or the (i, k) of its rewritten product.
        normal: dict[int, int] = {}
        products: dict[int, tuple[int, int]] = {}
        level, parent, ranks = [], [], []
        for i, (w, word) in enumerate(zip(below, self.ranks[d - 1])):
            base = place[i] * width
            for k in self._leaving.get(w.target, ()):
                col = base + rank[k]
                if col in rows:
                    products[col] = (i, k)
                    continue
                a = self.arrows[k]
                normal[col] = len(level)
                level.append(Path(w.source, a.target, w.arrows + (a,)))
                parent.append((i, k))
                ranks.append(word + (rank[k],))
        one, of = self.field.one, self.field.of
        # Rows are replaced, never changed in place, so they may start as one empty list.
        tables = [[[]] * len(below) for _ in self.arrows]
        for j, (i, k) in enumerate(parent):
            tables[k][i] = [(j, one)]
        # A pivot row's other columns lie right of its pivot, so their forms are known when it comes.
        forms: dict[int, list[tuple[int, object]]] = {}
        rewritten = []
        for col in sorted(products, reverse=True):
            form: dict[int, object] = {}
            for c, x in rows[col]:
                if c == col:
                    continue
                j = normal.get(c)
                if j is not None:
                    form[j] = form.get(j, 0) - x
                    continue
                for j, y in forms[c]:
                    form[j] = form.get(j, 0) - x * y
            i, k = products[col]
            tables[k][i] = forms[col] = [(j, x % p) for j, x in form.items() if x % p] if p else [
                (j, of(x)) for j, x in form.items() if x]
            rewritten.append((i, k))
        places, between, ending = [0] * len(level), {}, {}
        for n, col in enumerate(sorted(normal)):
            j = normal[col]
            places[j] = n
            between.setdefault((level[j].source, level[j].target), []).append(j)
            ending.setdefault(level[j].target, []).append(j)
        self.basis.append(level)
        self.parent.append(parent)
        self.ranks.append(ranks)
        self.between.append(between)
        self.tables.append(tables)
        self.rewritten.append(rewritten)
        self._place.append(places)
        self._ending.append(ending)


def groebner_basis(generators: Iterable[AlgebraElement], order: OrderSpec, max_degree: int) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal the generators generate, truncated at max_degree.

    `Levels` grows from the generators one degree d at a time, by
    elimination.  The minimal tips of degree d are its rewritten products
    whose suffix one arrow shorter is a normal word (the prefix is normal
    already).  A tip's element is the tip minus its normal form, its table
    row, so the basis is reduced as it is read; the tips are listed in
    ascending term order.

    The status is `complete` exactly when no generator lies above
    max_degree and every proper overlap among the final tips has degree <=
    max_degree, or every element is a monomial: each such overlap's
    S-element lies in the span eliminated at its degree, so Bergman's
    diamond lemma certifies the basis.  `max_overlap_degree` is the largest
    proper-overlap degree among the final tips, kept in prefix and suffix
    tables as the tips come (`OverlapDegree`).  The levels stop at the
    first degree that is at least every generator's and at which that test
    already holds, as no element lies above it.  The model grows them
    further from the basis itself (`Levels.use_basis`).
    """
    field = order.field
    gens = _validate_generators(generators, field)
    rank = order.arrow_rank
    arrows = sorted({a for g in gens for q in g.terms for a in q.arrows}, key=lambda a: rank[a.name])
    # An order built by hand may leave out a vertex that the generators reach.
    ends = {v for a in arrows for v in (a.source, a.target)}.difference(order.vertex_precedence)
    levels = Levels([*order.vertex_precedence, *sorted(ends)], arrows, order, gens)
    top = max((g.degree() for g in gens), default=0)
    elements, tips, overlaps = [], [], OverlapDegree()
    monomial, max_overlap, d = True, 0, 0
    while d < max_degree and not (top <= d and (monomial or max_overlap <= d)):
        d += 1
        levels.grow()
        heads, words, normal = levels.basis[d - 1], levels.basis[d], set(levels.ranks[d - 1])
        for i, k in levels.rewritten[d - 1]:
            key = levels.ranks[d - 1][i] + (levels.rank[k],)
            if key[1:] not in normal:
                continue
            w, a = heads[i], levels.arrows[k]
            tips.append(Path(w.source, a.target, w.arrows + (a,)))
            tail = levels.tables[d - 1][k][i]
            terms = {words[j]: field.of(-x) for j, x in tail}
            terms[tips[-1]] = 1
            elements.append(AlgebraElement(terms))
            monomial = monomial and not tail
            max_overlap = overlaps.add(key)
    complete = top <= max_degree and (monomial or max_overlap <= max_degree)
    return GroebnerBasis(tuple(elements), tuple(tips), complete, max_degree, order, max_overlap, levels)
