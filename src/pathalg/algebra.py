"""Elements of kQ and of free right kQ-modules, normal forms, and Groebner bases.

An AlgebraElement is a finite map from parallel paths to nonzero scalars.
A ModuleElement is a finite map from (generator index, path) pairs to
nonzero scalars; generator metadata lives with the module presentation.
Elements do no arithmetic of their own: the field comes with the term
order (`OrderSpec.field`), and the routines that take an order do the
arithmetic.  Over F_p a scalar is an int in [0, p); an element built by
hand may hold any ints, and `groebner_basis`, `normal_form`, `monic` and
`TipIndex.add` reduce them mod p on intake, so a term that vanishes mod p
never acts as a nonzero one.

The reduced Groebner basis of a homogeneous ideal I inside (kQ_{>0})^2 is
computed by overlap completion, truncated at a caller-supplied degree; the
completeness status is part of the result.  Completion is degree-ordered,
as in Bergman's diamond lemma and Green's completion for path algebras:
generators and overlaps wait in one heap keyed by degree, and each is
reduced once against the basis so far.  Because they arrive in increasing
degree, a new tip neither is divisible by an older tip nor divides one, so
the tips form an antichain throughout, no element is ever dropped, and one
final pass that reduces every tail makes the basis reduced.  An overlap's
S-element is built from the two tails, in rank words, only when it is
popped; a pair of monomials and an overlap that a third tip strictly
inside its ambiguity word already resolves (the chain criterion) are not
reduced at all.  A normal form is a single descending pass over a heap of
rank words (`_reduce_words`); each word's reducer is found in one scan of
the word by a TipIndex, an Aho-Corasick automaton over the tip words,
which a GroebnerBasis builds once and keeps.  Completion works in rank
words throughout: each new element goes into the TipIndex by `insert`, and
no `Path` is built until the reduced basis is returned.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from .errors import PathAlgError, TruncatedBasisError
from .fields import Field
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

    def left_mul(self, u: Path) -> "AlgebraElement":
        return AlgebraElement({u * p: c for p, c in self.terms.items() if u.target == p.source})

    def right_mul(self, v: Path) -> "AlgebraElement":
        return AlgebraElement({p * v: c for p, c in self.terms.items() if p.target == v.source})

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
    p = order.field.characteristic
    support = [q for q, c in x.terms.items() if c % p] if p else x.terms
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
    """Reducers for `normal_form`, looked up by the arrow ranks of their tips.

    A word is handled as the tuple of its arrows' precedence ranks (0 is
    the greatest arrow), so among words of one length the smaller tuple is
    the greater word.  The reducer of a word is the first element, in
    insertion order, whose tip divides it, taken at the tip's leftmost
    occurrence.  It is found in one left-to-right scan of the word through
    an Aho-Corasick automaton over the tip words: each state knows the
    first element whose tip is a suffix of the state's word, so every end
    position of the word offers the best tip ending there, and the scan
    keeps a position's offer only when it is strictly better.  This rule
    needs no antichain: nested, suffix and duplicate tips get the same
    reducer as a search of every factor would give them.  The index keeps
    rank words only, no elements: `insert` takes an element as rank words,
    and `add` is the `Path` edge.  Either leaves the automaton stale, and
    the next `find` rebuilds it.
    """

    def __init__(self, order: OrderSpec, elements: Iterable[AlgebraElement] = ()):
        self.order = order
        # Per element: tip ranks, and the tail as (ranks, coefficient / lead) pairs.
        self.keys: list[tuple[int, ...]] = []
        self.tails: list[list[tuple[tuple[int, ...], object]]] = []
        # rank -> Arrow, for every arrow of a tip or a tail (and, in completion, of a generator)
        self.arrows: dict[int, Arrow] = {}
        # Dense transition rows (one per state, indexed by arrow rank) and,
        # per state, the first element whose tip is a suffix of its word
        # (len(keys) for none); None while stale.
        self._goto: list[list[int]] | None = None
        self._first: list[int] = []
        for g in elements:
            self.add(g)

    def add(self, g: AlgebraElement) -> None:
        """Insert g, taken into the order's field; a zero g is skipped, a vertex tip refused."""
        g = _reduced(g, self.order.field)
        if not g:
            return
        if not any(q.arrows for q in g.terms):
            raise PathAlgError(f"a reducer tip must have positive length; got {next(iter(g.terms))}")
        self.insert(_words(g, self.order, self.arrows))

    def insert(self, words: Mapping[tuple[int, ...], object]) -> None:
        """Insert the element with these nonzero terms of the order's field, made monic on its tip.

        The terms are keyed by rank word; the tip is the longest word, and among those the least tuple.
        """
        key = min(words, key=lambda w: (-len(w), w))
        p, inv = self.order.field.characteristic, self.order.field.inverse(words[key])
        self.keys.append(key)
        self.tails.append([(w, c * inv % p if p else c * inv) for w, c in words.items() if w != key])
        self._goto = None

    def _build(self) -> None:
        width, none = len(self.order.arrow_rank), len(self.keys)
        goto, first = [[-1] * width], [none]
        for k, key in enumerate(self.keys):
            s = 0
            for r in key:
                row = goto[s]
                s = row[r]
                if s < 0:
                    s = row[r] = len(goto)
                    goto.append([-1] * width)
                    first.append(none)
            first[s] = min(first[s], k)
        # Breadth first, so a state's failure state (a shallower one) is
        # complete when the state is reached; a missing transition is its
        # failure state's.
        queue = [(t, 0) for t in goto[0] if t >= 0]
        goto[0] = [max(t, 0) for t in goto[0]]
        for s, f in queue:
            if first[f] < first[s]:
                first[s] = first[f]
            row, frow = goto[s], goto[f]
            for r in range(width):
                t = row[r]
                if t < 0:
                    row[r] = frow[r]
                else:
                    queue.append((t, frow[r]))
        self._goto, self._first = goto, first

    def find(self, w: tuple[int, ...]) -> tuple[int, int] | None:
        """(insertion position, offset) of the reducer of word w, or None."""
        if self._goto is None:
            self._build()
        goto, first = self._goto, self._first
        best = len(self.keys)
        s = end = 0
        for j, r in enumerate(w, 1):
            s = goto[s][r]
            k = first[s]
            if k < best:
                best, end = k, j
                if not k:  # no element comes before the first
                    break
        return (best, end - len(self.keys[best])) if end else None


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

    `terms` is used up.  Words are taken from a heap, greatest first.  A
    rewrite replaces a word by smaller ones only (the order is admissible),
    so every word is popped once and the pass ends when the heap is empty.
    Over F_p (p > 0) a word's coefficient is reduced mod p once, when it is
    popped, so the rewrites in between are plain int arithmetic.
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
            out[w] = c
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
    generated by the basis.  x's paths become rank words, `_reduce_words` rewrites them,
    and the surviving words become paths again.
    """
    index = _reducers(basis, order)
    # x's own arrows by rank; the index knows the arrows of its tails.
    own: dict[int, Arrow] = {}
    out = _reduce_words(_words(x, order, own), index, order.field.characteristic)
    # Every rewrite keeps a word's endpoints, so all words share x's.
    end = next(iter(x.terms), None)
    arrows = index.arrows
    return AlgebraElement({Path(end.source, end.target, tuple([own[r] if r in own else arrows[r] for r in w])): c
                           for w, c in out.items()})


def _overlaps(a: tuple, b: tuple):
    """(degree of the ambiguity word, shared) for each proper overlap of word a with word b.

    The length-`shared` suffix of a equals the length-`shared` proper
    prefix of b (shared <= len(a), shared < len(b)); the ambiguity word is
    a glued with b along those letters, a + b[shared:].  Neither word may
    be a factor of the other (tips form an antichain), so no other kind
    of overlap occurs.
    """
    la, lb = len(a), len(b)
    for k in range(1, min(la, lb - 1) + 1):
        if a[la - k:] == b[:k]:
            yield la + lb - k, k


def _path(w: tuple[int, ...], arrows: Mapping[int, Arrow]) -> Path:
    """The path of a nonempty rank word."""
    path = tuple([arrows[r] for r in w])
    return Path(path[0].source, path[-1].target, path)


def _validate_generators(generators: Iterable[AlgebraElement], field: Field) -> list[AlgebraElement]:
    gens = [h for h in (_reduced(g, field) for g in generators) if h]
    for g in gens:
        if not g.is_homogeneous():
            raise PathAlgError(f"inhomogeneous generator: {g.render()}")
        if g.degree() < 2:
            raise PathAlgError("ideal generators must have degree >= 2")
    return gens


def groebner_basis(generators: Iterable[AlgebraElement], order: OrderSpec, max_degree: int) -> GroebnerBasis:
    """Degree-ordered overlap completion up to max_degree, returning the reduced basis.

    One heap holds the work, keyed by degree: each generator at its own
    degree, and each overlap of degree <= max_degree, pushed when the later
    of its two elements joins the basis.  An overlap waits as the pair of
    elements and the number of letters their tips share; its S-element is
    built only when it is popped, in rank words, from the two tails (the
    tips cancel unwritten).  Each item is reduced once against the basis so
    far; a nonzero remainder joins it, made monic.  Since items come out in
    increasing degree, a new tip is not divisible by any older tip (it is
    reduced) and divides none (an older tip is no longer, so it would have
    to be equal).  The tips therefore stay an antichain, no element is ever
    dropped, and every overlap degree exceeds the degrees of both its
    elements.  A final pass reduces each tail against the whole basis.

    Two kinds of overlap are never reduced.  A pair of monomials has the
    S-element 0, so it is not pushed.  And an overlap whose ambiguity word
    w has a basis tip strictly inside it, in w[1:-1], is skipped (the chain
    criterion of Bergman's diamond lemma).  This is sound: every tip
    shorter than w is in the index when w is popped, since items come out
    in degree order.  An interior tip t_k splits the overlap of t_i (a
    prefix of w) with t_j (a suffix) into the pairs (i, k) and (k, j).
    Neither tip is a factor of the other, so each pair is disjoint or
    overlaps in a proper factor of w; that overlap has lower degree and has
    already been resolved, by reduction or, by induction, by this
    criterion.  So the skipped S-element is a combination of multiples of
    basis elements whose terms lie below w, which is all the diamond lemma
    asks of it.  The truncated reduced basis is unique, so the result is
    the one that reducing every S-element gives.

    A generator of degree above max_degree waits above the cap like an
    S-element.  The status is `complete` exactly when no generator waits and
    every proper overlap among the final tips has degree <= max_degree (each
    such S-element is known to reduce to zero when the loop exits);
    all-monomial bases are certified complete outright since their
    S-elements vanish identically.
    """
    gens = _validate_generators(generators, order.field)
    p = order.field.characteristic
    index = TipIndex(order)
    find, keys, tails, arrows = index.find, index.keys, index.tails, index.arrows
    words = [_words(g, order, arrows) for g in gens]
    ticket = itertools.count()
    # Items (degree, ticket, ia, ib, shared): the overlap of elements ia and
    # ib whose tips share `shared` letters, or generator ia when ib is None.
    queue = [(g.degree(), next(ticket), i, None, 0) for i, g in enumerate(gens) if g.degree() <= max_degree]
    waiting = len(queue) < len(gens)
    heapify(queue)
    while queue:
        _, _, ia, ib, shared = heappop(queue)
        if ib is None:
            terms = words[ia]
        else:
            a, b = keys[ia], keys[ib]
            right, left = b[shared:], a[:len(a) - shared]
            # A tip inside the ambiguity word resolves it (see the docstring).
            if find((a + right)[1:-1]) is not None:
                continue
            terms = {q + right: c for q, c in tails[ia]}
            for q, d in tails[ib]:
                w = left + q
                terms[w] = terms.get(w, 0) - d
        h = _reduce_words(terms, index, p)
        if not h:
            continue
        index.insert(h)
        k = len(keys) - 1
        for j in range(k + 1):
            for ia, ib in ((k, j), (j, k)) if j < k else ((k, k),):
                if tails[ia] or tails[ib]:
                    for deg, shared in _overlaps(keys[ia], keys[ib]):
                        if deg <= max_degree:
                            heappush(queue, (deg, next(ticket), ia, ib, shared))

    # Ascending term order by tip: the reverse of the order `insert` takes its tip by.
    ranked = sorted(range(len(keys)), key=lambda k: (-len(keys[k]), keys[k]), reverse=True)
    basis = []
    for k in ranked:
        terms = _reduce_words(dict(tails[k]), index, p)
        terms[keys[k]] = 1
        basis.append(AlgebraElement({_path(w, arrows): c for w, c in terms.items()}))
    tips_ = tuple(_path(keys[k], arrows) for k in ranked)
    all_monomial = all(len(g.terms) == 1 for g in basis)
    max_overlap = max((deg for a in keys for b in keys for deg, _ in _overlaps(a, b)), default=0)
    complete = not waiting and (all_monomial or max_overlap <= max_degree)
    return GroebnerBasis(tuple(basis), tips_, complete, max_degree, order, max_overlap)

