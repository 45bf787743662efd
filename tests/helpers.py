"""Shared property checks over random corpus instances, reference computations and test-data builders.

Each checker returns a list of human-readable failure strings; the property
suite and the acceptance suite assert those lists are empty.  The
completion helpers work on paths and elements only, apart from
`normal_form`, so they check `groebner_basis` without sharing its rank-word
code.  `reference_first_syzygy` filters by Path divisibility, so it checks
`first_syzygy` without sharing its reading of the model's parent links.
"""
import itertools
import random
from heapq import heapify, heappop, heappush

from pathalg import (
    AlgebraElement,
    Generator,
    ModuleElement,
    ModulePresentation,
    OrderSpec,
    Quiver,
    divides,
    enumerate_overlaps,
    groebner_basis,
    monic,
    normal_form,
    tip,
)
from pathalg.corpus import check_composition_bounds, check_extrema_inequalities  # noqa: F401
from pathalg.corpus import instances, normal_word_dims_ok
from pathalg.fields import Field
from pathalg.oracle import presentation_cover
from tests.reference import divides_left, find_partition, left_mul, reference_span_from_seeds, right_mul


def random_homogeneous_element(
    rng: random.Random, quiver: Quiver, field: Field, degree: int, terms: int = 2
) -> AlgebraElement:
    """A random homogeneous element (possibly zero if no parallel paths exist)."""
    paths = quiver.paths_of_length(degree)
    rng.shuffle(paths)
    if not paths:
        return AlgebraElement()
    anchor = paths[0]
    parallel = [p for p in paths if (p.source, p.target) == (anchor.source, anchor.target)]
    combo = {}
    for p in parallel[:terms]:
        combo[p] = field.of(rng.randint(-3, 3)) if rng.random() < 0.8 else field.of(1)
    return AlgebraElement(combo)


def cyclic(quiver: Quiver, vertex: str, relation_paths, one, name: str = "g") -> ModulePresentation:
    """A / (sum of p*A) for paths p starting at `vertex` (single free generator)."""
    gens = (Generator(name, vertex, 0),)
    rels = tuple(ModuleElement({(0, p): one}) for p in relation_paths)
    return ModulePresentation(gens, rels)


def chain_table(inst, max_n):
    return enumerate_overlaps(inst.quiver, inst.patterns, max_n)


def check_predecessor_uniqueness(inst, table, max_n):
    out = []
    for n in range(1, max_n + 1):
        prev = set(table.levels[n - 1])
        for w in table.overlaps(n):
            hits = [p for p in prev if divides_left(p, w)]
            if len(hits) != 1:
                out.append(f"{inst.seed}: level {n}: {w} has {len(hits)} predecessors")
        prev_q = set(table.quasi_levels[n - 1])
        for (w, v) in table.quasi(n):
            hits = [p for (p, vv) in prev_q if vv == v and divides_left(p, w)]
            if len(hits) != 1:
                out.append(f"{inst.seed}: quasi level {n}: ({w},{v}) has {len(hits)} predecessors")
    return out


def check_members_have_partitions(inst, table, max_n):
    out = []
    for n in range(1, max_n + 1):
        for w in table.overlaps(n):
            if find_partition(w, n, inst.patterns) is None:
                out.append(f"{inst.seed}: level {n}: member {w} has no cut")
        for (w, v) in table.quasi(n):
            if find_partition(w, n, inst.patterns, context=v) is None:
                out.append(f"{inst.seed}: quasi level {n}: member ({w},{v}) has no cut")
    return out


def check_partition_equivalence(inst, table, max_n, max_word_len):
    """Both directions over every composable word up to max_word_len."""
    out = []
    members = {n: set(table.overlaps(n)) for n in range(1, max_n + 1)}
    quasi_members = {n: set(table.quasi(n)) for n in range(1, max_n + 1)}
    contexts = sorted(
        {s.prefix(j) for s in inst.patterns for j in range(1, s.length)},
        key=lambda p: (p.length, str(p)),
    )
    for L in range(1, max_word_len + 1):
        for w in inst.quiver.paths_of_length(L):
            for n in range(1, max_n + 1):
                has_cut = find_partition(w, n, inst.patterns) is not None
                if has_cut != (w in members[n]):
                    out.append(f"{inst.seed}: level {n}: {w}: cut={has_cut} member={not has_cut}")
                for v in contexts:
                    if v.target != w.source:
                        continue
                    has_cut = find_partition(w, n, inst.patterns, context=v) is not None
                    if has_cut != ((w, v) in quasi_members[n]):
                        out.append(f"{inst.seed}: quasi level {n}: ({w},{v}) mismatch")
    return out


def check_quasi_lifting(inst, table, max_n):
    """Every quasi pair (w, v) lifts: some right divisor v' of v has v'*w a member."""
    out = []
    for n in range(1, max_n + 1):
        members = set(table.overlaps(n))
        for (w, v) in table.quasi(n):
            lifts = []
            for k in range(1, v.length + 1):
                vp = v.suffix(k)
                if vp.target == w.source:
                    cand = vp * w
                    if cand in members:
                        lifts.append(vp)
            if not lifts:
                out.append(f"{inst.seed}: quasi level {n}: ({w},{v}) does not lift")
    return out


def proper_overlaps(ta, tb):
    """(degree, shared) for each proper overlap: the last `shared` arrows of ta begin tb, shared < len(tb)."""
    for k in range(1, min(ta.length, tb.length - 1) + 1):
        if ta.suffix(k) == tb.prefix(k):
            yield ta.length + tb.length - k, k


def _s_element(a, b, ta, tb, shared):
    """The S-element of monic a and b at an overlap of their tips: a's multiple minus b's.

    Over F_p its coefficients lie in (-p, p), and a nonzero one is nonzero
    mod p, because both multiples have coefficients in [0, p); `normal_form`
    reduces them on intake.
    """
    left, right = right_mul(a, tb.suffix(tb.length - shared)), left_mul(b, ta.prefix(ta.length - shared))
    terms = dict(left.terms)
    for q, c in right.terms.items():
        prev = terms.get(q)
        terms[q] = -c if prev is None else prev - c
    return AlgebraElement(terms)


def reference_completion(gens, order, cap):
    """(rendered reduced basis, status, max overlap degree) by plain degree-ordered completion.

    Every S-element of degree <= cap is reduced; no criterion skips one.
    """
    field = order.field
    gens = [g for g in (AlgebraElement({q: field.of(c) for q, c in g.terms.items()}) for g in gens) if g]
    ticket = itertools.count()
    queue = [(g.degree(), next(ticket), g) for g in gens if g.degree() <= cap]
    waiting = len(queue) < len(gens)
    heapify(queue)
    elements, tips = [], []
    while queue:
        _, _, x = heappop(queue)
        h = normal_form(x, elements, order)
        if not h:
            continue
        elements.append(monic(h, order))
        tips.append(tip(elements[-1], order))
        k = len(elements) - 1
        for j in range(k + 1):
            for ia, ib in ((k, j), (j, k)) if j < k else ((k, k),):
                for deg, shared in proper_overlaps(tips[ia], tips[ib]):
                    if deg <= cap:
                        s = _s_element(elements[ia], elements[ib], tips[ia], tips[ib], shared)
                        heappush(queue, (deg, next(ticket), s))
    basis = []
    for g, t in zip(elements, tips):
        terms = dict(normal_form(AlgebraElement({q: c for q, c in g.terms.items() if q != t}), elements, order).terms)
        terms[t] = 1
        basis.append(AlgebraElement(terms))
    basis.sort(key=lambda g: order.path_key(tip(g, order)))
    max_overlap = max((deg for ta in tips for tb in tips for deg, _ in proper_overlaps(ta, tb)), default=0)
    complete = not waiting and (all(len(g.terms) == 1 for g in basis) or max_overlap <= cap)
    return [g.render() for g in basis], "complete" if complete else f"truncated-at-degree-{cap}", max_overlap


def monomial_bundles(count, rng_seed, degree_cap=12):
    """Dim-capped monomial corpus algebras with complete bases and tables."""
    one = Field(0).one
    out = []
    for inst in instances(rng_seed, 200):
        if len(out) >= count:
            break
        if not normal_word_dims_ok(inst.quiver, inst.patterns, degree_cap, block_cap=46):
            continue
        order = OrderSpec.for_quiver(inst.quiver)
        gens = [AlgebraElement({p: one}) for p in inst.patterns]
        gb = groebner_basis(gens, order, max(p.length for p in inst.patterns))
        assert gb.complete
        out.append((inst, gb))
    return out


def reference_first_syzygy(pres, model, degree_cap):
    """(survivor tips, survivor elements, absorbed (generator, tip, lift) triples) by Path divisibility.

    A pivot of the relation span, taken per block in ascending column order,
    survives unless a kept tip of its generator left-divides it; its
    survivor element is the pivot's row, read as (generator, normal word)
    terms, which `first_syzygy` does not build.
    Each basis element g, lifted by each normal word u from the generator's
    vertex, is absorbed when its tip w = u*tip(g) has no tip in its longest
    proper prefix and no kept tip as a left divisor.
    """
    gb = model.gb
    cover, seeds = presentation_cover(pres, model)
    pieces = reference_span_from_seeds(cover, seeds, degree_cap)
    kept_tips, kept_elems = [], []
    for d in range(degree_cap + 1):
        for v in model.quiver.vertices:
            sub = pieces.get(d, v)
            if not sub:
                continue
            cols = cover.block(d, v)[0]
            column = {n: (j, model.basis[d - pres.generators[j].degree][i]) for n, (j, i) in enumerate(cols)}
            # Pivots in ascending column order, as `first_syzygy` reads them.
            for piv, row in sorted(zip(sub.pivot_of_row, sub.rows), key=lambda pr: pr[0]):
                i, p = column[piv]
                if any(j == i and divides_left(q, p) for (j, q) in kept_tips):
                    continue
                kept_tips.append((i, p))
                kept_elems.append(ModuleElement({column[n]: c for n, c in row.items()}))
    absorbed = []
    for j, g in enumerate(pres.generators):
        for length_u in range(degree_cap + 1):
            for u in model.basis[length_u]:
                if u.source != g.vertex:
                    continue
                for elem, t in zip(gb.elements, gb.tips):
                    if t.source != u.target or g.degree + length_u + t.length > degree_cap:
                        continue
                    w = u * t
                    if any(divides(s, w.prefix(w.length - 1)) for s in gb.tips):
                        continue
                    if any(jj == j and divides_left(q, w) for (jj, q) in kept_tips):
                        continue
                    lift = left_mul(elem, u)
                    absorbed.append((j, w, ModuleElement({(j, p): c for p, c in lift.terms.items()})))
    return kept_tips, kept_elems, absorbed
