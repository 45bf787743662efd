"""Seeded random instances for property suites: quivers, reduced monomial
pattern sets, and module presentations.  Everything is driven by a
random.Random so corpora are reproducible from a single seed.  The
chain-table inequality checks that `selfcheck` and the tests run over
these instances live here too."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import ModuleElement
from .fields import Field
from .overlaps import OverlapTable, compose_bounds
from .presentation import Generator, ModulePresentation
from .quiver import Arrow, Path, Quiver, divides, normal_word_levels


def random_quiver(rng: random.Random) -> Quiver:
    """One to three vertices and one to four arrows with random ends."""
    nv = rng.randint(1, 3)
    vertices = tuple(f"v{i}" for i in range(nv))
    na = rng.randint(1, 4)
    arrows = []
    for i in range(na):
        src = rng.choice(vertices)
        tgt = rng.choice(vertices)
        arrows.append(Arrow(f"a{i}", src, tgt))
    return Quiver(vertices, tuple(arrows))


def random_walk(rng: random.Random, quiver: Quiver, length: int) -> Path | None:
    starts = [a for a in quiver.arrows]
    if not starts:
        return None
    word = [rng.choice(starts)]
    while len(word) < length:
        nxt = [a for a in quiver.arrows if a.source == word[-1].target]
        if not nxt:
            return None
        word.append(rng.choice(nxt))
    return Path.of(tuple(word))


def random_reduced_patterns(rng: random.Random, quiver: Quiver) -> list[Path]:
    """A reduced set of at most five paths of lengths 2 to 4, from 60 random walks; may be empty."""
    target = rng.randint(1, 5)
    chosen: list[Path] = []
    for _ in range(60):
        if len(chosen) >= target:
            break
        p = random_walk(rng, quiver, rng.randint(2, 4))
        if p is None:
            continue
        if any(divides(p, q) or divides(q, p) for q in chosen):
            continue
        chosen.append(p)
    return chosen


@dataclass(frozen=True)
class CorpusInstance:
    seed: int
    quiver: Quiver
    patterns: tuple[Path, ...]


def instances(seed: int, count: int) -> list[CorpusInstance]:
    """Deterministic corpus: quivers with a reduced monomial pattern set each."""
    out = []
    rng = random.Random(seed)
    while len(out) < count:
        sub_seed = rng.randrange(1 << 30)
        sub = random.Random(sub_seed)
        quiver = random_quiver(sub)
        pats = random_reduced_patterns(sub, quiver)
        if not pats:
            continue
        out.append(CorpusInstance(sub_seed, quiver, tuple(pats)))
    return out


def check_extrema_inequalities(inst: CorpusInstance, table: OverlapTable, max_n: int) -> list[str]:
    """Failures of: quasi extrema sit inside the overlap-derived bound; size bounds hold."""
    out = []
    lenS = table.pattern_length
    for n in range(max_n + 1):
        mino, maxo, minq, maxq = table.extrema(n)
        if not (maxq <= maxo - 1):
            out.append(f"{inst.seed}: level {n}: max quasi {maxq} > max overlap - 1 = {maxo - 1}")
        if not (minq >= mino - lenS + 1):
            out.append(f"{inst.seed}: level {n}: min quasi {minq} < {mino - lenS + 1}")
        if table.overlaps(n):
            if not (mino >= n + 1):
                out.append(f"{inst.seed}: level {n}: min overlap {mino} < {n + 1}")
            if not (maxo <= lenS * n - n + 1):
                out.append(f"{inst.seed}: level {n}: max overlap {maxo} > {lenS * n - n + 1}")
    return out


def check_composition_bounds(inst: CorpusInstance, table: OverlapTable, max_total: int) -> list[str]:
    """Failures of the `compose_bounds` interval at every split m + (n - m) of each level n."""
    out = []
    lenS = table.pattern_length
    for n in range(2, max_total + 1):
        if n > table.depth:
            break
        mino, maxo, _, _ = table.extrema(n)
        for m in range(1, n):
            lo, hi = compose_bounds(table.extrema(m), table.extrema(n - m), lenS)
            if not (maxo <= hi):
                out.append(f"{inst.seed}: {m}+{n - m}: max overlap {maxo} > bound {hi}")
            if not (mino >= lo):
                out.append(f"{inst.seed}: {m}+{n - m}: min overlap {mino} < bound {lo}")
    return out


def normal_word_dims_ok(quiver: Quiver, patterns, degree_cap: int, block_cap: int = 220) -> bool:
    """Reject instances whose graded pieces would outgrow desk scale."""
    levels = itertools.islice(normal_word_levels(quiver, patterns), degree_cap + 1)
    return all(len(level) <= block_cap for level in levels)


def random_presentation(
    rng: random.Random,
    quiver: Quiver,
    field: Field,
    max_generators: int = 3,
    max_relations: int = 3,
    max_gen_degree: int = 1,
    max_rel_degree: int = 4,
) -> ModulePresentation:
    """A random graded presentation with relations inside the radical."""
    ngens = rng.randint(1, max_generators)
    gens = tuple(
        Generator(f"m{i}", rng.choice(quiver.vertices), rng.randint(0, max_gen_degree))
        for i in range(ngens)
    )
    rels = []
    for _ in range(rng.randint(1, max_relations)):
        deg = rng.randint(max(g.degree for g in gens) + 1, max(g.degree for g in gens) + max_rel_degree)
        terms: dict[tuple[int, Path], object] = {}
        for i, g in enumerate(gens):
            length = deg - g.degree
            if length < 1:
                continue
            for p in quiver.paths_of_length(length):
                if p.source != g.vertex:
                    continue
                if rng.random() < 0.35:
                    terms[(i, p)] = field.of(rng.choice([-2, -1, 1, 2, 3]))
        if terms:
            rels.append(ModuleElement(terms))
    return ModulePresentation(gens, tuple(rels))
