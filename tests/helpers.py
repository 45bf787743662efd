"""Shared property checks over random corpus instances.

Each checker returns a list of human-readable failure strings; the property
suite and the acceptance suite assert those lists are empty.
"""
from pathalg import enumerate_overlaps, find_partition
from pathalg.corpus import check_composition_bounds, check_extrema_inequalities  # noqa: F401


def chain_table(inst, max_n):
    return enumerate_overlaps(inst.quiver, inst.patterns, max_n)


def check_predecessor_uniqueness(inst, table, max_n):
    from pathalg import divides_left

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
