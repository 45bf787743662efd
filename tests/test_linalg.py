"""Sparse Subspace and left_nullspace against brute-force dense elimination."""
import random
from fractions import Fraction

import pytest

from pathalg.fields import Field
from pathalg.linalg import Subspace, left_nullspace


def _dense(vec, ncols, zero):
    row = [zero] * ncols
    for k, c in vec.items():
        row[k] = c
    return row


def _norm(field):
    """Reduction of an exact scalar: mod p over F_p (scalars are plain ints), none over Q."""
    p = field.characteristic
    return (lambda c: c % p) if p else (lambda c: c)


def _dense_rref(rows, ncols, field):
    """(pivot, row) pairs of the reduced row echelon form, by Gauss-Jordan elimination on dense copies."""
    p, norm = field.characteristic, _norm(field)
    work = [[norm(c) for c in _dense(r, ncols, field.zero)] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p) if p else 1 / Fraction(work[rank][col])
        work[rank] = [norm(x * inv) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [norm(x - c * y) for x, y in zip(work[i], work[rank])]
        pivots.append(col)
    return list(zip(pivots, work))


def _dense_rank(rows, ncols, field):
    return len(_dense_rref(rows, ncols, field))


def _dense_residue(rref, vec, ncols, field):
    """vec with every pivot column of a reduced row echelon form cleared."""
    norm = _norm(field)
    out = _dense(vec, ncols, field.zero)
    for col, row in rref:
        c = out[col]
        if c:
            out = [norm(x - c * y) for x, y in zip(out, row)]
    return {k: c for k, c in enumerate(out) if c}


def _random_rows(rng, field, m, ncols):
    """m sparse rows with some zero rows and some duplicated (scaled) rows."""
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.25 and rows:
            c = field.of(rng.choice([1, 2, -3]))
            rows.append({k: _norm(field)(x * c) for k, x in rng.choice(rows).items()})
        else:
            vec = {}
            for k in rng.sample(range(ncols), rng.randint(1, max(1, ncols // 2))):
                x = field.of(rng.randint(-3, 3))
                if x:
                    vec[k] = x
            rows.append(vec)
    return rows


def _cases(field):
    """40 seeded (rng, rows, ncols) cases over the field."""
    rng = random.Random(20261018 + field.characteristic)
    for _ in range(40):
        m, ncols = rng.randint(1, 9), rng.randint(1, 8)
        yield rng, _random_rows(rng, field, m, ncols), ncols


FIELDS = pytest.mark.parametrize("field", [Field(0), Field(7)], ids=["Q", "F7"])


@FIELDS
def test_subspace_matches_dense_elimination(field):
    zero = field.zero
    for rng, rows, ncols in _cases(field):
        space = Subspace(field)
        for row in rows:
            space.add(row)
        rref = _dense_rref(rows, ncols, field)
        r = len(rref)
        assert space.dim == r
        # Echelon form: distinct pivots, each its row's smallest column, with entry 1.
        assert len(set(space.pivot_of_row)) == r
        for row, p in zip(space.rows, space.pivot_of_row):
            assert min(row) == p and row[p] == field.one
        shuffled = list(rows)
        rng.shuffle(shuffled)
        other = Subspace(field)
        for row in shuffled:
            other.add(row)
        for probe in _random_rows(rng, field, 6, ncols) + rows:
            assert space.contains(probe) == (_dense_rank(rows + [probe], ncols, field) == r)
            res = space.residue(probe)
            assert not any(p in res for p in space.row_of_pivot)
            assert res == _dense_residue(rref, probe, ncols, field)
            assert res == other.residue(probe)
            # probe - residue lies in the span.
            diff = dict(probe)
            for k, c in res.items():
                diff[k] = diff.get(k, zero) - c
            assert _dense_rank(rows + [{k: c for k, c in diff.items() if c}], ncols, field) == r


@FIELDS
def test_left_nullspace_matches_dense_elimination(field):
    zero = field.zero
    for _rng, rows, ncols in _cases(field):
        null = left_nullspace(rows, field)
        assert len(null) == len(rows) - _dense_rank(rows, ncols, field)
        for combo in null:
            total = [zero] * ncols
            for i, c in combo.items():
                for k, x in rows[i].items():
                    total[k] = total[k] + c * x
            assert not any(map(_norm(field), total))
        assert _dense_rank(null, len(rows), field) == len(null)


def test_rational_scalars_are_ints_unless_fractional():
    Q = Field(0)
    for x in (Q.zero, Q.one, Q.of(4), Q.of("4/2"), Q.inverse(-1)):
        assert type(x) is int, x
    for x in (Q.of("1/2"), Q.inverse(2)):
        assert type(x) is Fraction, x


def test_rational_elimination_holds_no_float():
    # Pivot entries 2 and -3 make Subspace scale rows by a real Fraction.
    Q = Field(0)
    pivots_2_and_minus_3 = [{0: 2, 1: 1}, {1: -3, 2: 1}, {0: 1, 2: 2}, {0: 4, 1: -1, 2: 3}]
    cases = list(_cases(Q)) + [(random.Random(0), pivots_2_and_minus_3, 3)]
    fractions = 0
    for rng, rows, ncols in cases:
        space = Subspace(Q)
        for row in rows:
            space.add(row)
        probes = _random_rows(rng, Q, 6, ncols) + rows
        vectors = space.rows + [space.residue(probe) for probe in probes] + left_nullspace(rows, Q)
        scalars = [c for vec in vectors for c in vec.values()]
        assert not any(isinstance(c, float) for c in scalars)
        fractions += sum(type(c) is Fraction for c in scalars)
    assert fractions


@FIELDS
def test_rows_inserted_unreduced_give_the_residues_of_their_reduced_forms(field):
    # A vector whose least column is no pivot yet may go in as it is
    # (`insert`): the pivots are those `add` gives, and so is every residue.
    rng = random.Random(20261019 + field.characteristic)
    unreduced = 0
    for _ in range(40):
        ncols = rng.randint(1, 10)
        vectors = []
        for lead in rng.sample(range(ncols), rng.randint(1, ncols)):
            vec = {lead: field.of(rng.choice([1, 2, -3]))}
            for k in range(lead + 1, ncols):
                x = field.of(rng.randint(-3, 3))
                if x and rng.random() < 0.5:
                    vec[k] = x
            vectors.append(vec)
        raw, reduced = Subspace(field), Subspace(field)
        for vec in vectors:
            assert raw.insert(vec) and reduced.add(vec)
        assert raw.pivot_of_row == reduced.pivot_of_row
        unreduced += raw.rows != reduced.rows
        rref = _dense_rref(vectors, ncols, field)
        for probe in _random_rows(rng, field, 6, ncols) + vectors:
            assert raw.residue(probe) == reduced.residue(probe) == _dense_residue(rref, probe, ncols, field)
    assert unreduced > 10
