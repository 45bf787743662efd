"""Sparse Subspace and left_nullspace against brute-force dense elimination."""
import random

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


def _dense_rank(rows, ncols, field):
    """Rank by textbook Gaussian elimination on dense copies."""
    p, norm = field.characteristic, _norm(field)
    work = [[norm(c) for c in _dense(r, ncols, field.zero)] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col] * (pow(work[rank][col], -1, p) if p else 1 / work[rank][col])
                work[i] = [norm(x - c * y) for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


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
        r = _dense_rank(rows, ncols, field)
        assert space.dim == r
        # Pivots are each row's smallest column, with entry 1, and no other row touches them.
        for row, p in zip(space.rows, space.pivot_of_row):
            assert min(row) == p and row[p] == field.one
            assert all(p not in other for other in space.rows if other is not row)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        other = Subspace(field)
        for row in shuffled:
            other.add(row)
        for probe in _random_rows(rng, field, 6, ncols) + rows:
            assert space.contains(probe) == (_dense_rank(rows + [probe], ncols, field) == r)
            res = space.residue(probe)
            assert not any(p in res for p in space.row_of_pivot)
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
