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


def _dense_rank(rows, ncols, zero):
    """Rank by textbook Gaussian elimination on dense copies."""
    work = [_dense(r, ncols, zero) for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col] / work[rank][col]
                work[i] = [x - c * y for x, y in zip(work[i], work[rank])]
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
            rows.append({k: x * c for k, x in rng.choice(rows).items()})
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
        space = Subspace()
        for row in rows:
            space.add(row)
        r = _dense_rank(rows, ncols, zero)
        assert space.dim == r
        # Pivots are each row's smallest column, with entry 1, and no other row touches them.
        for row, p in zip(space.rows, space.pivot_of_row):
            assert min(row) == p and row[p] == field.one
            assert all(p not in other for other in space.rows if other is not row)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        other = Subspace()
        for row in shuffled:
            other.add(row)
        for probe in _random_rows(rng, field, 6, ncols) + rows:
            assert space.contains(probe) == (_dense_rank(rows + [probe], ncols, zero) == r)
            res = space.residue(probe)
            assert not any(p in res for p in space.row_of_pivot)
            assert res == other.residue(probe)
            # probe - residue lies in the span.
            diff = dict(probe)
            for k, c in res.items():
                diff[k] = diff.get(k, zero) - c
            assert _dense_rank(rows + [{k: c for k, c in diff.items() if c}], ncols, zero) == r


@FIELDS
def test_left_nullspace_matches_dense_elimination(field):
    zero = field.zero
    for _rng, rows, ncols in _cases(field):
        null = left_nullspace(rows, field.one)
        assert len(null) == len(rows) - _dense_rank(rows, ncols, zero)
        for combo in null:
            total = [zero] * ncols
            for i, c in combo.items():
                for k, x in rows[i].items():
                    total[k] = total[k] + c * x
            assert not any(total)
        assert _dense_rank(null, len(rows), zero) == len(null)
