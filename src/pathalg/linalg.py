"""Exact sparse linear algebra over an arbitrary field of scalars.

A vector is a dict from column number to a nonzero scalar (Fraction or
ModInt); a missing column is zero.  A Subspace keeps its rows fully
reduced: each row's pivot is its smallest column, with entry 1, and no
other row has an entry on that column.  Listing coordinates in descending
order of a term order therefore makes each pivot the row's leading
coordinate, and the residue of a vector is the unique representative of
its class that is zero on every pivot column, whatever order the rows
were inserted in.  Only nonzero entries are ever stored or touched.
"""
from __future__ import annotations

from typing import Mapping, Sequence


def _axpy(out: dict, c, row: Mapping) -> None:
    """out -= c * row, in place, dropping entries that cancel."""
    for k, x in row.items():
        prev = out.get(k)
        if prev is None:
            out[k] = -(c * x)
        else:
            val = prev - c * x
            if val:
                out[k] = val
            else:
                del out[k]


class Subspace:
    """A row space in reduced echelon form, with incremental insertion."""

    def __init__(self):
        self.rows: list[dict] = []
        self.pivot_of_row: list[int] = []
        self.row_of_pivot: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residue(self, vec: Mapping) -> dict:
        """vec minus the unique element of the space that matches it on every pivot."""
        out = dict(vec)
        rows, row_of_pivot = self.rows, self.row_of_pivot
        # Rows vanish on each other's pivots, so vec's own pivot entries are
        # the coefficients, and each row is subtracted once.
        for j, c in vec.items():
            r = row_of_pivot.get(j)
            if r is not None:
                _axpy(out, c, rows[r])
        return out

    def contains(self, vec: Mapping) -> bool:
        return not self.residue(vec)

    def _insert(self, red: dict) -> bool:
        """Insert a vector that is already a residue; True when it was nonzero."""
        if not red:
            return False
        p = min(red)
        c = red[p]
        if c != 1:
            red = {k: x / c for k, x in red.items()}
        for row in self.rows:
            x = row.get(p)
            if x is not None:
                _axpy(row, x, red)
        self.row_of_pivot[p] = len(self.rows)
        self.rows.append(red)
        self.pivot_of_row.append(p)
        return True

    def add(self, vec: Mapping) -> bool:
        """Insert a vector; returns True when it enlarged the space."""
        return self._insert(self.residue(vec))


def left_nullspace(rows: Sequence[Mapping], one) -> list[dict]:
    """A basis of the coefficient vectors c with sum_i c_i * rows[i] = 0.

    Each returned vector is a dict from row number to scalar.  Row i is
    augmented by `one` on column offset + i, beyond every real column, and
    reduced against the rows before it; when nothing is left on the real
    columns, the augmented part is a null vector, with 1 on its own row.
    There are len(rows) - rank of them.
    """
    offset = 1 + max((max(row) for row in rows if row), default=-1)
    space = Subspace()
    out = []
    for i, row in enumerate(rows):
        aug = dict(row)
        aug[offset + i] = one
        red = space.residue(aug)
        if min(red) >= offset:
            out.append({k - offset: c for k, c in red.items()})
        else:
            space._insert(red)
    return out
