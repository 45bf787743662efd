"""Exact dense linear algebra over an arbitrary field of scalars.

Rows are plain lists of scalars (Fraction or ModInt).  Everything here is
plain Gaussian elimination; graded components at desk scale stay small, so
no effort is spent on asymptotics.
"""
from __future__ import annotations

from typing import Sequence


class Subspace:
    """A row space held in echelon form, with incremental insertion.

    Pivots are the leftmost nonzero positions, so if coordinates are listed
    in descending order of some term order, each echelon row's pivot is its
    leading coordinate under that order.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivot_of_row: list[int] = []
        self.row_of_pivot: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: list) -> list:
        for j in range(self.ncols):
            if not vec[j]:
                continue
            r = self.row_of_pivot.get(j)
            if r is None:
                return vec
            c = vec[j] / self.rows[r][j]
            row = self.rows[r]
            for k in range(j, self.ncols):
                if row[k]:
                    vec[k] = vec[k] - c * row[k]
        return vec

    def residue(self, vec: Sequence) -> list:
        return self._eliminate(list(vec))

    def contains(self, vec: Sequence) -> bool:
        return not any(self.residue(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True when it enlarged the space."""
        red = self._eliminate(list(vec))
        for j in range(self.ncols):
            if red[j]:
                # Normalize so the pivot entry is 1.
                c = red[j]
                red = [x / c for x in red]
                idx = len(self.rows)
                self.rows.append(red)
                self.pivot_of_row.append(j)
                self.row_of_pivot[j] = idx
                return True
        return False

    def extend(self, vecs) -> None:
        for v in vecs:
            self.add(v)


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    space = Subspace(ncols)
    space.extend(rows)
    return space.dim


def left_nullspace(rows: Sequence[Sequence], ncols: int, one) -> list[list]:
    """Coefficient vectors c with sum_i c_i * rows[i] = 0.

    Returned vectors have length len(rows); `one` is the field's 1 used to
    seed the bookkeeping identity block.
    """
    m = len(rows)
    zero = one - one
    aug = [list(rows[i]) + [one if j == i else zero for j in range(m)] for i in range(m)]
    width = ncols + m
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        target = None
        for r in range(m):
            if r in pivot_rows:
                continue
            if aug[r][col]:
                target = r
                break
        if target is None:
            continue
        pivot_rows.append(target)
        pivot_cols.append(col)
        prow = aug[target]
        for r in range(m):
            if r != target and aug[r][col]:
                c = aug[r][col] / prow[col]
                arow = aug[r]
                for k in range(col, width):
                    if prow[k]:
                        arow[k] = arow[k] - c * prow[k]
    out = []
    for r in range(m):
        if r in pivot_rows:
            continue
        if not any(aug[r][:ncols]):
            out.append(aug[r][ncols:])
    return out
