"""Exact sparse linear algebra over Q or F_p.

A vector is a dict from column to a nonzero scalar: over Q an int, or a
Fraction where one occurs; over F_p an int in [1, p).  A missing column is
zero.  Columns are ints, numbered by their callers so that the least is
the greatest in a term order: a block coordinate in the oracle, and in
completion a normal word times an arrow (`algebra.Levels`).  The field is
given when a Subspace is made.  A Subspace keeps its rows in echelon form: each row's pivot is
its smallest column, with entry 1, and no two rows share a pivot; that is
all it keeps.  Rows are not reduced against one another: a row is either
the residue of a vector against the rows before it (`add`) or a vector
whose least column is known to be no pivot yet, inserted as it is
(`insert`), so it may be nonzero on the pivots of other rows.  Listing
coordinates in descending order of a term order therefore makes each
pivot the row's leading coordinate, and the residue of a vector is the
unique representative of its class that is zero on every pivot column,
whatever order the rows were inserted in.  Only nonzero entries are ever
stored or touched.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Mapping, Sequence

from .fields import Field


class Subspace:
    """A row space in echelon form, with incremental insertion."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.characteristic
        self.rows: list[dict] = []
        self.pivot_of_row: list[int] = []
        self.row_of_pivot: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residue(self, vec: Mapping) -> dict:
        """vec minus the unique element of the space that matches it on every pivot."""
        out = dict(vec)
        rows, row_of_pivot, p = self.rows, self.row_of_pivot, self.p
        # Pivots are cleared in ascending order: a row's other entries lie
        # right of its pivot, so a cleared pivot never comes back.  A column
        # that cancels and reappears may be queued twice; the second pop
        # finds it absent.
        heap = [j for j in out if j in row_of_pivot]
        heapify(heap)
        while heap:
            j = heappop(heap)
            c = out.get(j)
            if c is None:
                continue
            for k, x in rows[row_of_pivot[j]].items():
                prev = out.get(k)
                if prev is None:
                    out[k] = -(c * x) % p if p else -(c * x)
                    if k in row_of_pivot:
                        heappush(heap, k)
                else:
                    val = (prev - c * x) % p if p else prev - c * x
                    if val:
                        out[k] = val
                    else:
                        del out[k]
        return out

    def contains(self, vec: Mapping) -> bool:
        return not self.residue(vec)

    def insert(self, vec: dict) -> bool:
        """Insert a vector as it is, scaled to be monic; True when it was nonzero.

        Its least column must be no row's pivot: a residue is one, and so is
        a vector whose lead is known to be new.
        """
        if not vec:
            return False
        piv = min(vec)
        c = vec[piv]
        if c != 1:
            p, inv = self.p, self.field.inverse(c)
            vec = {k: x * inv % p for k, x in vec.items()} if p else {k: x * inv for k, x in vec.items()}
        self.row_of_pivot[piv] = len(self.rows)
        self.rows.append(vec)
        self.pivot_of_row.append(piv)
        return True

    def add(self, vec: Mapping) -> bool:
        """Insert a vector; returns True when it enlarged the space."""
        return self.insert(self.residue(vec))


def left_nullspace(rows: Sequence[Mapping], field: Field) -> list[dict]:
    """A basis of the coefficient vectors c with sum_i c_i * rows[i] = 0, over `field`.

    Each returned vector is a dict from row number to scalar.  Row i is
    augmented by 1 on column offset + i, beyond every real column, and
    reduced against the rows before it; when nothing is left on the real
    columns, the augmented part is a null vector, with 1 on its own row.
    There are len(rows) - rank of them.
    """
    offset = 1 + max((max(row) for row in rows if row), default=-1)
    space = Subspace(field)
    one = field.one
    out = []
    for i, row in enumerate(rows):
        aug = dict(row)
        aug[offset + i] = one
        red = space.residue(aug)
        if min(red) >= offset:
            out.append({k - offset: c for k, c in red.items()})
        else:
            space.insert(red)
    return out
